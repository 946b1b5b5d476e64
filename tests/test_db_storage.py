"""Row-group storage: append, scan, memory-bounded access."""

import numpy as np
import pytest

from repro.db.errors import DBError, UnknownColumnError
from repro.db.storage import TableStore
from repro.frame import Frame


@pytest.fixture()
def store(tmp_path):
    return TableStore(tmp_path / "t")


def make_frame(n, offset=0):
    return Frame({"a": np.arange(offset, offset + n), "x": np.arange(n) * 0.5})


class TestAppendScan:
    def test_append_creates_row_groups(self, store):
        store.append(make_frame(250), row_group_size=100)
        assert store.num_row_groups == 3
        assert store.num_rows == 250

    def test_scan_yields_chunks(self, store):
        store.append(make_frame(250), row_group_size=100)
        chunks = list(store.scan())
        assert [c.num_rows for c in chunks] == [100, 100, 50]

    def test_read_all_round_trip(self, store):
        f = make_frame(123)
        store.append(f, row_group_size=40)
        g = store.read_all()
        assert np.array_equal(g["a"], f["a"])
        assert np.array_equal(g["x"], f["x"])

    def test_multiple_appends(self, store):
        store.append(make_frame(50), row_group_size=30)
        store.append(make_frame(50, offset=50), row_group_size=30)
        assert store.num_rows == 100
        assert list(store.read_all()["a"][:3]) == [0, 1, 2]
        assert store.read_all()["a"][-1] == 99

    def test_schema_mismatch_rejected(self, store):
        store.append(make_frame(10))
        with pytest.raises(DBError, match="schema"):
            store.append(Frame({"a": [1]}))

    def test_column_selection_on_scan(self, store):
        store.append(make_frame(10))
        chunk = next(store.scan(["x"]))
        assert chunk.columns == ["x"]

    def test_unknown_column(self, store):
        store.append(make_frame(10))
        with pytest.raises(UnknownColumnError):
            store.read_row_group(0, ["nope"])

    def test_row_group_out_of_range(self, store):
        store.append(make_frame(10))
        with pytest.raises(DBError):
            store.read_row_group(5)

    def test_persistence_across_reopen(self, tmp_path):
        s1 = TableStore(tmp_path / "t")
        s1.append(make_frame(30), row_group_size=10)
        s2 = TableStore(tmp_path / "t")
        assert s2.num_rows == 30
        assert s2.columns == ["a", "x"]

    def test_dtype_preserved(self, store):
        store.append(Frame({"i": np.asarray([1, 2], dtype=np.int32)}))
        assert store.dtype_of("i") == np.int32
        assert store.read_all()["i"].dtype == np.int32

    def test_string_columns(self, store):
        store.append(Frame({"s": np.asarray(["aa", "bbb"], dtype=object)}))
        out = store.read_all()
        assert list(out["s"]) == ["aa", "bbb"]

    def test_nbytes_counts_segments(self, store):
        store.append(make_frame(100), row_group_size=50)
        assert store.nbytes() > 100 * 8

    def test_drop_removes_files(self, store, tmp_path):
        store.append(make_frame(10))
        store.drop()
        assert not (tmp_path / "t").exists()

    def test_mmap_read_is_lazy(self, store):
        store.append(make_frame(1000), row_group_size=100)
        chunk = store.read_row_group(0, ["a"], mmap=True)
        assert isinstance(chunk["a"], np.ndarray)
        assert chunk["a"][5] == 5


class TestVersioningAndSignatures:
    def test_version_bumps_on_append(self, store):
        assert store.version == 0
        store.append(make_frame(10))
        assert store.version == 1
        store.append(make_frame(10))
        assert store.version == 2

    def test_version_survives_reload(self, store, tmp_path):
        store.append(make_frame(10))
        assert TableStore(tmp_path / "t").version == 1

    def test_identical_content_identical_signature(self, tmp_path):
        a, b = TableStore(tmp_path / "a"), TableStore(tmp_path / "b")
        a.append(make_frame(100), row_group_size=30)
        b.append(make_frame(100), row_group_size=30)
        assert a.content_signature() == b.content_signature()
        assert a.content_signature() is not None

    def test_different_content_different_signature(self, tmp_path):
        a, b = TableStore(tmp_path / "a"), TableStore(tmp_path / "b")
        a.append(make_frame(100))
        b.append(make_frame(100, offset=1))
        assert a.content_signature() != b.content_signature()

    def test_signature_changes_on_append(self, store):
        store.append(make_frame(10))
        before = store.content_signature()
        store.append(make_frame(10, offset=10))
        assert store.content_signature() != before


class TestCrashSafeMeta:
    def test_no_temp_files_left_behind(self, store, tmp_path):
        store.append(make_frame(100), row_group_size=30)
        store.append(make_frame(50), row_group_size=30)
        leftovers = list((tmp_path / "t").glob("meta.*.tmp"))
        assert leftovers == []

    def test_meta_always_valid_json(self, store, tmp_path):
        import json

        store.append(make_frame(10))
        doc = json.loads((tmp_path / "t" / "meta.json").read_text())
        assert doc["version"] == 1
        assert len(doc["checksums"]) == len(doc["row_groups"])

    def test_failed_write_preserves_old_meta(self, store, tmp_path, monkeypatch):
        """If the replace step never happens, the previous meta survives."""
        import json

        store.append(make_frame(10))
        good = (tmp_path / "t" / "meta.json").read_text()

        import repro.durable as durable_mod

        def exploding_replace(src, dst):
            raise OSError("simulated crash")

        monkeypatch.setattr(durable_mod.os, "replace", exploding_replace)
        with pytest.raises(OSError):
            store.append(make_frame(10))
        assert (tmp_path / "t" / "meta.json").read_text() == good
        reloaded = TableStore(tmp_path / "t")
        assert reloaded.version == 1 and reloaded.num_rows == 10
