"""Row-group storage through ``Database``: append, scan, memory-bounded
access, signatures, and a catalog commit that fails leaving the old one."""

import json

import numpy as np
import pytest

from repro.db import Database
from repro.db.errors import DBError, UnknownColumnError
from repro.frame import Frame


def make_frame(n, offset=0):
    return Frame({"a": np.arange(offset, offset + n), "x": np.arange(n) * 0.5})


class Table:
    """One table ``t`` of a fresh database, written through its public API."""

    def __init__(self, path):
        self.db = Database(path, result_cache=False)

    def append(self, frame, row_group_size=65536):
        if self.db.has_table("t"):
            self.db.append("t", frame)
        else:
            self.db.create_table("t", frame, row_group_size=row_group_size)

    @property
    def store(self):
        return self.db.store("t")


@pytest.fixture()
def table(tmp_path):
    return Table(tmp_path / "db")


class TestAppendScan:
    def test_append_creates_row_groups(self, table):
        table.append(make_frame(250), row_group_size=100)
        assert table.store.num_row_groups == 3
        assert table.store.num_rows == 250

    def test_scan_yields_chunks(self, table):
        table.append(make_frame(250), row_group_size=100)
        chunks = list(table.store.scan())
        assert [c.num_rows for c in chunks] == [100, 100, 50]

    def test_read_all_round_trip(self, table):
        f = make_frame(123)
        table.append(f, row_group_size=40)
        g = table.store.read_all()
        assert np.array_equal(g["a"], f["a"])
        assert np.array_equal(g["x"], f["x"])

    def test_multiple_appends(self, table):
        table.append(make_frame(50), row_group_size=30)
        table.append(make_frame(50, offset=50))
        assert table.store.num_rows == 100
        assert table.store.num_row_groups == 4
        assert list(table.store.read_all()["a"][:3]) == [0, 1, 2]
        assert table.store.read_all()["a"][-1] == 99

    def test_schema_mismatch_rejected(self, table):
        table.append(make_frame(10))
        with pytest.raises(DBError, match="schema"):
            table.append(Frame({"a": [1]}))

    def test_column_selection_on_scan(self, table):
        table.append(make_frame(10))
        chunk = next(table.store.scan(["x"]))
        assert chunk.columns == ["x"]

    def test_unknown_column(self, table):
        table.append(make_frame(10))
        with pytest.raises(UnknownColumnError):
            table.store.read_row_group(0, ["nope"])

    def test_row_group_out_of_range(self, table):
        table.append(make_frame(10))
        with pytest.raises(DBError):
            table.store.read_row_group(5)

    def test_persistence_across_reopen(self, table):
        table.append(make_frame(30), row_group_size=10)
        reopened = Database(table.db.path).store("t")
        assert reopened.num_rows == 30
        assert reopened.columns == ["a", "x"]

    def test_dtype_preserved(self, table):
        table.append(Frame({"i": np.asarray([1, 2], dtype=np.int32)}))
        assert table.store.dtype_of("i") == np.int32
        assert table.store.read_all()["i"].dtype == np.int32

    def test_string_columns(self, table):
        table.append(Frame({"s": np.asarray(["aa", "bbb"], dtype=object)}))
        out = table.store.read_all()
        assert list(out["s"]) == ["aa", "bbb"]

    def test_nbytes_counts_segments(self, table):
        table.append(make_frame(100), row_group_size=50)
        assert table.store.nbytes() > 100 * 8

    def test_drop_removes_files(self, table):
        table.append(make_frame(10))
        table.db.drop_table("t")
        assert not (table.db.path / "t").exists()

    def test_mmap_read_is_lazy(self, table):
        table.append(make_frame(1000), row_group_size=100)
        chunk = table.store.read_row_group(0, ["a"], mmap=True)
        assert isinstance(chunk["a"], np.ndarray)
        assert chunk["a"][5] == 5


class TestVersioningAndSignatures:
    def test_version_bumps_on_append(self, table):
        table.append(make_frame(10))
        assert table.db.table_version("t") == 1
        table.append(make_frame(10))
        assert table.db.table_version("t") == 2

    def test_version_survives_reload(self, table):
        table.append(make_frame(10))
        assert Database(table.db.path).table_version("t") == 1

    def test_identical_content_identical_signature(self, tmp_path):
        a, b = Table(tmp_path / "a"), Table(tmp_path / "b")
        a.append(make_frame(100), row_group_size=30)
        b.append(make_frame(100), row_group_size=30)
        assert a.store.content_signature() == b.store.content_signature()
        assert a.store.content_signature() is not None

    def test_different_content_different_signature(self, tmp_path):
        a, b = Table(tmp_path / "a"), Table(tmp_path / "b")
        a.append(make_frame(100))
        b.append(make_frame(100, offset=1))
        assert a.store.content_signature() != b.store.content_signature()

    def test_signature_changes_on_append(self, table):
        table.append(make_frame(10))
        before = table.store.content_signature()
        table.append(make_frame(10, offset=10))
        assert table.store.content_signature() != before


class TestCrashSafeMeta:
    def test_no_temp_files_left_behind(self, table):
        table.append(make_frame(100), row_group_size=30)
        table.append(make_frame(50))
        assert list(table.db.path.rglob("*.tmp")) == []

    def test_meta_always_valid_json(self, table):
        table.append(make_frame(10))
        entry = json.loads((table.db.path / "catalog.json").read_text())["t"]
        assert entry["version"] == 1
        assert len(entry["checksums"]) == len(entry["row_groups"])
        assert not list(table.db.path.rglob("meta.json"))

    def test_failed_write_preserves_old_meta(self, table, monkeypatch):
        """If the replace step never happens, the previous catalog
        survives and the staged row group is discarded."""
        import repro.durable as durable_mod

        table.append(make_frame(10))
        good = (table.db.path / "catalog.json").read_text()

        def exploding_replace(src, dst):
            raise OSError("simulated crash")

        monkeypatch.setattr(durable_mod.os, "replace", exploding_replace)
        with pytest.raises(OSError):
            table.append(make_frame(10))
        monkeypatch.undo()
        assert (table.db.path / "catalog.json").read_text() == good
        assert not (table.db.path / "t" / "rg00001").exists()
        reloaded = Database(table.db.path)
        assert reloaded.table_version("t") == 1 and reloaded.store("t").num_rows == 10
