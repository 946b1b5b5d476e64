"""Row-group storage through ``Database``: append, scan, memory-bounded
access, signatures, and a catalog commit that fails leaving the old one."""

import json
import threading

import numpy as np
import pytest

from repro.db import Database
from repro.db.errors import DBError, UnknownColumnError
from repro.frame import Frame
from repro.gio.format import ALIGNMENT, GIOFile
from repro.sandbox.safety import AST_LOCK


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

    def test_wider_strings_widen_the_recorded_dtype(self, table):
        """An append never truncates and never leaves the schema narrower
        than what it stored: empty and non-empty results agree."""
        table.append(Frame({"s": np.asarray(["ab", "cd"])}))
        table.append(Frame({"s": np.asarray(["abcdefgh"])}))
        table.append(Frame({"s": np.asarray(["x"])}))
        assert table.db.schema("t") == {"s": "str256"}
        full = table.db.query("SELECT s FROM t")
        empty = table.db.query("SELECT s FROM t WHERE s = 'none'")
        assert full["s"].tolist() == ["ab", "cd", "abcdefgh", "x"]
        assert full["s"].dtype == empty["s"].dtype == np.dtype("<U8")

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

    def test_segment_read_does_not_wait_for_the_ast_lock(self, table):
        """A row-group read parses a JSON header, never a Python AST, so
        it completes while another thread holds :data:`AST_LOCK` (the
        sandbox audit's lock)."""
        table.append(make_frame(10))
        opened = []
        reader = threading.Thread(
            target=lambda: opened.append(table.store.read_row_group(0, ["a"]))
        )
        with AST_LOCK:
            reader.start()
            reader.join(timeout=10.0)
            assert not reader.is_alive()
        assert len(opened) == 1 and list(opened[0]["a"]) == list(range(10))

    def test_one_file_per_row_group_with_every_column(self, table):
        """A row group is one ``repro.gio`` file holding every column,
        each 64-byte aligned, its checksums equal to the catalog's."""
        table.append(make_frame(250), row_group_size=100)
        files = sorted(p.name for p in table.store.path.iterdir())
        assert files == ["rg00000", "rg00001", "rg00002"]
        entry = json.loads((table.db.path / "catalog.json").read_text())["t"]
        for index, name in enumerate(files):
            gio = GIOFile(table.store.path / name)
            assert gio.columns == ["a", "x"]
            assert all(gio._entry(c)["offset"] % ALIGNMENT == 0 for c in gio.columns)
            assert {c: gio._entry(c)["crc32"] for c in gio.columns} == entry["checksums"][index]
            assert np.array_equal(gio.read_column("a"), table.store.read_row_group(index)["a"])

    def test_segment_reads_stay_memory_mapped(self, table):
        table.append(make_frame(1000), row_group_size=100)
        chunk = table.store.read_row_group(3, ["x", "a"])
        assert all(isinstance(chunk[c], np.memmap) for c in ("x", "a"))
        copied = table.store.read_row_group(3, ["x"], mmap=False)["x"]
        assert not isinstance(copied, np.memmap) and copied.base is None

    def test_corrupt_row_group_is_a_db_error(self, table):
        table.append(make_frame(100), row_group_size=50)
        path = table.store.path / "rg00001"
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(DBError, match="row group 1 is corrupt.*truncated column 'x'"):
            table.store.read_row_group(1, ["x"])
        assert list(table.store.read_row_group(0, ["a"])["a"]) == list(range(50))


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
        assert not list(table.db.path.glob("t/*/rg00001"))
        reloaded = Database(table.db.path)
        assert reloaded.table_version("t") == 1 and reloaded.store("t").num_rows == 10
