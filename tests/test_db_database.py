"""Database façade: DDL, catalog, accounting."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.db import Database, DBError, UnknownTableError
from repro.db.storage import TABLE_META_KEYS
from repro.frame import Frame


@pytest.fixture()
def db(tmp_path):
    d = Database(tmp_path / "a.db")
    d.create_table(
        "halos",
        Frame(
            {
                "run": np.repeat([0, 1], 50),
                "step": np.tile([0, 624], 50),
                "mass": np.random.default_rng(0).lognormal(3, 1, 100),
                "count": np.arange(100, dtype=np.int64),
            }
        ),
        row_group_size=32,
    )
    return d


class TestCatalog:
    def test_list_tables(self, db):
        assert db.list_tables() == ["halos"]

    def test_schema(self, db):
        schema = db.schema("halos")
        assert schema["count"] == "int64"
        assert schema["mass"] == "float64"

    def test_unknown_table_error_lists_catalog(self, db):
        with pytest.raises(UnknownTableError) as exc:
            db.store("galaxies")
        assert "halos" in str(exc.value)

    def test_duplicate_create_rejected(self, db):
        with pytest.raises(DBError):
            db.create_table("halos")

    def test_invalid_name_rejected(self, db):
        with pytest.raises(DBError):
            db.create_table("bad name!")

    def test_drop(self, db):
        db.drop_table("halos")
        assert db.list_tables() == []

    def test_append(self, db):
        db.append("halos", Frame({"run": [9], "step": [0], "mass": [1.0], "count": [5]}))
        assert db.store("halos").num_rows == 101

    def test_persistence(self, db):
        reopened = Database(db.path)
        assert reopened.list_tables() == ["halos"]
        assert reopened.store("halos").num_rows == 100

    def test_nbytes(self, db):
        assert db.nbytes() > 0

    def test_describe(self, db):
        assert "halos: 100 rows" in db.describe()


class TestQueries:
    def test_select_star(self, db):
        out = db.query("SELECT * FROM halos")
        assert out.num_rows == 100
        assert set(out.columns) == {"run", "step", "mass", "count"}

    def test_ctas_persists(self, db):
        db.query("CREATE TABLE big AS SELECT * FROM halos WHERE mass > 20")
        assert "big" in db.list_tables()
        direct = db.query("SELECT COUNT(*) AS n FROM big")
        reference = db.query("SELECT COUNT(*) AS n FROM halos WHERE mass > 20")
        assert direct["n"][0] == reference["n"][0]

    def test_empty_result_has_columns(self, db):
        out = db.query("SELECT mass FROM halos WHERE mass < 0")
        assert out.num_rows == 0
        assert out.columns == ["mass"]

    def test_table_frame(self, db):
        f = db.table_frame("halos")
        assert f.num_rows == 100


class TestVersionsAndStates:
    def test_create_sets_version_one(self, tmp_path):
        db = Database(tmp_path / "v.db")
        db.create_table("t", Frame({"x": np.arange(5)}))
        assert db.table_version("t") == 1

    def test_append_bumps_catalog_version(self, tmp_path):
        db = Database(tmp_path / "v.db")
        db.create_table("t", Frame({"x": np.arange(5)}))
        db.append("t", Frame({"x": np.arange(5)}))
        assert db.table_version("t") == 2
        # and it persists across a reopen
        assert Database(tmp_path / "v.db").table_version("t") == 2

    def test_table_state_changes_with_content(self, tmp_path):
        db = Database(tmp_path / "v.db")
        db.create_table("t", Frame({"x": np.arange(5)}))
        s1 = db.table_state("t")
        db.append("t", Frame({"x": np.arange(5)}))
        assert db.table_state("t") != s1

    def test_identical_databases_share_state(self, tmp_path):
        a = Database(tmp_path / "a.db")
        b = Database(tmp_path / "b.db")
        for db in (a, b):
            db.create_table("t", Frame({"x": np.arange(50)}), row_group_size=10)
        assert a.table_state("t") == b.table_state("t")

    def test_unknown_table_version_raises(self, tmp_path):
        with pytest.raises(UnknownTableError):
            Database(tmp_path / "v.db").table_version("nope")


class TestCrashSafeCatalog:
    def test_no_temp_files_after_ddl(self, tmp_path):
        db = Database(tmp_path / "c.db")
        db.create_table("t", Frame({"x": np.arange(5)}))
        db.append("t", Frame({"x": np.arange(5)}))
        db.create_table("u", Frame({"y": np.arange(3)}))
        db.drop_table("u")
        assert list(db.path.glob("catalog.*.tmp")) == []

    def test_failed_flush_preserves_catalog(self, tmp_path, monkeypatch):
        """A commit record whose write fails part-way (a full disk) is cut
        back off the log, and the create's staged row groups go with it."""
        from repro.db.wal import CatalogLog

        db = Database(tmp_path / "c.db")
        db.create_table("t", Frame({"x": np.arange(5)}))
        (log,) = db.path.glob("catalog.*.log")
        good = log.read_bytes()

        def short_write(self, state, record):
            with open(self.log_path(state), "ab") as fh:
                fh.write(b"RCAT1\n\x40")
            raise OSError("no space left on device")

        monkeypatch.setattr(CatalogLog, "append", short_write)
        with pytest.raises(OSError):
            db.create_table("u", Frame({"y": np.arange(3)}))
        assert log.read_bytes() == good
        assert not (db.path / "u").exists()
        assert Database(tmp_path / "c.db").list_tables() == ["t"]

    def test_failed_drop_publish_keeps_the_table_readable(self, tmp_path, monkeypatch):
        """A drop whose catalog publish fails must leave the table's
        segments in place: the catalog still lists it."""
        db = Database(tmp_path / "c.db")
        db.create_table("t", Frame({"a": np.arange(5)}))

        def failing_flush(state, record):
            raise OSError("simulated commit failure")

        monkeypatch.setattr(db, "_flush_catalog", failing_flush)
        with pytest.raises(OSError):
            db.drop_table("t")
        reopened = Database(tmp_path / "c.db", result_cache=False)
        assert reopened.list_tables() == ["t"]
        assert reopened.query("SELECT COUNT(*) AS n FROM t")["n"][0] == 5


def _assert_refused(path, key):
    row = Frame({"run": [9], "step": [0], "mass": [1.0], "count": [5]})
    for attempt in (
        lambda d: d.query("SELECT COUNT(*) AS n FROM halos"),
        lambda d: d.store("halos"),
        lambda d: d.append("halos", row),
    ):
        with pytest.raises(DBError, match="regenerate the workdir") as exc:
            attempt(Database(path, result_cache=False))
        assert "'halos'" in str(exc.value) and key in str(exc.value)


class TestOneTableFormat:
    """The catalog (``catalog.json`` plus its log) is a database's only
    metadata: every entry carries the table metadata (columns and the
    three per-row-group lists) beside its version, and an entry without
    one of them is refused by name, not guessed at."""

    @pytest.mark.parametrize("key", (*TABLE_META_KEYS, "generation"))
    def test_older_dialects_are_refused_by_name(self, db, key):
        db.recover()  # folds the log into catalog.json
        path = db.path / "catalog.json"
        content = json.loads(path.read_text())
        del content["tables"]["halos"][key]
        path.write_text(json.dumps(content))
        _assert_refused(db.path, key)

    def test_a_catalog_with_per_table_meta_files_is_refused(self, db):
        """The layout that kept the metadata in ``<table>/meta.json`` and a
        ``committed_row_groups`` clamp in the catalog entry."""
        db.recover()
        path = db.path / "catalog.json"
        content = json.loads(path.read_text())
        entry = content["tables"]["halos"]
        meta = {key: entry[key] for key in TABLE_META_KEYS}
        (db.path / "halos" / "meta.json").write_text(json.dumps({**meta, "version": 1}))
        old = {"row_group_size": 32, "version": 1, "committed_row_groups": 4,
               "committed_rows": 100}
        path.write_text(json.dumps({**content, "tables": {"halos": old}}, indent=1))
        _assert_refused(db.path, ", ".join(TABLE_META_KEYS))

    def test_a_catalog_without_a_commit_sequence_is_refused(self, db):
        """A ``catalog.json`` written before the catalog log: one bare
        entry per table, republished by every commit."""
        db.recover()
        path = db.path / "catalog.json"
        path.write_text(json.dumps(json.loads(path.read_text())["tables"]))
        with pytest.raises(DBError, match=r"\(no commit sequence\); regenerate the workdir"):
            Database(db.path)

    def test_table_created_empty_has_no_meta_and_opens(self, tmp_path):
        d = Database(tmp_path / "e.db")
        d.create_table("t")
        assert [p.name for p in d.path.iterdir()] == ["catalog.0.log"]
        reopened = Database(d.path)
        assert reopened.store("t").num_rows == 0
        reopened.append("t", Frame({"x": np.arange(3)}))
        assert Database(d.path).query("SELECT COUNT(*) AS n FROM t")["n"][0] == 3


class TestOneCommitFile:
    def test_every_write_appends_one_record_and_nothing_else(
        self, tmp_path, monkeypatch
    ):
        """A populated create or append, and a drop, each append one record
        to the catalog log and publish no file; the directory then holds
        only the log and one file per row group."""
        import repro.durable as durable_mod
        from repro.db.wal import CatalogLog

        published, real_replace = [], durable_mod.os.replace
        appended, real_append = [], CatalogLog.append

        def counting_replace(src, dst):
            published.append(Path(dst).name)
            return real_replace(src, dst)

        def counting_append(self, state, record):
            appended.append(record["kind"])
            return real_append(self, state, record)

        db = Database(tmp_path / "f.db", result_cache=False)
        with monkeypatch.context() as patched:
            patched.setattr(durable_mod.os, "replace", counting_replace)
            patched.setattr(CatalogLog, "append", counting_append)
            db.create_table("t", Frame({"x": np.arange(50)}), row_group_size=16)
            db.append("t", Frame({"x": np.arange(8)}))
            db.create_table("u", Frame({"y": np.arange(3)}))
            db.drop_table("u")
        assert published == []
        assert appended == ["create", "append", "create", "drop"]

        files = sorted(
            str(p.relative_to(db.path)) for p in db.path.rglob("*") if p.is_file()
        )
        gen = db.store("t").path.name
        assert files == ["catalog.0.log", *(f"t/{gen}/rg{i:05d}" for i in range(5))]
        assert Database(db.path).store("t").num_rows == 58
