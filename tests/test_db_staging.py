"""Staging through ``Database``: a write's new row groups are on disk
before its catalog entry is, and nothing of them shows until that entry is
published; the new entry shares the per-row-group docs of the old one and
copies only the lists it grows."""

import copy

import numpy as np
import pytest

from repro import faults
from repro.db import Database
from repro.db.errors import IngestKilled
from repro.frame import Frame

PER_GROUP_KEYS = ("zone_maps", "blooms", "checksums")


def make_frame(n, offset=0):
    return Frame({"a": np.arange(offset, offset + n), "x": np.arange(n) * 0.5})


@pytest.fixture()
def db(tmp_path):
    db = Database(tmp_path / "db", result_cache=False)
    db.create_table("t", make_frame(25), row_group_size=10)
    return db


def on_publish(monkeypatch, check):
    """Run ``check(handle, tables)`` just before each catalog publish."""
    real = Database._flush_catalog
    calls = []

    def checked(self, tables):
        check(self, tables)
        calls.append(tables)
        real(self, tables)

    monkeypatch.setattr(Database, "_flush_catalog", checked)
    return calls


class TestStagedIsInvisible:
    def test_until_published(self, db, monkeypatch):
        entry = copy.deepcopy(db._tables["t"])
        version, signature = db.table_version("t"), db.store("t").content_signature()
        on_disk = (db.path / "catalog.json").read_bytes()

        def staged_but_not_committed(handle, tables):
            assert (db.store("t").path / "rg00005").is_file()
            assert len(tables["t"]["row_groups"]) == 6
            assert handle._tables["t"] == entry
            assert (db.path / "catalog.json").read_bytes() == on_disk
            for reader in (handle, Database(db.path, result_cache=False)):
                store = reader.store("t")
                assert (reader.table_version("t"), store.content_signature()) == (
                    version, signature
                )
                assert (store.num_row_groups, store.num_rows) == (3, 25)

        calls = on_publish(monkeypatch, staged_but_not_committed)
        db.append("t", make_frame(25, offset=25))
        assert len(calls) == 1
        store = db.store("t")
        assert (db.table_version("t"), store.num_row_groups, store.num_rows) == (
            version + 1, 6, 50
        )
        assert Database(db.path)._tables == db._tables

    def test_first_append_stages_its_schema_aside(self, tmp_path, monkeypatch):
        db = Database(tmp_path / "db", result_cache=False)
        db.create_table("new")

        def schema_staged_aside(handle, tables):
            assert list(tables["new"]["columns"]) == ["a", "x"]
            assert handle._tables["new"]["columns"] == {}
            assert handle.store("new").columns == []

        calls = on_publish(monkeypatch, schema_staged_aside)
        db.append("new", make_frame(5))
        assert len(calls) == 1 and db.store("new").columns == ["a", "x"]

    def test_kill_mid_stage_leaves_meta_untouched(self, db):
        entry = copy.deepcopy(db._tables["t"])
        # at this seed the kill strikes the fourth new group, after three
        # have been staged
        profile = faults.FaultProfile(seed=6, ingest_partial_row_group=0.5)
        with faults.use_faults(faults.FaultInjector(profile)), faults.arm_ingest_kills():
            with pytest.raises(IngestKilled, match="rg00006"):
                db.append("t", make_frame(60, offset=25))
        assert (db.store("t").path / "rg00005").is_file()
        assert db._tables["t"] == entry
        assert Database(db.path)._tables["t"] == entry
        assert db.store("t").num_row_groups == 3


class TestStagingCost:
    def test_appends_share_every_earlier_doc(self, tmp_path):
        """200 appends copy 200 docs' worth of metadata, not 200**2 / 2."""
        db = Database(tmp_path / "db", result_cache=False)
        db.create_table("t")
        copied = 0
        for i in range(200):
            old = db._tables["t"]
            before = {id(doc) for key in PER_GROUP_KEYS for doc in old[key]}
            db.append("t", make_frame(4, offset=4 * i))
            new = db._tables["t"]
            copied += sum(
                id(doc) not in before for key in PER_GROUP_KEYS for doc in new[key]
            )
            for key in ("row_groups", *PER_GROUP_KEYS):
                assert new[key] is not old[key]
        assert copied == 200 * len(PER_GROUP_KEYS)
        assert db.store("t").num_row_groups == 200 and db.table_version("t") == 201
        reopened = Database(db.path)
        assert reopened._tables == db._tables
        assert np.array_equal(reopened.store("t").read_all(["a"])["a"], np.arange(800))
