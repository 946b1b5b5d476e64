"""``TableStore.stage_append``: the staged doc shares the per-row-group
docs of the published meta and copies only the containers it grows, yet
nothing of it shows until ``publish_staged``."""

import copy

import numpy as np
import pytest

from repro import faults
from repro.db.errors import IngestKilled
from repro.db.storage import TableStore
from repro.frame import Frame

PER_GROUP_KEYS = ("zone_maps", "blooms", "checksums")


def make_frame(n, offset=0):
    return Frame({"a": np.arange(offset, offset + n), "x": np.arange(n) * 0.5})


@pytest.fixture()
def store(tmp_path):
    store = TableStore(tmp_path / "t")
    store.append(make_frame(25), row_group_size=10)
    return store


class TestStagedIsInvisible:
    def test_until_published(self, store):
        meta = copy.deepcopy(store._meta)
        version, signature = store.version, store.content_signature()
        on_disk = (store.path / "meta.json").read_bytes()

        staged = store.stage_append(make_frame(25, offset=25), row_group_size=10)

        assert len(staged["row_groups"]) == 6
        assert store._meta == meta
        assert (store.version, store.content_signature()) == (version, signature)
        assert (store.num_row_groups, store.num_rows) == (3, 25)
        assert (store.path / "meta.json").read_bytes() == on_disk
        other = TableStore(store.path)
        assert other._meta == meta
        assert (other.version, other.content_signature()) == (version, signature)

        store.publish_staged(staged)
        assert (store.version, store.num_row_groups, store.num_rows) == (version + 1, 6, 50)
        assert TableStore(store.path)._meta == store._meta

    def test_first_append_stages_its_schema_aside(self, tmp_path):
        store = TableStore(tmp_path / "new")
        staged = store.stage_append(make_frame(5))
        assert list(staged["columns"]) == ["a", "x"]
        assert store._meta == {"columns": {}, "row_groups": []}
        assert store.columns == [] and not (store.path / "meta.json").exists()

    def test_kill_mid_stage_leaves_meta_untouched(self, store):
        meta = copy.deepcopy(store._meta)
        # at this seed the kill strikes the fourth new group, after three
        # have been appended to the staged lists
        profile = faults.FaultProfile(seed=6, ingest_partial_row_group=0.5)
        with faults.use_faults(faults.FaultInjector(profile)), faults.arm_ingest_kills():
            with pytest.raises(IngestKilled, match="rg00006"):
                store.stage_append(make_frame(60, offset=25), row_group_size=10)
        assert store._meta == meta
        assert TableStore(store.path)._meta == meta
        assert store.num_row_groups == 3


class TestStagingCost:
    def test_appends_share_every_earlier_doc(self, tmp_path):
        """200 appends copy 200 docs' worth of metadata, not 200**2 / 2."""
        store = TableStore(tmp_path / "t")
        copied = 0
        for i in range(200):
            before = {id(doc) for key in PER_GROUP_KEYS for doc in store._meta.get(key, ())}
            staged = store.stage_append(make_frame(4, offset=4 * i))
            copied += sum(
                id(doc) not in before for key in PER_GROUP_KEYS for doc in staged[key]
            )
            for key in ("row_groups", *PER_GROUP_KEYS):
                assert staged[key] is not store._meta.get(key)
            store.publish_staged(staged)
        assert copied == 200 * len(PER_GROUP_KEYS)
        assert store.num_row_groups == 200 and store.version == 200
        reopened = TableStore(store.path)
        assert reopened._meta == store._meta
        assert np.array_equal(reopened.read_all(["a"])["a"], np.arange(800))
