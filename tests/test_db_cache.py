"""Semantic query-result cache: byte-identity, invalidation, incremental
re-execution, disk sharing, and bounded memory (repro.db.cache)."""

import json

import numpy as np
import pytest

from repro import faults
from repro.db import Database
from repro.db import cache as qcache
from repro.db.cache import (
    QUARANTINE_DIRNAME,
    QueryCacheStats,
    clear_memory_cache,
    stats_snapshot,
)
from repro.faults import NO_FAULTS, FaultInjector, use_faults
from repro.frame import Frame


@pytest.fixture(autouse=True)
def cold_cache():
    """Every test starts with empty in-process tiers (they are module-global)."""
    clear_memory_cache()
    yield
    clear_memory_cache()


def make_frame(n=1000, seed=0):
    rng = np.random.default_rng(seed)
    return Frame(
        {
            "step": np.repeat(np.arange(n // 100), 100).astype(np.int64),
            "mass": rng.lognormal(3, 1, n),
            "count": rng.integers(1, 500, n),
            "tag": np.asarray([f"halo_{i % 7}" for i in range(n)]),
        }
    )


@pytest.fixture()
def db(tmp_path):
    d = Database(tmp_path / "c.db", cache_dir=tmp_path / "qc")
    d.create_table("halos", make_frame(), row_group_size=100)
    return d


@pytest.fixture()
def oracle(tmp_path):
    d = Database(tmp_path / "oracle.db", result_cache=False)
    d.create_table("halos", make_frame(), row_group_size=100)
    return d


def assert_frames_byte_identical(a: Frame, b: Frame):
    assert list(a.columns) == list(b.columns)
    assert a.num_rows == b.num_rows
    for name in a.columns:
        ca, cb = np.asarray(a.column(name)), np.asarray(b.column(name))
        assert ca.dtype == cb.dtype, name
        assert ca.tobytes() == cb.tobytes(), name


QUERIES = [
    "SELECT mass, count FROM halos WHERE step = 3",
    "SELECT * FROM halos WHERE mass > 20 AND count < 100",
    "SELECT step, COUNT(*) AS n, AVG(mass) AS m FROM halos GROUP BY step ORDER BY step",
    "SELECT tag, mass FROM halos ORDER BY mass DESC LIMIT 17",
    "SELECT DISTINCT tag FROM halos ORDER BY tag",
]


class TestByteIdentity:
    @pytest.mark.parametrize("sql", QUERIES)
    def test_memory_hit_identical_to_uncached(self, db, oracle, sql):
        cold = db.query(sql)
        before = stats_snapshot()
        warm = db.query(sql)
        assert stats_snapshot().delta(before).memory_hits == 1
        assert_frames_byte_identical(warm, oracle.query(sql))
        assert_frames_byte_identical(warm, cold)

    @pytest.mark.parametrize("sql", QUERIES)
    def test_disk_hit_identical_to_uncached(self, db, oracle, sql):
        db.query(sql)
        clear_memory_cache()  # force the disk tier, like a fresh process
        before = stats_snapshot()
        warm = db.query(sql)
        assert stats_snapshot().delta(before).disk_hits == 1
        assert_frames_byte_identical(warm, oracle.query(sql))

    def test_normalized_variants_share_one_entry(self, db):
        before = stats_snapshot()
        db.query("SELECT mass, count FROM halos WHERE step = 3 AND count > 10")
        db.query("SELECT h.mass, h.count FROM halos h WHERE 10 < h.count AND h.step = 3")
        delta = stats_snapshot().delta(before)
        assert delta.misses == 1 and delta.memory_hits == 1


class TestInvalidation:
    def test_append_bumps_version_and_invalidates(self, db, tmp_path):
        """Appending rows must provably orphan every stale cached result."""
        sql = "SELECT COUNT(*) AS n FROM halos WHERE step = 0"
        assert db.query(sql)["n"][0] == 100
        assert db.table_version("halos") == 1

        extra = make_frame(200, seed=9)
        db.append("halos", extra)
        assert db.table_version("halos") == 2

        before = stats_snapshot()
        fresh = db.query(sql)
        delta = stats_snapshot().delta(before)
        assert delta.memory_hits == 0 and delta.disk_hits == 0
        assert delta.misses == 1 and delta.invalidations == 1
        # the new rows (step 0 and 1 only in a 200-row frame) are visible
        expected = 100 + int((np.asarray(extra.column("step")) == 0).sum())
        assert fresh["n"][0] == expected

        oracle = Database(tmp_path / "inv_oracle.db", result_cache=False)
        oracle.create_table("halos", make_frame(), row_group_size=100)
        oracle.append("halos", extra)
        assert_frames_byte_identical(fresh, oracle.query(sql))

    def test_drop_and_recreate_not_served_stale(self, db):
        sql = "SELECT COUNT(*) AS n FROM halos"
        assert db.query(sql)["n"][0] == 1000
        db.drop_table("halos")
        db.create_table("halos", make_frame(300, seed=4), row_group_size=100)
        assert db.query(sql)["n"][0] == 300


class TestIncrementalReexecution:
    def test_narrower_where_refilters_cached_parent(self, db, oracle):
        db.query("SELECT mass, count, step FROM halos WHERE mass > 15")
        before = stats_snapshot()
        sql = "SELECT mass, count, step FROM halos WHERE mass > 15 AND count < 50"
        out = db.query(sql)
        delta = stats_snapshot().delta(before)
        assert delta.incremental_hits == 1 and delta.misses == 0
        assert_frames_byte_identical(out, oracle.query(sql))

    def test_projection_narrowing_over_star_parent(self, db, oracle):
        db.query("SELECT * FROM halos WHERE step = 2")
        before = stats_snapshot()
        sql = "SELECT mass FROM halos WHERE step = 2 AND mass > 10"
        out = db.query(sql)
        assert stats_snapshot().delta(before).incremental_hits == 1
        assert_frames_byte_identical(out, oracle.query(sql))

    def test_child_may_group_and_order(self, db, oracle):
        db.query("SELECT step, mass FROM halos WHERE mass > 5")
        before = stats_snapshot()
        sql = ("SELECT step, COUNT(*) AS n FROM halos "
               "WHERE mass > 5 AND step >= 3 GROUP BY step ORDER BY step")
        out = db.query(sql)
        assert stats_snapshot().delta(before).incremental_hits == 1
        assert_frames_byte_identical(out, oracle.query(sql))

    def test_limited_parent_is_not_reused(self, db, oracle):
        """A LIMITed parent saw a subset of rows; narrowing it would lie."""
        db.query("SELECT mass FROM halos WHERE mass > 5 LIMIT 10")
        before = stats_snapshot()
        sql = "SELECT mass FROM halos WHERE mass > 5 AND mass < 30 LIMIT 10"
        out = db.query(sql)
        delta = stats_snapshot().delta(before)
        assert delta.incremental_hits == 0 and delta.misses == 1
        assert_frames_byte_identical(out, oracle.query(sql))

    def test_parent_missing_columns_not_reused(self, db):
        db.query("SELECT mass FROM halos WHERE mass > 5")
        before = stats_snapshot()
        db.query("SELECT mass, count FROM halos WHERE mass > 5 AND count < 50")
        delta = stats_snapshot().delta(before)
        assert delta.incremental_hits == 0 and delta.misses == 1

    def test_incremental_result_is_itself_cached(self, db):
        db.query("SELECT mass FROM halos WHERE mass > 15")
        db.query("SELECT mass FROM halos WHERE mass > 15 AND mass < 40")
        before = stats_snapshot()
        db.query("SELECT mass FROM halos WHERE mass > 15 AND mass < 40")
        assert stats_snapshot().delta(before).memory_hits == 1

    def test_append_orphans_parents(self, db):
        db.query("SELECT mass, count FROM halos WHERE mass > 15")
        db.append("halos", make_frame(100, seed=3))
        before = stats_snapshot()
        db.query("SELECT mass, count FROM halos WHERE mass > 15 AND count < 50")
        delta = stats_snapshot().delta(before)
        assert delta.incremental_hits == 0 and delta.misses == 1


class TestDiskSharing:
    def test_identical_content_shares_entries_across_databases(self, tmp_path):
        """Two databases (think: two harness runs) holding byte-identical
        tables and pointing at one cache dir serve each other's results."""
        shared = tmp_path / "shared_qc"
        sql = "SELECT step, AVG(mass) AS m FROM halos GROUP BY step"
        db1 = Database(tmp_path / "r1.db", cache_dir=shared)
        db1.create_table("halos", make_frame(), row_group_size=100)
        out1 = db1.query(sql)

        clear_memory_cache()  # db2 behaves like a separate worker process
        db2 = Database(tmp_path / "r2.db", cache_dir=shared)
        db2.create_table("halos", make_frame(), row_group_size=100)
        before = stats_snapshot()
        out2 = db2.query(sql)
        assert stats_snapshot().delta(before).disk_hits == 1
        assert_frames_byte_identical(out1, out2)

    def test_different_content_never_shares(self, tmp_path):
        shared = tmp_path / "shared_qc"
        sql = "SELECT COUNT(*) AS n FROM halos"
        db1 = Database(tmp_path / "a.db", cache_dir=shared)
        db1.create_table("halos", make_frame(500, seed=1), row_group_size=100)
        db2 = Database(tmp_path / "b.db", cache_dir=shared)
        db2.create_table("halos", make_frame(700, seed=2), row_group_size=100)
        assert db1.query(sql)["n"][0] == 500
        assert db2.query(sql)["n"][0] == 700

    def test_corrupt_disk_entry_degrades_to_miss(self, db, tmp_path):
        sql = "SELECT mass FROM halos WHERE step = 1"
        expected = db.query(sql)
        # truncate every column payload in the published entries
        cache = db._result_cache
        for entry in cache.disk_entries():
            for npy in entry.glob("col*.npy"):
                npy.write_bytes(b"corrupt")
        clear_memory_cache()
        out = db.query(sql)
        assert_frames_byte_identical(out, expected)

    def test_corrupt_column_quarantined_and_recomputed(self, db, tmp_path):
        """A bit-flipped payload fails the CRC, the entry moves to
        ``.quarantine/``, and recomputation restores byte-identity."""
        sql = "SELECT mass FROM halos WHERE step = 2"
        expected = db.query(sql)
        cache = db._result_cache
        (entry,) = cache.disk_entries()
        npy = sorted(entry.glob("col*.npy"))[0]
        raw = bytearray(npy.read_bytes())
        raw[len(raw) // 2] ^= 0x01  # single flipped bit
        npy.write_bytes(bytes(raw))

        clear_memory_cache()
        before = stats_snapshot()
        out = db.query(sql)
        delta = stats_snapshot().delta(before)
        assert delta.quarantined == 1 and delta.misses == 1
        assert delta.disk_hits == 0
        assert_frames_byte_identical(out, expected)
        quarantined = cache.quarantined_entries()
        assert len(quarantined) == 1
        assert quarantined[0].parent.name == QUARANTINE_DIRNAME
        # the healed entry is republished: next cold read is a disk hit
        clear_memory_cache()
        before = stats_snapshot()
        db.query(sql)
        assert stats_snapshot().delta(before).disk_hits == 1

    def test_garbage_sidecar_quarantined(self, db):
        sql = "SELECT count FROM halos WHERE step = 4"
        expected = db.query(sql)
        cache = db._result_cache
        (entry,) = cache.disk_entries()
        (entry / qcache.SIDECAR_NAME).write_text("{truncated sidec")
        clear_memory_cache()
        before = stats_snapshot()
        out = db.query(sql)
        assert stats_snapshot().delta(before).quarantined == 1
        assert_frames_byte_identical(out, expected)

    @pytest.mark.parametrize("damage", ["stripped", "short"])
    def test_sidecar_without_every_crc_is_quarantined(self, db, oracle, damage):
        """The CRC check is not the entry's to opt out of: a sidecar with
        no ``crc32`` (or one CRC too few) is corrupt, never served as is."""
        sql = "SELECT mass, count FROM halos WHERE step = 5"
        db.query(sql)
        (entry,) = db._result_cache.disk_entries()
        sidecar = entry / qcache.SIDECAR_NAME
        meta = json.loads(sidecar.read_text())
        if damage == "stripped":
            del meta["crc32"]
        else:
            meta["crc32"].pop()
        sidecar.write_text(json.dumps(meta))
        clear_memory_cache()
        before = stats_snapshot()
        out = db.query(sql)
        delta = stats_snapshot().delta(before)
        assert (delta.quarantined, delta.disk_hits, delta.misses) == (1, 0, 1)
        assert_frames_byte_identical(out, oracle.query(sql))

    def test_injected_torn_write_never_published(self, db, oracle):
        """With storage.torn_write at rate 1.0 every publish attempt tears
        a column mid-write; the entry must not land in the disk tier, and
        results stay byte-identical via recomputation."""
        injector = FaultInjector(NO_FAULTS.with_rates(storage_torn_write=1.0))
        sql = "SELECT mass, count FROM halos WHERE step = 3"
        with use_faults(injector):
            out = db.query(sql)
        assert injector.schedule()[faults.STORAGE_TORN_WRITE] >= 1
        assert_frames_byte_identical(out, oracle.query(sql))
        # the torn tmp dir was either never renamed or fails CRC on read;
        # a fresh-process read must not serve torn bytes
        clear_memory_cache()
        warm = db.query(sql)
        assert_frames_byte_identical(warm, oracle.query(sql))

    def test_injected_bit_flip_heals_on_read(self, db, oracle):
        """storage.bit_flip corrupts payloads at *read* time; the CRC
        catches it and the recomputed result is byte-identical."""
        sql = "SELECT tag, mass FROM halos ORDER BY mass DESC LIMIT 9"
        db.query(sql)  # publish a clean entry
        clear_memory_cache()
        injector = FaultInjector(NO_FAULTS.with_rates(storage_bit_flip=1.0))
        before = stats_snapshot()
        with use_faults(injector):
            out = db.query(sql)
        assert stats_snapshot().delta(before).quarantined == 1
        assert_frames_byte_identical(out, oracle.query(sql))

    def test_object_dtype_results_stay_memory_only(self, db):
        cache = db._result_cache
        frame = Frame({"o": np.asarray([{"a": 1}, None], dtype=object)})
        cache._disk_store("deadbeef", frame)
        assert cache.disk_entries() == []

    def test_footprint_and_clear(self, db):
        db.query("SELECT mass FROM halos WHERE step = 1")
        cache = db._result_cache
        assert len(cache.disk_entries()) == 1
        assert cache.footprint_bytes() > 0
        assert cache.clear_disk() == 1
        assert cache.footprint_bytes() == 0


class TestBoundedMemory:
    def test_lru_eviction_counts(self, db):
        old = qcache.memory_capacity()
        try:
            qcache.set_memory_capacity(4)
            before = stats_snapshot()
            for step in range(8):
                db.query(f"SELECT mass FROM halos WHERE step = {step}")
            delta = stats_snapshot().delta(before)
            assert delta.evictions == 8 - 4
            # most recent entry survives in memory
            before = stats_snapshot()
            db.query("SELECT mass FROM halos WHERE step = 7")
            assert stats_snapshot().delta(before).memory_hits == 1
            # oldest was evicted from memory but survives on disk
            before = stats_snapshot()
            db.query("SELECT mass FROM halos WHERE step = 0")
            assert stats_snapshot().delta(before).disk_hits == 1
        finally:
            qcache.set_memory_capacity(old)


class TestStats:
    def test_mergeable(self):
        a = QueryCacheStats(memory_hits=2, misses=1)
        b = QueryCacheStats(memory_hits=1, disk_hits=3)
        a.merge(b)
        assert a.memory_hits == 3 and a.disk_hits == 3 and a.misses == 1
        assert a.hits == 6 and a.requests == 7
        assert a.hit_ratio == pytest.approx(6 / 7)

    def test_as_dict_round_trip(self):
        d = QueryCacheStats(incremental_hits=4, invalidations=2).as_dict()
        assert d["incremental_hits"] == 4 and d["invalidations"] == 2

    def test_error_paths_uncached(self, db):
        from repro.db.errors import UnknownTableError

        with pytest.raises(UnknownTableError):
            db.query("SELECT x FROM nope")

    def test_cache_disabled_database(self, tmp_path):
        d = Database(tmp_path / "plain.db", result_cache=False)
        d.create_table("t", Frame({"x": np.arange(10)}))
        before = stats_snapshot()
        d.query("SELECT x FROM t")
        d.query("SELECT x FROM t")
        delta = stats_snapshot().delta(before)
        assert delta.requests == 0 and delta.misses == 0
