"""Semantic query-result cache: byte-identity, invalidation, incremental
re-execution, disk sharing, and bounded memory (repro.db.cache)."""

import hashlib
import json

import numpy as np
import pytest

from repro import faults
from repro.db import Database
from repro.db import cache as qcache
from repro.db.cache import QueryCacheStats, clear_memory_cache, stats_snapshot
from repro.faults import NO_FAULTS, FaultInjector, use_faults
from repro.frame import Frame
from repro.gio.format import GIOFile
from repro.gio.store import QUARANTINE_DIRNAME


@pytest.fixture(autouse=True)
def cold_cache():
    """Every test starts with empty in-process tiers (they are module-global)."""
    clear_memory_cache()
    yield
    clear_memory_cache()


def make_frame(n=1000, seed=0):
    rng = np.random.default_rng(seed)
    mass = rng.lognormal(3, 1, n)
    count = rng.integers(1, 500, n)
    run = rng.integers(0, 4, n)
    x = rng.uniform(-50, 50, n)
    x[rng.random(n) < 0.05] = np.nan  # NaN handling must match exactly
    return Frame(
        {
            "step": np.repeat(np.arange(n // 100), 100).astype(np.int64),
            "mass": mass,
            "count": count,
            "tag": np.asarray([f"halo_{i % 7}" for i in range(n)]),
            "run": run,
            "x": x,
        }
    )


def _fill(d: Database) -> Database:
    d.create_table("halos", make_frame(), row_group_size=100)
    d.create_table(
        "runs",
        Frame({"run": np.arange(4), "weight": np.asarray([1.0, 2.5, 0.5, 4.0])}),
        row_group_size=2,
    )
    return d


@pytest.fixture()
def db(tmp_path):
    return _fill(Database(tmp_path / "c.db", cache_dir=tmp_path / "qc"))


@pytest.fixture()
def oracle(tmp_path):
    return _fill(Database(tmp_path / "oracle.db", result_cache=False))


def assert_frames_byte_identical(a: Frame, b: Frame):
    """Same columns, dtypes and bytes in the same row order."""
    assert list(a.columns) == list(b.columns)
    assert a.num_rows == b.num_rows
    for name in a.columns:
        ca, cb = np.asarray(a.column(name)), np.asarray(b.column(name))
        assert ca.dtype == cb.dtype, f"{name}: {ca.dtype} != {cb.dtype}"
        if ca.dtype == object:
            assert ca.tolist() == cb.tolist(), name
        else:
            assert ca.tobytes() == cb.tobytes(), f"{name}: bytes differ"


# every statement shape the executor special-cases
QUERIES = [
    "SELECT mass, count FROM halos WHERE step = 3",
    "SELECT * FROM halos WHERE mass > 20 AND count < 100",
    "SELECT step, COUNT(*) AS n, AVG(mass) AS m FROM halos GROUP BY step ORDER BY step",
    "SELECT tag, mass FROM halos ORDER BY mass DESC LIMIT 17",
    "SELECT DISTINCT tag FROM halos ORDER BY tag",
    # plain scan over a column holding NaN
    "SELECT mass, x FROM halos WHERE mass > 20",
    # early-terminating un-ordered LIMIT
    "SELECT mass FROM halos WHERE mass > 5 LIMIT 37",
    # zone-map pruning
    "SELECT mass FROM halos WHERE step = 9",
    # string equality beside an IN list
    "SELECT mass FROM halos WHERE tag = 'halo_3' AND step IN (1, 8)",
    # streaming top-k
    "SELECT mass FROM halos WHERE step > 1 ORDER BY mass DESC LIMIT 10",
    # grouped: one of every accumulator kind
    "SELECT step, COUNT(*) AS n, SUM(mass) AS s, AVG(mass) AS m, "
    "MIN(mass) AS lo, MAX(mass) AS hi, STDDEV(mass) AS sd, "
    "MEDIAN(mass) AS med FROM halos GROUP BY step ORDER BY step",
    # unordered GROUP BY: row order is the registry's first-appearance order
    "SELECT tag, COUNT(*) AS n, COUNT(DISTINCT run) AS r, VAR(x) AS v "
    "FROM halos GROUP BY tag",
    # multi-key grouping with HAVING and aggregate ORDER BY
    "SELECT run, step, AVG(mass) AS m FROM halos GROUP BY run, step "
    "HAVING COUNT(*) > 10 ORDER BY AVG(mass) DESC",
    # global aggregate over a filtered scan
    "SELECT COUNT(*) AS n, VAR(mass) AS v FROM halos WHERE tag = 'halo_2'",
    # aggregates over a column holding NaN
    "SELECT run, AVG(x) AS mx, COUNT(x) AS nx FROM halos GROUP BY run ORDER BY run",
    # multi-column DISTINCT
    "SELECT DISTINCT run, tag FROM halos ORDER BY run, tag",
    # join + grouping
    "SELECT run, COUNT(*) AS n, SUM(weight) AS w FROM halos "
    "JOIN runs ON run = run GROUP BY run ORDER BY run",
    # subquery source
    "SELECT step, n FROM (SELECT step, COUNT(*) AS n FROM halos "
    "WHERE mass > 10 GROUP BY step) s ORDER BY n DESC",
    # zero-row results (the empty projection must stay schema-stable)
    "SELECT mass, x FROM halos WHERE mass < 0",
    "SELECT step, COUNT(*) AS n FROM halos WHERE mass < 0 GROUP BY step",
]


# sha256 of each QUERIES result (per column: name, dtype, length, bytes)
# on the oracle's 10-row-group table, in QUERIES order.  Recorded while
# each row group still built partial accumulators that were merged into
# the statement's; folding every row group into one set of accumulators
# must reproduce them bit for bit.
GOLDEN_DIGESTS = [
    "31a59cd4ecf1fea47abeaf6753e23b5e926f58e7447069d05e9efb6ddb8383a1",
    "9edef7cc23db6efb4e0d91e8424c7e153aa936445fd7397295d9ba0bd388cf19",
    "8d41e794b9d7b9e6e67167c302e56df7b5a568f4d5f2515ec0e266b00cf3c78e",
    "a558bdc3e140493f254c3a96699bc12fb095b50707386a0b278403c60fb6fb01",
    "c1b94606aeef0b2b988505136c2cd393a074948a2d1e14d15a4e6e4be1e5027e",
    "11287a55e3df75097b94b3267fd7211ea30eecd9d116d5ae535f5612ce4b64bc",
    "df60ec5eef93c7c2aa399be00f24fa0b7e37fac18afadeb414eaf47b44ade6ef",
    "e08d116eeabe72becc85daa5a4d63e94429713816b3caa33c3dd0b54793e310d",
    "08560bac0b581bf82f9eb6f0b0055a0cb26360271ed86ba8928c7c5e2409bdd4",
    "9dc4bde594bcf1261538ac8939995ffe689f77c4915ffdd69c395cee8880e988",
    "465f610b3f65e46d3d412e39c989601eda6f9edf1a76ad7e8c15a041c216e36b",
    # VAR(x) skips NaN since every aggregate treats NaN as NULL (before: NaN)
    "5ff434e5802c8ccaaae6fef933ba958c61a5a215f1c3ecc98a0529f4728536e0",
    "36e9ff8bbda8127a2318840f8f78330e9407200a857c2a494351ce0c38d81bb0",
    "cb1701c4e3c124c29f742758f5ebbb81bf6ab59fea857aaa931f8d441155df7e",
    "61cc060bc927ddb39d2e5db24116d65e4166abf9e7e6dd6ac32d5191762f10f8",
    "d62fc6b68e7f513bd4f514590c46444e9d54d92e9ab12e50f38850df1a4cb61f",
    "41111158bcf0d3359786af580c78d4974a382688f25fb95f66f2c52d327392b1",
    "d1efcab76ffd63c990bb171f83b38aeb6c4f3d0a7c3a04db94200cc1a69cad47",
    "9c294722f919d193cc94f4b26ed75eb03e8d2e243d076232bb6230dc7b809699",
    "988261555d3f2c831111b8399e66299eb6c8526a0c04fc1594ae30f95eb4d659",
]


def result_digest(frame: Frame) -> str:
    digest = hashlib.sha256()
    for name in frame.columns:
        col = np.asarray(frame.column(name))
        digest.update(f"{name}:{col.dtype.str}:{len(col)};".encode())
        digest.update(col.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize(
    "sql, want", list(zip(QUERIES, GOLDEN_DIGESTS)), ids=[f"q{i:02d}" for i in range(len(QUERIES))]
)
def test_results_match_their_recorded_digests(oracle, sql, want):
    assert result_digest(oracle.query(sql)) == want


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

    def test_num_threads_is_deprecated_and_changes_no_answer(self, oracle):
        with pytest.warns(DeprecationWarning, match="num_threads"):
            threaded = Database(oracle.path, result_cache=False, num_threads=2)
        for sql in QUERIES:
            assert_frames_byte_identical(threaded.query(sql), oracle.query(sql))

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
        # replace every published entry with a few garbage bytes
        cache = db._result_cache
        for entry in cache.store.entries():
            entry.write_bytes(b"corrupt")
        clear_memory_cache()
        before = stats_snapshot()
        out = db.query(sql)
        assert stats_snapshot().delta(before).quarantined == 1
        assert_frames_byte_identical(out, expected)

    def test_corrupt_column_quarantined_and_recomputed(self, db, tmp_path):
        """A bit flipped in a column's payload fails its CRC, the entry
        moves to ``.quarantine/``, and recomputation restores
        byte-identity."""
        sql = "SELECT mass FROM halos WHERE step = 2"
        expected = db.query(sql)
        cache = db._result_cache
        (entry,) = cache.store.entries()
        column = GIOFile(entry)._entry("mass")
        raw = bytearray(entry.read_bytes())
        raw[column["offset"] + column["nbytes"] // 2] ^= 0x01  # single flipped bit
        entry.write_bytes(bytes(raw))

        clear_memory_cache()
        before = stats_snapshot()
        out = db.query(sql)
        delta = stats_snapshot().delta(before)
        assert delta.quarantined == 1 and delta.misses == 1
        assert delta.disk_hits == 0
        assert_frames_byte_identical(out, expected)
        quarantined = cache.store.quarantined()
        assert len(quarantined) == 1
        assert quarantined[0].parent.name == QUARANTINE_DIRNAME
        # the healed entry is republished: next cold read is a disk hit
        clear_memory_cache()
        before = stats_snapshot()
        db.query(sql)
        assert stats_snapshot().delta(before).disk_hits == 1

    def test_garbage_header_quarantined(self, db):
        sql = "SELECT count FROM halos WHERE step = 4"
        expected = db.query(sql)
        cache = db._result_cache
        (entry,) = cache.store.entries()
        raw = bytearray(entry.read_bytes())
        raw[14:30] = b"{truncated heade"  # the JSON header starts at byte 14
        entry.write_bytes(bytes(raw))
        clear_memory_cache()
        before = stats_snapshot()
        out = db.query(sql)
        assert stats_snapshot().delta(before).quarantined == 1
        assert_frames_byte_identical(out, expected)

    @pytest.mark.parametrize("damage", ["stripped", "short"])
    def test_header_without_every_crc_is_quarantined(self, db, oracle, damage):
        """The CRC check is not the entry's to opt out of: a header whose
        columns carry no ``crc32`` (or one CRC too few) is corrupt, never
        served as is."""
        sql = "SELECT mass, count FROM halos WHERE step = 5"
        db.query(sql)
        (entry,) = db._result_cache.store.entries()
        raw = entry.read_bytes()
        header_len = int.from_bytes(raw[6:14], "little")
        doc = json.loads(raw[14 : 14 + header_len])
        for column in doc["columns"] if damage == "stripped" else doc["columns"][-1:]:
            del column["crc32"]
        header = json.dumps(doc).encode().ljust(header_len)
        assert len(header) == header_len
        entry.write_bytes(raw[:14] + header + raw[14 + header_len :])
        clear_memory_cache()
        before = stats_snapshot()
        out = db.query(sql)
        delta = stats_snapshot().delta(before)
        assert (delta.quarantined, delta.disk_hits, delta.misses) == (1, 0, 1)
        assert_frames_byte_identical(out, oracle.query(sql))

    def test_injected_torn_write_never_published(self, db, oracle):
        """With storage.torn_write at rate 1.0 every store publishes a torn
        entry file; no read serves it, and results stay byte-identical via
        recomputation."""
        injector = FaultInjector(NO_FAULTS.with_rates(storage_torn_write=1.0))
        sql = "SELECT mass, count FROM halos WHERE step = 3"
        with use_faults(injector):
            out = db.query(sql)
        assert injector.schedule()[faults.STORAGE_TORN_WRITE] >= 1
        assert_frames_byte_identical(out, oracle.query(sql))
        # the torn entry was published and fails its check on read; a
        # fresh-process read must not serve torn bytes
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
        cache.store.put("deadbeef", frame, {"o": frame.column("o")})
        assert cache.store.entries() == []

    def test_footprint_and_clear(self, db):
        db.query("SELECT mass FROM halos WHERE step = 1")
        cache = db._result_cache
        assert len(cache.store.entries()) == 1
        assert cache.store.footprint_bytes() > 0
        assert cache.store.clear_disk() == 1
        assert cache.store.footprint_bytes() == 0


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


    def test_concurrent_queries_over_a_one_entry_cache(self, db, oracle):
        """Threads share the process's result LRU (a server's app workers
        do).  With one entry, each thread asking its own statement, and
        thread switches forced every microsecond, hits race evictions: an
        unlocked map let another thread evict a hit's key between its
        lookup and its reorder, and the reorder raised KeyError.  No query
        raises, and every answer is the uncached one."""
        import sys
        import threading

        statements = [f"SELECT mass FROM halos WHERE step = {step}" for step in (1, 2)]
        answers: list[tuple[int, Frame]] = []
        errors: list[BaseException] = []

        def queries(worker: int) -> None:
            k = worker % 2
            for _ in range(2500):
                try:
                    answers.append((k, db.query(statements[k])))
                except BaseException as exc:  # surfaced below
                    errors.append(exc)

        old = qcache.memory_capacity()
        interval = sys.getswitchinterval()
        qcache.set_memory_capacity(1)
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=queries, args=(w,)) for w in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
            qcache.set_memory_capacity(old)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        expected = [oracle.query(sql) for sql in statements]
        assert len(answers) == 4 * 2500
        for k, answer in answers:
            assert_frames_byte_identical(answer, expected[k])


class TestStats:
    def test_derived_totals(self):
        a = QueryCacheStats(memory_hits=3, disk_hits=3, misses=1)
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
