"""WAL framing, the append commit protocol, and crash recovery.

The contract under test: a simulated ingester death at *any* point of the
commit protocol — mid-WAL-append, before staging, mid-segment, after
staging but before the catalog publish — leaves readers on exactly the
pre-append table, and one recovery pass lands the database on a state
byte-identical to a quiescent twin (or exactly back on pre-append when the
WAL record itself was lost).  Damage to the log (truncation at every byte boundary,
single bit flips) is always classified: torn tail vs corrupt record,
never a crash or a hybrid table.
"""

import json
import pickle

import numpy as np
import pytest

from repro import faults
from repro.db.database import Database
from repro.db.errors import DBError, IngestKilled
from repro.db.storage import TableStore
from repro.db.wal import _MAGIC as WAL_MAGIC
from repro.db.wal import WriteAheadLog, make_append_record
from repro.durable import frame, scan_frames
from repro.frame import Frame
from repro.graph.checkpoint import _MAGIC as CHECKPOINT_MAGIC
from repro.obs import names as obs_names
from repro.obs.metrics import get_registry


def make_frame(n: int, start: int = 0) -> Frame:
    idx = np.arange(start, start + n, dtype=np.int64)
    return Frame({"a": idx, "b": idx.astype(np.float64) * 0.5})


def counter(name: str) -> float:
    return get_registry().counter(name).value


def open_db(path) -> Database:
    return Database(path, result_cache=False)


def killing(point_field: str):
    """An armed injector firing one ingest kill point with certainty."""
    profile = faults.FaultProfile(seed=7, **{point_field: 1.0})
    return faults.use_faults(faults.FaultInjector(profile))


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
def test_append_scan_roundtrip(tmp_path):
    wal = WriteAheadLog(tmp_path / "wal.log", fsync=False)
    records = [
        make_append_record("t", "append", base_version=i, row_group_size=64,
                           columns={"a": np.arange(i + 1, dtype=np.int64)})
        for i in range(3)
    ]
    for record in records:
        wal.append(record)
    result = wal.scan()
    assert not result.torn_tail and not result.corrupt_record
    assert result.good_bytes == wal.size_bytes()
    assert [r["base_version"] for r in result.records] == [0, 1, 2]
    for got, sent in zip(result.records, records):
        assert np.array_equal(got["columns"]["a"], sent["columns"]["a"])


def test_pending_on_missing_or_empty_log(tmp_path):
    wal = WriteAheadLog(tmp_path / "wal.log", fsync=False)
    records, scan = wal.pending()
    assert records == [] and not scan.torn_tail and not scan.corrupt_record
    wal.path.write_bytes(b"")
    records, scan = wal.pending()
    assert records == [] and scan.good_bytes == 0


# ----------------------------------------------------------------------
# commit protocol: kills at every stage
# ----------------------------------------------------------------------
class TestCommitProtocol:
    def _seeded(self, path) -> tuple[Database, Frame, Frame]:
        db = open_db(path)
        base, extra = make_frame(40), make_frame(24, start=40)
        db.create_table("t", base, row_group_size=16)
        return db, base, extra

    def _twin_signature(self, path, base: Frame, extra: Frame) -> str:
        twin = open_db(path)
        twin.create_table("t", base, row_group_size=16)
        twin.append("t", extra)
        return twin.store("t").content_signature()

    @pytest.mark.parametrize(
        "point_field",
        ["ingest_kill_apply", "ingest_partial_row_group", "ingest_kill_publish"],
    )
    def test_kill_is_invisible_then_recovery_completes(self, tmp_path, point_field):
        """A kill anywhere leaves exactly the pre-append table — even after
        ``ingest_kill_publish``, when every new segment is complete on disk,
        because a store reads only the row groups its catalog entry lists —
        and recovery drops what was staged and replays the WAL record to
        the exact post-append state."""
        db, base, extra = self._seeded(tmp_path / "db")
        pre_version = db.table_version("t")
        pre_signature = db.store("t").content_signature()

        with killing(point_field), faults.arm_ingest_kills():
            with pytest.raises(IngestKilled):
                db.append("t", extra)

        # 40 rows are rg00000-rg00002; the 24 new ones would be rg00003-4
        staged = [db.path / "t" / f"rg{i:05d}" for i in (3, 4)]
        if point_field == "ingest_kill_publish":
            for rg_dir, rows in zip(staged, (extra[:16], extra[16:])):
                for column in rows.columns:
                    segment = np.load(rg_dir / f"{column}.npy")
                    assert np.array_equal(segment, rows.column(column))
        # a fresh handle (= a reader process) sees only the committed state
        reader = open_db(tmp_path / "db")
        assert reader.table_version("t") == pre_version
        assert reader.store("t").num_rows == base.num_rows
        assert reader.store("t").content_signature() == pre_signature
        count = reader.query("SELECT COUNT(*) AS n FROM t")
        assert int(count.column("n")[0]) == base.num_rows

        # recovery drops what was staged, replays the durable intent and
        # lands post-append
        orphans = sum(rg_dir.is_dir() for rg_dir in staged)
        assert orphans == {"ingest_kill_apply": 0, "ingest_partial_row_group": 1,
                           "ingest_kill_publish": 2}[point_field]
        report = db.recover()
        assert (report["replayed"], report["orphan_groups"]) == (1, orphans)
        after = open_db(tmp_path / "db")
        assert after.table_version("t") == pre_version + 1
        assert after.store("t").num_rows == base.num_rows + extra.num_rows
        assert after.store("t").content_signature() == self._twin_signature(
            tmp_path / "twin", base, extra
        )

    def test_torn_wal_append_recovers_to_pre_append(self, tmp_path):
        """Dying mid-WAL-append loses the record itself: recovery drops the
        torn tail and the table stays exactly pre-append; the retried
        append then lands the same bytes as a never-killed twin."""
        db, base, extra = self._seeded(tmp_path / "db")
        pre_signature = db.store("t").content_signature()

        before = counter(obs_names.WAL_TORN_TAIL_DROPPED)
        with killing("wal_torn_tail"), faults.arm_ingest_kills():
            with pytest.raises(IngestKilled):
                db.append("t", extra)
        report = db.recover()
        assert report["torn_tail"] == 1 and report["replayed"] == 0
        assert counter(obs_names.WAL_TORN_TAIL_DROPPED) == before + 1
        assert open_db(tmp_path / "db").store("t").content_signature() == pre_signature

        db.append("t", extra)  # the supervised retry
        assert db.store("t").content_signature() == self._twin_signature(
            tmp_path / "twin", base, extra
        )

    def test_next_write_settles_interrupted_commit_first(self, tmp_path):
        """A writer reopening after a kill need not call recover() by hand:
        the first write replays the pending record before its own."""
        db, base, extra = self._seeded(tmp_path / "db")
        with killing("ingest_kill_publish"), faults.arm_ingest_kills():
            with pytest.raises(IngestKilled):
                db.append("t", extra)

        writer = open_db(tmp_path / "db")
        tail = make_frame(8, start=64)
        writer.append("t", tail)  # triggers recovery, then appends

        twin = open_db(tmp_path / "twin")
        twin.create_table("t", base, row_group_size=16)
        twin.append("t", extra)
        twin.append("t", tail)
        assert writer.store("t").content_signature() == \
            twin.store("t").content_signature()

    def test_recovery_skips_already_committed_record(self, tmp_path):
        """A crash *after* the catalog publish but before the WAL truncate
        leaves a stale record; replay must not double-apply it."""
        db, base, extra = self._seeded(tmp_path / "db")
        db.append("t", extra)
        committed = db.store("t").content_signature()

        # re-plant the already-committed record (base_version is stale now)
        stale = make_append_record(
            "t", "append", base_version=1, row_group_size=16,
            columns={c: extra.column(c) for c in extra.columns},
        )
        WriteAheadLog(tmp_path / "db" / "wal.log", fsync=False).append(stale)

        before = counter(obs_names.WAL_SKIPPED_COMMITTED)
        report = open_db(tmp_path / "db").recover()
        assert report["replayed"] == 0 and report["skipped"] == 1
        assert counter(obs_names.WAL_SKIPPED_COMMITTED) == before + 1
        assert open_db(tmp_path / "db").store("t").content_signature() == committed

    def test_recovery_is_idempotent(self, tmp_path):
        db, _, extra = self._seeded(tmp_path / "db")
        with killing("ingest_kill_publish"), faults.arm_ingest_kills():
            with pytest.raises(IngestKilled):
                db.append("t", extra)
        first = db.recover()
        assert first["replayed"] == 1
        second = db.recover()
        assert second == {"replayed": 0, "skipped": 0, "torn_tail": 0,
                          "corrupt": 0, "orphan_groups": 0}

    def test_killed_create_restarts_from_nothing(self, tmp_path):
        """A create killed after staging must not double its row groups on
        replay (replay drops the orphan staged segments first)."""
        db = open_db(tmp_path / "db")
        frame = make_frame(40)
        with killing("ingest_kill_publish"), faults.arm_ingest_kills():
            with pytest.raises(IngestKilled):
                db.create_table("t", frame, row_group_size=16)
        assert not open_db(tmp_path / "db").has_table("t")
        report = db.recover()
        assert report["replayed"] == 1
        twin = open_db(tmp_path / "twin")
        twin.create_table("t", frame, row_group_size=16)
        assert open_db(tmp_path / "db").store("t").content_signature() == \
            twin.store("t").content_signature()


def _tree_bytes(root) -> dict[str, bytes]:
    return {str(f.relative_to(root)): f.read_bytes() for f in sorted(root.rglob("*")) if f.is_file()}


class TestFailedStatement:
    """A statement that fails short of a death leaves nothing behind: no
    log record for a later write to replay, no staged row groups, and a
    handle equal to a fresh one on the same directory."""

    def _two_tables(self, path) -> Database:
        db = open_db(path)
        db.create_table("a", make_frame(40), row_group_size=16)
        db.create_table("b", make_frame(8), row_group_size=16)
        return db

    def test_refused_append_poisons_nothing(self, tmp_path):
        db = self._two_tables(tmp_path / "db")
        before = _tree_bytes(tmp_path / "db" / "a")
        version = db.table_version("a")
        appends = counter(obs_names.WAL_APPENDS)

        with pytest.raises(DBError, match="schema mismatch"):
            db.append("a", Frame({"a": np.arange(3), "other": np.arange(3)}))

        # refused before the intent was logged
        assert counter(obs_names.WAL_APPENDS) == appends
        assert not WriteAheadLog(tmp_path / "db" / "wal.log").exists_nonempty()
        # the same handle and a fresh one both keep writing, to any table
        db.append("b", make_frame(4, start=8))
        fresh = open_db(tmp_path / "db")
        fresh.append("b", make_frame(4, start=12))
        assert fresh.store("b").num_rows == 16
        assert fresh.recover()["replayed"] == 0
        # and ``a`` is what it was, byte for byte
        assert _tree_bytes(tmp_path / "db" / "a") == before
        assert fresh.table_version("a") == version

    @pytest.mark.parametrize("failing", ["stage_append", "_flush_catalog"])
    def test_failure_inside_commit_rolls_back(self, tmp_path, monkeypatch, failing):
        db = self._two_tables(tmp_path / "db")
        before = _tree_bytes(tmp_path / "db")
        extra = make_frame(24, start=40)
        real_stage = TableStore.stage_append

        def boom(*args, **kwargs):
            raise DBError("disk says no")

        def fail_mid_stage(store, frame, row_group_size):
            real_stage(store, frame[:1], row_group_size)  # one segment lands
            boom()

        with monkeypatch.context() as patched:
            if failing == "stage_append":
                patched.setattr(TableStore, "stage_append", fail_mid_stage)
            else:
                patched.setattr(Database, "_flush_catalog", boom)
            with pytest.raises(DBError, match="disk says no"):
                db.append("a", extra)
            with pytest.raises(DBError, match="disk says no"):
                db.create_table("c", extra, row_group_size=16)

        # log cut back, staged groups gone, catalog untouched, handle equal
        # to a fresh one
        after = _tree_bytes(tmp_path / "db")
        assert after["wal.log"] == b""
        assert after == before
        assert not (tmp_path / "db" / "c").exists()
        fresh = open_db(tmp_path / "db")
        assert db._tables == fresh._tables
        assert db.list_tables() == ["a", "b"]
        assert fresh.recover() == {"replayed": 0, "skipped": 0, "torn_tail": 0,
                                   "corrupt": 0, "orphan_groups": 0}
        # the retried statements land the bytes of a twin that never failed
        db.append("a", extra)
        db.create_table("c", extra, row_group_size=16)
        twin = open_db(tmp_path / "twin")
        twin.create_table("a", make_frame(40), row_group_size=16)
        twin.append("a", extra)
        twin.create_table("c", extra, row_group_size=16)
        for name in ("a", "c"):
            assert db.store(name).content_signature() == twin.store(name).content_signature()
            assert db.table_version(name) == twin.table_version(name)


class TestOtherTablesEntries:
    """Every commit rewrites the whole catalog: a write to ``a`` that dies
    at any stage, or fails and rolls back, and the recovery after it, must
    leave ``b``'s entry and content signature exactly as they were."""

    @pytest.mark.parametrize(
        "failure",
        ["wal_torn_tail", "ingest_kill_apply", "ingest_partial_row_group",
         "ingest_kill_publish", "_flush_catalog"],
    )
    def test_a_failed_write_to_one_table_leaves_the_other_entry(
        self, tmp_path, monkeypatch, failure
    ):
        db = open_db(tmp_path / "db")
        db.create_table("a", make_frame(40), row_group_size=16)
        db.create_table("b", make_frame(20), row_group_size=16)
        db.append("b", make_frame(8, start=20))
        catalog = db.path / "catalog.json"
        entry, signature = json.loads(catalog.read_text())["b"], db.store("b").content_signature()

        def b_is_unchanged():
            assert json.loads(catalog.read_text())["b"] == entry
            for handle in (db, open_db(db.path)):
                assert handle.store("b").content_signature() == signature
                assert handle.table_version("b") == 2

        extra = make_frame(24, start=40)
        if failure == "_flush_catalog":
            def boom(*args, **kwargs):
                raise DBError("disk says no")

            with monkeypatch.context() as patched:
                patched.setattr(Database, "_flush_catalog", boom)
                with pytest.raises(DBError, match="disk says no"):
                    db.append("a", extra)
        else:
            with killing(failure), faults.arm_ingest_kills():
                with pytest.raises(IngestKilled):
                    db.append("a", extra)
        b_is_unchanged()
        report = db.recover()
        assert report["replayed"] == int(failure not in ("wal_torn_tail", "_flush_catalog"))
        b_is_unchanged()
        db.append("a", make_frame(4, start=64))
        b_is_unchanged()


# ----------------------------------------------------------------------
# damage property tests: every truncation point, single bit flips.  The
# verdict is repro.durable.scan_frames', so both users of the framing (this
# log, the checkpoint blobs) are inputs; what the log adds is tested after.
# ----------------------------------------------------------------------
MAGICS = (WAL_MAGIC, CHECKPOINT_MAGIC)


def _damage_log(magic: bytes) -> tuple[bytes, list[int]]:
    """Three framed records plus the byte offsets of the frame boundaries."""
    data, boundaries = b"", [0]
    for i in range(3):
        record = make_append_record(
            "t", "append", base_version=i, row_group_size=32,
            columns={"a": np.arange(10 * (i + 1), dtype=np.int64)},
        )
        data += frame(magic, pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL))
        boundaries.append(len(data))
    return data, boundaries


def test_truncation_at_every_byte_boundary_classified():
    """Cut the frames at *every* byte offset: the scan keeps exactly the
    frames wholly before the cut and classifies the remainder as a torn
    tail, never as corruption."""
    for magic in MAGICS:
        data, boundaries = _damage_log(magic)
        for cut in range(len(data) + 1):
            scan = scan_frames(magic, data[:cut], pickle.loads)
            keep = max(i for i, b in enumerate(boundaries) if b <= cut)
            assert [r["base_version"] for r in scan.records] == list(range(keep)), (magic, cut)
            assert scan.good_bytes == boundaries[keep]
            assert scan.dropped_bytes == cut - boundaries[keep]
            assert scan.torn_tail == (cut not in boundaries), (magic, cut)
            assert not scan.corrupt_record, (magic, cut)


def test_single_bit_flips_classified_and_recovered():
    """Flip one bit anywhere: the scan never crashes, keeps exactly the
    frames before the damaged one, classifies the damage (corrupt record,
    or torn tail when a length field inflates), and the surviving prefix
    scans clean."""
    for magic in MAGICS:
        data, boundaries = _damage_log(magic)
        rng = np.random.default_rng(2024)
        positions = rng.choice(len(data), size=min(160, len(data)), replace=False)
        for pos in sorted(int(p) for p in positions):
            flipped = bytearray(data)
            flipped[pos] ^= 1 << int(rng.integers(8))
            scan = scan_frames(magic, bytes(flipped), pickle.loads)

            # the damaged frame and everything after it are dropped
            damaged = max(i for i, b in enumerate(boundaries) if b <= pos)
            assert [r["base_version"] for r in scan.records] == list(range(damaged)), (magic, pos)
            assert scan.torn_tail != scan.corrupt_record, (magic, pos)  # exactly one class
            assert scan.good_bytes == boundaries[damaged]
            assert scan.dropped_bytes == len(data) - boundaries[damaged]

            rescan = scan_frames(magic, bytes(flipped[: scan.good_bytes]), pickle.loads)
            assert len(rescan.records) == damaged
            assert not rescan.torn_tail and not rescan.corrupt_record


@pytest.mark.parametrize(
    "damage, counted",
    [("cut", obs_names.WAL_TORN_TAIL_DROPPED), ("flip", obs_names.WAL_CORRUPT_DROPPED)],
)
def test_pending_counts_the_drop_and_cuts_the_log(tmp_path, damage, counted):
    """The log's own half: ``pending`` counts the scan's verdict once under
    its classified name and physically truncates to the good prefix, after
    which the log holds exactly the records it returned."""
    data, boundaries = _damage_log(WAL_MAGIC)
    raw = bytearray(data)
    if damage == "cut":
        del raw[boundaries[2] + 5:]  # inside the third frame's header
    else:
        raw[boundaries[2] - 3] ^= 0x10  # inside the second frame's payload
    wal = WriteAheadLog(tmp_path / "wal.log", fsync=False)
    wal.path.write_bytes(bytes(raw))
    names = (obs_names.WAL_TORN_TAIL_DROPPED, obs_names.WAL_CORRUPT_DROPPED)
    before = {name: counter(name) for name in names}

    records, scan = wal.pending()
    kept = 2 if damage == "cut" else 1
    assert [r["base_version"] for r in records] == list(range(kept))
    assert wal.size_bytes() == scan.good_bytes == boundaries[kept]
    assert {name: counter(name) - before[name] for name in names} == {
        name: int(name == counted) for name in names
    }

    again, rescan = wal.pending()
    assert [r["base_version"] for r in again] == list(range(kept))
    assert not rescan.torn_tail and not rescan.corrupt_record
    assert {name: counter(name) - before[name] for name in names} == {
        name: int(name == counted) for name in names
    }


def test_corrupt_record_mid_log_drops_suffix(tmp_path):
    """Damage to an *interior* record drops it and every later record —
    replay order is the append order, so a suffix cannot replay over a
    hole — and the database-level recovery classifies it."""
    db = open_db(tmp_path / "db")
    db.create_table("t", make_frame(20), row_group_size=16)
    # plant two pending records, then damage the second one's payload
    wal = WriteAheadLog(tmp_path / "db" / "wal.log", fsync=False)
    for i in range(2):
        wal.append(
            make_append_record(
                "t", "append", base_version=1 + i, row_group_size=16,
                columns={c: make_frame(8, start=100 + 8 * i).column(c)
                         for c in ("a", "b")},
            )
        )
    raw = bytearray(wal.path.read_bytes())
    raw[len(raw) - 10] ^= 0xFF  # inside the second record's payload
    wal.path.write_bytes(bytes(raw))

    report = open_db(tmp_path / "db").recover()
    assert report["corrupt"] == 1
    assert report["replayed"] == 1  # only the undamaged first record
