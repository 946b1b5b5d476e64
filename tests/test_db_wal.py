"""The catalog log's framing, the commit protocol, and crash recovery.

The contract under test: a simulated ingester death at *any* point of the
commit protocol — before staging, mid-segment, after staging but before
the commit record, mid-record — leaves readers on exactly the pre-write
table, and one recovery pass drops what the dead write left, so an
unacknowledged write is absent and its retry lands the bytes of a
quiescent twin.  Damage to the log (truncation at every byte boundary,
single bit flips) is always classified: torn tail vs corrupt record,
never a crash or a hybrid table.
"""

import json

import numpy as np
import pytest

from repro import faults
from repro.db.database import Database
from repro.db.errors import DBError, IngestKilled
from repro.db.storage import TableStore
from repro.db.wal import MAGIC as CATALOG_MAGIC
from repro.db.wal import CatalogLog, CatalogState
from repro.durable import frame, scan_frames
from repro.frame import Frame
from repro.gio.format import GIOFile
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
def create_record(name: str, rows: list[int]) -> dict:
    return {"table": name, "kind": "create", "version": 1, "generation": "g0",
            "row_group_size": 64, "columns": {"a": "<i8"}, "row_groups": rows,
            "zone_maps": [{} for _ in rows], "checksums": [{"a": r} for r in rows]}


def test_append_scan_roundtrip(tmp_path):
    log = CatalogLog(tmp_path)
    state = CatalogState()
    for record in (create_record("t", [3]),
                   {"table": "t", "kind": "append", "version": 2, "row_groups": [4, 5],
                    "zone_maps": [{}, {}], "checksums": [{"a": 4}, {"a": 5}]},
                   create_record("u", []),
                   {"table": "u", "kind": "drop"}):
        state = log.append(state, record)
    loaded, scan = log.load()
    assert not scan.torn_tail and not scan.corrupt_record
    assert scan.good_bytes == loaded.offset == log.log_path(state).stat().st_size
    assert [r["seq"] for r in scan.records] == [1, 2, 3, 4]
    assert loaded.tables == state.tables and loaded.folds == state.folds
    assert loaded.tables["t"]["row_groups"] == [3, 4, 5] and loaded.tables["t"]["version"] == 2
    assert list(loaded.tables) == ["t"]


def test_pending_on_missing_or_empty_log(tmp_path):
    log = CatalogLog(tmp_path)
    for _ in range(2):
        state, scan = log.load()
        assert state == CatalogState() and scan.good_bytes == 0
        assert not scan.torn_tail and not scan.corrupt_record
        log.log_path(state).write_bytes(b"")


# ----------------------------------------------------------------------
# commit protocol: kills at every stage
# ----------------------------------------------------------------------
class TestCommitProtocol:
    def _seeded(self, path) -> tuple[Database, Frame, Frame]:
        db = open_db(path)
        base, extra = make_frame(40), make_frame(24, start=40)
        db.create_table("t", base, row_group_size=16)
        return db, base, extra

    def _twin_signature(self, path, base: Frame, *extras: Frame) -> str:
        twin = open_db(path)
        twin.create_table("t", base, row_group_size=16)
        for extra in extras:
            twin.append("t", extra)
        return twin.store("t").content_signature()

    @pytest.mark.parametrize(
        "point_field",
        ["ingest_kill_apply", "ingest_partial_row_group", "ingest_kill_publish"],
    )
    def test_kill_is_invisible_then_recovery_drops_it(self, tmp_path, point_field):
        """A kill anywhere leaves exactly the pre-append table — even after
        ``ingest_kill_publish``, when every new segment is complete on disk,
        because a store reads only the row groups its catalog entry lists —
        and recovery drops what was staged: the append was never
        acknowledged, so it is absent until the writer sends it again."""
        db, base, extra = self._seeded(tmp_path / "db")
        pre_version = db.table_version("t")
        pre_signature = db.store("t").content_signature()

        with killing(point_field), faults.arm_ingest_kills():
            with pytest.raises(IngestKilled):
                db.append("t", extra)

        # 40 rows are rg00000-rg00002; the 24 new ones would be rg00003-4
        staged = [db.store("t").path / f"rg{i:05d}" for i in (3, 4)]
        if point_field == "ingest_kill_publish":
            for rg_path, rows in zip(staged, (extra[:16], extra[16:])):
                segment = GIOFile(rg_path)
                for column in rows.columns:
                    assert np.array_equal(segment.read_column(column), rows.column(column))
        # a fresh handle (= a reader process) sees only the committed state
        reader = open_db(tmp_path / "db")
        assert reader.table_version("t") == pre_version
        assert reader.store("t").num_rows == base.num_rows
        assert reader.store("t").content_signature() == pre_signature
        count = reader.query("SELECT COUNT(*) AS n FROM t")
        assert int(count.column("n")[0]) == base.num_rows

        # recovery drops what was staged and leaves the table pre-append
        orphans = sum(rg_path.is_file() for rg_path in staged)
        assert orphans == {"ingest_kill_apply": 0, "ingest_partial_row_group": 1,
                           "ingest_kill_publish": 2}[point_field]
        report = db.recover()
        assert report == {"torn_tail": 0, "corrupt": 0, "orphan_groups": orphans}
        assert not any(rg_path.exists() for rg_path in staged)
        after = open_db(tmp_path / "db")
        assert after.table_version("t") == pre_version
        assert after.store("t").content_signature() == pre_signature
        # the supervised retry lands the bytes of a twin never killed
        db.append("t", extra)
        assert open_db(tmp_path / "db").store("t").content_signature() == \
            self._twin_signature(tmp_path / "twin", base, extra)

    def test_torn_wal_append_recovers_to_pre_append(self, tmp_path):
        """Dying mid-record leaves a torn commit frame: recovery drops the
        torn tail and the table stays exactly pre-append; the retried
        append then lands the same bytes as a never-killed twin."""
        db, base, extra = self._seeded(tmp_path / "db")
        pre_signature = db.store("t").content_signature()

        before = counter(obs_names.WAL_TORN_TAIL_DROPPED)
        with killing("wal_torn_tail"), faults.arm_ingest_kills():
            with pytest.raises(IngestKilled, match="commit-frame"):
                db.append("t", extra)
        report = db.recover()
        assert report["torn_tail"] == 1 and report["orphan_groups"] == 2
        assert counter(obs_names.WAL_TORN_TAIL_DROPPED) == before + 1
        assert open_db(tmp_path / "db").store("t").content_signature() == pre_signature

        db.append("t", extra)  # the supervised retry
        assert db.store("t").content_signature() == self._twin_signature(
            tmp_path / "twin", base, extra
        )

    def test_next_write_settles_interrupted_commit_first(self, tmp_path):
        """A writer reopening after a death mid-record need not call
        recover() by hand: its first write cuts the torn frame off before
        appending its own, which would otherwise sit unreadable behind it."""
        db, base, extra = self._seeded(tmp_path / "db")
        with killing("wal_torn_tail"), faults.arm_ingest_kills():
            with pytest.raises(IngestKilled):
                db.append("t", extra)

        writer = open_db(tmp_path / "db")
        tail = make_frame(8, start=64)
        writer.append("t", tail)  # settles the torn tail, then appends

        twin = self._twin_signature(tmp_path / "twin", base, tail)
        assert writer.store("t").content_signature() == twin
        assert open_db(tmp_path / "db").store("t").content_signature() == twin

    def test_recovery_skips_already_committed_record(self, tmp_path):
        """A crash *after* a checkpoint publish but before the old log is
        removed leaves that log behind, holding records the checkpoint
        already has; they must not apply twice."""
        db, base, extra = self._seeded(tmp_path / "db")
        db.append("t", extra)
        committed = db.store("t").content_signature()
        (old_log,) = db.path.glob("catalog.*.log")
        kept = old_log.read_bytes()
        db.recover()  # checkpoints both commits, removes the old log
        old_log.write_bytes(kept)  # ... as if the crash came first

        for handle in (open_db(tmp_path / "db"), db):
            assert handle.store("t").content_signature() == committed
            assert handle.table_version("t") == 2
        report = open_db(tmp_path / "db").recover()
        assert report == {"torn_tail": 0, "corrupt": 0, "orphan_groups": 0}
        assert not old_log.exists()
        assert open_db(tmp_path / "db").store("t").content_signature() == committed

    def test_nbytes_counts_only_listed_row_groups(self, tmp_path):
        """Between a death and ``recover()`` the staged row groups are on
        disk but no entry lists them: they are not the table's bytes."""
        db, _, extra = self._seeded(tmp_path / "db")
        before = db.nbytes()
        with killing("ingest_kill_publish"), faults.arm_ingest_kills():
            with pytest.raises(IngestKilled):
                db.append("t", extra)
        assert (db.store("t").path / "rg00004").is_file()
        assert db.nbytes() == open_db(tmp_path / "db").nbytes() == before
        assert db.recover()["orphan_groups"] == 2
        assert db.nbytes() == before

    def test_recovery_is_idempotent(self, tmp_path):
        db, _, extra = self._seeded(tmp_path / "db")
        with killing("ingest_kill_publish"), faults.arm_ingest_kills():
            with pytest.raises(IngestKilled):
                db.append("t", extra)
        first = db.recover()
        assert first["orphan_groups"] == 2
        second = db.recover()
        assert second == {"torn_tail": 0, "corrupt": 0, "orphan_groups": 0}

    def test_killed_create_restarts_from_nothing(self, tmp_path):
        """A create killed after staging leaves no table, and recovery drops
        its generation, so the retried create cannot double its row
        groups."""
        db = open_db(tmp_path / "db")
        frame = make_frame(40)
        with killing("ingest_kill_publish"), faults.arm_ingest_kills():
            with pytest.raises(IngestKilled):
                db.create_table("t", frame, row_group_size=16)
        assert not open_db(tmp_path / "db").has_table("t")
        assert db.recover()["orphan_groups"] == 3
        assert not (tmp_path / "db" / "t").exists()
        db.create_table("t", frame, row_group_size=16)
        twin = open_db(tmp_path / "twin")
        twin.create_table("t", frame, row_group_size=16)
        assert open_db(tmp_path / "db").store("t").content_signature() == \
            twin.store("t").content_signature()


def _bytes_written() -> int:
    """Bytes this process has passed to ``write`` so far."""
    with open("/proc/self/io") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("wchar:"))


class TestCommitCost:
    """An append's cost does not grow with the table: its commit record is
    its own delta, and what it writes is its row group plus that record
    (and a share of each ``CHECKPOINT_EVERY``-th commit's checkpoint)."""

    def test_commit_frames_and_bytes_written_do_not_grow_with_the_table(
        self, tmp_path, monkeypatch
    ):
        rng = np.random.default_rng(9)
        rows = 1024

        def frame(i: int) -> Frame:
            return Frame({
                "id": np.arange(i * rows, (i + 1) * rows, dtype=np.int64),
                "step": np.full(rows, 624, dtype=np.int64),
                "run": rng.integers(0, 8, rows),
                "mass": rng.lognormal(3.0, 1.0, rows),
                "x": rng.normal(0.0, 1.0, rows),
                "y": rng.normal(0.0, 1.0, rows),
            })

        db = open_db(tmp_path / "db")
        db.create_table("t", frame(0), row_group_size=rows)
        frames, real_append = [], CatalogLog.append

        def measured(self, state, record):
            new = real_append(self, state, record)
            frames.append(new.offset - state.offset)
            return new

        monkeypatch.setattr(CatalogLog, "append", measured)
        written = 0
        for i in range(1, 201):
            data = frame(i)
            before = _bytes_written()
            db.append("t", data)
            written += _bytes_written() - before
        assert len(frames) == 200
        assert abs(frames[199] - frames[9]) <= 64, (frames[9], frames[199])
        row_group = (db.store("t").path / "rg00200").stat().st_size
        assert written / 200 <= 1.1 * row_group, (written / 200, row_group)


def _tree_bytes(root) -> dict[str, bytes]:
    return {str(f.relative_to(root)): f.read_bytes() for f in sorted(root.rglob("*")) if f.is_file()}


class TestFailedStatement:
    """A statement that fails short of a death leaves nothing behind: no
    bytes in the log, no staged row groups, and a handle equal to a fresh
    one on the same directory."""

    def _two_tables(self, path) -> Database:
        db = open_db(path)
        db.create_table("a", make_frame(40), row_group_size=16)
        db.create_table("b", make_frame(8), row_group_size=16)
        return db

    def test_refused_append_poisons_nothing(self, tmp_path):
        db = self._two_tables(tmp_path / "db")
        before = _tree_bytes(tmp_path / "db" / "a")
        version = db.table_version("a")
        log = tmp_path / "db" / "catalog.0.log"
        logged = log.read_bytes()

        with pytest.raises(DBError, match="schema mismatch"):
            db.append("a", Frame({"a": np.arange(3), "other": np.arange(3)}))

        # nothing of the refused statement is left in the log
        assert log.read_bytes() == logged
        # the same handle and a fresh one both keep writing, to any table
        db.append("b", make_frame(4, start=8))
        fresh = open_db(tmp_path / "db")
        fresh.append("b", make_frame(4, start=12))
        assert fresh.store("b").num_rows == 16
        assert fresh.recover()["orphan_groups"] == 0
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

        # log untouched, staged groups gone, handle equal to a fresh one
        after = _tree_bytes(tmp_path / "db")
        assert after == before
        assert not (tmp_path / "db" / "c").exists()
        fresh = open_db(tmp_path / "db")
        assert db.snapshot().tables == fresh.snapshot().tables
        assert db.list_tables() == ["a", "b"]
        assert fresh.recover() == {"torn_tail": 0, "corrupt": 0, "orphan_groups": 0}
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
    """A commit record names one table: a write to ``a`` that dies at any
    stage, or fails and rolls back, and the recovery after it, must leave
    ``b``'s entry and content signature exactly as they were, and ``a``
    as it was."""

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
        entry, signature = db.snapshot().entry("b"), db.store("b").content_signature()

        def b_is_unchanged():
            for handle in (db, open_db(db.path)):
                assert handle.snapshot().entry("b") == entry
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
        db.recover()
        b_is_unchanged()
        assert (db.table_version("a"), db.store("a").num_rows) == (1, 40)
        db.append("a", make_frame(4, start=64))
        b_is_unchanged()


# ----------------------------------------------------------------------
# damage property tests: every truncation point, single bit flips.  The
# verdict is repro.durable.scan_frames', so both users of the framing (this
# log, the checkpoint blobs) are inputs; what the log adds is tested after.
# ----------------------------------------------------------------------
MAGICS = (CATALOG_MAGIC, CHECKPOINT_MAGIC)


def _damage_log(magic: bytes) -> tuple[bytes, list[int]]:
    """Three framed records plus the byte offsets of the frame boundaries."""
    data, boundaries = b"", [0]
    for i in range(3):
        record = {"seq": i, "table": "t", "kind": "append", "version": i + 2,
                  "row_groups": [10 * (i + 1)], "zone_maps": [{}], "checksums": [{"a": i}]}
        data += frame(magic, json.dumps(record).encode())
        boundaries.append(len(data))
    return data, boundaries


def test_truncation_at_every_byte_boundary_classified():
    """Cut the frames at *every* byte offset: the scan keeps exactly the
    frames wholly before the cut and classifies the remainder as a torn
    tail, never as corruption."""
    for magic in MAGICS:
        data, boundaries = _damage_log(magic)
        for cut in range(len(data) + 1):
            scan = scan_frames(magic, data[:cut], json.loads)
            keep = max(i for i, b in enumerate(boundaries) if b <= cut)
            assert [r["seq"] for r in scan.records] == list(range(keep)), (magic, cut)
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
            scan = scan_frames(magic, bytes(flipped), json.loads)

            # the damaged frame and everything after it are dropped
            damaged = max(i for i, b in enumerate(boundaries) if b <= pos)
            assert [r["seq"] for r in scan.records] == list(range(damaged)), (magic, pos)
            assert scan.torn_tail != scan.corrupt_record, (magic, pos)  # exactly one class
            assert scan.good_bytes == boundaries[damaged]
            assert scan.dropped_bytes == len(data) - boundaries[damaged]

            rescan = scan_frames(magic, bytes(flipped[: scan.good_bytes]), json.loads)
            assert len(rescan.records) == damaged
            assert not rescan.torn_tail and not rescan.corrupt_record


def _three_commits(path) -> tuple[Database, list[int]]:
    """``t`` created and appended to twice, plus the log's frame boundaries."""
    db = open_db(path)
    db.create_table("t", make_frame(20), row_group_size=16)
    log = path / "catalog.0.log"
    boundaries = [0, log.stat().st_size]
    for i in range(2):
        db.append("t", make_frame(8, start=20 + 8 * i))
        boundaries.append(log.stat().st_size)
    return db, boundaries


@pytest.mark.parametrize(
    "damage, counted",
    [("cut", obs_names.WAL_TORN_TAIL_DROPPED), ("flip", obs_names.WAL_CORRUPT_DROPPED)],
)
def test_pending_counts_the_drop_and_cuts_the_log(tmp_path, damage, counted):
    """Recovery counts the scan's verdict once under its classified name
    and cuts the log to the good prefix, after which the catalog holds
    exactly the commits before the damage; a second recovery finds
    nothing."""
    db, boundaries = _three_commits(tmp_path / "db")
    log = tmp_path / "db" / "catalog.0.log"
    raw = bytearray(log.read_bytes())
    if damage == "cut":
        del raw[boundaries[2] + 5:]  # inside the third frame's header
    else:
        raw[boundaries[2] - 3] ^= 0x10  # inside the second frame's payload
    log.write_bytes(bytes(raw))
    names = (obs_names.WAL_TORN_TAIL_DROPPED, obs_names.WAL_CORRUPT_DROPPED)
    before = {name: counter(name) for name in names}

    # readers stop at the damage and leave the bytes alone
    kept = 2 if damage == "cut" else 1
    assert open_db(tmp_path / "db").table_version("t") == kept
    assert log.read_bytes() == bytes(raw)

    report = db.recover()
    assert (report["torn_tail"], report["corrupt"]) == (damage == "cut", damage == "flip")
    assert {name: counter(name) - before[name] for name in names} == {
        name: int(name == counted) for name in names
    }
    assert open_db(tmp_path / "db").table_version("t") == kept
    assert db.store("t").num_rows == 20 + 8 * (kept - 1)

    assert open_db(tmp_path / "db").recover() == {"torn_tail": 0, "corrupt": 0,
                                                  "orphan_groups": 0}
    assert {name: counter(name) - before[name] for name in names} == {
        name: int(name == counted) for name in names
    }


def test_corrupt_record_mid_log_drops_suffix(tmp_path):
    """Damage to an *interior* record drops it and every later record —
    the log applies in commit order, so a suffix cannot apply over a
    hole — and the database-level recovery classifies it and drops the
    row groups only the dropped records listed."""
    db, boundaries = _three_commits(tmp_path / "db")
    log = tmp_path / "db" / "catalog.0.log"
    raw = bytearray(log.read_bytes())
    raw[boundaries[1] + 30] ^= 0xFF  # inside the second record
    log.write_bytes(bytes(raw))

    report = open_db(tmp_path / "db").recover()
    assert report == {"torn_tail": 0, "corrupt": 1, "orphan_groups": 2}
    fresh = open_db(tmp_path / "db")
    assert fresh.table_version("t") == 1 and fresh.store("t").num_rows == 20


def test_a_stale_handle_follows_checkpoints(tmp_path):
    """A reader handle opened before any number of checkpoints, and one
    whose log was rotated away under it, still sees every commit."""
    db = open_db(tmp_path / "db")
    reader = open_db(tmp_path / "db")
    db.create_table("t", make_frame(4), row_group_size=4)
    assert reader.store("t").num_rows == 4
    for i in range(80):
        db.append("t", make_frame(1, start=4 + i))
        if i % 29 == 0:
            assert reader.store("t").num_rows == 5 + i
    assert reader.table_version("t") == 81
    assert open_db(tmp_path / "db").store("t").content_signature() == \
        reader.store("t").content_signature() == db.store("t").content_signature()
    db.drop_table("t")
    assert reader.list_tables() == []


def test_recovery_survives_a_checkpoint_torn_three_times(tmp_path):
    """The log is authoritative and the checkpoint only an optimisation: a
    recovery whose ``catalog.json`` publish is torn on every attempt still
    succeeds, and the database reads every commit from the log."""
    db = open_db(tmp_path / "db")
    db.create_table("t", make_frame(20), row_group_size=16)
    db.append("t", make_frame(8, start=20))
    signature = db.store("t").content_signature()
    torn = faults.FaultProfile(seed=3, storage_torn_write=1.0)
    with faults.use_faults(faults.FaultInjector(torn)):
        assert db.recover() == {"torn_tail": 0, "corrupt": 0, "orphan_groups": 0}
    assert not (tmp_path / "db" / "catalog.json").exists()
    for handle in (db, open_db(tmp_path / "db")):
        assert handle.store("t").content_signature() == signature
    db.append("t", make_frame(4, start=28))
    db.recover()
    assert (tmp_path / "db" / "catalog.json").exists()
    assert open_db(tmp_path / "db").store("t").num_rows == 32
