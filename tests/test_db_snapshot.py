"""Snapshot isolation (MVCC-lite): pinned readers vs a live appender.

A pinned :class:`CatalogSnapshot` must be repeatable byte-for-byte for
its whole lifetime no matter how many appends commit around it, the pin
must be per-thread, unpinned reads must always land on a committed
catalog (never a staged hybrid), and the table-state cache key taken
under a pin must match the quiescent database at that version.
"""

import threading

import numpy as np
import pytest

from repro.db.database import Database
from repro.db.errors import DBError
from repro.frame import Frame


def make_frame(n: int, start: int = 0) -> Frame:
    idx = np.arange(start, start + n, dtype=np.int64)
    return Frame({"a": idx, "b": idx.astype(np.float64) * 0.5})


def frame_bytes(frame: Frame) -> bytes:
    return b"|".join(
        name.encode() + np.asarray(frame.column(name)).tobytes()
        for name in frame.columns
    )


@pytest.fixture()
def db(tmp_path) -> Database:
    handle = Database(tmp_path / "db", result_cache=False)
    handle.create_table("t", make_frame(48), row_group_size=16)
    return handle


SQL = "SELECT a, b FROM t ORDER BY a"
COUNT = "SELECT COUNT(*) AS n FROM t"


class TestPinnedReads:
    def test_pinned_snapshot_is_stable_across_appends(self, db):
        snap = db.snapshot()
        before = frame_bytes(db.query(SQL))
        for i in range(3):
            db.append("t", make_frame(16, start=48 + 16 * i))
        with db.pinned(snap):
            assert db.table_version("t") == 1
            assert db.store("t").num_rows == 48
            assert frame_bytes(db.query(SQL)) == before
            assert int(db.query(COUNT).column("n")[0]) == 48
        # outside the pin the same handle sees every committed append
        assert db.table_version("t") == 4
        assert int(db.query(COUNT).column("n")[0]) == 96

    def test_table_state_under_pin_matches_quiescent_twin(self, tmp_path, db):
        """The cache key taken under a pin must equal the key a database
        that never advanced past this version would compute — that is what
        makes result-cache hits safe while ingestion runs."""
        snap = db.snapshot()
        db.append("t", make_frame(16, start=48))
        twin = Database(tmp_path / "twin", result_cache=False)
        twin.create_table("t", make_frame(48), row_group_size=16)
        with db.pinned(snap):
            assert db.table_state("t") == twin.table_state("t")
        assert db.table_state("t") != twin.table_state("t")

    def test_pin_is_per_thread(self, db):
        snap = db.snapshot()
        db.append("t", make_frame(16, start=48))
        seen = {}

        def other_thread():
            seen["version"] = db.table_version("t")
            seen["rows"] = int(db.query(COUNT).column("n")[0])

        with db.pinned(snap):
            worker = threading.Thread(target=other_thread)
            worker.start()
            worker.join(timeout=30.0)
            assert db.table_version("t") == 1  # this thread stays pinned
        assert seen == {"version": 2, "rows": 64}

    def test_pins_nest(self, db):
        old = db.snapshot()
        db.append("t", make_frame(16, start=48))
        new = db.snapshot()
        with db.pinned(old):
            assert db.store("t").num_rows == 48
            with db.pinned(new):
                assert db.store("t").num_rows == 64
            assert db.store("t").num_rows == 48

    def test_second_handle_snapshot_replays_byte_identical(self, tmp_path, db):
        """The serving pattern: reader and writer are different Database
        handles over one directory.  A snapshot pinned before a commit
        replays the same bytes after it; a fresh snapshot sees the commit."""
        reader = Database(tmp_path / "db", result_cache=False)
        snap = reader.snapshot()
        with reader.pinned(snap):
            before = frame_bytes(reader.query(SQL))
        db.append("t", make_frame(16, start=48))
        with reader.pinned(snap):
            assert frame_bytes(reader.query(SQL)) == before
        assert int(reader.query(COUNT).column("n")[0]) == 64


def statement_snapshots(monkeypatch) -> list:
    """The snapshot each statement executes under, in order."""
    seen, real = [], Database._execute_select

    def spy(self, stmt):
        seen.append(self._active_snapshot())
        return real(self, stmt)

    monkeypatch.setattr(Database, "_execute_select", spy)
    return seen


class TestParsedOncePerCommit:
    """A handle parses ``catalog.json`` again only when its bytes change:
    statements between two commits share one snapshot (its stores, bloom
    caches and cache-key states included), and a commit from any handle
    is visible at the next statement."""

    def test_statements_without_a_commit_share_one_snapshot(self, db, monkeypatch):
        seen = statement_snapshots(monkeypatch)
        db.query(SQL)
        db.query(COUNT)
        assert len(seen) == 2 and seen[0] is seen[1]
        assert db.snapshot() is seen[0]
        assert db.store("t") is seen[0].store("t")
        assert db.table_state("t") is seen[0].table_state("t")

    def test_a_commit_by_another_handle_is_seen_at_the_next_statement(
        self, tmp_path, db, monkeypatch
    ):
        writer = Database(tmp_path / "db", result_cache=False)
        seen = statement_snapshots(monkeypatch)
        assert int(db.query(COUNT).column("n")[0]) == 48
        writer.append("t", make_frame(16, start=48))
        assert int(db.query(COUNT).column("n")[0]) == 64
        assert int(db.query(COUNT).column("n")[0]) == 64
        assert seen[0] is not seen[1] and seen[1] is seen[2]
        assert db.table_version("t") == 2

    def test_a_pin_held_across_another_handles_commit_reads_the_old_rows(
        self, tmp_path, db
    ):
        writer = Database(tmp_path / "db", result_cache=False)
        with db.pinned() as snap:
            before = frame_bytes(db.query(SQL))
            writer.append("t", make_frame(16, start=48))
            assert frame_bytes(db.query(SQL)) == before
            assert (db.table_version("t"), db.store("t").num_rows) == (1, 48)
        assert db.snapshot() is not snap
        assert (db.table_version("t"), db.store("t").num_rows) == (2, 64)


class TestPinAcrossDrop:
    """A pin taken before another handle drops a table reads its own bytes
    or raises a database error: never a re-created table's rows, never a
    raw ``FileNotFoundError``."""

    SUM = "SELECT SUM(a) AS s FROM t"

    @pytest.fixture()
    def pinned_db(self, tmp_path):
        db = Database(tmp_path / "db", result_cache=False)
        db.create_table("t", Frame({"a": np.arange(10)}))
        return db, Database(tmp_path / "db", result_cache=False)

    def test_a_re_created_table_is_never_read_through_an_older_pin(self, pinned_db):
        db, other = pinned_db
        with db.pinned():
            assert db.query(self.SUM)["s"].tolist() == [45]
            other.drop_table("t")
            other.create_table("t", Frame({"a": np.arange(100, 110)}))
            with pytest.raises(DBError, match="dropped or re-created"):
                db.query(self.SUM)
        assert db.query(self.SUM)["s"].tolist() == [1045]

    def test_a_dropped_table_read_through_a_pin_is_a_database_error(self, pinned_db):
        db, other = pinned_db
        with db.pinned():
            assert db.query(self.SUM)["s"].tolist() == [45]
            other.drop_table("t")
            with pytest.raises(DBError, match="dropped or re-created"):
                db.query(self.SUM)
        assert not (db.path / "t").exists()

    def test_each_create_names_a_new_generation(self, pinned_db):
        db, other = pinned_db
        first = db.store("t").path
        signature = db.store("t").content_signature()
        other.drop_table("t")
        other.create_table("t", Frame({"a": np.arange(10)}))
        assert db.store("t").path.parent == first.parent
        assert db.store("t").path != first and not first.exists()
        # the content signature (and so every cache key) ignores the name
        assert db.store("t").content_signature() == signature


class TestConcurrentAppends:
    def test_reads_only_ever_see_committed_totals(self, tmp_path):
        """Unpinned counts racing a writer must land on a committed total
        (48 + 16k), never a partially staged one."""
        db = Database(tmp_path / "db", result_cache=False)
        db.create_table("t", make_frame(48), row_group_size=16)
        reader = Database(tmp_path / "db", result_cache=False)
        batches, stop = 6, threading.Event()
        observed, errors = [], []

        def read_loop():
            try:
                while not stop.is_set():
                    observed.append(int(reader.query(COUNT).column("n")[0]))
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        worker = threading.Thread(target=read_loop)
        worker.start()
        try:
            for i in range(batches):
                db.append("t", make_frame(16, start=48 + 16 * i))
        finally:
            stop.set()
            worker.join(timeout=60.0)
        assert not errors
        allowed = {48 + 16 * k for k in range(batches + 1)}
        assert observed and set(observed) <= allowed

    def test_readers_sharing_a_handle_never_lose_a_commit(self, tmp_path):
        """Six threads share one reader handle (and so its parsed snapshot)
        while another handle commits, with a short switch interval: each
        thread's counts only ever grow, and every thread's first statement
        after the last commit sees all of it.  A parse paired with the
        wrong commit's bytes would leave a thread on a stale count."""
        import sys

        db = Database(tmp_path / "db", result_cache=False)
        db.create_table("t", make_frame(48), row_group_size=16)
        reader = Database(tmp_path / "db", result_cache=False)
        batches, done = 8, threading.Event()
        final = 48 + 16 * batches
        observed, errors = {}, []

        def read_loop(tid):
            counts = observed[tid] = []
            try:
                while True:
                    finished = done.is_set()
                    counts.append(int(reader.query(COUNT).column("n")[0]))
                    if finished:
                        return
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [threading.Thread(target=read_loop, args=(i,)) for i in range(6)]
            for worker in workers:
                worker.start()
            for i in range(batches):
                db.append("t", make_frame(16, start=48 + 16 * i))
            done.set()
            for worker in workers:
                worker.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not any(w.is_alive() for w in workers)
        for counts in observed.values():
            assert counts == sorted(counts)
            assert counts[-1] == final

    def test_statement_pin_keeps_one_select_consistent(self, tmp_path):
        """Even without an explicit pin, each statement runs under one
        snapshot: a sort over the whole table racing appends returns some
        committed prefix, exactly ordered with no duplicated rows."""
        db = Database(tmp_path / "db", result_cache=False)
        db.create_table("t", make_frame(48), row_group_size=16)
        reader = Database(tmp_path / "db", result_cache=False)
        results, errors, stop = [], [], threading.Event()

        def read_loop():
            try:
                while not stop.is_set():
                    results.append(np.asarray(reader.query(SQL).column("a")))
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        worker = threading.Thread(target=read_loop)
        worker.start()
        try:
            for i in range(6):
                db.append("t", make_frame(16, start=48 + 16 * i))
        finally:
            stop.set()
            worker.join(timeout=60.0)
        assert not errors
        for column in results:
            assert np.array_equal(column, np.arange(len(column)))
            assert len(column) in {48 + 16 * k for k in range(7)}

    def test_raced_pinned_reads_replay_byte_identical(self, tmp_path):
        """A statement run under a pin *while* the writer commits must
        equal the same statement re-run under the same pin long after the
        writer has overtaken it: committed prefixes are immutable, so the
        replay is exact if and only if isolation held during the race."""
        db = Database(tmp_path / "db", result_cache=False)
        db.create_table("t", make_frame(48), row_group_size=16)
        reader = Database(tmp_path / "db", result_cache=False)
        batches, raced, errors, stop = 6, [], [], threading.Event()

        def read_loop():
            try:
                while not stop.is_set():
                    snap = reader.snapshot()
                    with reader.pinned(snap):
                        raced.append((snap, frame_bytes(reader.query(SQL))))
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        worker = threading.Thread(target=read_loop)
        worker.start()
        try:
            for i in range(batches):
                db.append("t", make_frame(16, start=48 + 16 * i))
        finally:
            stop.set()
            worker.join(timeout=60.0)
        assert not worker.is_alive() and not errors
        assert int(reader.query(COUNT).column("n")[0]) == 48 + 16 * batches
        assert raced
        for snap, seen in raced:
            with reader.pinned(snap):
                assert frame_bytes(reader.query(SQL)) == seen
