"""A stateful model of the database's write path: the commit protocol.

A hypothesis ``RuleBasedStateMachine`` drives one database directory
through creates, appends, drops, queries, pins, reopens, recoveries and
two kinds of trouble: an armed ingest kill point (the writer dies at a
protocol stage) and an armed non-kill failure (the statement fails and
must leave nothing behind).  Its model is a dict of numpy columns per
table, holding exactly what was acknowledged.  The invariants:

* an acknowledged write is readable, through the same handle and after a
  reopen;
* an unacknowledged (killed) write is absent or whole after recovery,
  never a prefix;
* a pinned snapshot reads its own rows, or raises the "is gone"
  ``DBError`` once its table was dropped;
* a failed statement leaves a handle equal to a fresh one on the same
  directory;
* every exception is a ``repro.db.errors`` type.

With ``REPRO_FAULT_PROFILE`` set (CI's heavy-chaos step), every write and
every recovery also runs under that profile with the kill points armed.
"""

from __future__ import annotations

import shutil
import tempfile
from contextlib import ExitStack, contextmanager
from pathlib import Path

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro import faults
from repro.db import Database
from repro.db.errors import DBError, IngestKilled
from repro.db.storage import TableStore
from repro.frame import Frame

NAMES = ("t0", "t1", "t2")
KILL_FIELDS = (
    "wal_torn_tail",
    "ingest_kill_apply",
    "ingest_partial_row_group",
    "ingest_kill_publish",
)
FAILURES = ("schema", "torn_publish", "stage_error")
ROW_GROUP_SIZE = 8
ENV_PROFILE = faults.FaultProfile.from_env(seed=11)

Columns = dict[str, np.ndarray]


def make_columns(rows: int, start: int, with_text: bool, width: int) -> Columns:
    idx = np.arange(start, start + rows, dtype=np.int64)
    columns = {"a": idx, "b": idx.astype(np.float64) * 0.5}
    if with_text:
        columns["s"] = np.array([f"{i:0{width}d}"[-width:] for i in range(start, start + rows)])
    return columns


def concat_columns(left: Columns, right: Columns) -> Columns:
    if not left:
        return dict(right)
    return {name: np.concatenate([left[name], right[name]]) for name in left}


def as_lists(frame: Frame) -> dict[str, list]:
    return {name: np.asarray(frame.column(name)).astype(str).tolist() for name in frame.columns}


def model_lists(columns: Columns) -> dict[str, list]:
    """What ``table_frame`` returns for ``columns``: a table with no rows
    materialises as a frame with no columns."""
    if not columns or not len(next(iter(columns.values()))):
        return {}
    return {name: np.asarray(col).astype(str).tolist() for name, col in columns.items()}


class CommitProtocolMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.root = Path(tempfile.mkdtemp(prefix="commit-machine-"))
        self.path = self.root / "db"
        self.db = self._open()
        self.model: dict[str, Columns] = {}   # acknowledged tables
        self.pending: tuple | None = None     # (name, columns after) of a killed write
        self.pins: list[tuple] = []           # (handle, snapshot, {name: columns}, drops)
        self.drops = {name: 0 for name in NAMES}  # acknowledged drops per table
        self.kill: str | None = None          # armed for the next write
        self.failure: str | None = None       # armed for the next write
        self.counter = 0

    def teardown(self):
        shutil.rmtree(self.root, ignore_errors=True)

    # -- helpers --------------------------------------------------------
    def _open(self) -> Database:
        return Database(self.path, cache_dir=self.root / "qc")

    def _call(self, fn, *args):
        """Run one database call; every exception must be a db error."""
        try:
            return fn(*args), None
        except DBError as exc:
            return None, exc
        except Exception as exc:  # pragma: no cover - the invariant's failure
            raise AssertionError(f"non-database exception {type(exc).__name__}: {exc}") from exc

    @contextmanager
    def _armed(self):
        """The write's trouble: the environment's profile, the armed kill
        point, the armed non-kill failure."""
        kill, failure = self.kill, self.failure
        self.kill = self.failure = None
        rates = {}
        if kill:
            rates[kill] = 1.0
        if failure == "torn_publish":
            rates["storage_torn_write"] = 1.0
        with ExitStack() as stack:
            if rates or ENV_PROFILE.enabled:
                profile = ENV_PROFILE.with_rates(**rates)
                stack.enter_context(faults.use_faults(faults.FaultInjector(profile)))
                stack.enter_context(faults.arm_ingest_kills())
            if failure == "stage_error":
                real = TableStore.stage_append

                def fail_mid_stage(store, frame, row_group_size=ROW_GROUP_SIZE):
                    real(store, frame[:1], row_group_size)  # one segment lands
                    raise DBError("disk says no")

                TableStore.stage_append = fail_mid_stage
                stack.callback(setattr, TableStore, "stage_append", real)
            yield failure

    def _write(self, fn, name: str, after: Columns | None) -> None:
        """Run one write; settle the model by its outcome."""
        before = self._state(self.db)
        with self._armed():
            _, exc = self._call(fn)
        if exc is None:
            if after is None:
                self.model.pop(name, None)
                self.drops[name] += 1
            else:
                self.model[name] = after
        elif isinstance(exc, IngestKilled):
            self.pending = (name, after)
        else:
            # a failed statement: the handle equals a fresh one, and both
            # equal the state before it
            assert self._state(self.db) == before
            assert self._state(self._open()) == before

    def _state(self, db: Database) -> dict:
        out = {}
        for name in db.list_tables():
            out[name] = (db.table_version(name), db.table_state(name),
                         as_lists(db.table_frame(name)))
        return out

    def _assert_matches_model(self, db: Database) -> None:
        assert db.list_tables() == sorted(self.model)
        for name, columns in self.model.items():
            assert sorted(db.schema(name)) == sorted(columns), name
            assert as_lists(db.table_frame(name)) == model_lists(columns), name
            if columns:
                count = db.query(f"SELECT COUNT(*) AS n FROM {name}").column("n")
                assert int(count[0]) == len(next(iter(columns.values())))

    def _columns(self, name: str, rows: int, text: bool, width: int) -> Columns:
        self.counter += rows
        existing = self.model.get(name)
        if existing:
            text = "s" in existing
        return make_columns(rows, self.counter, text, width)

    # -- writes ---------------------------------------------------------
    @precondition(lambda self: self.pending is None)
    @rule(name=st.sampled_from(NAMES), rows=st.integers(0, 20), text=st.booleans(),
          width=st.integers(1, 4), empty=st.booleans())
    def create(self, name, rows, text, width, empty):
        if empty:
            self._write(lambda: self.db.create_table(name), name, {} if name not in self.model else None)
            return
        columns = self._columns(name, rows, text, width)
        frame = Frame(columns)
        after = columns if name not in self.model else None
        if name in self.model:
            # a duplicate create is a refused statement
            _, exc = self._call(self.db.create_table, name, frame, ROW_GROUP_SIZE)
            assert isinstance(exc, DBError) and "already exists" in str(exc)
            return
        self._write(lambda: self.db.create_table(name, frame, ROW_GROUP_SIZE), name, after)

    @precondition(lambda self: self.pending is None and self.model)
    @rule(data=st.data(), rows=st.integers(0, 20), width=st.integers(1, 6))
    def append(self, data, rows, width):
        name = data.draw(st.sampled_from(sorted(self.model)))
        columns = self._columns(name, rows, data.draw(st.booleans()), width)
        if self.failure == "schema":
            self.failure = None
            columns = {**columns, "extra": np.arange(rows)}
            before = self._state(self.db)
            _, exc = self._call(self.db.append, name, Frame(columns))
            assert isinstance(exc, DBError)
            assert self._state(self.db) == before == self._state(self._open())
            return
        after = concat_columns(self.model[name], columns)
        self._write(lambda: self.db.append(name, Frame(columns)), name, after)

    @precondition(lambda self: self.pending is None and self.model)
    @rule(data=st.data())
    def drop(self, data):
        name = data.draw(st.sampled_from(sorted(self.model)))
        self._write(lambda: self.db.drop_table(name), name, None)

    @rule(name=st.sampled_from(NAMES))
    def append_to_missing_table(self, name):
        if name in self.model or (self.pending and self.pending[0] == name):
            return
        _, exc = self._call(self.db.append, name, Frame(make_columns(3, 0, False, 1)))
        assert isinstance(exc, DBError)

    # -- trouble --------------------------------------------------------
    @precondition(lambda self: self.pending is None)
    @rule(point=st.sampled_from(KILL_FIELDS))
    def arm_kill(self, point):
        self.kill = point

    @precondition(lambda self: self.pending is None)
    @rule(failure=st.sampled_from(FAILURES))
    def arm_failure(self, failure):
        self.failure = failure

    # -- recovery and handles ------------------------------------------
    @rule()
    def recover(self):
        with ExitStack() as stack:
            if ENV_PROFILE.enabled:
                stack.enter_context(faults.use_faults(faults.FaultInjector(ENV_PROFILE)))
            report, exc = self._call(self.db.recover)
        assert exc is None, exc
        assert isinstance(report, dict)
        if self.pending is not None:
            name, after = self.pending
            self.pending = None
            fresh = self._open()
            got = as_lists(fresh.table_frame(name)) if fresh.has_table(name) else None
            absent = self.model.get(name)
            # absent (the table as acknowledged) or whole (the killed write)
            if got != (None if absent is None else model_lists(absent)):
                assert got == model_lists(after), name
                self.model[name] = after

    @rule(cache=st.booleans())
    def reopen(self, cache):
        if self.pending is not None:
            self.recover()
        self.db = self._open() if cache else Database(self.path, result_cache=False)
        self._assert_matches_model(self.db)

    # -- reads ----------------------------------------------------------
    @precondition(lambda self: self.pending is None)
    @rule()
    def query(self):
        self._assert_matches_model(self.db)

    @precondition(lambda self: self.pending is None)
    @rule()
    def pin(self):
        snap = self.db.snapshot()
        self.pins = [*self.pins[-2:], (self.db, snap, dict(self.model), dict(self.drops))]

    @precondition(lambda self: self.pins)
    @rule(data=st.data())
    def read_pin(self, data):
        handle, snap, tables, drops = data.draw(st.sampled_from(self.pins))
        assert snap.list_tables() == sorted(tables)
        for name, columns in tables.items():
            if not model_lists(columns):
                continue
            with handle.pinned(snap):
                frame, exc = self._call(handle.query, f"SELECT * FROM {name}")
            if exc is not None:
                # only a table dropped since the pin may be gone
                assert "is gone" in str(exc) and self.drops[name] > drops[name], exc
                continue
            assert as_lists(frame) == model_lists(columns), name

    # -- invariants -----------------------------------------------------
    @invariant()
    def acknowledged_writes_are_readable(self):
        if self.pending is None:
            self._assert_matches_model(self.db)


CommitProtocolMachine.TestCase.settings = settings(
    max_examples=12,
    stateful_step_count=25,
    deadline=None,
    derandomize=True,
)
TestCommitProtocolMachine = CommitProtocolMachine.TestCase
