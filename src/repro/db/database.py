"""Public Database façade.

Usage::

    db = Database(workdir / "analysis.db")
    db.create_table("halos", frame)            # or append multiple frames
    top = db.query("SELECT fof_halo_tag, fof_halo_count FROM halos "
                   "ORDER BY fof_halo_count DESC LIMIT 20")

The database is a directory: its metadata, a checkpoint ``catalog.json``
plus the catalog log that continues it (:mod:`repro.db.wal`), and one
column-segmented subdirectory per table, holding one generation directory
per create (see :mod:`repro.db.storage`).  Per table the catalog holds a
``version``, the ``row_group_size``, the ``generation`` and the table
metadata (columns, row-group row counts, zone maps, checksums; blooms sit
in row-group headers).  All query execution streams from disk.
``nbytes()`` reports the exact on-disk footprint of the row groups — the
paper's storage-overhead metric counts these bytes.

Every catalog entry carries a monotonic ``version`` bumped on
create/append; combined with the store's content signature it forms the
per-table state that keys the semantic query-result cache
(:mod:`repro.db.cache`), so appending rows provably invalidates every
cached result computed over the old contents.

Writes are crash-safe and reads are snapshot-isolated (MVCC-lite):

* a populated create or append stages its row-group files, fsyncs them,
  then *commits* by appending one fsynced record with the table's delta
  to the catalog log — a kill at any byte offset, or a power loss,
  leaves exactly the pre- or post-append table, never a hybrid, and a
  write is acknowledged only once its record is durable;
* readers pin a :class:`CatalogSnapshot` — one committed catalog, whose
  stores read exactly the row groups their entries list — for the
  duration of a query (automatic) or a whole session
  (:meth:`Database.pinned`), so concurrent appends land new groups
  without perturbing in-flight work.  A handle parses only the log bytes
  past the last commit it saw.
"""

from __future__ import annotations

import os
import re
import shutil
import threading
import warnings
from contextlib import contextmanager, suppress
from pathlib import Path
from typing import Iterator

from repro import faults
from repro.db.errors import DBError, IngestKilled, UnknownTableError
from repro.db.sql.ast import CreateTableAs, SelectStatement
from repro.db.sql.executor import execute
from repro.db.sql.parser import parse_sql
from repro.db.storage import (
    DEFAULT_ROW_GROUP_SIZE,
    GROUP_KEYS,
    TABLE_META_KEYS,
    BloomCache,
    TableStore,
    empty_table_meta,
)
from repro.db.wal import CHECKPOINT_EVERY, CatalogLog, CatalogState
from repro.frame import Frame
from repro.obs import names as obs_names
from repro.obs.logsetup import get_logger
from repro.obs.metrics import get_registry
from repro.obs.tracer import get_tracer

log = get_logger("db.database")

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z_0-9]*$")
# what a catalog entry carries besides its version and row-group size
_ENTRY_KEYS = (*TABLE_META_KEYS, "generation")


def _catalog_entry(db_path: Path, tables: dict[str, dict], name: str) -> dict:
    """The catalog entry of ``name``; every entry a writer at this version
    produced carries the table metadata its store is built from."""
    entry = tables.get(name)
    if entry is None:
        raise UnknownTableError(name, sorted(tables))
    missing = [key for key in _ENTRY_KEYS if key not in entry]
    if missing:
        raise DBError(
            f"table {name!r} at {db_path / name} is in a format this version no "
            f"longer reads (catalog entry has no {', '.join(missing)}); "
            f"regenerate the workdir"
        )
    return entry


def _new_generation() -> str:
    """A fresh name for the segment directory of one create.  Never reused
    for a table name, so a snapshot that still lists a dropped table's
    row groups cannot read a re-created table's segments."""
    return f"g{os.urandom(6).hex()}"


class CatalogSnapshot:
    """One committed catalog: table name → entry.

    Entries are replaced on commit and never mutated, so a snapshot is
    immutable without a copy, and reads through it are repeatable for its
    whole lifetime even while a writer appends: committed row-group
    files are immutable and each store reads exactly the row groups
    its entry lists.  ``table_state`` comes from the same entry, so
    query-result cache keys taken under a pin match exactly the results a
    quiescent database at this version would produce.  Stores and states
    are built once and shared by every statement and thread that reads
    through the snapshot, and ``bloom_cache`` by every snapshot.
    """

    def __init__(self, db_path: Path, state: CatalogState, bloom_cache: BloomCache):
        self.db_path = Path(db_path)
        self.state = state
        self.tables = state.tables
        self._bloom_cache = bloom_cache
        self._stores: dict[str, TableStore] = {}
        self._states: dict[str, str] = {}

    # -- catalog ----------------------------------------------------------
    def list_tables(self) -> list[str]:
        return sorted(self.tables)

    def has_table(self, name: str) -> bool:
        return name in self.tables

    def entry(self, name: str) -> dict:
        return _catalog_entry(self.db_path, self.tables, name)

    def table_version(self, name: str) -> int:
        return int(self.entry(name)["version"])

    # -- reads ------------------------------------------------------------
    def store(self, name: str) -> TableStore:
        cached = self._stores.get(name)
        if cached is None:
            entry = self.entry(name)
            cached = self._stores[name] = TableStore(
                self.db_path / name / entry["generation"], entry, self._bloom_cache,
                self.state.folds.get(name),
            )
        return cached

    def table_state(self, name: str) -> str:
        cached = self._states.get(name)
        if cached is None:
            cached = self._states[name] = (
                f"{name}@v{self.table_version(name)}:"
                f"{self.store(name).content_signature()}"
            )
        return cached


class Database:
    """An embedded, directory-backed columnar SQL database.

    ``cache_dir`` enables the on-disk tier of the query-result cache
    (shared across processes pointing at the same directory); the
    in-process memoization tier is always active unless ``result_cache``
    is False.

    ``num_threads`` is deprecated and ignored: the engine runs every
    query on the calling thread.

    One handle writes a directory at a time (its writes are serialised);
    any number of handles, in any process, read it.
    """

    def __init__(
        self,
        path: str | Path,
        cache_dir: str | Path | None = None,
        result_cache: bool = True,
        num_threads: int | None = None,
    ):
        if num_threads is not None:
            warnings.warn(
                "Database(num_threads=) is ignored: the SQL engine is sequential",
                DeprecationWarning,
                stacklevel=2,
            )
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self._log = CatalogLog(self.path)
        # row-group path -> parsed bloom filters, shared by every snapshot of
        # this handle, so one taken after an append parses only new headers.
        # Sound because a committed row-group file never changes until its
        # generation is dropped, generation names are never reused, and only
        # committed groups are probed: a staged file never enters it.
        self._bloom_cache: BloomCache = {}
        self._publish(self._log.load()[0])  # sets ``_snap``, the last commit seen
        self._write_lock = threading.Lock()
        self._pins = threading.local()
        if result_cache:
            from repro.db.cache import QueryResultCache

            self._result_cache = QueryResultCache(cache_dir)
        else:
            self._result_cache = None

    # ------------------------------------------------------------------
    # catalog
    # ------------------------------------------------------------------
    def _view(self) -> CatalogSnapshot:
        """What this thread reads: its pin, else the latest commit."""
        return self._active_snapshot() or self.snapshot()

    def list_tables(self) -> list[str]:
        return self._view().list_tables()

    def has_table(self, name: str) -> bool:
        return self._view().has_table(name)

    def store(self, name: str) -> TableStore:
        return self._view().store(name)

    def schema(self, name: str) -> dict[str, str]:
        """Column name -> dtype string for a table."""
        store = self.store(name)
        return {c: store.dtype_of(c).name for c in store.columns}

    def table_version(self, name: str) -> int:
        """Monotonic catalog version of a table (bumped on create/append)."""
        return self._view().table_version(name)

    def table_state(self, name: str) -> str:
        """Cache-key component identifying a table's exact contents.

        The catalog version plus the store's content signature (schema +
        per-segment checksums), which is identical across databases
        holding the same bytes — that is what lets harness worker
        processes share one on-disk result cache.
        """
        return self._view().table_state(name)

    def _publish(self, state: CatalogState) -> CatalogSnapshot:
        self._snap = snap = CatalogSnapshot(self.path, state, self._bloom_cache)
        return snap

    # ------------------------------------------------------------------
    # snapshots (MVCC-lite)
    # ------------------------------------------------------------------
    def snapshot(self) -> CatalogSnapshot:
        """The current committed catalog as an immutable snapshot.

        Taken at *call* time, so a long-lived handle observes commits by
        other handles/threads since it was opened (it never moves
        afterwards).  Parses only the log bytes past the last commit this
        handle saw: calls with no commit between them cost a stat or two
        and return the same snapshot, stores and cache-key states included.
        """
        snap = self._snap
        try:
            fresh = self._log.refresh(snap.state)
        except OSError as exc:
            raise DBError(f"unreadable catalog at {self.path}: {exc}") from exc
        return snap if fresh is snap.state else self._publish(fresh)

    def _pin_stack(self) -> list[CatalogSnapshot]:
        stack = getattr(self._pins, "stack", None)
        if stack is None:
            stack = self._pins.stack = []
        return stack

    def _active_snapshot(self) -> CatalogSnapshot | None:
        stack = self._pin_stack()
        return stack[-1] if stack else None

    @contextmanager
    def pinned(self, snap: CatalogSnapshot | None = None) -> Iterator[CatalogSnapshot]:
        """Route this thread's reads through one snapshot for the block.

        Serve sessions wrap whole requests in a pin so every query of the
        request sees one consistent catalog; ``query()`` pins per
        statement automatically when no outer pin is active.
        """
        snap = snap if snap is not None else self.snapshot()
        stack = self._pin_stack()
        stack.append(snap)
        try:
            yield snap
        finally:
            stack.pop()

    @contextmanager
    def _statement_pin(self) -> Iterator[CatalogSnapshot]:
        """Reuse the session's pin when one is active, else pin per statement."""
        active = self._active_snapshot()
        if active is not None:
            yield active
        else:
            with self.pinned() as snap:
                yield snap

    # ------------------------------------------------------------------
    # commit protocol + recovery
    # ------------------------------------------------------------------
    def recover(self) -> dict:
        """Settle what a dead writer left: cut a torn or corrupt log tail,
        drop row groups no entry lists (so a killed, unacknowledged write
        is absent), and checkpoint the catalog.  Idempotent; read paths
        never trigger it.  Returns an accounting doc, also on a span."""
        with self._write_lock:
            return self._recover_locked()

    def _recover_locked(self) -> dict:
        registry = get_registry()
        with get_tracer().span(obs_names.WAL_RECOVER_SPAN) as span:
            # a restarted process must judge the durable state, not a
            # stale in-memory image
            state, scan = self._log.load()
            if scan.dropped_bytes:
                self._log.truncate(state)
                if scan.torn_tail:
                    kind = "torn tail"
                    registry.counter(obs_names.WAL_TORN_TAIL_DROPPED).inc()
                else:
                    kind = "corrupt record"
                    registry.counter(obs_names.WAL_CORRUPT_DROPPED).inc()
                log.warning("catalog log %s: dropping %d bytes after offset %d of %s",
                            kind, scan.dropped_bytes, state.offset, self._log.log_path(state))
            # a dead stage leaves row groups past a table's committed ones,
            # or a whole generation of a create that never committed
            on_disk = {p.name for p in self.path.iterdir() if _NAME_RE.match(p.name)}
            orphans = sum(
                self._discard_uncommitted(name, state.tables)
                for name in sorted(on_disk | set(state.tables))
            )
            self._publish(self._checkpoint(state))
            report = {"torn_tail": int(scan.torn_tail), "corrupt": int(scan.corrupt_record),
                      "orphan_groups": orphans}
            span.set(**{f"wal_{k}": v for k, v in report.items()})
            if scan.dropped_bytes or orphans:
                log.info("recovery at %s: %s", self.path, report)
            return report

    def _checkpoint(self, state: CatalogState) -> CatalogState:
        """Fold the log into ``catalog.json``: only an optimisation, since
        the log holds every commit, so a failed publish changes nothing."""
        try:
            return self._log.checkpoint(state)
        except (DBError, OSError) as exc:
            log.warning("checkpoint of %s failed; the log keeps every commit: %s",
                        self.path, exc)
            return state

    def _discard_uncommitted(self, name: str, tables: dict[str, dict]) -> int:
        """Drop the row groups ``name``'s entry in ``tables`` does not
        list, and every generation directory it does not name; returns the
        number of row-group files removed."""
        table_dir = self.path / name
        entry = tables.get(name)
        dropped = 0
        if table_dir.is_dir():
            for gen_dir in table_dir.iterdir():
                if gen_dir.is_dir() and (entry is None or gen_dir.name != entry["generation"]):
                    dropped += sum(1 for _ in gen_dir.glob("rg*"))
                    shutil.rmtree(gen_dir)
        if entry is not None:
            store = TableStore(table_dir / entry["generation"], entry)
            return dropped + store.discard_uncommitted()
        with suppress(OSError):
            table_dir.rmdir()
        return dropped

    def _writer_state(self) -> CatalogState:
        """The latest commit, with the log's tail clean for the next frame
        (a writer that died mid-frame left bytes past it: recovery cuts
        them).  Refreshed from disk, never a racing reader's stale state."""
        if self._log.has_tail(self.snapshot().state):
            self._recover_locked()
        return self.snapshot().state

    def _flush_catalog(self, state: CatalogState, record: dict) -> CatalogState:
        """Commit ``record``, one table's delta: the commit point."""
        state = self._log.append(state, record)
        self._publish(state)
        return state

    def _checkpoint_if_due(self, state: CatalogState) -> None:
        """After a commit, outside any roll-back: checkpoint every
        ``CHECKPOINT_EVERY`` commits."""
        if state.seq - state.base >= CHECKPOINT_EVERY:
            self._publish(self._checkpoint(state))

    # ------------------------------------------------------------------
    # DDL / loading
    # ------------------------------------------------------------------
    def create_table(
        self,
        name: str,
        frame: Frame | None = None,
        row_group_size: int = DEFAULT_ROW_GROUP_SIZE,
    ) -> None:
        """Create (and optionally populate) a table."""
        if not _NAME_RE.match(name):
            raise DBError(f"invalid table name {name!r}")
        self._write(name, frame if frame is not None else Frame(), row_group_size)

    def append(self, name: str, frame: Frame) -> None:
        """Append rows to an existing table (schema must match); they show
        with the commit record, after their row groups are fsynced."""
        self._write(name, frame)

    def _write(self, name: str, frame: Frame, row_group_size: int | None = None) -> None:
        """A populated create (``row_group_size`` given) or an append."""
        with self._write_lock:
            state = self._writer_state()
            if row_group_size is not None:
                if name in state.tables:
                    raise DBError(f"table {name!r} already exists")
                entry = None
                store = TableStore(self.path / name / _new_generation(), empty_table_meta())
            else:
                entry = _catalog_entry(self.path, state.tables, name)
                store = TableStore(self.path / name / entry["generation"], entry)
                row_group_size = int(entry["row_group_size"])
                columns = entry["columns"]
                if columns and set(columns) != set(frame.columns):
                    raise DBError(
                        f"append schema mismatch: table has {sorted(columns)}, "
                        f"frame has {sorted(frame.columns)}"
                    )
            try:
                if faults.fire_ingest_kill(faults.INGEST_KILL_APPLY):
                    raise IngestKilled("apply", f"before staging row groups of {name!r}")
                staged = store.stage_append(frame, row_group_size)
                if faults.fire_ingest_kill(faults.INGEST_KILL_PUBLISH):
                    raise IngestKilled(
                        "publish", f"row groups of {name!r} staged, commit record pending"
                    )
                record = {"table": name}
                if entry is None:
                    record.update(kind="create", version=1, generation=store.path.name,
                                  row_group_size=row_group_size, columns=staged["columns"])
                else:
                    record.update(kind="append", version=int(entry["version"]) + 1)
                    if staged["columns"] != entry["columns"]:
                        record["columns"] = staged["columns"]  # a first or widening append
                record.update((key, staged[key]) for key in GROUP_KEYS)
                committed = self._flush_catalog(state, record)
            except IngestKilled:
                raise  # a death: what it left is recovery's to judge
            except Exception:
                self._roll_back(name, state)
                raise
            get_registry().counter(obs_names.WAL_COMMITS).inc()
            self._checkpoint_if_due(committed)

    def _roll_back(self, name: str, state: CatalogState) -> None:
        """Undo a statement that failed short of a death, so the handle
        equals a fresh one on this directory: whatever it wrote to the log
        is cut off, and whatever it staged past the table's committed row
        groups is dropped."""
        self._log.truncate(state)
        self._discard_uncommitted(name, state.tables)

    def drop_table(self, name: str) -> None:
        with self._write_lock:
            state = self._writer_state()
            entry = _catalog_entry(self.path, state.tables, name)
            store = TableStore(self.path / name / entry["generation"], entry)
            # commit first: a failed commit leaves the table whole, and a
            # death after it leaves only segments no catalog entry lists
            committed = self._flush_catalog(state, {"table": name, "kind": "drop"})
            store.drop()
            for key in list(self._bloom_cache):  # a copy: readers may be filling it
                if key.startswith(f"{store.path}{os.sep}"):
                    self._bloom_cache.pop(key, None)
            self._checkpoint_if_due(committed)

    # ------------------------------------------------------------------
    # querying
    # ------------------------------------------------------------------
    def query(self, sql: str) -> Frame:
        """Parse and execute one SQL statement.

        ``CREATE TABLE name AS SELECT ...`` persists the result and returns
        it; a bare SELECT just returns the result frame.  Zone-map pruning
        accounting for the scan is exposed as ``last_scan_stats``; SELECT
        results flow through the semantic query-result cache when enabled.

        Reads run under a pinned catalog snapshot (the session's, if one
        is active, else one taken for this statement), so a SELECT racing
        a concurrent append is byte-identical to the same SELECT against
        the quiescent pre- or post-append table.
        """
        from repro.db.sql.executor import ScanStats

        stmt = parse_sql(sql)
        self.last_scan_stats = ScanStats()
        if isinstance(stmt, CreateTableAs):
            with self._statement_pin():
                result = self._execute_select(stmt.select)
            self.create_table(stmt.name, result)
            return result
        assert isinstance(stmt, SelectStatement)
        with self._statement_pin():
            return self._execute_select(stmt)

    def _execute_select(self, stmt: SelectStatement) -> Frame:
        if self._result_cache is None:
            return execute(self, stmt, self.last_scan_stats)
        return self._result_cache.execute(self, stmt, self.last_scan_stats)

    def table_frame(self, name: str) -> Frame:
        """Materialize a whole table (result-sized tables only)."""
        return self.store(name).read_all()

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def nbytes(self) -> int:
        """Total on-disk bytes across all tables."""
        snap = self.snapshot()
        return sum(snap.store(n).nbytes() for n in snap.tables)

    def describe(self) -> str:
        lines = [f"Database at {self.path} ({self.nbytes():,} bytes)"]
        for name in self.list_tables():
            store = self.store(name)
            lines.append(
                f"  {name}: {store.num_rows} rows x {len(store.columns)} cols "
                f"({store.nbytes():,} bytes, {store.num_row_groups} row groups)"
            )
        return "\n".join(lines)
