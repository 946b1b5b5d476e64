"""Public Database façade.

Usage::

    db = Database(workdir / "analysis.db")
    db.create_table("halos", frame)            # or append multiple frames
    top = db.query("SELECT fof_halo_tag, fof_halo_count FROM halos "
                   "ORDER BY fof_halo_count DESC LIMIT 20")

The database is a directory: ``catalog.json``, ``wal.log`` and one
column-segmented subdirectory per table, holding one generation directory
per create (see :mod:`repro.db.storage`).  ``catalog.json`` is its only
metadata file: per table, a ``version``, the ``row_group_size``, the
``generation`` and the table metadata (columns, row-group row counts,
zone maps, checksums; blooms sit in row-group headers).  All query
execution streams from disk.  ``nbytes()`` reports exact on-disk
footprint — the paper's storage-overhead metric counts these bytes.

Every catalog entry carries a monotonic ``version`` bumped on
create/append; combined with the store's content signature it forms the
per-table state that keys the semantic query-result cache
(:mod:`repro.db.cache`), so appending rows provably invalidates every
cached result computed over the old contents.

Writes are crash-safe and reads are snapshot-isolated (MVCC-lite):

* every populated create/append first lands in a CRC-framed, fsynced
  write-ahead log (:mod:`repro.db.wal`), then stages its row-group
  segments, and only *commits* via a single atomic ``catalog.json``
  publish carrying the table's new entry — a kill at any byte offset
  recovers to exactly the pre- or post-append table, never a hybrid;
* readers pin a :class:`CatalogSnapshot` — one parsed catalog, whose
  stores read exactly the row groups their entries list — for the
  duration of a query (automatic) or a whole session
  (:meth:`Database.pinned`), so concurrent appends land new groups
  without perturbing in-flight work.  A handle re-parses the catalog only
  when its bytes change.
"""

from __future__ import annotations

import json
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
    TABLE_META_KEYS,
    BloomCache,
    TableStore,
    empty_table_meta,
)
from repro.db.wal import WriteAheadLog, make_append_record
from repro.durable import atomic_publish
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
    """One parsed ``catalog.json``: table name → entry.

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

    def __init__(self, db_path: Path, tables: dict[str, dict], bloom_cache: BloomCache):
        self.db_path = Path(db_path)
        self.tables = tables
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
                self.db_path / name / entry["generation"], entry, self._bloom_cache
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
        self._catalog_path = self.path / "catalog.json"
        # row-group path -> parsed bloom filters, shared by every snapshot of
        # this handle, so one taken after an append parses only new headers.
        # Sound because a committed row-group file never changes until its
        # generation is dropped, generation names are never reused, and only
        # committed groups are probed: a staged file never enters it.
        self._bloom_cache: BloomCache = {}
        # the catalog bytes last parsed or published (None: no catalog.json
        # yet) and their snapshot, swapped as one tuple so a racing reader
        # never pairs one commit's bytes with another's parse
        self._parsed: tuple[bytes | None, CatalogSnapshot] = (
            None, CatalogSnapshot(self.path, {}, self._bloom_cache)
        )
        # the writer's catalog: replaced, never mutated, once a commit is on disk
        self._tables = self.snapshot().tables
        self._wal = WriteAheadLog(self.path / "wal.log")
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

    def _entry(self, name: str) -> dict:
        return _catalog_entry(self.path, self._tables, name)

    def _writer_store(self, name: str) -> TableStore:
        """The committed state of ``name`` as the writer sees it."""
        entry = self._entry(name)
        return TableStore(self.path / name / entry["generation"], entry)

    def _flush_catalog(self, tables: dict[str, dict]) -> None:
        """Commit ``tables`` with one verified ``catalog.json`` publish (a
        commit that dies mid-write must not corrupt the catalog).  This
        rename is the commit point of every write; the handle takes
        ``tables`` as its catalog only once it is on disk."""
        data = json.dumps(tables).encode("utf-8")
        atomic_publish(
            self._catalog_path,
            data,
            verify=True,
            fault_point=faults.STORAGE_TORN_WRITE,
            what="catalog.json",
            error=DBError,
        )
        self._tables = tables
        self._parsed = (data, CatalogSnapshot(self.path, tables, self._bloom_cache))

    # ------------------------------------------------------------------
    # snapshots (MVCC-lite)
    # ------------------------------------------------------------------
    def snapshot(self) -> CatalogSnapshot:
        """The current committed catalog as an immutable snapshot.

        Reads ``catalog.json`` so a long-lived handle observes commits by
        other handles/threads since it was opened (the snapshot is taken at
        *call* time; it never moves afterwards), and parses it only when
        its bytes differ from the last ones this handle parsed or
        published: calls with no commit between them return the same
        snapshot, stores and cache-key states included.
        """
        try:
            data = self._catalog_path.read_bytes()
        except FileNotFoundError:
            data = None
        except OSError as exc:
            raise DBError(f"unreadable catalog at {self._catalog_path}: {exc}") from exc
        parsed, snap = self._parsed
        if data != parsed:
            try:
                tables = json.loads(data) if data is not None else {}
            except ValueError as exc:
                raise DBError(f"corrupt catalog at {self._catalog_path}: {exc}") from exc
            snap = CatalogSnapshot(self.path, tables, self._bloom_cache)
            self._parsed = (data, snap)
        return snap

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
    # WAL commit protocol + recovery
    # ------------------------------------------------------------------
    def recover(self) -> dict:
        """Replay the WAL: truncate torn tails, finish or discard
        interrupted commits, drop orphan row groups.

        Idempotent and safe to call any time a writer (re)opens the
        database; read paths never trigger it.  Returns an accounting doc
        (also stamped on a ``wal.recover`` span).
        """
        with self._write_lock:
            return self._recover_locked()

    def _recover_locked(self) -> dict:
        registry = get_registry()
        with get_tracer().span(obs_names.WAL_RECOVER_SPAN) as span:
            # a restarted process must judge the durable state, not a
            # stale in-memory image
            self._tables = self.snapshot().tables
            records, scan = self._wal.pending()
            replayed = skipped = orphans = 0
            for record in records:
                name = record.get("table")
                kind = record.get("kind")
                entry = self._tables.get(name)
                base = int(record.get("base_version", 0))
                if kind == "create":
                    if entry is not None:
                        skipped += 1  # commit already published
                        continue
                elif kind == "append":
                    if entry is None:
                        skipped += 1  # table dropped after the record landed
                        continue
                    if int(entry["version"]) > base:
                        skipped += 1  # commit already published
                        continue
                else:
                    skipped += 1
                    continue
                # the killed write may have staged segments; replay restarts
                # from the committed row groups (none, for a create) so the
                # staged groups cannot double up
                orphans += self._discard_uncommitted(name)
                frame = Frame(dict(record["columns"]))
                self._commit(
                    name,
                    frame,
                    kind=kind,
                    row_group_size=int(record["row_group_size"]),
                    allow_kills=False,
                )
                replayed += 1
                registry.counter(obs_names.WAL_REPLAYED).inc()
            # even with no replayable record, a crashed stage may have left
            # row-group files past a table's committed ones, or a whole
            # generation of a create that never committed
            on_disk = {p.name for p in self.path.iterdir() if _NAME_RE.match(p.name)}
            for name in sorted(on_disk | set(self._tables)):
                orphans += self._discard_uncommitted(name)
            self._wal.clear()
            report = {
                "replayed": replayed,
                "skipped": skipped,
                "torn_tail": int(scan.torn_tail),
                "corrupt": int(scan.corrupt_record),
                "orphan_groups": orphans,
            }
            span.set(**{f"wal_{k}": v for k, v in report.items()})
            if replayed or scan.torn_tail or scan.corrupt_record or orphans:
                log.info("WAL recovery at %s: %s", self.path, report)
            return report

    def _discard_uncommitted(self, name: str) -> int:
        """Drop what ``name``'s committed entry does not list: row groups
        past its committed ones, and every generation directory it does not
        name (a create that never committed).  Recovery and roll-back
        helper; returns the number of row-group files removed."""
        table_dir = self.path / name
        entry = self._tables.get(name)
        dropped = 0
        if table_dir.is_dir():
            for gen_dir in table_dir.iterdir():
                if gen_dir.is_dir() and (entry is None or gen_dir.name != entry["generation"]):
                    dropped += sum(1 for _ in gen_dir.glob("rg*"))
                    shutil.rmtree(gen_dir)
        if entry is not None:
            return dropped + self._writer_store(name).discard_uncommitted()
        with suppress(OSError):
            table_dir.rmdir()
        return dropped

    def _commit(
        self,
        name: str,
        frame: Frame,
        kind: str,
        row_group_size: int,
        allow_kills: bool = True,
    ) -> None:
        """Stage segments, then commit the table's new entry via the catalog.

        ``allow_kills=False`` disarms the simulated-death fault points —
        recovery replays must run to completion deterministically (replay
        is idempotent, so a *real* crash during recovery still only loses
        the in-flight record to the next recovery pass).
        """
        def fire(point: str) -> bool:
            return allow_kills and faults.fire_ingest_kill(point)

        if fire(faults.INGEST_KILL_APPLY):
            raise IngestKilled("apply", f"before staging row groups of {name!r}")
        if kind == "append":
            store = self._writer_store(name)
        else:
            store = TableStore(self.path / name / _new_generation(), empty_table_meta())
        if allow_kills:
            staged = store.stage_append(frame, row_group_size)
        else:
            with faults.use_faults(faults.NULL_INJECTOR):
                staged = store.stage_append(frame, row_group_size)
        if fire(faults.INGEST_KILL_PUBLISH):
            raise IngestKilled(
                "publish", f"row groups of {name!r} staged, catalog commit pending"
            )
        version = int(self._tables[name]["version"]) + 1 if kind == "append" else 1
        entry = {
            "row_group_size": row_group_size,
            "version": version,
            "generation": store.path.name,
            **staged,
        }
        self._flush_catalog({**self._tables, name: entry})

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
        if name in self._tables:
            raise DBError(f"table {name!r} already exists")
        if frame is None or not frame.num_columns:
            # nothing to stage: the single catalog publish is already atomic
            with self._write_lock:
                entry = {
                    "row_group_size": row_group_size,
                    "version": 1,
                    "generation": _new_generation(),
                    **empty_table_meta(),
                }
                self._flush_catalog({**self._tables, name: entry})
            return
        self._write(name, frame, kind="create", row_group_size=row_group_size)

    def append(self, name: str, frame: Frame) -> None:
        """Append rows to an existing table (schema must match).

        Crash-safe: the frame is WAL-logged before any table bytes move,
        and becomes visible only at the atomic catalog publish.
        """
        row_group_size = int(self._entry(name)["row_group_size"])
        self._write(name, frame, kind="append", row_group_size=row_group_size)

    def _write(self, name: str, frame: Frame, kind: str, row_group_size: int) -> None:
        with self._write_lock:
            if self._wal.exists_nonempty():
                # a previous writer died mid-commit; settle its state first
                self._recover_locked()
                if kind == "append" and name not in self._tables:
                    raise UnknownTableError(name, sorted(self._tables))
                if kind == "create" and name in self._tables:
                    raise DBError(f"table {name!r} already exists")
            # whatever can be refused is refused before the intent is logged
            columns = self._entry(name)["columns"] if kind == "append" else {}
            if columns and set(columns) != set(frame.columns):
                raise DBError(
                    f"append schema mismatch: table has {sorted(columns)}, "
                    f"frame has {sorted(frame.columns)}"
                )
            base = int(self._tables[name]["version"]) if kind == "append" else 0
            log_offset = self._wal.size_bytes()
            try:
                self._wal.append(
                    make_append_record(
                        name,
                        kind,
                        base_version=base,
                        row_group_size=row_group_size,
                        columns={c: frame.column(c) for c in frame.columns},
                    )
                )
                self._commit(name, frame, kind=kind, row_group_size=row_group_size)
            except IngestKilled:
                raise  # a death: the record stays for recovery to judge
            except Exception:
                self._roll_back(name, log_offset)
                raise
            self._wal.clear()
            get_registry().counter(obs_names.WAL_COMMITS).inc()

    def _roll_back(self, name: str, log_offset: int) -> None:
        """Undo a statement that failed short of a death, so the handle
        equals a fresh one on this directory: the log loses the
        statement's record (nothing will replay it) and whatever the
        statement staged past the table's committed row groups is dropped.
        ``_tables`` is still the published catalog: a commit replaces it
        only once it is on disk."""
        self._wal.truncate_to(log_offset)
        self._discard_uncommitted(name)

    def drop_table(self, name: str) -> None:
        with self._write_lock:
            if name not in self._tables:
                raise UnknownTableError(name, sorted(self._tables))
            store = self._writer_store(name)
            # publish first: a failed publish leaves the table whole, and a
            # death after it leaves only segments no catalog entry lists
            self._flush_catalog({n: e for n, e in self._tables.items() if n != name})
            store.drop()
            for key in list(self._bloom_cache):  # a copy: readers may be filling it
                if key.startswith(f"{store.path}{os.sep}"):
                    self._bloom_cache.pop(key, None)

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
        return sum(self._writer_store(n).nbytes() for n in self._tables)

    def describe(self) -> str:
        lines = [f"Database at {self.path} ({self.nbytes():,} bytes)"]
        for name in self.list_tables():
            store = self.store(name)
            lines.append(
                f"  {name}: {store.num_rows} rows x {len(store.columns)} cols "
                f"({store.nbytes():,} bytes, {store.num_row_groups} row groups)"
            )
        return "\n".join(lines)
