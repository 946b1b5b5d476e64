"""Semantic query-result cache with incremental re-execution.

The QA redo loop re-parses, re-scans and re-executes SQL that is
semantically identical — up to a renamed alias, reordered predicates, or
a typo fixed on the second attempt — on every revision, and the
evaluation harness repeats the same questions across runs and worker
processes.  This module memoizes executed result frames behind a
content-addressed key so that re-work costs a lookup instead of a scan.

**Key.**  ``blake2b(normalized-plan fingerprint + per-table states)``.
The fingerprint (:mod:`repro.db.sql.normalize`) is alias-insensitive and
predicate-order-normalized; the table state (``Database.table_state``)
combines the catalog's monotonic version with the store's content
checksums, so appending rows changes every affected key — stale results
are unreachable by construction, and byte-identical tables in *different*
databases (every harness run loads the same subset) share entries.

**Tiers** (mirroring :mod:`repro.rag.cache`):

1. in-process bounded LRU of result frames (shared by every Database in
   the process, across redo attempts and repeated questions);
2. on-disk entries under ``cache_dir``, one :mod:`repro.gio` file each
   (``q_<key>.gio``: every column, the key in the header), published with
   :func:`repro.durable.atomic_publish` and served memory-mapped, shared
   across harness worker processes;
3. **incremental re-execution**: when a redo's normalized plan targets
   the same table state as a recently cached statement and its WHERE is
   equal or strictly narrower (conjunct superset), the residual
   predicates re-filter the cached parent frame through the ordinary
   executor pipeline instead of re-scanning row groups from disk;
4. cold miss: full streaming execution, then publish for everyone else.

Every tier outcome increments one ``db.cache.*`` counter of the
:mod:`repro.obs.metrics` registry (names declared in :mod:`repro.obs.names`)
and stamps a ``cache`` attribute on the ``sql.execute`` span;
:class:`QueryCacheStats` is a typed read of those counters.

**Self-healing.**  Every column of an entry carries a CRC32 in the
file's header.  A read that fails verification — a torn write that
published a truncated file, a bit flipped on disk, a mangled header —
*quarantines* the entry (moved under ``<cache_dir>/.quarantine/``, counted as
``db.cache.quarantine``) and falls through to recomputation, which
re-publishes a good copy.  Corruption therefore costs one extra execution,
never a wrong answer and never a crash.
"""

from __future__ import annotations

import hashlib
import os
from collections import OrderedDict
from dataclasses import dataclass, replace
from pathlib import Path

from repro import faults
from repro.db.errors import UnknownTableError
from repro.db.sql import ast
from repro.db.sql.executor import ScanStats, execute as sql_execute, execute_over_frame
from repro.db.sql.normalize import (
    NormalizedPlan,
    conjoin,
    normalize,
    referenced_column_names,
    residual_conjuncts,
)
from repro.durable import atomic_publish
from repro.frame import Frame
from repro.gio.format import GIOFormatError, encode_gio, read_gio_verified
from repro.obs import names as obs_names
from repro.obs.logsetup import get_logger
from repro.obs.names import SQL_EXECUTE_SPAN
from repro.obs.metrics import CounterView, counter_field, get_registry
from repro.obs.tracer import get_tracer

log = get_logger("db.cache")

ENTRY_SUFFIX = ".gio"
QUARANTINE_DIRNAME = ".quarantine"
DEFAULT_MEMORY_ENTRIES = 128
_PARENTS_PER_SCAFFOLD = 8
_MAX_SCAFFOLDS = 256
_MAX_TRACKED_FINGERPRINTS = 4096


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
@dataclass
class QueryCacheStats(CounterView):
    """Every query-result-cache tier's registry counter, read as ints."""

    memory_hits: int = counter_field(obs_names.DB_CACHE_HIT_MEMORY)
    disk_hits: int = counter_field(obs_names.DB_CACHE_HIT_DISK)
    # redo re-filtered a cached parent
    incremental_hits: int = counter_field(obs_names.DB_CACHE_HIT_INCREMENTAL)
    # full streaming executions
    misses: int = counter_field(obs_names.DB_CACHE_MISS)
    stores: int = counter_field(obs_names.DB_CACHE_STORE)
    # in-process LRU evictions
    evictions: int = counter_field(obs_names.DB_CACHE_EVICTION)
    # a known plan's table state changed
    invalidations: int = counter_field(obs_names.DB_CACHE_INVALIDATION)
    # corrupt disk entries moved aside
    quarantined: int = counter_field(obs_names.DB_CACHE_QUARANTINE)

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits + self.incremental_hits

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.requests if self.requests else 0.0


# the counter each hit tier increments
_HIT_COUNTERS = {
    "memory": obs_names.DB_CACHE_HIT_MEMORY,
    "disk": obs_names.DB_CACHE_HIT_DISK,
    "incremental": obs_names.DB_CACHE_HIT_INCREMENTAL,
}

# tier 1: key -> result Frame, LRU over insertion/use order
_MEMORY: OrderedDict[str, Frame] = OrderedDict()
_MEMORY_CAPACITY = DEFAULT_MEMORY_ENTRIES

# incremental-parent registry: "<table>@<state>" -> recent eligible parents
_PARENTS: OrderedDict[str, list["_ParentRecord"]] = OrderedDict()

# fingerprint -> last-seen table-states key (invalidation accounting)
_LAST_STATES: OrderedDict[str, str] = OrderedDict()


def stats_snapshot() -> QueryCacheStats:
    """The process-wide counters now (subtract later with ``delta``)."""
    return QueryCacheStats.read()


def set_memory_capacity(entries: int) -> None:
    """Resize the in-process result LRU (evicting down if needed)."""
    global _MEMORY_CAPACITY
    _MEMORY_CAPACITY = max(0, int(entries))
    _evict_to_capacity()


def memory_capacity() -> int:
    return _MEMORY_CAPACITY


def clear_memory_cache() -> None:
    """Drop every in-process tier (results, parents, invalidation state)."""
    _MEMORY.clear()
    _PARENTS.clear()
    _LAST_STATES.clear()


def _evict_to_capacity() -> None:
    while len(_MEMORY) > _MEMORY_CAPACITY:
        _MEMORY.popitem(last=False)
        get_registry().counter(obs_names.DB_CACHE_EVICTION).inc()


def _memory_put(key: str, frame: Frame) -> None:
    _MEMORY[key] = frame
    _MEMORY.move_to_end(key)
    _evict_to_capacity()


def _memory_get(key: str) -> Frame | None:
    frame = _MEMORY.get(key)
    if frame is not None:
        _MEMORY.move_to_end(key)
    return frame


def _view(frame: Frame) -> Frame:
    """A fresh Frame over the same column arrays (callers may reshape the
    column dict; by repo convention nobody mutates arrays in place)."""
    return Frame({name: frame.column(name) for name in frame.columns})


# ----------------------------------------------------------------------
# incremental-parent registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _ParentRecord:
    key: str                         # cache key of the parent result
    conjunct_keys: frozenset[str]    # normalized WHERE conjuncts applied
    columns: tuple[str, ...]         # columns available in the result
    star: bool                       # parent projected * (all table columns)


def _parent_eligible(plan: NormalizedPlan) -> bool:
    """Can this statement's result serve as an incremental parent?

    Conservative by design: single stored table, full scan order (no
    ORDER BY / LIMIT / OFFSET / DISTINCT), no grouping or aggregates, and
    a projection of bare columns (or ``*``) so every output column is a
    source column under its own name.  Anything else falls back to the
    ordinary cache tiers.
    """
    stmt = plan.statement
    if not plan.single_table:
        return False
    if stmt.limit is not None or stmt.offset or stmt.distinct:
        return False
    if stmt.group_by or stmt.having is not None or stmt.order_by:
        return False
    for item in stmt.items:
        if isinstance(item.expr, ast.Star):
            continue
        if not isinstance(item.expr, ast.Column):
            return False
        if item.alias is not None and item.alias != item.expr.name:
            return False
        if ast.contains_aggregate(item.expr):
            return False
    return True


def _scaffold_state(plan: NormalizedPlan, states: tuple[str, ...]) -> str:
    return f"{plan.scaffold}|{'|'.join(states)}"


def _register_parent(
    plan: NormalizedPlan, states: tuple[str, ...], key: str, frame: Frame
) -> None:
    if not _parent_eligible(plan):
        return
    star = any(isinstance(i.expr, ast.Star) for i in plan.statement.items)
    record = _ParentRecord(
        key=key,
        conjunct_keys=plan.conjunct_keys,
        columns=tuple(frame.columns),
        star=star,
    )
    bucket = _PARENTS.setdefault(_scaffold_state(plan, states), [])
    bucket[:] = [r for r in bucket if r.key != key]
    bucket.append(record)
    del bucket[:-_PARENTS_PER_SCAFFOLD]
    _PARENTS.move_to_end(_scaffold_state(plan, states))
    while len(_PARENTS) > _MAX_SCAFFOLDS:
        _PARENTS.popitem(last=False)


def _shape_attrs(plan: NormalizedPlan) -> dict:
    """The statement-shape attributes the executor stamps on every
    ``sql.execute`` span; hit spans carry the same ones so a cached run's
    canonical span tree matches a cold run's (the ``cache`` tier itself
    is excluded from canonicalization, like timing)."""
    stmt = plan.statement
    return {
        "grouped": bool(stmt.group_by)
        or any(ast.contains_aggregate(item.expr) for item in stmt.items),
        "joins": len(stmt.joins),
    }


# ----------------------------------------------------------------------
# the cache
# ----------------------------------------------------------------------
class _CorruptEntry(ValueError):
    """A published disk entry failed verification; quarantine it."""


class QueryResultCache:
    """Tiered result store driving ``Database.query`` SELECT execution.

    The in-process tiers (LRU + parent registry) are module-global and
    shared by every instance; ``cache_dir`` adds the cross-process disk
    tier when set.
    """

    def __init__(self, cache_dir: str | Path | None = None):
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None

    # -- orchestration -------------------------------------------------
    def execute(self, db, stmt: ast.SelectStatement, scan_stats: ScanStats | None) -> Frame:
        try:
            plan = normalize(stmt)
            states = tuple(db.table_state(t) for t in plan.tables)
        except UnknownTableError:
            # unknown table: run the ordinary path so the agent-facing
            # error (with known-table suggestions) is raised unchanged
            return sql_execute(db, stmt, scan_stats)

        states_key = "|".join(states)
        self._track_invalidation(plan.fingerprint, states_key)
        key = hashlib.blake2b(
            f"{plan.fingerprint}|{states_key}".encode(), digest_size=16
        ).hexdigest()

        frame = _memory_get(key)
        if frame is not None:
            return self._record_hit("memory", plan, frame)

        frame = self._disk_load(key)
        if frame is not None:
            _memory_put(key, frame)
            return self._record_hit("disk", plan, frame)

        frame = self._try_incremental(plan, states, key)
        if frame is not None:
            return self._record_hit("incremental", plan, frame)

        get_registry().counter(obs_names.DB_CACHE_MISS).inc()
        frame = sql_execute(db, stmt, scan_stats, cache_outcome="miss")
        self._store(key, plan, states, frame)
        return frame

    def _record_hit(self, tier: str, plan: NormalizedPlan, frame: Frame) -> Frame:
        get_registry().counter(_HIT_COUNTERS[tier]).inc()
        if tier != "incremental":  # incremental emits its own sql.execute span
            with get_tracer().span(SQL_EXECUTE_SPAN, cache=tier, **_shape_attrs(plan)) as sp:
                sp.set(rows=frame.num_rows)
        return _view(frame)

    def _track_invalidation(self, fingerprint: str, states_key: str) -> None:
        previous = _LAST_STATES.get(fingerprint)
        if previous is not None and previous != states_key:
            get_registry().counter(obs_names.DB_CACHE_INVALIDATION).inc()
        _LAST_STATES[fingerprint] = states_key
        _LAST_STATES.move_to_end(fingerprint)
        while len(_LAST_STATES) > _MAX_TRACKED_FINGERPRINTS:
            _LAST_STATES.popitem(last=False)

    # -- incremental re-execution --------------------------------------
    def _try_incremental(
        self, plan: NormalizedPlan, states: tuple[str, ...], key: str
    ) -> Frame | None:
        if not plan.single_table:
            return None
        stmt = plan.statement
        needed = referenced_column_names(stmt)
        for record in reversed(_PARENTS.get(_scaffold_state(plan, states), [])):
            residual = residual_conjuncts(plan, record.conjunct_keys)
            if residual is None:
                continue
            if needed is None:
                if not record.star:
                    continue
            elif not needed <= set(record.columns):
                continue
            parent = _memory_get(record.key) or self._disk_load(record.key)
            if parent is None:
                continue  # evicted since it was registered
            residual_stmt = replace(stmt, where=conjoin(residual))
            with get_tracer().span(
                SQL_EXECUTE_SPAN,
                cache="incremental",
                residual_conjuncts=len(residual),
                **_shape_attrs(plan),
            ) as sp:
                result = execute_over_frame(residual_stmt, parent)
                sp.set(rows=result.num_rows)
            self._store(key, plan, states, result)
            return result
        return None

    # -- publishing ----------------------------------------------------
    def _store(
        self, key: str, plan: NormalizedPlan, states: tuple[str, ...], frame: Frame
    ) -> None:
        get_registry().counter(obs_names.DB_CACHE_STORE).inc()
        _memory_put(key, frame)
        self._disk_store(key, frame)
        _register_parent(plan, states, key, frame)

    # -- disk tier -----------------------------------------------------
    def _entry_path(self, key: str) -> Path | None:
        return None if self.cache_dir is None else self.cache_dir / f"q_{key}{ENTRY_SUFFIX}"

    def quarantined_entries(self) -> list[Path]:
        if self.cache_dir is None:
            return []
        qdir = self.cache_dir / QUARANTINE_DIRNAME
        if not qdir.is_dir():
            return []
        return sorted(qdir.iterdir())

    def _disk_load(self, key: str) -> Frame | None:
        entry = self._entry_path(key)
        if entry is None:
            return None
        try:
            return self._read_entry(entry, key)
        except _CorruptEntry as exc:
            self._quarantine(entry, str(exc))
            return None
        except OSError:
            return None  # absent, or raced with another process's quarantine/clear

    def _read_entry(self, entry: Path, key: str) -> Frame:
        """Load and *verify* one published entry: every column's CRC
        (one ``storage.bit_flip`` draw each) and the key in its header.

        Raises :class:`_CorruptEntry` for anything that should not be
        possible under an intact publish.
        """
        try:
            attrs, columns = read_gio_verified(entry, fault_point=faults.STORAGE_BIT_FLIP)
        except GIOFormatError as exc:
            raise _CorruptEntry(str(exc)) from None
        if attrs.get("key") != key:
            raise _CorruptEntry("header key mismatch")
        return Frame(columns)

    def _quarantine(self, entry: Path, detail: str) -> None:
        """Move a corrupt entry aside so the next execution re-publishes."""
        get_registry().counter(obs_names.DB_CACHE_QUARANTINE).inc()
        span = get_tracer().current()
        if span is not None:
            attrs = span.attributes
            attrs["cache_quarantined"] = int(attrs.get("cache_quarantined", 0)) + 1
        log.warning("quarantining corrupt cache entry %s: %s", entry.name, detail)
        qdir = entry.parent / QUARANTINE_DIRNAME
        try:
            qdir.mkdir(parents=True, exist_ok=True)
            os.replace(entry, qdir / entry.name)
        except OSError:
            entry.unlink(missing_ok=True)

    def _disk_store(self, key: str, frame: Frame) -> None:
        """Publish one entry file (racers lose quietly); the publish draws
        ``storage.torn_write`` once, and a torn entry is published for the
        read side to catch."""
        entry = self._entry_path(key)
        if entry is None or entry.exists():
            return
        if any(frame.column(n).dtype == object for n in frame.columns):
            return  # object columns don't round-trip; memory tier only
        parts, _ = encode_gio({n: frame.column(n) for n in frame.columns}, {"key": key})
        try:
            atomic_publish(entry, b"".join(parts), fault_point=faults.STORAGE_TORN_WRITE)
        except OSError:
            pass  # read-only workdir degrades to in-process caching

    # -- maintenance ---------------------------------------------------
    def disk_entries(self) -> list[Path]:
        if self.cache_dir is None or not self.cache_dir.is_dir():
            return []
        return sorted(self.cache_dir.glob(f"q_*{ENTRY_SUFFIX}"))

    def footprint_bytes(self) -> int:
        """On-disk bytes held by published result entries."""
        return sum(entry.stat().st_size for entry in self.disk_entries())

    def clear_disk(self) -> int:
        """Remove every published entry; returns how many were dropped."""
        entries = self.disk_entries()
        for entry in entries:
            entry.unlink(missing_ok=True)
        return len(entries)
