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

**Tiers.**  Results live in a :class:`repro.gio.store.TieredStore`, the
retrieval cache's store too: a bounded LRU of result frames shared by
every Database in the process, over one ``q_<key>.gio`` file per entry
under ``cache_dir``, shared across worker processes (a corrupt one is
quarantined and recomputed).  A memory and disk miss tries **incremental
re-execution**: when a redo's normalized plan targets the same table
state as a recently cached statement and its WHERE is equal or strictly
narrower (conjunct superset), the residual predicates re-filter the
cached parent frame instead of re-scanning row groups.  Only then does a
cold miss execute in full and publish for everyone else.

Every tier outcome increments one ``db.cache.*`` counter of the
:mod:`repro.obs.metrics` registry (names declared in :mod:`repro.obs.names`)
and stamps a ``cache`` attribute on the ``sql.execute`` span;
:class:`QueryCacheStats` is a typed read of those counters.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from pathlib import Path

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
from repro.frame import Frame
from repro.gio.store import LRU, TieredStore
from repro.obs import names as obs_names
from repro.obs.names import SQL_EXECUTE_SPAN
from repro.obs.metrics import CounterView, counter_field, get_registry
from repro.obs.tracer import get_tracer

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

# tier 1: key -> result Frame
_MEMORY: LRU[str, Frame] = LRU(
    DEFAULT_MEMORY_ENTRIES,
    evicted=lambda n: get_registry().counter(obs_names.DB_CACHE_EVICTION).inc(n),
)

# incremental-parent registry: "<table>@<state>" -> recent eligible parents
_PARENTS: LRU[str, tuple["_ParentRecord", ...]] = LRU(_MAX_SCAFFOLDS)

# fingerprint -> last-seen table-states key (invalidation accounting)
_LAST_STATES: LRU[str, str] = LRU(_MAX_TRACKED_FINGERPRINTS)


def stats_snapshot() -> QueryCacheStats:
    """The process-wide counters now (subtract later with ``delta``)."""
    return QueryCacheStats.read()


def set_memory_capacity(entries: int) -> None:
    """Resize the in-process result LRU (evicting down if needed)."""
    _MEMORY.resize(entries)


def memory_capacity() -> int:
    return _MEMORY.capacity


def clear_memory_cache() -> None:
    """Drop every in-process tier (results, parents, invalidation state)."""
    _MEMORY.clear()
    _PARENTS.clear()
    _LAST_STATES.clear()


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
    record = _ParentRecord(key, plan.conjunct_keys, tuple(frame.columns), star)
    scaffold = _scaffold_state(plan, states)
    # racing registrations may drop one record: a lost parent costs a
    # miss, never a wrong answer
    bucket = [r for r in _PARENTS.get(scaffold, ()) if r.key != key]
    bucket.append(record)
    _PARENTS.put(scaffold, tuple(bucket[-_PARENTS_PER_SCAFFOLD:]))


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
class QueryResultCache:
    """Tiered result store driving ``Database.query`` SELECT execution.

    The in-process tiers (LRU + parent registry) are module-global and
    shared by every instance; ``cache_dir`` adds the cross-process disk
    tier when set.
    """

    def __init__(self, cache_dir: str | Path | None = None):
        self.store = TieredStore(
            cache_dir, "q_", _MEMORY,
            decode=lambda attrs, columns: Frame(columns),
            quarantined=lambda: get_registry().counter(obs_names.DB_CACHE_QUARANTINE).inc(),
        )

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

        hit = self.store.get(key)
        if hit is not None:
            return self._record_hit(*hit, plan)

        frame = self._try_incremental(plan, states, key)
        if frame is not None:
            return self._record_hit("incremental", frame, plan)

        get_registry().counter(obs_names.DB_CACHE_MISS).inc()
        frame = sql_execute(db, stmt, scan_stats, cache_outcome="miss")
        self._store(key, plan, states, frame)
        return frame

    def _record_hit(self, tier: str, frame: Frame, plan: NormalizedPlan) -> Frame:
        get_registry().counter(_HIT_COUNTERS[tier]).inc()
        if tier != "incremental":  # incremental emits its own sql.execute span
            with get_tracer().span(SQL_EXECUTE_SPAN, cache=tier, **_shape_attrs(plan)) as sp:
                sp.set(rows=frame.num_rows)
        # a fresh Frame over the same arrays: callers may reshape the column
        # dict (by repo convention nobody mutates arrays in place)
        return frame.select(frame.columns)

    def _track_invalidation(self, fingerprint: str, states_key: str) -> None:
        previous = _LAST_STATES.get(fingerprint)
        if previous is not None and previous != states_key:
            get_registry().counter(obs_names.DB_CACHE_INVALIDATION).inc()
        _LAST_STATES.put(fingerprint, states_key)

    # -- incremental re-execution --------------------------------------
    def _try_incremental(
        self, plan: NormalizedPlan, states: tuple[str, ...], key: str
    ) -> Frame | None:
        if not plan.single_table:
            return None
        stmt = plan.statement
        needed = referenced_column_names(stmt)
        for record in reversed(_PARENTS.get(_scaffold_state(plan, states), ())):
            residual = residual_conjuncts(plan, record.conjunct_keys)
            if residual is None:
                continue
            if needed is None:
                if not record.star:
                    continue
            elif not needed <= set(record.columns):
                continue
            parent = self.store.memory.get(record.key) or self.store.load(record.key)
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
        self.store.put(key, frame, {n: frame.column(n) for n in frame.columns})
        _register_parent(plan, states, key, frame)
