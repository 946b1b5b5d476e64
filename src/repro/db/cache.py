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
2. on-disk ``.npy`` columns + JSON sidecar under ``cache_dir``, published
   atomically (write-temp-then-rename) and served memory-mapped, shared
   across harness worker processes;
3. **incremental re-execution**: when a redo's normalized plan targets
   the same table state as a recently cached statement and its WHERE is
   equal or strictly narrower (conjunct superset), the residual
   predicates re-filter the cached parent frame through the ordinary
   executor pipeline instead of re-scanning row groups from disk;
4. cold miss: full streaming execution, then publish for everyone else.

All tiers count into the process-local :data:`QUERY_STATS` (mergeable —
the harness ships deltas back from worker processes), into ``repro.obs``
metrics counters, and onto ``sql.execute`` span attributes.

**Self-healing.**  Every published column file carries a CRC32 in the
sidecar.  A read that fails verification — a torn write that published a
truncated column, a bit flipped on disk, a mangled sidecar — *quarantines*
the entry (moved under ``<cache_dir>/.quarantine/``, counted as
``db.cache.quarantine``) and falls through to recomputation, which
re-publishes a good copy.  Corruption therefore costs one extra execution,
never a wrong answer and never a crash.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
import zlib
from collections import OrderedDict
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

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
from repro.frame import Frame
from repro.obs.logsetup import get_logger
from repro.obs.names import SQL_EXECUTE_SPAN
from repro.obs.metrics import get_registry
from repro.obs.tracer import get_tracer
from repro.util.stats import MergeableCounters

log = get_logger("db.cache")

SIDECAR_NAME = "result.json"
QUARANTINE_DIRNAME = ".quarantine"
DEFAULT_MEMORY_ENTRIES = 128
_PARENTS_PER_SCAFFOLD = 8
_MAX_SCAFFOLDS = 256
_MAX_TRACKED_FINGERPRINTS = 4096


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
@dataclass
class QueryCacheStats(MergeableCounters):
    """Process-local counters for every query-result-cache tier."""

    memory_hits: int = 0
    disk_hits: int = 0
    incremental_hits: int = 0        # redo re-filtered a cached parent
    misses: int = 0                  # full streaming executions
    stores: int = 0
    evictions: int = 0               # in-process LRU evictions
    invalidations: int = 0           # a known plan's table state changed
    quarantined: int = 0             # corrupt disk entries moved aside

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits + self.incremental_hits

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.requests if self.requests else 0.0


QUERY_STATS = QueryCacheStats()

# tier 1: key -> result Frame, LRU over insertion/use order
_MEMORY: OrderedDict[str, Frame] = OrderedDict()
_MEMORY_CAPACITY = DEFAULT_MEMORY_ENTRIES

# incremental-parent registry: "<table>@<state>" -> recent eligible parents
_PARENTS: OrderedDict[str, list["_ParentRecord"]] = OrderedDict()

# fingerprint -> last-seen table-states key (invalidation accounting)
_LAST_STATES: OrderedDict[str, str] = OrderedDict()


def stats_snapshot() -> QueryCacheStats:
    """Copy of the process-wide counters (subtract later with ``delta``)."""
    return QUERY_STATS.copy()


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
        QUERY_STATS.evictions += 1
        get_registry().counter("db.cache.eviction").inc()


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

        QUERY_STATS.misses += 1
        get_registry().counter("db.cache.miss").inc()
        frame = sql_execute(db, stmt, scan_stats, cache_outcome="miss")
        self._store(key, plan, states, frame)
        return frame

    def _record_hit(self, tier: str, plan: NormalizedPlan, frame: Frame) -> Frame:
        setattr(QUERY_STATS, f"{tier}_hits", getattr(QUERY_STATS, f"{tier}_hits") + 1)
        get_registry().counter(f"db.cache.hit.{tier}").inc()
        # every SELECT counts as a query regardless of how it was served,
        # so "sql.queries" stays identical between cached and cold runs
        get_registry().counter("sql.queries").inc()
        if tier != "incremental":  # incremental emits its own sql.execute span
            with get_tracer().span(SQL_EXECUTE_SPAN, cache=tier, **_shape_attrs(plan)) as sp:
                sp.set(rows=frame.num_rows)
        return _view(frame)

    def _track_invalidation(self, fingerprint: str, states_key: str) -> None:
        previous = _LAST_STATES.get(fingerprint)
        if previous is not None and previous != states_key:
            QUERY_STATS.invalidations += 1
            get_registry().counter("db.cache.invalidation").inc()
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
        QUERY_STATS.stores += 1
        get_registry().counter("db.cache.store").inc()
        _memory_put(key, frame)
        self._disk_store(key, frame)
        _register_parent(plan, states, key, frame)

    # -- disk tier -----------------------------------------------------
    def _entry_dir(self, key: str) -> Path | None:
        return None if self.cache_dir is None else self.cache_dir / f"q_{key}"

    def quarantined_entries(self) -> list[Path]:
        if self.cache_dir is None:
            return []
        qdir = self.cache_dir / QUARANTINE_DIRNAME
        if not qdir.is_dir():
            return []
        return sorted(p for p in qdir.iterdir() if p.is_dir())

    def _disk_load(self, key: str) -> Frame | None:
        entry = self._entry_dir(key)
        if entry is None or not entry.is_dir():
            return None
        try:
            return self._read_entry(entry, key)
        except _CorruptEntry as exc:
            self._quarantine(entry, str(exc))
            return None
        except OSError:
            return None  # raced with another process's quarantine/clear

    def _read_entry(self, entry: Path, key: str) -> Frame:
        """Load and *verify* one published entry.

        Raises :class:`_CorruptEntry` for anything that should not be
        possible under an intact publish: unreadable/mismatched sidecar,
        a missing or CRC-failing column file, a row-count mismatch.
        """
        injector = faults.get_injector()
        try:
            meta = json.loads((entry / SIDECAR_NAME).read_text())
        except FileNotFoundError:
            raise _CorruptEntry("sidecar missing") from None
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _CorruptEntry(f"sidecar unreadable: {exc}") from None
        if not isinstance(meta, dict) or meta.get("key") != key:
            raise _CorruptEntry("sidecar key mismatch")
        try:
            names = list(meta["columns"])
            num_rows = int(meta["num_rows"])
            crcs = [int(crc) for crc in meta["crc32"]]
            if len(crcs) != len(names):
                raise ValueError(f"{len(crcs)} CRCs for {len(names)} columns")
        except (KeyError, TypeError, ValueError) as exc:
            raise _CorruptEntry(f"sidecar schema: {exc}") from None
        columns: dict[str, np.ndarray] = {}
        for i, name in enumerate(names):
            path = entry / f"col{i:05d}.npy"
            try:
                raw = path.read_bytes()
            except FileNotFoundError:
                raise _CorruptEntry(f"column file {path.name} missing") from None
            if injector.fire(faults.STORAGE_BIT_FLIP):
                raw = injector.flip_bit(faults.STORAGE_BIT_FLIP, raw)
            if (zlib.crc32(raw) & 0xFFFFFFFF) != crcs[i]:
                raise _CorruptEntry(f"column {name!r} failed CRC")
            try:
                arr = np.load(path, mmap_mode="r", allow_pickle=False)
            except (OSError, ValueError) as exc:
                raise _CorruptEntry(f"column {name!r} unreadable: {exc}") from None
            if len(arr) != num_rows:
                raise _CorruptEntry(
                    f"column {name!r} has {len(arr)} rows, sidecar says {num_rows}"
                )
            columns[name] = arr
        return Frame(columns)

    def _quarantine(self, entry: Path, detail: str) -> None:
        """Move a corrupt entry aside so the next execution re-publishes."""
        QUERY_STATS.quarantined += 1
        get_registry().counter("db.cache.quarantine").inc()
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
            shutil.rmtree(entry, ignore_errors=True)

    def _disk_store(self, key: str, frame: Frame) -> None:
        """Atomic write-temp-then-rename publish (racers lose quietly)."""
        entry = self._entry_dir(key)
        if entry is None or entry.exists():
            return
        if any(frame.column(n).dtype == object for n in frame.columns):
            return  # object columns don't round-trip .npy; memory tier only
        try:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            tmp = Path(tempfile.mkdtemp(dir=self.cache_dir, prefix=".q_tmp_"))
        except OSError:
            return  # read-only workdir degrades to in-process caching
        try:
            crcs: list[int] = []
            for i, name in enumerate(frame.columns):
                path = tmp / f"col{i:05d}.npy"
                np.save(path, np.asarray(frame.column(name)), allow_pickle=False)
                crcs.append(zlib.crc32(path.read_bytes()) & 0xFFFFFFFF)
            sidecar = {
                "key": key,
                "columns": list(frame.columns),
                "dtypes": [str(frame.column(n).dtype) for n in frame.columns],
                "num_rows": frame.num_rows,
                "crc32": crcs,
            }
            (tmp / SIDECAR_NAME).write_text(json.dumps(sidecar, indent=1))
            injector = faults.get_injector()
            if frame.columns and injector.fire(faults.STORAGE_TORN_WRITE):
                # tear the first column file *after* its CRC was recorded:
                # the publish "succeeds", and the read side must catch it
                victim = tmp / "col00000.npy"
                victim.write_bytes(
                    injector.truncate(faults.STORAGE_TORN_WRITE, victim.read_bytes())
                )
            os.rename(tmp, entry)
        except OSError:
            shutil.rmtree(tmp, ignore_errors=True)

    # -- maintenance ---------------------------------------------------
    def disk_entries(self) -> list[Path]:
        if self.cache_dir is None or not self.cache_dir.is_dir():
            return []
        return sorted(p for p in self.cache_dir.iterdir()
                      if p.is_dir() and p.name.startswith("q_"))

    def footprint_bytes(self) -> int:
        """On-disk bytes held by published result entries."""
        return sum(
            f.stat().st_size
            for entry in self.disk_entries()
            for f in entry.iterdir()
            if f.is_file()
        )

    def clear_disk(self) -> int:
        """Remove every published entry; returns how many were dropped."""
        entries = self.disk_entries()
        for entry in entries:
            shutil.rmtree(entry, ignore_errors=True)
        return len(entries)
