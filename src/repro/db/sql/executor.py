"""Vectorized streaming executor for the SQL subset.

Execution strategy by query shape:

* plain SELECT (no grouping): stream row groups through WHERE + projection,
  with early termination when an un-ordered LIMIT is satisfied;
* grouped / aggregate SELECT: each row group yields *partial* per-group
  accumulators keyed by chunk-local dense codes, folded into the global
  accumulators (via :meth:`Accumulator.merge`) in row-group order, then
  SELECT expressions evaluate over the per-group frame (aggregate nodes
  substituted for materialized columns) and HAVING applies;
* JOIN queries materialize both sides column-pruned, merge via the Frame
  join (:mod:`repro.frame.join`), then follow one of the two paths above
  in-memory.

ORDER BY / LIMIT run last over the (result-sized) output.

**Morsel-driven parallelism.**  When ``num_threads > 1`` (the Database's
``num_threads``, or the ``REPRO_SQL_THREADS`` environment variable), the
per-row-group work — segment read, WHERE, projection, partial
aggregation — is dispatched as (row group index) morsels onto a shared
thread pool.  Threads, not processes: the mmap'd ``.npy`` segments are
shared zero-copy instead of pickled, and NumPy releases the GIL across
the kernels doing the real work.  The coordinator consumes results in
**row-group order** through a bounded reorder window, and the sequential
path runs the *same* per-chunk functions through the same fold, so
parallel execution is byte-identical to sequential by construction — the
invariant the query-result cache, the chaos suite, and canonical traces
all depend on.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Callable, Iterable, Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np

from dataclasses import dataclass as _dataclass

from repro.db.errors import UnsupportedSQLError
from repro.db.sql import ast
from repro.db.sql.aggregates import Accumulator, make_accumulator
from repro.db.sql.expressions import evaluate, expr_name
from repro.db.sql.normalize import referenced_column_names
from repro.db.sql.pruning import skip_reason
from repro.frame import Frame, concat
from repro.frame.join import merge
from repro.obs.events import NULL_BUS, get_bus
from repro.obs.metrics import get_registry
from repro.obs.names import MORSEL_EVENT, SQL_EXECUTE_SPAN
from repro.obs.tracer import get_tracer


@_dataclass
class ScanStats:
    """Row-group pruning, projection and morsel accounting for one query.

    ``columns_read`` counts the distinct columns whose segments the
    statement's table scans open (summed over the tables it reads): more
    than the statement references is a projection leak.
    """

    row_groups_total: int = 0
    row_groups_skipped_zone: int = 0
    row_groups_skipped_bloom: int = 0
    columns_read: int = 0
    morsels_executed: int = 0
    threads: int = 1

    @property
    def row_groups_skipped(self) -> int:
        return self.row_groups_skipped_zone + self.row_groups_skipped_bloom

    @property
    def skip_fraction(self) -> float:
        if not self.row_groups_total:
            return 0.0
        return self.row_groups_skipped / self.row_groups_total


# ----------------------------------------------------------------------
# thread-pool plumbing
# ----------------------------------------------------------------------
def resolve_num_threads(explicit: int | None = None) -> int:
    """Engine thread count: explicit knob > REPRO_SQL_THREADS > 1.

    A value of 0 (or negative) means one thread per core.  The result is
    clamped to the host's core count — the engine is CPU-bound, so
    oversubscribing cores only adds scheduler overhead — unless
    ``REPRO_SQL_FORCE_PARALLEL=1`` is set (a test/bench hook so the
    parallel merge path can be exercised on small hosts).
    """
    cores = max(1, os.cpu_count() or 1)
    if explicit is None:
        env = os.environ.get("REPRO_SQL_THREADS", "").strip()
        if not env:
            return 1
        try:
            explicit = int(env)
        except ValueError:
            return 1
    if explicit <= 0:
        return cores
    threads = int(explicit)
    if os.environ.get("REPRO_SQL_FORCE_PARALLEL", "") != "1":
        threads = min(threads, cores)
    return threads


_POOLS: dict[int, ThreadPoolExecutor] = {}
_POOLS_LOCK = threading.Lock()


def _shared_pool(threads: int) -> ThreadPoolExecutor:
    with _POOLS_LOCK:
        pool = _POOLS.get(threads)
        if pool is None:
            pool = ThreadPoolExecutor(
                max_workers=threads, thread_name_prefix="repro-sql"
            )
            _POOLS[threads] = pool
        return pool


if hasattr(os, "register_at_fork"):
    # the evaluation harness forks worker processes; a pool's threads do
    # not survive fork, so children must drop the parent's dead pools
    os.register_at_fork(after_in_child=_POOLS.clear)


def _ordered_map(
    fn: Callable, items: list, pool: ThreadPoolExecutor, window: int
) -> Iterator:
    """Map ``fn`` over ``items`` on ``pool``, yielding results *in order*.

    At most ``window`` futures are in flight, so an early-terminating
    consumer (un-ordered LIMIT) never schedules the whole table; pending
    futures are cancelled when the consumer stops.
    """
    futures: dict[int, object] = {}
    next_submit = 0
    try:
        for next_yield in range(len(items)):
            while next_submit < len(items) and next_submit < next_yield + window:
                futures[next_submit] = pool.submit(fn, items[next_submit])
                next_submit += 1
            yield futures.pop(next_yield).result()
    finally:
        for fut in futures.values():
            fut.cancel()


def execute(
    db,
    stmt: ast.SelectStatement,
    scan_stats: ScanStats | None = None,
    cache_outcome: str | None = None,
    num_threads: int | None = None,
) -> Frame:
    """Run a SELECT against ``db`` (a :class:`repro.db.database.Database`).

    Traced as span ``sql.execute`` with the result size, thread count and
    the segment-pruning outcome (zone-map vs bloom-filter skips, morsels
    executed) as attributes, correlating each supervisor step with the
    exact scan it triggered.  ``cache_outcome`` is stamped onto the span
    by the query-result cache (``"miss"`` on a full execution; hits never
    reach this function — see :mod:`repro.db.cache`).

    ``num_threads=None`` defers to ``db.num_threads`` and then to the
    ``REPRO_SQL_THREADS`` environment variable.
    """
    if num_threads is None:
        num_threads = getattr(db, "num_threads", None)
    threads = resolve_num_threads(num_threads)
    stats = scan_stats if scan_stats is not None else ScanStats()
    stats.threads = max(stats.threads, threads)
    with get_tracer().span(
        SQL_EXECUTE_SPAN,
        grouped=bool(stmt.group_by)
        or any(ast.contains_aggregate(item.expr) for item in stmt.items),
        joins=len(stmt.joins),
    ) as sp:
        result = _execute_statement(db, stmt, stats, threads)
        sp.set(rows=result.num_rows)
        if cache_outcome is not None:
            sp.set(cache=cache_outcome)
        sp.set(
            threads=threads,
            morsels=stats.morsels_executed,
            row_groups_total=stats.row_groups_total,
            row_groups_skipped=stats.row_groups_skipped,
            row_groups_skipped_zone=stats.row_groups_skipped_zone,
            row_groups_skipped_bloom=stats.row_groups_skipped_bloom,
        )
    registry = get_registry()
    registry.counter("sql.queries").inc()
    registry.counter("sql.engine.morsels").inc(stats.morsels_executed)
    registry.counter("sql.engine.skipped.zone").inc(stats.row_groups_skipped_zone)
    registry.counter("sql.engine.skipped.bloom").inc(stats.row_groups_skipped_bloom)
    return result


def execute_over_frame(stmt: ast.SelectStatement, frame: Frame) -> Frame:
    """Run a SELECT over one in-memory frame instead of stored tables.

    The incremental re-execution path of the query-result cache: a redo
    whose WHERE is strictly narrower than a cached parent's re-filters
    the parent's result frame through the ordinary grouped/plain pipeline
    (the statement's residual WHERE, projection, GROUP BY, ORDER BY and
    LIMIT all apply) without touching row groups on disk.
    """
    return _execute_over_source(stmt, _FrameSource([frame]), 1, None)


def _execute_statement(
    db, stmt: ast.SelectStatement, stats: ScanStats | None, threads: int
) -> Frame:
    return _execute_over_source(
        stmt, _resolve_source(db, stmt, stats, threads), threads, stats
    )


# ----------------------------------------------------------------------
# source resolution
# ----------------------------------------------------------------------
class _FrameSource:
    """Chunk source over already-materialized frames (subquery, join,
    cache incremental re-execution)."""

    def __init__(self, frames: list[Frame]):
        self.frames = frames

    @property
    def schema(self) -> dict[str, np.dtype]:
        sch: dict[str, np.dtype] = {}
        for f in self.frames:
            for n in f.columns:
                sch.setdefault(n, np.asarray(f.column(n)).dtype)
        return sch

    def morsels(self) -> None:
        return None  # frames are in memory already; nothing to parallelize

    def chunks(self) -> Iterator[Frame]:
        return iter(self.frames)


class _StoreSource:
    """Chunk source over an on-disk table: prunes row groups through zone
    maps and bloom filters, then serves survivors sequentially or as
    parallel morsels (``read()`` is thread-safe: segment reads mmap)."""

    def __init__(self, store, columns, where, stats: ScanStats | None):
        self.store = store
        self.columns = store.columns if columns is None else columns
        if stats is not None:
            stats.columns_read += len(self.columns)
        self.survivors: list[int] = []
        for i in range(store.num_row_groups):
            if stats is not None:
                stats.row_groups_total += 1
            if where is not None:
                reason = skip_reason(where, store.zone_map(i), store.blooms(i))
                if reason is not None:
                    if stats is not None:
                        if reason == "zone":
                            stats.row_groups_skipped_zone += 1
                        else:
                            stats.row_groups_skipped_bloom += 1
                    continue
            self.survivors.append(i)

    @property
    def schema(self) -> dict[str, np.dtype]:
        return {n: self.store.dtype_of(n) for n in self.columns}

    def morsels(self) -> list[int]:
        return self.survivors

    def read(self, index: int) -> Frame:
        return self.store.read_row_group(index, self.columns)

    def chunks(self) -> Iterator[Frame]:
        for i in self.survivors:
            yield self.read(i)


def _resolve_source(
    db, stmt: ast.SelectStatement, stats: ScanStats | None, threads: int
):
    needed = referenced_column_names(stmt)
    if stmt.table.is_subquery and not stmt.joins:
        inner = execute(db, stmt.table.subquery, stats, num_threads=threads)
        return _FrameSource([inner])
    if not stmt.joins:
        store = db.store(stmt.table.name)
        columns = None if needed is None else [c for c in store.columns if c in needed]
        if columns is not None and not columns:
            # pure COUNT(*)-style query: stream the cheapest column
            columns = store.columns[:1]
        return _StoreSource(store, columns, stmt.where, stats)
    return _FrameSource([_materialize_join(db, stmt, needed, stats)])


def _materialize_join(
    db, stmt: ast.SelectStatement, needed: set[str] | None, stats: ScanStats | None
) -> Frame:
    """Column-pruned two-or-more-way equijoin through Frame merge."""
    def load(table: ast.TableRef, extra: set[str]) -> Frame:
        if table.is_subquery:
            inner = execute(db, table.subquery)
            if needed is None:
                return inner
            keep = [c for c in inner.columns if c in needed or c in extra]
            return inner.select(keep) if keep else inner
        store = db.store(table.name)
        if needed is None:
            columns = store.columns
        else:
            columns = [c for c in store.columns if c in needed or c in extra]
        if stats is not None:
            stats.columns_read += len(columns)
        return store.read_all(columns)

    left_keys = {lk.name for j in stmt.joins for lk, _ in j.keys}
    current = load(stmt.table, left_keys)
    for join in stmt.joins:
        right = load(join.table, {rk.name for _, rk in join.keys})
        renames = {rk.name: lk.name for lk, rk in join.keys if rk.name != lk.name}
        if renames:
            right = right.rename(renames)
        on = [lk.name for lk, _ in join.keys]
        current = merge(current, right, on=on, how=join.kind)
    return current


# ----------------------------------------------------------------------
# morsel dispatch
# ----------------------------------------------------------------------
def _piece_stream(source, work: Callable, threads: int, stats: ScanStats | None):
    """Per-chunk results of ``work``, always yielded in row-group order.

    Parallel dispatch only for store-backed sources with more than one
    surviving row group; everything else (frames, joins, subqueries) is
    already materialized and runs inline.
    """
    bus = get_bus()
    if bus is not NULL_BUS:
        # live telemetry: each morsel completion publishes a counter event
        # carrying the enclosing sql.execute span id, captured here on the
        # coordinator thread (worker threads have no span stack), so
        # subscribers see per-morsel progress parented on the right query
        enclosing = get_tracer().current()
        enclosing_id = getattr(enclosing, "span_id", None)
        inner_work = work

        def work(chunk, _inner=inner_work, _sid=enclosing_id, _bus=bus):
            piece = _inner(chunk)
            _bus.publish_counter(MORSEL_EVENT, 1, span_id=_sid)
            return piece

    morsels = source.morsels()
    if threads > 1 and morsels is not None and len(morsels) > 1:
        pool = _shared_pool(threads)
        stream = _ordered_map(
            lambda i: work(source.read(i)), morsels, pool, window=2 * threads
        )
    else:
        stream = (work(chunk) for chunk in source.chunks())
    for piece in stream:
        if stats is not None:
            stats.morsels_executed += 1
        yield piece


def _execute_over_source(
    stmt: ast.SelectStatement, source, threads: int, stats: ScanStats | None
) -> Frame:
    needs_group = bool(stmt.group_by) or any(
        ast.contains_aggregate(item.expr) for item in stmt.items
    )
    schema = source.schema
    keep = _columns_after_where(stmt, schema)
    if needs_group:
        agg_calls = _collect_aggregates(stmt)
        group_exprs = list(stmt.group_by)
        pieces = _piece_stream(
            source,
            lambda chunk: _grouped_partial(stmt, chunk, keep, agg_calls, group_exprs),
            threads,
            stats,
        )
        result = _merge_grouped(stmt, pieces, agg_calls, group_exprs, schema)
    else:
        pieces = _piece_stream(
            source, lambda chunk: _plain_piece(stmt, chunk, keep), threads, stats
        )
        topk_key = _streaming_topk_key(stmt)
        if topk_key is not None:
            result = _fold_topk(stmt, pieces, topk_key, schema)
        else:
            result = _gather_plain(stmt, pieces, schema)
    if stmt.distinct:
        result = result.drop_duplicates()
    return _order_and_limit(stmt, result)


def _columns_after_where(stmt: ast.SelectStatement, schema) -> set[str] | None:
    """Columns the statement still reads once WHERE has been applied
    (None: all of them); a column only the predicate names is never
    gathered.  A statement naming a column the source lacks keeps them
    all: its error lists every candidate the source has."""
    if stmt.where is None:
        return None
    keep = referenced_column_names(replace(stmt, where=None))
    return keep if keep is not None and keep <= set(schema) else None


def _filter_chunk(
    stmt: ast.SelectStatement, chunk: Frame, keep: set[str] | None
) -> Frame:
    """Rows of ``chunk`` that pass WHERE, over the ``keep`` columns."""
    if stmt.where is None:
        return chunk
    mask = evaluate(stmt.where, chunk).astype(bool, copy=False)
    names = chunk.columns
    if keep is not None:
        # the row count lives in the columns: never gather none of them
        names = [n for n in names if n in keep] or names[:1]
    return chunk.select(names).filter(mask)


# ----------------------------------------------------------------------
# plain (non-grouped) path
# ----------------------------------------------------------------------
def _streaming_topk_key(stmt: ast.SelectStatement) -> str | None:
    """Column name usable for streaming top-k, or None if ineligible.

    Eligible shape: single ORDER BY key that is a bare column also present
    in the projection (directly or via alias), a LIMIT, and no DISTINCT.
    Then only limit+offset rows ever need to be held in memory.
    """
    if stmt.limit is None or stmt.distinct or len(stmt.order_by) != 1:
        return None
    key = stmt.order_by[0].expr
    if not isinstance(key, ast.Column):
        return None
    for item in stmt.items:
        if isinstance(item.expr, ast.Star):
            return key.name
        name = item.alias or expr_name(item.expr)
        if isinstance(item.expr, ast.Column) and item.expr.name == key.name:
            return name
    return None


def _plain_piece(
    stmt: ast.SelectStatement, chunk: Frame, keep: set[str] | None
) -> tuple[Frame | None, int]:
    """Per-morsel work of the non-grouped path: WHERE + projection."""
    chunk = _filter_chunk(stmt, chunk, keep)
    if chunk.num_rows == 0:
        return None, 0
    return _densify(_project(stmt, chunk)), chunk.num_rows


def _gather_plain(stmt: ast.SelectStatement, pieces, schema) -> Frame:
    out: list[Frame] = []
    gathered = 0
    want = None
    if stmt.limit is not None and not stmt.order_by and not stmt.distinct:
        want = stmt.limit + (stmt.offset or 0)
    for piece, nrows in pieces:
        if piece is None:
            continue
        out.append(piece)
        gathered += nrows
        if want is not None and gathered >= want:
            break
    if not out:
        return _empty_projection(stmt, schema)
    return concat(out)


def _fold_topk(stmt: ast.SelectStatement, pieces, key: str, schema) -> Frame:
    """ORDER BY <col> LIMIT k with O(k) memory: fold morsels through a
    running top-k buffer instead of materializing the whole filtered set."""
    k = stmt.limit + (stmt.offset or 0)
    ascending = stmt.order_by[0].ascending
    running: Frame | None = None
    for piece, _nrows in pieces:
        if piece is None:
            continue
        merged = piece if running is None else concat([running, piece])
        if merged.num_rows > k:
            # keep order stability: sort, then truncate
            merged = merged.sort_values(key, ascending=ascending)[:k]
        running = merged
    return running if running is not None else _empty_projection(stmt, schema)


def _is_mmap_backed(arr: np.ndarray) -> bool:
    base = arr
    while base is not None:
        if isinstance(base, np.memmap):
            return True
        base = getattr(base, "base", None)
    return False


def _densify(frame: Frame) -> Frame:
    """Copy memory-mapped columns so downstream results own their data
    (no file handles pinned past the scan); owned arrays pass through."""
    out: dict[str, np.ndarray] = {}
    changed = False
    for n in frame.columns:
        col = np.asarray(frame.column(n))
        if _is_mmap_backed(col):
            col = np.array(col)
            changed = True
        out[n] = col
    return Frame(out) if changed else frame


def _project(stmt: ast.SelectStatement, chunk: Frame) -> Frame:
    out: dict[str, np.ndarray] = {}
    for item in stmt.items:
        if isinstance(item.expr, ast.Star):
            for n in chunk.columns:
                out[n] = chunk.column(n)
            continue
        name = item.alias or expr_name(item.expr)
        out[name] = evaluate(item.expr, chunk)
    return Frame(out)


def _empty_projection(
    stmt: ast.SelectStatement, schema: dict[str, np.dtype] | None = None
) -> Frame:
    """Zero-row result frame with *schema-stable* column dtypes.

    Each SELECT item is evaluated over a zero-row probe frame typed from
    the source schema (aggregate calls substituted by typed probe columns:
    COUNT is int64, every other aggregate float64), so an empty result has
    the same dtypes a non-empty one would — which keeps cached zero-row
    results byte-identical across execution modes.  Items the probe cannot
    type (e.g. referencing columns absent from the schema) fall back to
    empty float64.
    """
    agg_names: dict[ast.FuncCall, str] = {}
    for item in stmt.items:
        for node in ast.walk(item.expr):
            if isinstance(node, ast.FuncCall) and node.is_aggregate:
                agg_names.setdefault(node, f"__probe{len(agg_names)}")
    probe_cols: dict[str, np.ndarray] = {
        n: np.empty(0, dtype=np.dtype(dt)) for n, dt in (schema or {}).items()
    }
    for call, name in agg_names.items():
        dt = np.int64 if call.name.upper() == "COUNT" else np.float64
        probe_cols[name] = np.empty(0, dtype=dt)
    probe = Frame(probe_cols)
    cols: dict[str, np.ndarray] = {}
    for item in stmt.items:
        if isinstance(item.expr, ast.Star):
            for n, dt in (schema or {}).items():
                cols[n] = np.empty(0, dtype=np.dtype(dt))
            continue
        name = item.alias or expr_name(item.expr)
        try:
            arr = np.asarray(evaluate(_substitute(item.expr, agg_names), probe))
            cols[name] = np.empty(0, dtype=arr.dtype) if arr.ndim == 0 else arr[:0]
        except Exception:
            cols[name] = np.empty(0)
    return Frame(cols)


# ----------------------------------------------------------------------
# grouped / aggregate path
# ----------------------------------------------------------------------
def _pykey(value):
    """Python-native key element (matches what ``ndarray.tolist`` yields)."""
    return value.item() if isinstance(value, np.generic) else value


def _local_codes_slow(key_arrays: list[np.ndarray]) -> tuple[list[tuple], np.ndarray]:
    """Dict-loop fallback for key columns ``np.unique`` cannot factorize."""
    n = len(key_arrays[0]) if key_arrays else 0
    index: dict[tuple, int] = {}
    keys: list[tuple] = []
    codes = np.empty(n, dtype=np.int64)
    for i, key in enumerate(zip(*[a.tolist() for a in key_arrays])):
        idx = index.get(key)
        if idx is None:
            idx = len(keys)
            index[key] = idx
            keys.append(key)
        codes[i] = idx
    return keys, codes


# a key column (or combined code word) is coded through an offset lookup
# table, with no sort, when its value span is at most this many table
# entries per chunk row; wider spans take the sort-based factorisation
_DENSE_SPAN_PER_ROW = 4


def _dense_offsets(arr: np.ndarray) -> tuple[np.ndarray, int] | None:
    """``(arr - min, span)`` for an integer / bool column whose value span
    is small next to its row count, else None.  The table a caller
    allocates from ``span`` is bounded by the chunk, never by the dtype."""
    if arr.dtype.kind not in "iub":
        return None
    lo, hi = arr.min(), arr.max()
    span = int(hi) - int(lo) + 1
    if span > _DENSE_SPAN_PER_ROW * len(arr):
        return None
    # no offset exceeds the span, so the subtraction cannot wrap once the
    # narrow dtypes are widened (int64 / uint64 are wide enough as they are)
    wide = arr if arr.dtype.itemsize == 8 else arr.astype(np.int64)
    return (wide - wide.dtype.type(lo)).astype(np.int64, copy=False), span


def _first_appearance_codes(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factorize one non-empty column: ``(first, codes)`` with ``codes``
    dense in order of first appearance and ``first[c]`` the row where
    code ``c`` first occurs."""
    dense = _dense_offsets(arr)
    if dense is None:
        # slots are the sorted distinct values, all occupied
        _, first_at, slots = np.unique(
            arr, return_index=True, return_inverse=True, equal_nan=False
        )
    else:
        # slots are the offsets; reversed scatter, so a slot's last write
        # is its first row, and -1 marks a slot no row falls in
        slots, span = dense
        first_at = np.full(span, -1, dtype=np.int64)
        first_at[slots[::-1]] = np.arange(len(arr) - 1, -1, -1, dtype=np.int64)
    occupied = np.flatnonzero(first_at >= 0)
    by_first_row = occupied[np.argsort(first_at[occupied], kind="stable")]
    first = first_at[by_first_row]
    first_at[by_first_row] = np.arange(len(by_first_row), dtype=np.int64)  # now slot -> code
    return first, first_at[slots]


def _code_word(key_arrays: list[np.ndarray]) -> np.ndarray | None:
    """Several key columns as one int64 word per row, equal exactly where
    every key is equal; None when the word would not fit."""
    word = None
    capacity = 1
    for arr in key_arrays:
        dense = _dense_offsets(arr)
        if dense is None:
            uniq, digits = np.unique(arr, return_inverse=True, equal_nan=False)
            base = len(uniq)
        else:
            digits, base = dense
        capacity *= base
        if capacity > 2**62:
            return None
        word = digits if word is None else word * base + digits
    return word


def _local_codes(key_arrays: list[np.ndarray]) -> tuple[list[tuple], np.ndarray]:
    """Chunk-local dense group coding, vectorized.

    One factorisation per statement key: a single key column is coded
    directly, several are first packed into one int64 word per row.
    Integer / bool keys (and words) of small span go through an offset
    lookup table, everything else through one ``np.unique``.  Either way
    codes are ranked by *first appearance*, so local code assignment
    matches the order a sequential row-by-row registry would produce (NaN
    keys stay distinct per row, like dict keys).  One Python-level step
    per *distinct* key, not per row.
    """
    if not len(key_arrays[0]):
        return [], np.empty(0, dtype=np.int64)
    try:
        word = key_arrays[0] if len(key_arrays) == 1 else _code_word(key_arrays)
        if word is None:
            return _local_codes_slow(key_arrays)
        first, codes = _first_appearance_codes(word)
    except (TypeError, ValueError):
        return _local_codes_slow(key_arrays)
    keys = [tuple(_pykey(a[row]) for a in key_arrays) for row in first.tolist()]
    return keys, codes


class _GroupRegistry:
    """Maps group-key tuples to stable dense indices across row groups."""

    def __init__(self) -> None:
        self.index: dict[tuple, int] = {}
        self.keys: list[tuple] = []

    def codes_for_keys(self, local_keys: Iterable[tuple]) -> np.ndarray:
        """Register chunk-local keys; returns the local→global remap."""
        mapping = np.empty(len(local_keys), dtype=np.int64)
        for i, key in enumerate(local_keys):
            idx = self.index.get(key)
            if idx is None:
                idx = len(self.keys)
                self.index[key] = idx
                self.keys.append(key)
            mapping[i] = idx
        return mapping

    def codes_for(self, key_arrays: list[np.ndarray]) -> np.ndarray:
        local_keys, local_codes = _local_codes(key_arrays)
        mapping = self.codes_for_keys(local_keys)
        return mapping[local_codes]

    @property
    def n_groups(self) -> int:
        return len(self.keys)


def _collect_aggregates(stmt: ast.SelectStatement) -> list[ast.FuncCall]:
    """Distinct aggregate calls across SELECT items, HAVING and ORDER BY."""
    seen: dict[ast.FuncCall, None] = {}
    exprs = [item.expr for item in stmt.items]
    if stmt.having is not None:
        exprs.append(stmt.having)
    exprs.extend(o.expr for o in stmt.order_by)
    for e in exprs:
        for node in ast.walk(e):
            if isinstance(node, ast.FuncCall) and node.is_aggregate:
                if node.distinct and node.name != "COUNT":
                    raise UnsupportedSQLError(
                        "DISTINCT aggregates are only supported for COUNT"
                    )
                seen.setdefault(node)
    return list(seen)


def _substitute(expr: ast.Expr, mapping: dict[ast.FuncCall, str]) -> ast.Expr:
    """Rewrite aggregate calls to references of materialized agg columns."""
    if isinstance(expr, ast.FuncCall) and expr in mapping:
        return ast.Column(mapping[expr])
    if isinstance(expr, ast.Unary):
        return replace(expr, operand=_substitute(expr.operand, mapping))
    if isinstance(expr, ast.Binary):
        return replace(
            expr,
            left=_substitute(expr.left, mapping),
            right=_substitute(expr.right, mapping),
        )
    if isinstance(expr, ast.FuncCall):
        return replace(expr, args=tuple(_substitute(a, mapping) for a in expr.args))
    if isinstance(expr, ast.InList):
        return replace(
            expr,
            operand=_substitute(expr.operand, mapping),
            options=tuple(_substitute(o, mapping) for o in expr.options),
        )
    if isinstance(expr, ast.Between):
        return replace(
            expr,
            operand=_substitute(expr.operand, mapping),
            low=_substitute(expr.low, mapping),
            high=_substitute(expr.high, mapping),
        )
    return expr


def _grouped_partial(
    stmt: ast.SelectStatement,
    chunk: Frame,
    keep: set[str] | None,
    agg_calls: list[ast.FuncCall],
    group_exprs: list[ast.Expr],
) -> tuple[list[tuple], list[Accumulator]] | None:
    """Per-morsel work of the grouped path: one partial accumulator per
    aggregate, keyed by chunk-local dense codes.  Returns None for chunks
    the WHERE clause empties."""
    chunk = _filter_chunk(stmt, chunk, keep)
    if chunk.num_rows == 0:
        return None
    if group_exprs:
        key_arrays = [np.asarray(evaluate(g, chunk)) for g in group_exprs]
        local_keys, local_codes = _local_codes(key_arrays)
    else:
        local_keys = [()]
        local_codes = np.zeros(chunk.num_rows, dtype=np.int64)
    n_local = len(local_keys)
    partials: list[Accumulator] = []
    for call in agg_calls:
        acc = make_accumulator(call.name, distinct=call.distinct)
        if call.args and not isinstance(call.args[0], ast.Star):
            values = np.asarray(evaluate(call.args[0], chunk))
        else:
            values = None
        if values is None and call.name != "COUNT":
            raise UnsupportedSQLError(f"{call.name}(*) is not valid")
        acc.update(local_codes, values, n_local)
        partials.append(acc)
    return local_keys, partials


def _merge_grouped(
    stmt: ast.SelectStatement,
    pieces,
    agg_calls: list[ast.FuncCall],
    group_exprs: list[ast.Expr],
    schema,
) -> Frame:
    """Fold per-morsel partials (consumed in row-group order) into the
    global registry + accumulators, then finalize/project/HAVING."""
    agg_names = {call: f"__agg{k}" for k, call in enumerate(agg_calls)}
    accumulators: dict[ast.FuncCall, Accumulator] = {
        call: make_accumulator(call.name, distinct=call.distinct)
        for call in agg_calls
    }
    registry = _GroupRegistry()

    saw_rows = False
    for piece in pieces:
        if piece is None:
            continue
        saw_rows = True
        local_keys, partials = piece
        mapping = registry.codes_for_keys(local_keys)
        n_groups = registry.n_groups
        for call, partial in zip(agg_calls, partials):
            accumulators[call].merge(partial, mapping, n_groups)

    n_groups = registry.n_groups
    if n_groups == 0:
        if group_exprs or saw_rows:
            return _empty_projection(stmt, schema)
        # global aggregate over an empty table still yields one row
        registry.index[()] = 0
        registry.keys.append(())
        n_groups = 1

    # per-group frame: group-key columns + materialized aggregate columns
    group_cols: dict[str, np.ndarray] = {}
    for gi, gexpr in enumerate(group_exprs):
        name = expr_name(gexpr)
        group_cols[name] = np.asarray([key[gi] for key in registry.keys])
    for call, acc in accumulators.items():
        group_cols[agg_names[call]] = acc.finalize(n_groups)
    group_frame = Frame(group_cols)

    if stmt.having is not None:
        mask = evaluate(_substitute(stmt.having, agg_names), group_frame).astype(bool)
        group_frame = group_frame.filter(mask)

    out: dict[str, np.ndarray] = {}
    for item in stmt.items:
        if isinstance(item.expr, ast.Star):
            raise UnsupportedSQLError("SELECT * cannot be combined with GROUP BY")
        name = item.alias or expr_name(item.expr)
        out[name] = evaluate(_substitute(item.expr, agg_names), group_frame)
    result = Frame(out)
    # stash substituted order-by keys for _order_and_limit
    result = _attach_order_keys(stmt, agg_names, group_frame, result)
    return result


_ORDER_PREFIX = "__order"


def _attach_order_keys(stmt, agg_names, group_frame, result: Frame) -> Frame:
    extra = {}
    for k, item in enumerate(stmt.order_by):
        if ast.contains_aggregate(item.expr):
            extra[f"{_ORDER_PREFIX}{k}"] = evaluate(
                _substitute(item.expr, agg_names), group_frame
            )
    return result.assign(**extra) if extra else result


def _order_and_limit(stmt: ast.SelectStatement, result: Frame) -> Frame:
    if stmt.order_by:
        keys: list[str] = []
        orders: list[bool] = []
        helper = result
        for k, item in enumerate(stmt.order_by):
            hidden = f"{_ORDER_PREFIX}{k}"
            if hidden in helper:
                keys.append(hidden)
            else:
                name = expr_name(item.expr)
                if name not in helper:
                    # ORDER BY may reference a source column that the
                    # projection exposed under an alias
                    alias_hit = None
                    if isinstance(item.expr, ast.Column):
                        if item.expr.name in helper:
                            alias_hit = item.expr.name
                        else:
                            for sel in stmt.items:
                                if (
                                    isinstance(sel.expr, ast.Column)
                                    and sel.expr.name == item.expr.name
                                    and sel.alias
                                    and sel.alias in helper
                                ):
                                    alias_hit = sel.alias
                                    break
                    if alias_hit is None:
                        helper = helper.assign(**{hidden: evaluate(item.expr, helper)})
                        name = hidden
                    else:
                        name = alias_hit
                keys.append(name)
            orders.append(item.ascending)
        helper = helper.sort_values(keys, ascending=orders)
        result = helper.drop([c for c in helper.columns if c.startswith(_ORDER_PREFIX)]) \
            if any(c.startswith(_ORDER_PREFIX) for c in helper.columns) else helper
    elif any(c.startswith(_ORDER_PREFIX) for c in result.columns):
        result = result.drop([c for c in result.columns if c.startswith(_ORDER_PREFIX)])
    start = stmt.offset or 0
    if stmt.limit is not None:
        return result[start : start + stmt.limit]
    if start:
        return result[start:]
    return result
