"""Streaming aggregate accumulators.

Aggregation runs over row groups one at a time; each accumulator keeps
O(#groups) state (Welford-style moments for variance) so a GROUP BY over
an arbitrarily large table peaks at row-group memory.  MEDIAN is the one
holdout that must buffer values, documented as such.

Every accumulator is also *mergeable*: the morsel-driven parallel engine
computes one partial accumulator per row group on worker threads, then
folds partials into the global accumulator **in row-group order** via
:meth:`Accumulator.merge` with a local→global group-index remap.  Merge
is written to replay, bit for bit, the same floating-point operations the
sequential ``update`` path performs (partials are scattered into
full-width arrays so untouched groups see the identical ``+ 0.0`` the
sequential bincount adds), which is what makes parallel execution
byte-identical to sequential — the invariant the query-result cache,
chaos suite, and canonical traces all depend on.
"""

from __future__ import annotations

import numpy as np

AGGREGATE_NAMES = {"COUNT", "SUM", "AVG", "MEAN", "MIN", "MAX", "STDDEV", "STD", "VAR", "MEDIAN"}


class Accumulator:
    """Base streaming accumulator keyed by dense group index."""

    def update(self, group_idx: np.ndarray, values: np.ndarray | None, n_groups: int) -> None:
        raise NotImplementedError

    def merge(self, other: "Accumulator", mapping: np.ndarray, n_groups: int) -> None:
        """Fold a partial accumulator of the same kind into this one.

        ``other`` was built by a single ``update`` over one morsel using
        chunk-local dense group codes; ``mapping[local_idx]`` is the
        global group index.  Called in row-group order by the parallel
        merge, and required to be bitwise-equivalent to having called
        ``update`` with globally-coded indices directly.
        """
        raise NotImplementedError

    def finalize(self, n_groups: int) -> np.ndarray:
        raise NotImplementedError


def _scatter(partial: np.ndarray, mapping: np.ndarray, n_groups: int) -> np.ndarray:
    """Spread a local-group-indexed partial onto the global index space.

    Untouched groups hold exact zero, so folding the scattered array with
    ``+=`` performs the identical additions (including ``x + 0.0``) the
    sequential path's ``minlength=n_groups`` bincount performs.
    """
    out = np.zeros(n_groups, dtype=partial.dtype)
    out[mapping[: len(partial)]] = partial
    return out


class CountAcc(Accumulator):
    def __init__(self) -> None:
        self.counts = np.zeros(0, dtype=np.int64)

    def update(self, group_idx, values, n_groups):
        self.counts = _grow(self.counts, n_groups)
        if values is None:  # COUNT(*)
            self.counts += np.bincount(group_idx, minlength=n_groups)
        else:
            group_idx, _ = _without_nan(group_idx, values)
            self.counts += np.bincount(group_idx, minlength=n_groups)

    def merge(self, other, mapping, n_groups):
        self.counts = _grow(self.counts, n_groups)
        self.counts += _scatter(other.counts, mapping, n_groups)

    def finalize(self, n_groups):
        return _grow(self.counts, n_groups)


class SumAcc(Accumulator):
    def __init__(self) -> None:
        self.sums = np.zeros(0)

    def update(self, group_idx, values, n_groups):
        self.sums = _grow(self.sums, n_groups)
        self.sums += np.bincount(group_idx, weights=_clean(values), minlength=n_groups)

    def merge(self, other, mapping, n_groups):
        self.sums = _grow(self.sums, n_groups)
        self.sums += _scatter(other.sums, mapping, n_groups)

    def finalize(self, n_groups):
        return _grow(self.sums, n_groups)


class MeanAcc(Accumulator):
    def __init__(self) -> None:
        self.sums = np.zeros(0)
        self.counts = np.zeros(0, dtype=np.int64)

    def update(self, group_idx, values, n_groups):
        self.sums = _grow(self.sums, n_groups)
        self.counts = _grow(self.counts, n_groups)
        group_idx, values = _without_nan(group_idx, values)
        self.sums += np.bincount(
            group_idx, weights=values.astype(np.float64, copy=False), minlength=n_groups
        )
        self.counts += np.bincount(group_idx, minlength=n_groups)

    def merge(self, other, mapping, n_groups):
        self.sums = _grow(self.sums, n_groups)
        self.counts = _grow(self.counts, n_groups)
        self.sums += _scatter(other.sums, mapping, n_groups)
        self.counts += _scatter(other.counts, mapping, n_groups)

    def finalize(self, n_groups):
        sums = _grow(self.sums, n_groups)
        counts = _grow(self.counts, n_groups)
        with np.errstate(invalid="ignore", divide="ignore"):
            return sums / counts


class MinMaxAcc(Accumulator):
    def __init__(self, is_min: bool) -> None:
        self.is_min = is_min
        self.best: np.ndarray | None = None

    def update(self, group_idx, values, n_groups):
        fill = np.inf if self.is_min else -np.inf
        if self.best is None:
            self.best = np.full(n_groups, fill)
        elif len(self.best) < n_groups:
            self.best = np.concatenate([self.best, np.full(n_groups - len(self.best), fill)])
        op = np.minimum if self.is_min else np.maximum
        reducer = op.reduceat
        order = np.argsort(group_idx, kind="stable")
        gi = group_idx[order]
        vals = values[order].astype(np.float64)
        starts = np.flatnonzero(np.concatenate(([True], gi[1:] != gi[:-1])))
        per_group = reducer(vals, starts)
        self.best[gi[starts]] = op(self.best[gi[starts]], per_group)

    def merge(self, other, mapping, n_groups):
        fill = np.inf if self.is_min else -np.inf
        if self.best is None:
            self.best = np.full(n_groups, fill)
        elif len(self.best) < n_groups:
            self.best = np.concatenate([self.best, np.full(n_groups - len(self.best), fill)])
        if other.best is None:
            return
        op = np.minimum if self.is_min else np.maximum
        # every local group of a partial saw at least one row, so this is
        # exactly the sequential per-present-group fold (min/max is exact)
        target = mapping[: len(other.best)]
        self.best[target] = op(self.best[target], other.best)

    def finalize(self, n_groups):
        fill = np.inf if self.is_min else -np.inf
        best = self.best if self.best is not None else np.full(n_groups, fill)
        if len(best) < n_groups:
            best = np.concatenate([best, np.full(n_groups - len(best), fill)])
        return best


class MomentsAcc(Accumulator):
    """Chan et al. parallel-merge mean/M2 for VAR/STDDEV."""

    def __init__(self, want_std: bool) -> None:
        self.want_std = want_std
        self.n = np.zeros(0)
        self.mean = np.zeros(0)
        self.m2 = np.zeros(0)

    def update(self, group_idx, values, n_groups):
        self.n = _grow(self.n, n_groups)
        self.mean = _grow(self.mean, n_groups)
        self.m2 = _grow(self.m2, n_groups)
        vals = values.astype(np.float64, copy=False)
        nb = np.bincount(group_idx, minlength=n_groups).astype(np.float64)
        sb = np.bincount(group_idx, weights=vals, minlength=n_groups)
        with np.errstate(invalid="ignore", divide="ignore"):
            mb = np.where(nb > 0, sb / np.maximum(nb, 1), 0.0)
        dev = vals - mb[group_idx]
        m2b = np.bincount(group_idx, weights=dev * dev, minlength=n_groups)
        na = self.n
        delta = mb - self.mean
        tot = na + nb
        with np.errstate(invalid="ignore", divide="ignore"):
            self.mean = np.where(tot > 0, self.mean + delta * np.where(tot > 0, nb / np.maximum(tot, 1), 0), self.mean)
            self.m2 = self.m2 + m2b + delta**2 * na * nb / np.maximum(tot, 1)
        self.n = tot

    def merge(self, other, mapping, n_groups):
        # scatter the partial's (n, mean, m2) onto the global index space
        # and replay the exact Chan combine the sequential update performs
        # (a partial built by one update from fresh state holds precisely
        # the (nb, mb, m2b) that update derived from the chunk)
        self.n = _grow(self.n, n_groups)
        self.mean = _grow(self.mean, n_groups)
        self.m2 = _grow(self.m2, n_groups)
        nb = _scatter(other.n, mapping, n_groups)
        mb = _scatter(other.mean, mapping, n_groups)
        m2b = _scatter(other.m2, mapping, n_groups)
        na = self.n
        delta = mb - self.mean
        tot = na + nb
        with np.errstate(invalid="ignore", divide="ignore"):
            self.mean = np.where(tot > 0, self.mean + delta * np.where(tot > 0, nb / np.maximum(tot, 1), 0), self.mean)
            self.m2 = self.m2 + m2b + delta**2 * na * nb / np.maximum(tot, 1)
        self.n = tot

    def finalize(self, n_groups):
        n = _grow(self.n, n_groups)
        m2 = _grow(self.m2, n_groups)
        with np.errstate(invalid="ignore", divide="ignore"):
            var = np.where(n > 1, m2 / np.maximum(n - 1, 1), 0.0)
        return np.sqrt(var) if self.want_std else var


class DistinctCountAcc(Accumulator):
    """COUNT(DISTINCT col): per-group distinct sets, any value dtype.

    Each chunk is deduplicated vectorially (factorize values, unique the
    (group, value-code) pairs) before touching the per-group sets, so
    memory and Python-level work scale with *distinct* pairs, not rows.
    """

    def __init__(self) -> None:
        self.sets: dict[int, set] = {}

    def update(self, group_idx, values, n_groups):
        if values is None:
            raise ValueError("COUNT(DISTINCT *) is not valid")
        uvals, inverse = np.unique(values, return_inverse=True)
        pair_codes = group_idx.astype(np.int64) * (len(uvals) + 1) + inverse
        unique_pairs = np.unique(pair_codes)
        groups = unique_pairs // (len(uvals) + 1)
        codes = unique_pairs % (len(uvals) + 1)
        for g, c in zip(groups.tolist(), codes.tolist()):
            self.sets.setdefault(g, set()).add(uvals[c])

    def merge(self, other, mapping, n_groups):
        # set union is order-insensitive and len() is exact, so merging
        # per-morsel distinct sets is trivially equivalent to sequential
        for local, s in other.sets.items():
            self.sets.setdefault(int(mapping[local]), set()).update(s)

    def finalize(self, n_groups):
        out = np.zeros(n_groups, dtype=np.int64)
        for g, s in self.sets.items():
            if g < n_groups:
                out[g] = len(s)
        return out


class MedianAcc(Accumulator):
    """Buffers values; exact medians require a full pass by nature."""

    def __init__(self) -> None:
        self.values: list[np.ndarray] = []
        self.groups: list[np.ndarray] = []

    def update(self, group_idx, values, n_groups):
        self.values.append(values.astype(np.float64))
        self.groups.append(group_idx)

    def merge(self, other, mapping, n_groups):
        # partials merge in row-group order, so the concatenated buffers
        # end up in the exact row order the sequential path builds; only
        # the group codes need remapping
        for vals, groups in zip(other.values, other.groups):
            self.values.append(vals)
            self.groups.append(mapping[groups])

    def finalize(self, n_groups):
        if not self.values:
            return np.full(n_groups, np.nan)
        vals = np.concatenate(self.values)
        groups = np.concatenate(self.groups)
        out = np.full(n_groups, np.nan)
        order = np.argsort(groups, kind="stable")
        gs, vs = groups[order], vals[order]
        starts = np.flatnonzero(np.concatenate(([True], gs[1:] != gs[:-1])))
        for seg, grp in zip(np.split(vs, starts[1:]), gs[starts]):
            out[grp] = float(np.median(seg))
        return out


def make_accumulator(name: str, distinct: bool = False) -> Accumulator:
    name = name.upper()
    if name == "COUNT" and distinct:
        return DistinctCountAcc()
    if distinct:
        raise ValueError(f"DISTINCT is only supported for COUNT, not {name}")
    if name == "COUNT":
        return CountAcc()
    if name == "SUM":
        return SumAcc()
    if name in ("AVG", "MEAN"):
        return MeanAcc()
    if name == "MIN":
        return MinMaxAcc(is_min=True)
    if name == "MAX":
        return MinMaxAcc(is_min=False)
    if name in ("STDDEV", "STD"):
        return MomentsAcc(want_std=True)
    if name == "VAR":
        return MomentsAcc(want_std=False)
    if name == "MEDIAN":
        return MedianAcc()
    raise ValueError(f"unknown aggregate {name!r}")


def _grow(arr: np.ndarray, n: int) -> np.ndarray:
    if len(arr) >= n:
        return arr
    pad = np.zeros(n - len(arr), dtype=arr.dtype)
    return np.concatenate([arr, pad])


def _without_nan(
    group_idx: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The rows whose value is not NaN: the inputs themselves, ungathered,
    when the chunk holds none (only a float column is ever scanned)."""
    if np.issubdtype(values.dtype, np.floating):
        nan = np.isnan(values)
        if nan.any():
            valid = ~nan
            return group_idx[valid], values[valid]
    return group_idx, values


def _clean(values: np.ndarray) -> np.ndarray:
    """``values`` as float64 with NaN read as 0.0 (SUM skips NULLs)."""
    vals = values.astype(np.float64, copy=False)
    if values.dtype.kind not in "iub":
        nan = np.isnan(vals)
        if nan.any():
            return np.where(nan, 0.0, vals)
    return vals
