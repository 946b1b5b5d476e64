"""The group-by kernel both table engines share: a key factoriser and
streaming aggregate accumulators.

``factorize`` codes rows by their key columns; ``Frame.groupby`` codes a
frame once, the SQL executor codes each row group and maps the codes
onto the statement's global ones.  Each accumulator keeps O(#groups)
state (Welford-style moments for variance) so a GROUP BY over an
arbitrarily large table peaks at row-group memory.  MEDIAN is the one
holdout that must buffer values, documented as such.

NaN follows one rule (DESIGN.md §2): every aggregate skips it, so a
group's result is the result over its non-NaN values.  Over no values
COUNT is 0 and SUM 0.0; VAR / STDDEV of fewer than two values and every
other aggregate over none are NaN.  NaN keys form one group.

A caller owns one accumulator per aggregate and calls
:meth:`Accumulator.update` once per chunk, **in row order**, with dense
group codes (``n_groups`` only ever grows), so a result's bytes depend
only on the rows and how they were chunked — the invariant the
query-result cache, chaos suite, and canonical traces all depend on.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

AGGREGATE_NAMES = {"COUNT", "SUM", "AVG", "MEAN", "MIN", "MAX", "STDDEV", "STD", "VAR", "MEDIAN"}


class Accumulator:
    """Base streaming accumulator keyed by dense group index."""

    def update(self, group_idx: np.ndarray, values: np.ndarray | None, n_groups: int) -> None:
        raise NotImplementedError

    def finalize(self, n_groups: int) -> np.ndarray:
        raise NotImplementedError


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

    def finalize(self, n_groups):
        return _grow(self.counts, n_groups)


class SumAcc(Accumulator):
    def __init__(self) -> None:
        self.sums = np.zeros(0)

    def update(self, group_idx, values, n_groups):
        self.sums = _grow(self.sums, n_groups)
        self.sums += np.bincount(group_idx, weights=_clean(values), minlength=n_groups)

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

    def finalize(self, n_groups):
        sums = _grow(self.sums, n_groups)
        counts = _grow(self.counts, n_groups)
        with np.errstate(invalid="ignore", divide="ignore"):
            return sums / counts


class MinMaxAcc(Accumulator):
    """A group no value reached holds NaN; ``fmin`` / ``fmax`` take the
    value over it."""

    def __init__(self, is_min: bool) -> None:
        self.is_min = is_min
        self.best = np.zeros(0)

    def update(self, group_idx, values, n_groups):
        self.best = _grow(self.best, n_groups, np.nan)
        group_idx, values = _without_nan(group_idx, values)
        if not len(values):
            return
        order = np.argsort(group_idx, kind="stable")
        gi = group_idx[order]
        vals = values[order].astype(np.float64)
        starts = np.flatnonzero(np.concatenate(([True], gi[1:] != gi[:-1])))
        reduce, keep = (np.minimum, np.fmin) if self.is_min else (np.maximum, np.fmax)
        self.best[gi[starts]] = keep(self.best[gi[starts]], reduce.reduceat(vals, starts))

    def finalize(self, n_groups):
        return _grow(self.best, n_groups, np.nan)


class MomentsAcc(Accumulator):
    """VAR/STDDEV: per-group mean and M2, each chunk's moments combined
    into the running ones with Chan et al.'s pairwise formula."""

    def __init__(self, want_std: bool) -> None:
        self.want_std = want_std
        self.n = np.zeros(0)
        self.mean = np.zeros(0)
        self.m2 = np.zeros(0)

    def update(self, group_idx, values, n_groups):
        self.n = _grow(self.n, n_groups)
        self.mean = _grow(self.mean, n_groups)
        self.m2 = _grow(self.m2, n_groups)
        group_idx, values = _without_nan(group_idx, values)
        vals = values.astype(np.float64, copy=False)
        nb = np.bincount(group_idx, minlength=n_groups).astype(np.float64)
        sb = np.bincount(group_idx, weights=vals, minlength=n_groups)
        na = self.n
        tot = na + nb
        # a group holding ±inf has a NaN variance, without a warning
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            mb = np.where(nb > 0, sb / np.maximum(nb, 1), 0.0)
            dev = vals - mb[group_idx]
            m2b = np.bincount(group_idx, weights=dev * dev, minlength=n_groups)
            delta = mb - self.mean
            self.mean = np.where(tot > 0, self.mean + delta * np.where(tot > 0, nb / np.maximum(tot, 1), 0), self.mean)
            self.m2 = self.m2 + m2b + delta**2 * na * nb / np.maximum(tot, 1)
        self.n = tot

    def finalize(self, n_groups):
        n = _grow(self.n, n_groups)
        m2 = _grow(self.m2, n_groups)
        with np.errstate(invalid="ignore", divide="ignore"):
            var = np.where(n > 1, m2 / np.maximum(n - 1, 1), np.nan)
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
        group_idx, values = _without_nan(group_idx, values)
        uvals, inverse = np.unique(values, return_inverse=True)
        pair_codes = group_idx.astype(np.int64) * (len(uvals) + 1) + inverse
        unique_pairs = np.unique(pair_codes)
        groups = unique_pairs // (len(uvals) + 1)
        codes = unique_pairs % (len(uvals) + 1)
        for g, c in zip(groups.tolist(), codes.tolist()):
            self.sets.setdefault(g, set()).add(uvals[c])

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
        group_idx, values = _without_nan(group_idx, values)
        if len(values):
            self.values.append(values.astype(np.float64))
            self.groups.append(group_idx)

    def finalize(self, n_groups):
        if not self.values:
            return np.full(n_groups, np.nan)
        vals = np.concatenate(self.values)
        groups = np.concatenate(self.groups)
        out = np.full(n_groups, np.nan)
        order = np.argsort(groups, kind="stable")
        gs, vs = groups[order], vals[order]
        starts = np.flatnonzero(np.concatenate(([True], gs[1:] != gs[:-1])))
        with np.errstate(invalid="ignore"):  # a median between -inf and inf is NaN
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


def _grow(arr: np.ndarray, n: int, fill=0) -> np.ndarray:
    if len(arr) >= n:
        return arr
    pad = np.full(n - len(arr), fill, dtype=arr.dtype)
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


# ----------------------------------------------------------------------
# key factoriser
# ----------------------------------------------------------------------
# a key column (or combined code word) is coded through an offset lookup
# table, with no sort, when its value span is at most this many table
# entries per row; wider spans take the sort-based factorisation
_DENSE_SPAN_PER_ROW = 4

# the one NaN every key tuple holds, so a dict finds a NaN key again
# (two NaN floats are neither equal nor, since Python 3.10, equal-hashed)
_NAN = float("nan")


def factorize(key_arrays: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Dense group codes for rows keyed by equal-length columns, vectorized.

    Returns ``(first, codes)``: ``codes`` are ranked by *first appearance*
    and ``first[c]`` is the row where code ``c`` first occurs, so
    ``first`` ascends.  NaN keys are one key; -0.0 and 0.0 are one key.

    One factorisation per call: a single key column is coded directly,
    several are first packed into one int64 word per row.  Integer /
    bool keys (and words) of small span go through an offset lookup
    table, everything else through one ``np.unique``.  Keys ``np.unique``
    cannot order, or a word past 2**62, take the dict loop.
    """
    if not len(key_arrays[0]):
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    try:
        word = key_arrays[0] if len(key_arrays) == 1 else _code_word(key_arrays)
        if word is not None:
            return _first_appearance_codes(word)
    except (TypeError, ValueError):
        pass
    return _factorize_slow(key_arrays)


def key_tuples(key_arrays: Sequence[np.ndarray], rows: np.ndarray) -> list[tuple]:
    """The keys of ``rows`` as tuples of Python values (what
    ``ndarray.tolist`` yields), every NaN the one ``_NAN``."""
    return [tuple(_pykey(a[row]) for a in key_arrays) for row in rows.tolist()]


def _pykey(value):
    value = value.item() if isinstance(value, np.generic) else value
    return _NAN if value != value else value


def _factorize_slow(key_arrays: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Dict-loop ``factorize``: the fallback for keys ``np.unique`` cannot
    order, and the reference the vectorized routes are tested against."""
    n = len(key_arrays[0])
    index: dict[tuple, int] = {}
    first: list[int] = []
    codes = np.empty(n, dtype=np.int64)
    for i, key in enumerate(zip(*[a.tolist() for a in key_arrays])):
        key = tuple(map(_pykey, key))
        idx = index.get(key)
        if idx is None:
            idx = index[key] = len(first)
            first.append(i)
        codes[i] = idx
    return np.asarray(first, dtype=np.int64), codes


def _dense_offsets(arr: np.ndarray) -> tuple[np.ndarray, int] | None:
    """``(arr - min, span)`` for an integer / bool column whose value span
    is small next to its row count, else None.  The table a caller
    allocates from ``span`` is bounded by the rows, never by the dtype."""
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
    """Factorize one non-empty column: ``(first, codes)`` as ``factorize``.

    Neither route assigns the final codes itself: each yields, per
    distinct key, the row where it first occurs (the table by a reversed
    scatter, so an offset's last write is its first row; ``np.unique`` by
    its stable ``return_index``), and codes are the rank of those rows."""
    dense = _dense_offsets(arr)
    if dense is None:
        # slots are the sorted distinct values, all occupied
        _, first_at, slots = np.unique(
            arr, return_index=True, return_inverse=True, equal_nan=True
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


def _code_word(key_arrays: Sequence[np.ndarray]) -> np.ndarray | None:
    """Several key columns as one int64 word per row, equal exactly where
    every key is equal; None when the word would not fit."""
    word = None
    capacity = 1
    for arr in key_arrays:
        dense = _dense_offsets(arr)
        if dense is None:
            uniq, digits = np.unique(arr, return_inverse=True, equal_nan=True)
            base = len(uniq)
        else:
            digits, base = dense
        capacity *= base
        if capacity > 2**62:
            return None
        word = digits if word is None else word * base + digits
    return word
