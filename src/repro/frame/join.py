"""Hash-free vectorized joins for Frame.

Both inputs' key columns are coded densely in one shared code space
(``np.unique`` on the concatenated key columns); the right side is then
bucketed by code with one stable sort and a prefix sum of its code
counts, so every left row reads its run of matches by direct lookup —
no per-row probing, hashing or binary search.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.frame.frame import Frame


def _key_codes(left: Frame, right: Frame, on: Sequence[str]) -> tuple[np.ndarray, np.ndarray, int]:
    """Densely encode the join keys of both frames in one shared code
    space; returns the two code arrays and the size of that space, which
    never exceeds the two row counts together.

    NaN never equals NaN in SQL, so every NaN key gets a code of its own
    and matches nothing.
    """
    n_left = left.num_rows
    codes, space = np.zeros(n_left + right.num_rows, dtype=np.int64), 1
    for name in on:
        combined = np.concatenate((left.column(name), right.column(name)))
        uniq, inverse = np.unique(combined, return_inverse=True, equal_nan=False)
        codes = inverse if space == 1 else codes * len(uniq) + inverse
        space *= len(uniq)
        if space > len(codes):
            # a product of key cardinalities is mostly holes: close them
            uniq, codes = np.unique(codes, return_inverse=True)
            space = len(uniq)
    return codes[:n_left], codes[n_left:], space


def _take_padded(col: np.ndarray, idx: np.ndarray, hit: np.ndarray) -> np.ndarray:
    """``col[idx]`` where ``hit``, the column's NULL elsewhere: the empty
    string for a string / bytes column, None for an object column, NaN
    for everything else (which turns numeric and bool columns float64)."""
    if col.dtype.kind in "US":
        out = np.zeros(len(idx), dtype=col.dtype)
    elif col.dtype == object:
        out = np.full(len(idx), None, dtype=object)
    else:
        out = np.full(len(idx), np.nan)
    out[hit] = col[idx[hit]]
    return out


def merge(left: Frame, right: Frame, on: str | Sequence[str], how: str = "inner") -> Frame:
    """Join two frames on equal key columns.

    Supports ``inner`` and ``left`` joins, which covers the agent workloads
    (galaxy↔halo association via ``fof_halo_tag`` etc.).  Non-key columns
    duplicated across inputs get a ``_right`` suffix on the right side.

    Output rows follow the left frame's row order; a left row's matches
    follow the right frame's.  NaN keys match nothing, NaN included (SQL
    equality is false for NaN).  When a left join leaves any row
    unmatched, that row's right-side columns hold NULL: NaN for numeric
    and bool columns (the whole column becomes float64), the empty string
    for string / bytes columns, None for object columns.
    """
    keys = [on] if isinstance(on, str) else list(on)
    if how not in ("inner", "left"):
        raise ValueError(f"unsupported join type {how!r}")
    for k in keys:
        left.column(k)
        right.column(k)

    lcodes, rcodes, space = _key_codes(left, right, keys)

    # bucket the right rows by code: code c's rows are
    # r_order[run_start[c] : run_start[c] + run_len[c]], in right-row order
    r_order = np.argsort(rcodes, kind="stable")
    run_len = np.bincount(rcodes, minlength=space)
    run_start = np.cumsum(run_len) - run_len
    match_counts = run_len[lcodes]

    matched = match_counts > 0
    if how == "inner":
        keep = matched
    else:
        keep = np.ones(left.num_rows, dtype=bool)

    out_counts = np.where(matched, match_counts, 1 if how == "left" else 0)[keep]
    left_idx = np.repeat(np.flatnonzero(keep), out_counts)

    # right row index per output row; -1 marks a left-join miss.  Output
    # row j of a left row's run is that row's j-th match in r_order.
    within_run = np.arange(len(left_idx)) - np.repeat(
        np.cumsum(out_counts) - out_counts, out_counts
    )
    hit = matched[left_idx]
    right_idx = np.full(len(left_idx), -1, dtype=np.int64)
    right_idx[hit] = r_order[(run_start[lcodes[left_idx]] + within_run)[hit]]

    cols: dict[str, np.ndarray] = {}
    for name in left.columns:
        cols[name] = left.column(name)[left_idx]
    all_hit = bool(hit.all())
    for name in right.columns:
        if name in keys:
            continue
        out_name = name if name not in cols else f"{name}_right"
        rcol = right.column(name)
        cols[out_name] = rcol[right_idx] if all_hit else _take_padded(rcol, right_idx, hit)
    return Frame(cols)
