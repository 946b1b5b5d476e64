"""Hash-free vectorized joins for Frame.

Implemented with sort-merge over dense key codes (``np.unique`` on the
concatenated key columns), the cache-friendly pattern the HPC guide
recommends over per-row dict probing.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.frame.frame import Frame


def _key_codes(left: Frame, right: Frame, on: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Densely encode the join keys of both frames in a shared code space."""
    lcodes = np.zeros(left.num_rows, dtype=np.int64)
    rcodes = np.zeros(right.num_rows, dtype=np.int64)
    multiplier = 1
    for name in on:
        lcol = left.column(name)
        rcol = right.column(name)
        combined = np.concatenate((lcol, rcol))
        _, inverse = np.unique(combined, return_inverse=True)
        linv, rinv = inverse[: left.num_rows], inverse[left.num_rows :]
        lcodes = lcodes + linv * multiplier
        rcodes = rcodes + rinv * multiplier
        multiplier *= int(inverse.max(initial=0)) + 1
    return lcodes, rcodes


def merge(left: Frame, right: Frame, on: str | Sequence[str], how: str = "inner") -> Frame:
    """Join two frames on equal key columns.

    Supports ``inner`` and ``left`` joins, which covers the agent workloads
    (galaxy↔halo association via ``fof_halo_tag`` etc.).  Non-key columns
    duplicated across inputs get a ``_right`` suffix on the right side.
    """
    keys = [on] if isinstance(on, str) else list(on)
    if how not in ("inner", "left"):
        raise ValueError(f"unsupported join type {how!r}")
    for k in keys:
        left.column(k)
        right.column(k)

    lcodes, rcodes = _key_codes(left, right, keys)

    r_order = np.argsort(rcodes, kind="stable")
    r_sorted = rcodes[r_order]
    # positions of each left key inside the sorted right codes
    lo = np.searchsorted(r_sorted, lcodes, side="left")
    hi = np.searchsorted(r_sorted, lcodes, side="right")
    match_counts = hi - lo

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
    right_idx[hit] = r_order[(lo[left_idx] + within_run)[hit]]

    cols: dict[str, np.ndarray] = {}
    for name in left.columns:
        cols[name] = left.column(name)[left_idx]
    for name in right.columns:
        if name in keys:
            continue
        out_name = name if name not in cols else f"{name}_right"
        rcol = right.column(name)
        if how == "left" and (right_idx < 0).any():
            taken = rcol[np.maximum(right_idx, 0)].astype(np.float64, copy=True)
            taken[right_idx < 0] = np.nan
            cols[out_name] = taken
        else:
            cols[out_name] = rcol[right_idx]
    return Frame(cols)
