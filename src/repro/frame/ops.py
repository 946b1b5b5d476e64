"""Frame-level utilities: concatenation."""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.frame.frame import Frame


def concat(frames: Sequence[Frame]) -> Frame:
    """Row-wise concatenation of frames sharing the same column set.

    Column order follows the first frame; extra/missing columns raise, as
    silent NaN-filling would hide agent bugs the QA loop needs to see.
    """
    frames = [f for f in frames if f.num_columns > 0]
    if not frames:
        return Frame()
    names = frames[0].columns
    for f in frames[1:]:
        if set(f.columns) != set(names):
            raise ValueError(
                f"cannot concat frames with differing columns: {names} vs {f.columns}"
            )
    return Frame({n: np.concatenate([f.column(n) for f in frames]) for n in names})

