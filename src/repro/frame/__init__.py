"""A columnar DataFrame substrate (pandas substitute).

Agent-generated analysis code runs against :class:`Frame`, which mirrors the
pandas subset the paper's Python agent uses: boolean filtering, column
expressions, groupby-aggregate, sort, merge, head/nlargest, and CSV I/O.
Columns are 1-D NumPy arrays, operations are vectorized, and row-wise
Python loops are never required.
"""

from repro.frame.frame import Frame, ColumnMismatchError
from repro.frame.groupby import GroupBy
from repro.frame.join import merge
from repro.frame.io import read_csv, write_csv
from repro.frame.ops import concat

__all__ = [
    "Frame",
    "ColumnMismatchError",
    "GroupBy",
    "merge",
    "read_csv",
    "write_csv",
    "concat",
]
