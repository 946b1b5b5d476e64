"""Groupby-aggregate for Frame, through the kernel the SQL engine folds
with (:mod:`repro.frame.aggregates`).

Rows are coded once by ``factorize``; every named aggregate is one
accumulator update over those codes, so both engines skip NaN the same
way (DESIGN.md §2).  Groups come out in sorted key order, as in pandas:
the finished groups are sorted by their keys, never the rows.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import Any, Callable

import numpy as np

from repro.frame.aggregates import factorize, make_accumulator
from repro.frame.frame import Frame, _sort_order


def fold(how: str, codes: np.ndarray, values: np.ndarray | None, n_groups: int) -> np.ndarray:
    """One named aggregate per group of coded rows (``values`` None: rows)."""
    acc = make_accumulator(how)
    acc.update(codes, values, n_groups)
    return acc.finalize(n_groups)


class GroupBy:
    """Lazy groupby handle: ``frame.groupby("run").agg({"mass": "mean"})``."""

    def __init__(self, frame: Frame, keys: Sequence[str]):
        self._frame = frame
        self._keys = list(keys)
        key_arrays = [frame.column(k) for k in self._keys]
        first, codes = factorize(key_arrays)
        order = _sort_order([a[first] for a in key_arrays], [True] * len(key_arrays), len(first))
        rank = np.empty(len(order), dtype=np.int64)
        rank[order] = np.arange(len(order), dtype=np.int64)
        self._codes = rank[codes]
        self._key_rows = first[order]

    @property
    def num_groups(self) -> int:
        return len(self._key_rows)

    def size(self) -> Frame:
        """Group sizes as a Frame with the key columns plus ``size``."""
        return self._with_keys({"size": fold("count", self._codes, None, self.num_groups)})

    def agg(self, spec: Mapping[str, str | Callable] | str) -> Frame:
        """Aggregate value columns per group.

        ``spec`` maps column name to aggregate name (or callable applied to
        each group's values).  A bare string aggregates every non-key
        numeric column that way.
        """
        if isinstance(spec, str):
            spec = {
                c: spec
                for c in self._frame.columns
                if c not in self._keys
                and np.issubdtype(self._frame.column(c).dtype, np.number)
            }
        out: dict[str, np.ndarray] = {}
        for col_name, how in spec.items():
            values = self._frame.column(col_name)
            if callable(how):
                out[col_name] = np.asarray([how(values[rows]) for rows in self._group_rows()])
            else:
                out[f"{col_name}_{how}"] = fold(how, self._codes, values, self.num_groups)
        return self._with_keys(out)

    def apply(self, fn: Callable[[Frame], Mapping[str, Any]]) -> Frame:
        """Apply an arbitrary Frame -> scalars function per group.

        The escape hatch for aggregates with no vectorized form (e.g. the
        per-seed-mass SMHM regression in the hard evaluation question).
        """
        records: dict[str, list] = {}
        for rows in self._group_rows():
            result = fn(self._frame.take(rows))
            for k, v in result.items():
                records.setdefault(k, []).append(v)
        out = {k: np.asarray(v) for k, v in records.items()}
        return self._with_keys(out)

    def _group_rows(self) -> list[np.ndarray]:
        """Each group's row indices, in group order, rows in frame order."""
        if not self.num_groups:
            return []
        order = np.argsort(self._codes, kind="stable")
        sizes = np.bincount(self._codes, minlength=self.num_groups)
        return np.split(order, np.cumsum(sizes)[:-1])

    def _with_keys(self, data: dict[str, np.ndarray]) -> Frame:
        cols: dict[str, np.ndarray] = {
            k: self._frame.column(k)[self._key_rows] for k in self._keys
        }
        cols.update(data)
        return Frame(cols)
