"""Core columnar Frame.

A :class:`Frame` is an ordered mapping of column name to equal-length 1-D
NumPy array.  All operations return new Frames over views or copies of the
column arrays; the source arrays are never mutated in place, which is what
lets the sandbox hand agents "temporary data copies" cheaply (views) while
still guaranteeing ground-truth integrity.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from typing import Any, Callable

import numpy as np

from repro.frame.aggregates import factorize


class ColumnMismatchError(KeyError):
    """Raised when code references a column that does not exist.

    Carries the known column names so the sandbox can return the paper's
    "detailed error message" and the QA loop can propose the nearest valid
    name.
    """

    def __init__(self, missing: str, known: Sequence[str]):
        super().__init__(missing)
        self.missing = missing
        self.known = list(known)

    def __str__(self) -> str:
        return (
            f"column {self.missing!r} does not exist; "
            f"known columns: {', '.join(self.known)}"
        )


def _as_column(values: Any, length: int | None = None) -> np.ndarray:
    """Coerce ``values`` into a 1-D column array (broadcasting scalars)."""
    if isinstance(values, np.ndarray):
        arr = values
    elif np.isscalar(values) or values is None:
        if length is None:
            raise ValueError("cannot infer length for a scalar column")
        arr = np.full(length, values)
    else:
        arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValueError(f"columns must be 1-D, got shape {arr.shape}")
    if length is not None and len(arr) != length:
        raise ValueError(f"column length {len(arr)} != frame length {length}")
    return arr


class Frame:
    """An immutable-by-convention columnar table.

    >>> f = Frame({"a": [1, 2, 3], "b": [10.0, 20.0, 30.0]})
    >>> f[f["a"] > 1].num_rows
    2
    """

    def __init__(self, columns: Mapping[str, Any] | None = None):
        self._cols: dict[str, np.ndarray] = {}
        if columns:
            length: int | None = None
            for name in columns:
                vals = columns[name]
                if length is None and not np.isscalar(vals) and vals is not None:
                    vals = _as_column(vals)
                    length = len(vals)
                self._cols[str(name)] = _as_column(vals, length)
                if length is None:
                    length = len(self._cols[str(name)])

    # ------------------------------------------------------------------
    # basic introspection
    # ------------------------------------------------------------------
    @property
    def columns(self) -> list[str]:
        return list(self._cols)

    @property
    def num_rows(self) -> int:
        if not self._cols:
            return 0
        return len(next(iter(self._cols.values())))

    @property
    def num_columns(self) -> int:
        return len(self._cols)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.num_rows, self.num_columns)

    def __len__(self) -> int:
        return self.num_rows

    def __contains__(self, name: str) -> bool:
        return name in self._cols

    def __iter__(self) -> Iterable[str]:
        return iter(self._cols)

    def nbytes(self) -> int:
        """Total bytes held by the column arrays (storage accounting)."""
        return int(sum(col.nbytes for col in self._cols.values()))

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def column(self, name: str) -> np.ndarray:
        try:
            return self._cols[name]
        except KeyError:
            raise ColumnMismatchError(name, self.columns) from None

    def __getitem__(self, key: Any) -> Any:
        if isinstance(key, str):
            return self.column(key)
        if isinstance(key, list) and all(isinstance(k, str) for k in key):
            return self.select(key)
        if isinstance(key, np.ndarray):
            if key.dtype == bool:
                return self.filter(key)
            return self.take(key)
        if isinstance(key, slice):
            return Frame({n: c[key] for n, c in self._cols.items()})
        raise TypeError(f"unsupported Frame index: {type(key).__name__}")

    def select(self, names: Sequence[str]) -> "Frame":
        """Project the named columns, preserving the given order."""
        return Frame({n: self.column(n) for n in names})

    def row(self, i: int) -> dict[str, Any]:
        """Materialize one row as a plain dict (debug/provenance use)."""
        return {n: c[i].item() if hasattr(c[i], "item") else c[i] for n, c in self._cols.items()}

    def to_dict(self) -> dict[str, list]:
        """Convert to plain Python lists (for JSON provenance records)."""
        return {n: c.tolist() for n, c in self._cols.items()}

    # ------------------------------------------------------------------
    # construction / mutation-by-copy
    # ------------------------------------------------------------------
    def assign(self, **new_columns: Any) -> "Frame":
        """Return a new Frame with columns added or replaced."""
        cols = dict(self._cols)
        n = self.num_rows if cols else None
        for name, vals in new_columns.items():
            cols[name] = _as_column(vals, n)
            if n is None:
                n = len(cols[name])
        return Frame(cols)

    def drop(self, names: str | Sequence[str]) -> "Frame":
        if isinstance(names, str):
            names = [names]
        missing = [n for n in names if n not in self._cols]
        if missing:
            raise ColumnMismatchError(missing[0], self.columns)
        return Frame({n: c for n, c in self._cols.items() if n not in set(names)})

    def rename(self, mapping: Mapping[str, str]) -> "Frame":
        return Frame({mapping.get(n, n): c for n, c in self._cols.items()})

    # ------------------------------------------------------------------
    # row operations (all vectorized)
    # ------------------------------------------------------------------
    def filter(self, mask: np.ndarray) -> "Frame":
        mask = np.asarray(mask)
        if mask.dtype != bool:
            raise TypeError("filter mask must be boolean")
        if len(mask) != self.num_rows:
            raise ValueError("mask length does not match frame length")
        # one pass over the mask, then a gather per column
        return self.take(np.flatnonzero(mask))

    def take(self, indices: np.ndarray) -> "Frame":
        indices = np.asarray(indices)
        return Frame({n: c[indices] for n, c in self._cols.items()})

    def head(self, n: int = 5) -> "Frame":
        return self[: max(0, n)]

    def sort_values(self, by: str | Sequence[str], ascending: bool | Sequence[bool] = True) -> "Frame":
        """Stable multi-key sort; NaN sorts last in both directions."""
        keys = [by] if isinstance(by, str) else list(by)
        orders = [ascending] * len(keys) if isinstance(ascending, bool) else list(ascending)
        if len(orders) != len(keys):
            raise ValueError("ascending list must match sort keys")
        return self.take(_sort_order([self.column(k) for k in keys], orders, self.num_rows))

    def nlargest(self, n: int, column: str) -> "Frame":
        """Top-n rows by ``column`` (descending); NaN rows are dropped."""
        frame = self.dropna([column])
        col = frame.column(column)
        if n >= len(col):
            return frame.sort_values(column, ascending=False)
        part = np.argpartition(col, len(col) - n)[len(col) - n :]
        part = part[np.argsort(col[part], kind="stable")[::-1]]
        return frame.take(part)

    def nsmallest(self, n: int, column: str) -> "Frame":
        """Bottom-n rows by ``column`` (ascending); NaN rows are dropped."""
        frame = self.dropna([column])
        col = frame.column(column)
        if n >= len(col):
            return frame.sort_values(column, ascending=True)
        part = np.argpartition(col, n)[:n]
        part = part[np.argsort(col[part], kind="stable")]
        return frame.take(part)

    def unique(self, column: str) -> np.ndarray:
        return np.unique(self.column(column))

    def value_counts(self, column: str) -> "Frame":
        """Distinct values of ``column`` with their frequencies, most
        frequent first (ties broken by value order)."""
        sizes = self.select([column]).rename({column: "value"}).groupby("value").size()
        order = np.argsort(sizes["size"], kind="stable")[::-1]
        return Frame({column: sizes["value"][order], "count": sizes["size"][order]})

    def quantile(self, column: str, q: float | Sequence[float]) -> float | np.ndarray:
        """Quantile(s) of a numeric column (linear interpolation)."""
        col = self.column(column)
        if not np.issubdtype(col.dtype, np.number):
            raise TypeError(f"quantile requires a numeric column, got {col.dtype}")
        result = np.quantile(col.astype(np.float64), q)
        return float(result) if np.isscalar(q) else np.asarray(result)

    def drop_duplicates(self, subset: str | Sequence[str] | None = None) -> "Frame":
        names = [subset] if isinstance(subset, str) else list(subset or self.columns)
        if not names:
            return self
        first, _ = factorize([self.column(n) for n in names])
        return self.take(first)

    def dropna(self, subset: Sequence[str] | None = None) -> "Frame":
        """Drop rows with NaN in any of the (float) subset columns."""
        names = list(subset or self.columns)
        mask = np.ones(self.num_rows, dtype=bool)
        for n in names:
            col = self.column(n)
            if np.issubdtype(col.dtype, np.floating):
                mask &= ~np.isnan(col)
        return self if mask.all() else self.filter(mask)

    # ------------------------------------------------------------------
    # reductions and grouping
    # ------------------------------------------------------------------
    def groupby(self, by: str | Sequence[str]) -> "GroupBy":
        from repro.frame.groupby import GroupBy

        keys = [by] if isinstance(by, str) else list(by)
        if not keys:
            raise ValueError("groupby needs at least one key column")
        for k in keys:
            self.column(k)  # validate early with a good error
        return GroupBy(self, keys)

    def agg(self, spec: Mapping[str, str | Callable]) -> dict[str, Any]:
        """Whole-frame aggregation: ``{"mass": "mean"}`` -> scalar dict;
        the one-group case of :meth:`GroupBy.agg`."""
        from repro.frame.groupby import fold

        one = np.zeros(self.num_rows, dtype=np.int64)
        return {
            c: how(self.column(c)) if callable(how) else fold(how, one, self.column(c), 1)[0].item()
            for c, how in spec.items()
        }

    # ------------------------------------------------------------------
    # joins
    # ------------------------------------------------------------------
    def merge(self, other: "Frame", on: str | Sequence[str], how: str = "inner") -> "Frame":
        from repro.frame.join import merge as _merge

        return _merge(self, other, on=on, how=how)

    # ------------------------------------------------------------------
    # display
    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        header = f"Frame[{self.num_rows} rows x {self.num_columns} cols]"
        if not self._cols or self.num_rows == 0:
            return header + " (empty)"
        preview_rows = min(5, self.num_rows)
        lines = [header, "  " + " | ".join(self.columns)]
        for i in range(preview_rows):
            lines.append("  " + " | ".join(str(c[i]) for c in self._cols.values()))
        if self.num_rows > preview_rows:
            lines.append(f"  ... ({self.num_rows - preview_rows} more rows)")
        return "\n".join(lines)

    def equals(self, other: "Frame") -> bool:
        if self.columns != other.columns or self.num_rows != other.num_rows:
            return False
        for n in self.columns:
            a, b = self._cols[n], other._cols[n]
            if np.issubdtype(a.dtype, np.floating) and np.issubdtype(b.dtype, np.floating):
                if not np.allclose(a, b, equal_nan=True):
                    return False
            elif not np.array_equal(a, b):
                return False
        return True


def _sort_order(keys: Sequence[np.ndarray], ascending: Sequence[bool], n: int) -> np.ndarray:
    """Row order of a stable lexicographic sort over ``keys`` (``n`` rows);
    NaN sorts last whichever the direction."""
    idx = np.arange(n)
    # apply keys last-to-first with a stable sort => lexicographic order
    for col, asc in list(zip(keys, ascending))[::-1]:
        col = col[idx]
        order = np.argsort(col, kind="stable")
        if not asc:
            # NaN rows end the ascending order; reverse the rest, and keep
            # equal keys in their original relative order by mirroring each
            # run [start, end) of them about its own midpoint
            # (p -> start + end - 1 - p)
            valid = len(order) - (int(np.isnan(col).sum()) if col.dtype.kind == "f" else 0)
            head = order[:valid][::-1]
            col_sorted = col[head]
            starts = np.flatnonzero(
                np.concatenate(([True], col_sorted[1:] != col_sorted[:-1]))
            )
            ends = np.append(starts[1:], valid)
            mirror = np.repeat(starts + ends - 1, ends - starts)
            order = np.concatenate((head[mirror - np.arange(valid)], order[valid:]))
        idx = idx[order]
    return idx
