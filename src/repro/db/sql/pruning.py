"""Zone-map + bloom-filter predicate pushdown.

Before a filtered scan touches a row group's bytes, the WHERE predicate is
evaluated against the group's per-column min/max ("zone maps") and, for
low-cardinality columns, its bloom filters (:mod:`repro.db.bloom`); a
group whose predicate is *provably false for every row* is skipped
without I/O, as DuckDB and Parquet readers do.  Zone maps refute through
interval logic; bloom filters refute equality and ``IN``, also over
strings.  The two compose through AND/OR recursion.  The analysis is
conservative: what it cannot prove "might match", so pruning never
changes a result.  :func:`skip_reason` credits each skip to "zone" when
intervals suffice, else "bloom"; filters are fetched only then, and only
at an equality a filter could answer.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping

from repro.db.bloom import value_kind
from repro.db.sql import ast

Stats = dict[str, tuple[float, float]]
Blooms = Mapping[str, object]  # column -> a repro.db.bloom.BloomFilter


def skip_reason(
    where: ast.Expr | None, stats: Stats, blooms: Callable[[], Blooms] | None = None
) -> str | None:
    """Why this row group can be skipped: "zone", "bloom", or None.

    "zone" means interval logic alone refutes the predicate; "bloom"
    means the bloom filters were needed (the marginal skip a zone map
    could not prove).  ``blooms`` returns the group's filters; it is
    called only after the zone maps failed, at a ``column = literal``.
    """
    if where is None:
        return None
    if stats and _always_false(where, stats, None):
        return "zone"
    if blooms is not None and _always_false(where, stats, blooms):
        return "bloom"
    return None


def _bounds(expr: ast.Expr, stats: Stats) -> tuple[float, float] | None:
    """Value interval of an expression over the row group, if derivable."""
    if isinstance(expr, ast.Literal) and isinstance(expr.value, (int, float)):
        v = float(expr.value)
        return (v, v)
    if isinstance(expr, ast.Column):
        return stats.get(expr.name)
    if isinstance(expr, ast.Unary) and expr.op == "-":
        inner = _bounds(expr.operand, stats)
        if inner is not None:
            return (-inner[1], -inner[0])
    if isinstance(expr, ast.Binary) and expr.op in ("+", "-"):
        left = _bounds(expr.left, stats)
        right = _bounds(expr.right, stats)
        if left is not None and right is not None:
            if expr.op == "+":
                return (left[0] + right[0], left[1] + right[1])
            return (left[0] - right[1], left[1] - right[0])
    return None


def _bloom_refutes(
    column: ast.Expr, literal: ast.Expr, blooms: Callable[[], Blooms] | None
) -> bool:
    """True iff a bloom filter proves ``column = literal`` matches no row.
    Only a literal of the filter's kind is probed: the executor compares
    a number with text by printed form (``498 = '498'`` holds), and NULL
    equality is its own semantics."""
    if blooms is None or not isinstance(column, ast.Column):
        return False
    bloom = blooms().get(column.name) if isinstance(literal, ast.Literal) else None
    if bloom is None or value_kind(literal.value) != bloom.kind:
        return False
    return not bloom.might_contain(literal.value)


def _always_false(
    expr: ast.Expr, stats: Stats, blooms: Callable[[], Blooms] | None
) -> bool:
    if isinstance(expr, ast.Binary):
        op = expr.op
        if op == "AND":
            return _always_false(expr.left, stats, blooms) or _always_false(
                expr.right, stats, blooms
            )
        if op == "OR":
            return _always_false(expr.left, stats, blooms) and _always_false(
                expr.right, stats, blooms
            )
        if op == "=" and (
            _bloom_refutes(expr.left, expr.right, blooms)
            or _bloom_refutes(expr.right, expr.left, blooms)
        ):
            return True
        left = _bounds(expr.left, stats)
        right = _bounds(expr.right, stats)
        if left is None or right is None:
            return False
        l_lo, l_hi = left
        r_lo, r_hi = right
        if op == "=":
            return l_hi < r_lo or l_lo > r_hi
        if op == "!=":
            return l_lo == l_hi == r_lo == r_hi
        if op == "<":
            return l_lo >= r_hi
        if op == "<=":
            return l_lo > r_hi
        if op == ">":
            return l_hi <= r_lo
        if op == ">=":
            return l_hi < r_lo
        return False
    if isinstance(expr, ast.InList):
        if expr.negated:
            return False
        operand_bounds = _bounds(expr.operand, stats)
        for option in expr.options:
            if _bloom_refutes(expr.operand, option, blooms):
                continue  # this option is provably absent
            if operand_bounds is None:
                return False
            b = _bounds(option, stats)
            if b is None:
                return False  # non-numeric option with no bloom proof
            v_lo, v_hi = b
            lo, hi = operand_bounds
            if not (v_hi < lo or v_lo > hi):
                return False  # this option might match
        return True
    if isinstance(expr, ast.Between):
        if expr.negated:
            return False
        operand = _bounds(expr.operand, stats)
        low = _bounds(expr.low, stats)
        high = _bounds(expr.high, stats)
        if operand is None or low is None or high is None:
            return False
        return operand[1] < low[0] or operand[0] > high[1]
    return False
