"""Vectorized expression evaluation over Frames.

Every expression evaluates to a NumPy array of the Frame's row count (or a
scalar broadcast lazily).  Scalar functions are the numeric helpers the
paper's SQL agent emits (ABS/SQRT/LOG/LOG10/POWER/ROUND/FLOOR/CEIL).
"""

from __future__ import annotations

import re

import numpy as np

from repro.db.errors import UnknownColumnError, UnsupportedSQLError
from repro.db.sql import ast
from repro.frame import Frame
from repro.frame.frame import ColumnMismatchError

_SCALAR_FUNCS = {
    "ABS": np.abs,
    "SQRT": np.sqrt,
    "LOG": np.log,
    "LN": np.log,
    "LOG10": np.log10,
    "EXP": np.exp,
    "FLOOR": np.floor,
    "CEIL": np.ceil,
    "CEILING": np.ceil,
    "ROUND": np.round,
    "SIGN": np.sign,
}

_TWO_ARG_FUNCS = {
    "POWER": np.power,
    "POW": np.power,
    "MOD": np.mod,
    "GREATEST": np.maximum,
    "LEAST": np.minimum,
}


def column_value(frame: Frame, node: ast.Column) -> np.ndarray:
    """Resolve a (possibly table-qualified) column against a frame.

    Joined frames carry ``table.column``-style disambiguated names only
    when both sides share a name; the resolver tries the qualified name
    first, then the bare name.
    """
    candidates = [node.qualified, node.name] if node.table else [node.name]
    for cand in candidates:
        if cand in frame:
            return frame.column(cand)
    raise UnknownColumnError(candidates[0], frame.columns)


def evaluate(expr: ast.Expr, frame: Frame) -> np.ndarray:
    """Evaluate ``expr`` to an array of length ``frame.num_rows``."""
    n = frame.num_rows
    if isinstance(expr, ast.Literal):
        if expr.value is None:
            return np.full(n, np.nan)
        if isinstance(expr.value, str):
            return np.full(n, expr.value, dtype=object)
        return np.full(n, expr.value)
    if isinstance(expr, ast.Column):
        try:
            return column_value(frame, expr)
        except ColumnMismatchError as exc:  # normalize error type
            raise UnknownColumnError(exc.missing, exc.known) from None
    if isinstance(expr, ast.Star):
        raise UnsupportedSQLError("* is only valid in SELECT or COUNT(*)")
    if isinstance(expr, ast.Unary):
        return _eval_unary(expr, frame)
    if isinstance(expr, ast.Binary):
        return _eval_binary(expr, frame)
    if isinstance(expr, ast.FuncCall):
        return _eval_func(expr, frame)
    if isinstance(expr, ast.InList):
        operand = evaluate(expr.operand, frame)
        result = np.zeros(n, dtype=bool)
        for opt in expr.options:
            result |= _compare_eq(operand, evaluate(opt, frame))
        return ~result if expr.negated else result
    if isinstance(expr, ast.Between):
        operand = evaluate(expr.operand, frame)
        low = evaluate(expr.low, frame)
        high = evaluate(expr.high, frame)
        result = (operand >= low) & (operand <= high)
        return ~result if expr.negated else result
    if isinstance(expr, ast.Case):
        return _eval_case(expr, frame)
    raise UnsupportedSQLError(f"cannot evaluate expression {expr!r}")


def _eval_unary(expr: ast.Unary, frame: Frame) -> np.ndarray:
    operand = evaluate(expr.operand, frame)
    if expr.op == "-":
        return -operand
    if expr.op == "NOT":
        return ~operand.astype(bool)
    if expr.op == "IS NULL":
        return np.isnan(operand.astype(np.float64)) if operand.dtype != object else np.asarray([v is None for v in operand])
    if expr.op == "IS NOT NULL":
        isnull = evaluate(ast.Unary("IS NULL", expr.operand), frame)
        return ~isnull
    raise UnsupportedSQLError(f"unknown unary operator {expr.op!r}")


def _text(arr: np.ndarray) -> np.ndarray | None:
    """``arr`` as a ``U`` array when every element is a ``str``, else None."""
    if arr.dtype.kind == "U":
        return arr
    if arr.dtype == object and set(map(type, arr.tolist())) <= {str, np.str_}:
        return arr.astype(str)
    return None


def _compare_eq(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    if left.dtype == object or right.dtype == object:
        left_text, right_text = _text(left), _text(right)
        if left_text is not None and right_text is not None:
            return left_text == right_text
        # genuinely mixed operands (a number or bytes against text)
        # compare by their printed form, one row at a time
        return np.asarray(
            [str(a) == str(b) for a, b in zip(left, right)], dtype=bool
        )
    return left == right


def _eval_binary(expr: ast.Binary, frame: Frame) -> np.ndarray:
    op = expr.op
    if op in ("AND", "OR"):
        left = evaluate(expr.left, frame).astype(bool)
        right = evaluate(expr.right, frame).astype(bool)
        return (left & right) if op == "AND" else (left | right)
    left = evaluate(expr.left, frame)
    right = evaluate(expr.right, frame)
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.true_divide(left, right)
    if op == "%":
        return np.mod(left, right)
    if op == "=":
        return _compare_eq(left, right)
    if op == "!=":
        return ~_compare_eq(left, right)
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    if op == "||":
        return np.asarray([str(a) + str(b) for a, b in zip(left, right)], dtype=object)
    if op == "LIKE":
        return _eval_like(left, right)
    raise UnsupportedSQLError(f"unknown binary operator {op!r}")


def _eval_like(values: np.ndarray, patterns: np.ndarray) -> np.ndarray:
    pattern = str(patterns[0]) if len(patterns) else ""
    regex = re.compile(
        "^"
        + re.escape(pattern).replace(re.escape("%"), ".*").replace(re.escape("_"), ".")
        + "$"
    )

    def matches(candidates: np.ndarray) -> np.ndarray:
        return np.fromiter(
            (regex.match(str(v)) is not None for v in candidates),
            dtype=bool,
            count=len(candidates),
        )

    text = _text(values)
    if text is None:
        return matches(values)
    # equal strings match alike: one regex call per distinct value
    distinct, inverse = np.unique(text, return_inverse=True)
    return matches(distinct)[inverse]


def _eval_func(expr: ast.FuncCall, frame: Frame) -> np.ndarray:
    if expr.is_aggregate:
        raise UnsupportedSQLError(
            f"aggregate {expr.name} not allowed here (only in SELECT/HAVING with GROUP BY)"
        )
    if expr.name in _SCALAR_FUNCS:
        if len(expr.args) != 1:
            raise UnsupportedSQLError(f"{expr.name} takes exactly one argument")
        with np.errstate(divide="ignore", invalid="ignore"):
            return _SCALAR_FUNCS[expr.name](evaluate(expr.args[0], frame))
    if expr.name in _TWO_ARG_FUNCS:
        if len(expr.args) != 2:
            raise UnsupportedSQLError(f"{expr.name} takes exactly two arguments")
        return _TWO_ARG_FUNCS[expr.name](
            evaluate(expr.args[0], frame), evaluate(expr.args[1], frame)
        )
    raise UnsupportedSQLError(f"unknown function {expr.name!r}")


def _eval_case(expr: ast.Case, frame: Frame) -> np.ndarray:
    n = frame.num_rows
    result = (
        evaluate(expr.default, frame)
        if expr.default is not None
        else np.full(n, np.nan)
    ).astype(np.float64, copy=True)
    decided = np.zeros(n, dtype=bool)
    for cond, value in expr.whens:
        mask = evaluate(cond, frame).astype(bool) & ~decided
        vals = evaluate(value, frame)
        result[mask] = vals[mask]
        decided |= mask
    return result


def expr_name(expr: ast.Expr) -> str:
    """Default output column name for an unaliased SELECT expression."""
    if isinstance(expr, ast.Column):
        return expr.name
    if isinstance(expr, ast.FuncCall):
        inner = ", ".join(expr_name(a) for a in expr.args) if expr.args else "*"
        return f"{expr.name.lower()}({inner})"
    if isinstance(expr, ast.Literal):
        return str(expr.value)
    if isinstance(expr, ast.Binary):
        return f"{expr_name(expr.left)}{expr.op}{expr_name(expr.right)}"
    if isinstance(expr, ast.Unary):
        return f"{expr.op}{expr_name(expr.operand)}"
    if isinstance(expr, ast.Star):
        return "*"
    return "expr"
