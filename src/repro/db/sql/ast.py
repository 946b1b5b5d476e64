"""SQL abstract syntax tree nodes.

Plain frozen dataclasses; the planner walks these, the executor never sees
raw SQL.  Expressions form their own small tree shared by SELECT items,
WHERE/HAVING predicates and ORDER BY keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field


# ----------------------------------------------------------------------
# expressions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Expr:
    """Base expression node."""


@dataclass(frozen=True)
class Literal(Expr):
    value: float | int | str | None


@dataclass(frozen=True)
class Column(Expr):
    name: str
    table: str | None = None

    @property
    def qualified(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass(frozen=True)
class Star(Expr):
    """``*`` in SELECT or COUNT(*)."""


@dataclass(frozen=True)
class Unary(Expr):
    op: str          # '-', 'NOT'
    operand: Expr


@dataclass(frozen=True)
class Binary(Expr):
    op: str          # + - * / % = != < <= > >= AND OR ||
    left: Expr
    right: Expr


@dataclass(frozen=True)
class FuncCall(Expr):
    name: str        # upper-cased
    args: tuple[Expr, ...]
    distinct: bool = False

    @property
    def is_aggregate(self) -> bool:
        from repro.frame.aggregates import AGGREGATE_NAMES

        return self.name in AGGREGATE_NAMES


@dataclass(frozen=True)
class InList(Expr):
    operand: Expr
    options: tuple[Expr, ...]
    negated: bool = False


@dataclass(frozen=True)
class Between(Expr):
    operand: Expr
    low: Expr
    high: Expr
    negated: bool = False


@dataclass(frozen=True)
class Case(Expr):
    whens: tuple[tuple[Expr, Expr], ...]
    default: Expr | None = None


# ----------------------------------------------------------------------
# statements
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SelectItem:
    expr: Expr
    alias: str | None = None


@dataclass(frozen=True)
class TableRef:
    name: str | None = None
    alias: str | None = None
    subquery: "SelectStatement | None" = None

    @property
    def binding(self) -> str:
        return self.alias or self.name or "subquery"

    @property
    def is_subquery(self) -> bool:
        return self.subquery is not None


@dataclass(frozen=True)
class Join:
    table: TableRef
    kind: str                  # 'inner' | 'left'
    keys: tuple[tuple[Column, Column], ...]  # (left, right) equality pairs


@dataclass(frozen=True)
class OrderItem:
    expr: Expr
    ascending: bool = True


@dataclass(frozen=True)
class SelectStatement:
    items: tuple[SelectItem, ...]
    table: TableRef
    joins: tuple[Join, ...] = ()
    where: Expr | None = None
    group_by: tuple[Expr, ...] = ()
    having: Expr | None = None
    order_by: tuple[OrderItem, ...] = ()
    limit: int | None = None
    offset: int | None = None
    distinct: bool = False


@dataclass(frozen=True)
class CreateTableAs:
    name: str
    select: SelectStatement


def walk(expr: Expr):
    """Yield every node of an expression tree (pre-order)."""
    yield expr
    if isinstance(expr, Unary):
        yield from walk(expr.operand)
    elif isinstance(expr, Binary):
        yield from walk(expr.left)
        yield from walk(expr.right)
    elif isinstance(expr, FuncCall):
        for a in expr.args:
            yield from walk(a)
    elif isinstance(expr, InList):
        yield from walk(expr.operand)
        for o in expr.options:
            yield from walk(o)
    elif isinstance(expr, Between):
        yield from walk(expr.operand)
        yield from walk(expr.low)
        yield from walk(expr.high)
    elif isinstance(expr, Case):
        for cond, val in expr.whens:
            yield from walk(cond)
            yield from walk(val)
        if expr.default is not None:
            yield from walk(expr.default)


def contains_aggregate(expr: Expr) -> bool:
    return any(isinstance(n, FuncCall) and n.is_aggregate for n in walk(expr))
