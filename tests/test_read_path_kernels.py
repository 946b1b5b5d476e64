"""Differential tests: the array-native read-path kernels against
row-at-a-time references.

``Frame.sort_values``, ``frame.join.merge`` and the SQL string
comparisons run without per-row Python; the references below are the
obvious loops, kept here so the kernels stay pinned to them (output
order and dtypes included).
"""

import math
import re

import numpy as np
import pytest

from repro.db import Database
from repro.db.sql import ast
from repro.db.sql.expressions import _compare_eq, evaluate
from repro.db.sql.parser import parse_sql
from repro.frame import Frame, merge


def assert_same_frame(got: Frame, want: dict[str, np.ndarray]) -> None:
    assert got.columns == list(want)
    for name, expected in want.items():
        col = got.column(name)
        assert col.dtype == expected.dtype, name
        if col.dtype.kind == "f":
            assert np.array_equal(col, expected, equal_nan=True), name
        else:
            assert np.array_equal(col, expected), name


# ----------------------------------------------------------------------
# sort
# ----------------------------------------------------------------------
def _is_nan(value) -> bool:
    return isinstance(value, float) and math.isnan(value)


def sort_reference(columns: dict[str, np.ndarray], keys, orders) -> list[int]:
    """Row order of a stable lexicographic sort, one key at a time.

    Ascending puts NaN keys last in their original order.  Descending
    puts them first in *reverse* original order (each NaN is its own tie
    group, so nothing restores their order after the reversal) and keeps
    ties among ordinary keys in original order.
    """
    rows = list(range(len(next(iter(columns.values())))))
    for key, asc in reversed(list(zip(keys, orders))):
        values = columns[key].tolist()
        nans = [r for r in rows if _is_nan(values[r])]
        rest = [r for r in rows if not _is_nan(values[r])]
        rest.sort(key=lambda r: values[r], reverse=not asc)  # list.sort is stable
        rows = rest + nans if asc else nans[::-1] + rest
    return rows


def _sort_cases():
    rng = np.random.default_rng(5)
    n = 200
    numeric = {
        "a": rng.integers(0, 6, n),
        "b": rng.choice(np.asarray([0.5, 1.5, 2.5, np.nan]), n),
        "s": rng.choice(np.asarray(["x", "yy", "z", "yx"]), n),
        "row": np.arange(n),
    }
    yield pytest.param(numeric, ["a"], id="ties")
    yield pytest.param(numeric, ["b"], id="nan-keys")
    yield pytest.param(numeric, ["s"], id="string-keys")
    yield pytest.param(numeric, ["a", "s", "b"], id="multi-key")
    yield pytest.param({"a": np.zeros(7, dtype=np.int64), "row": np.arange(7)}, ["a"], id="all-equal")
    yield pytest.param({"b": np.full(5, np.nan), "row": np.arange(5)}, ["b"], id="all-nan")
    yield pytest.param({"a": np.asarray([3]), "row": np.asarray([0])}, ["a"], id="single-row")
    yield pytest.param({"a": np.empty(0, dtype=np.int64), "s": np.empty(0, dtype="U2")}, ["a", "s"], id="empty")


class TestSortDifferential:
    @pytest.mark.parametrize("columns,keys", list(_sort_cases()))
    def test_every_direction_matches_reference(self, columns, keys):
        frame = Frame(columns)
        for bits in range(2 ** len(keys)):
            orders = [bool(bits >> i & 1) for i in range(len(keys))]
            rows = sort_reference(columns, keys, orders)
            want = {n: c[np.asarray(rows, dtype=np.int64)] for n, c in columns.items()}
            assert_same_frame(frame.sort_values(keys, ascending=orders), want)

    def test_descending_nans_lead_in_reverse_original_order(self):
        frame = Frame({"v": [1.0, np.nan, 2.0, np.nan, 2.0, np.nan], "row": np.arange(6)})
        out = frame.sort_values("v", ascending=False)
        assert out["row"].tolist() == [5, 3, 1, 2, 4, 0]


# ----------------------------------------------------------------------
# merge
# ----------------------------------------------------------------------
def merge_reference(left: dict, right: dict, keys: list[str], how: str) -> dict[str, np.ndarray]:
    """Nested-loop join: left rows in order, each followed by its right
    matches in right-row order (NaN keys match nothing: two ``nan``
    objects never compare equal).  A left-join miss yields one row whose
    right columns hold NULL: '' in a string / bytes column, None in an
    object column, NaN otherwise (any miss turns those columns float64)."""
    n_left = len(next(iter(left.values())))
    n_right = len(next(iter(right.values())))
    lkeys = list(zip(*[left[k].tolist() for k in keys])) if n_left else []
    rkeys = list(zip(*[right[k].tolist() for k in keys])) if n_right else []
    pairs: list[tuple[int, int | None]] = []
    for i in range(n_left):
        hits = [j for j in range(n_right) if rkeys[j] == lkeys[i]]
        if hits:
            pairs.extend((i, j) for j in hits)
        elif how == "left":
            pairs.append((i, None))
    left_rows = np.asarray([i for i, _ in pairs], dtype=np.int64)
    any_miss = any(j is None for _, j in pairs)
    out = {name: col[left_rows] for name, col in left.items()}
    for name, col in right.items():
        if name in keys:
            continue
        out_name = f"{name}_right" if name in out else name
        if not any_miss:
            out[out_name] = col[np.asarray([j for _, j in pairs], dtype=np.int64)]
            continue
        if col.dtype.kind in "US":
            null, dtype = col.dtype.type(), col.dtype
        elif col.dtype == object:
            null, dtype = None, object
        else:
            null, dtype = np.nan, np.float64
        padded = np.empty(len(pairs), dtype=dtype)
        padded[:] = [null if j is None else col[j] for _, j in pairs]
        out[out_name] = padded
    return out


def _merge_cases():
    rng = np.random.default_rng(9)
    left = {
        "k": rng.integers(0, 12, 60),
        "tag": rng.choice(np.asarray(["a", "b", "c"]), 60),
        "lv": np.arange(60),
        "v": rng.normal(size=60),
    }
    right = {
        "k": rng.integers(3, 15, 40),  # keys 0-2 miss, 12-14 have no left row
        "tag": rng.choice(np.asarray(["a", "b", "d"]), 40),
        "rv": np.arange(40) * 10,
        "v": rng.normal(size=40),      # name collision -> v_right
    }
    yield pytest.param(left, {n: c for n, c in right.items() if n != "tag"}, ["k"], id="many-to-many")
    yield pytest.param(left, right, ["k"], id="string-column-rides-right")
    yield pytest.param(left, right, ["tag"], id="string-key")
    yield pytest.param(left, right, ["k", "tag"], id="two-keys")
    unique_right = {"k": np.arange(12), "rv": np.arange(12) * 1.5}
    yield pytest.param(left, unique_right, ["k"], id="all-matched")
    disjoint = {"k": np.arange(100, 110), "rv": np.arange(10)}
    yield pytest.param(left, disjoint, ["k"], id="no-matches")
    empty_left = {n: c[:0] for n, c in left.items()}
    yield pytest.param(empty_left, unique_right, ["k"], id="empty-left")
    yield pytest.param(left, {n: c[:0] for n, c in right.items()}, ["k", "tag"], id="empty-right")
    nan_left = {"k": np.asarray([1.0, np.nan, 2.0, np.nan]), "lv": np.arange(4)}
    nan_right = {"k": np.asarray([np.nan, 2.0, 2.0, np.nan]), "rv": np.arange(4) * 10}
    yield pytest.param(nan_left, nan_right, ["k"], id="nan-keys")


class TestMergeDifferential:
    @pytest.mark.parametrize("how", ["inner", "left"])
    @pytest.mark.parametrize("left,right,keys", list(_merge_cases()))
    def test_matches_nested_loop(self, left, right, keys, how):
        got = merge(Frame(left), Frame(right), on=keys, how=how)
        assert_same_frame(got, merge_reference(left, right, keys, how))

    def test_inner_join_against_empty_right(self):
        left = {"k": np.asarray([1, 2, 2]), "lv": np.arange(3)}
        right = {"k": np.empty(0, dtype=np.int64), "rv": np.empty(0, dtype=np.float64)}
        got = merge(Frame(left), Frame(right), on="k")
        assert_same_frame(got, merge_reference(left, right, ["k"], "inner"))
        assert got.num_rows == 0


    def test_join_calls_no_binary_search(self, monkeypatch):
        """Each left row's run of matches comes from a prefix sum over the
        dense right codes, not from probing the sorted codes."""
        def refuse(*args, **kwargs):
            raise AssertionError("merge called np.searchsorted")

        monkeypatch.setattr(np, "searchsorted", refuse)
        left, right, keys = next(_merge_cases()).values
        got = merge(Frame(left), Frame(right), on=keys, how="left")
        assert_same_frame(got, merge_reference(left, right, keys, "left"))


# ----------------------------------------------------------------------
# GROUP BY: sorts per row group
# ----------------------------------------------------------------------
class TestGroupCodingWork:
    """A grouped statement factorises each key column of a row group at
    most once, and small-span integer keys without any sort."""

    ROW_GROUPS = 5

    @pytest.fixture(scope="class")
    def db(self, tmp_path_factory):
        rng = np.random.default_rng(11)
        n = 40 * self.ROW_GROUPS
        db = Database(tmp_path_factory.mktemp("codes") / "c.db", result_cache=False)
        db.create_table(
            "t",
            Frame(
                {
                    "run": rng.integers(0, 8, n),
                    "step": rng.choice(np.asarray([0, 124, 249, 374]), n),
                    "kind": rng.choice(np.asarray(["cold", "warm", "hot"]), n),
                    "z": rng.choice(np.asarray([0.5, 1.5, np.nan]), n),
                    "id": rng.integers(-2**62, 2**62, n),
                    "v": rng.normal(size=n),
                }
            ),
            row_group_size=40,
        )
        return db

    @pytest.mark.parametrize(
        "keys,sorts_per_row_group",
        [
            (["run"], 0),             # span 8: offset table, no sort
            (["step"], 1),            # span 375 over 40 rows: too wide a table
            (["kind"], 1),
            (["z"], 1),
            (["id"], 1),
            (["run", "kind"], 1),     # the combined word is narrow again
            (["kind", "z"], 2),
        ],
    )
    def test_sorts_per_row_group(self, db, monkeypatch, keys, sorts_per_row_group):
        calls = []
        real_unique = np.unique

        def counting(*args, **kwargs):
            calls.append(args)
            return real_unique(*args, **kwargs)

        monkeypatch.setattr(np, "unique", counting)
        cols = ", ".join(keys)
        out = db.query(f"SELECT {cols}, COUNT(*) AS n, AVG(v) AS m FROM t GROUP BY {cols}")
        monkeypatch.undo()
        assert len(calls) == sorts_per_row_group * self.ROW_GROUPS
        assert int(out["n"].sum()) == 40 * self.ROW_GROUPS


# ----------------------------------------------------------------------
# string = / != / IN / LIKE
# ----------------------------------------------------------------------
def eq_reference(left, right) -> list[bool]:
    return [str(a) == str(b) for a, b in zip(left, right)]


WORDS = ["fof", "sod", "498", "1.5", "None", "b'fof'", ""]


def _operands(seed: int = 3):
    rng = np.random.default_rng(seed)
    picks = rng.choice(np.asarray(WORDS), 64)
    yield "U", picks
    yield "S", np.asarray(["fof", "sod", "498", "x"], dtype="S")[rng.integers(0, 4, 64)]
    yield "object-str", picks.astype(object)
    yield "object-mixed", np.asarray(
        [["fof", 498, 1.5, None, b"fof", np.str_("sod"), np.int64(498)][i % 7] for i in range(64)],
        dtype=object,
    )
    yield "int", rng.choice(np.asarray([498, 624, 0]), 64)
    yield "float", rng.choice(np.asarray([1.5, 2.0, np.nan]), 64)


def _operand_pairs():
    """Every pairing with an object side: with none, ``=`` is plain
    ndarray ``==`` and never reaches the string path."""
    for lname, left in _operands():
        for rname, right in _operands(seed=4):  # rows differ from the left's
            if left.dtype == object or right.dtype == object:
                yield pytest.param(left, right, id=f"{lname}-vs-{rname}")


class TestStringEqualityDifferential:
    @pytest.mark.parametrize("left,right", list(_operand_pairs()))
    def test_compare_eq_matches_per_row_str(self, left, right):
        got = _compare_eq(left, right)
        assert got.dtype == bool
        assert got.tolist() == eq_reference(left, right)

    def test_empty_operands_give_an_empty_mask(self):
        got = _compare_eq(np.empty(0, dtype=object), np.empty(0, dtype=np.int64))
        assert got.dtype == bool and got.shape == (0,)

    @pytest.fixture(scope="class")
    def frame(self):
        columns = dict(_operands())
        return Frame({name.replace("-", "_"): col for name, col in columns.items()})

    @pytest.mark.parametrize("column", ["U", "S", "object_str", "object_mixed", "int", "float"])
    @pytest.mark.parametrize("literal", ["fof", "498", "1.5", "None", "nan"])
    def test_sql_operators_against_a_string_literal(self, frame, column, literal):
        values = frame.column(column)
        equal = np.asarray(eq_reference(values, [literal] * len(values)), dtype=bool)
        other = np.asarray(eq_reference(values, ["sod"] * len(values)), dtype=bool)

        def where(condition: str) -> np.ndarray:
            stmt = parse_sql(f"SELECT 1 FROM t WHERE {condition}")
            return np.asarray(evaluate(stmt.where, frame), dtype=bool)

        assert np.array_equal(where(f"{column} = '{literal}'"), equal)
        assert np.array_equal(where(f"'{literal}' = {column}"), equal)
        assert np.array_equal(where(f"{column} != '{literal}'"), ~equal)
        assert np.array_equal(where(f"{column} IN ('{literal}', 'sod')"), equal | other)
        assert np.array_equal(where(f"{column} NOT IN ('{literal}', 'sod')"), ~(equal | other))


def like_reference(values, pattern: str) -> list[bool]:
    regex = re.compile(
        "".join(".*" if ch == "%" else "." if ch == "_" else re.escape(ch) for ch in pattern) + "$"
    )
    return [regex.match(str(v)) is not None for v in values]


class TestLikeDifferential:
    @pytest.mark.parametrize("values", [pytest.param(v, id=n) for n, v in _operands()])
    @pytest.mark.parametrize("pattern", ["f%", "%o%", "_o_", "498", "%", "", "b'%", "1._", "4%8"])
    def test_matches_per_row_regex(self, values, pattern):
        frame = Frame({"c": values})
        expr = ast.Binary("LIKE", ast.Column("c"), ast.Literal(pattern))
        got = evaluate(expr, frame)
        assert got.dtype == bool
        assert got.tolist() == like_reference(values, pattern)
