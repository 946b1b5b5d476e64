"""GroupBy aggregation against numpy, against the SQL engine whose kernel
it shares, and the callable / per-group paths only Frame has."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.db import Database
from repro.frame import Frame
from repro.frame.frame import ColumnMismatchError


@pytest.fixture()
def frame():
    rng = np.random.default_rng(3)
    return Frame(
        {
            "k": rng.integers(0, 5, 200),
            "j": rng.integers(0, 3, 200),
            "v": rng.normal(size=200),
            "w": rng.integers(1, 10, 200).astype(np.float64),
        }
    )


def naive_group(frame, key, col, fn):
    out = {}
    for value in np.unique(frame[key]):
        out[value] = fn(frame[col][frame[key] == value])
    return out


class TestAgg:
    """Against numpy on NaN-free data: an oracle independent of the kernel,
    which the cross-engine check below (the same accumulators on both
    sides) cannot be."""

    @pytest.mark.parametrize(
        "how,fn",
        [
            ("mean", np.mean),
            ("sum", np.sum),
            ("min", np.min),
            ("max", np.max),
            ("median", np.median),
        ],
    )
    def test_matches_naive(self, frame, how, fn):
        result = frame.groupby("k").agg({"v": how})
        expected = naive_group(frame, "k", "v", fn)
        for i in range(result.num_rows):
            key = result["k"][i]
            assert result[f"v_{how}"][i] == pytest.approx(expected[key])

    def test_count(self, frame):
        result = frame.groupby("k").agg({"v": "count"})
        expected = naive_group(frame, "k", "v", len)
        for i in range(result.num_rows):
            assert result["v_count"][i] == expected[result["k"][i]]

    def test_std_sample(self, frame):
        result = frame.groupby("k").agg({"v": "std"})
        expected = naive_group(frame, "k", "v", lambda x: np.std(x, ddof=1))
        for i in range(result.num_rows):
            assert result["v_std"][i] == pytest.approx(expected[result["k"][i]])

    def test_multi_key(self, frame):
        result = frame.groupby(["k", "j"]).agg({"v": "sum"})
        # groups in pandas' order: sorted by the first key, then the second
        pairs = list(zip(result["k"].tolist(), result["j"].tolist()))
        assert pairs == sorted(pairs)
        for i in range(result.num_rows):
            mask = (frame["k"] == result["k"][i]) & (frame["j"] == result["j"][i])
            assert result["v_sum"][i] == pytest.approx(frame["v"][mask].sum())

    def test_num_groups(self, frame):
        gb = frame.groupby(["k", "j"])
        expected = len({(a, b) for a, b in zip(frame["k"], frame["j"])})
        assert gb.num_groups == expected

    def test_string_spec_aggregates_all_numeric(self, frame):
        result = frame.groupby("k").agg("mean")
        assert "v_mean" in result and "w_mean" in result
        assert "k" in result

    def test_callable_agg(self, frame):
        result = frame.groupby("k").agg({"v": lambda x: float(np.ptp(x))})
        expected = naive_group(frame, "k", "v", np.ptp)
        for i in range(result.num_rows):
            assert result["v"][i] == pytest.approx(expected[result["k"][i]])

    def test_unknown_agg_rejected(self, frame):
        with pytest.raises(ValueError):
            frame.groupby("k").agg({"v": "mode"})

    def test_unknown_key_raises_early(self, frame):
        with pytest.raises(ColumnMismatchError):
            frame.groupby("nope")

    def test_no_key_rejected(self, frame):
        with pytest.raises(ValueError):
            frame.groupby([])

    def test_empty_frame(self):
        f = Frame({"k": np.asarray([], dtype=np.int64), "v": np.asarray([])})
        result = f.groupby("k").agg({"v": "mean"})
        assert result.num_rows == 0


class TestSizeApply:
    def test_size(self, frame):
        sizes = frame.groupby("k").size()
        assert int(sizes["size"].sum()) == frame.num_rows

    def test_apply_per_group(self, frame):
        result = frame.groupby("k").apply(
            lambda g: {"range": float(g["v"].max() - g["v"].min())}
        )
        assert result.num_rows == frame.groupby("k").num_groups
        assert (result["range"] >= 0).all()


class TestWholeFrameAgg:
    def test_frame_agg(self, frame):
        out = frame.agg({"v": "mean", "w": "max"})
        assert out["v"] == pytest.approx(float(np.mean(frame["v"])))
        assert out["w"] == frame["w"].max()


# ----------------------------------------------------------------------
# one kernel: Frame.groupby(k).agg({v: how}) is SELECT k, HOW(v) ...
# GROUP BY k ORDER BY k, byte for byte
# ----------------------------------------------------------------------
HOWS = {
    "count": "COUNT", "sum": "SUM", "mean": "AVG", "min": "MIN",
    "max": "MAX", "std": "STDDEV", "var": "VAR", "median": "MEDIAN",
}
_KEY_POOLS = {
    "int": np.asarray([-2, 0, 1, 7], dtype=np.int64),
    "float": np.asarray([np.nan, np.inf, -np.inf, -0.0, 0.0, 1.5]),
}
_VALUE_POOL = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1.0, 2.5, -3.25]


@st.composite
def keyed_tables(draw):
    """One key column (int or float: NaN, +-inf, -0.0 beside 0.0) and one
    float value column (NaN, +-inf, -0.0, arbitrary finite, or all equal);
    one-row groups, groups holding only NaN and zero rows all occur."""
    n = draw(st.integers(0, 16))
    pool = _KEY_POOLS[draw(st.sampled_from(sorted(_KEY_POOLS)))]
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
    value = st.one_of(st.sampled_from(_VALUE_POOL), st.floats(-1e6, 1e6))
    if draw(st.booleans()):
        values = [draw(value)] * n
    else:
        values = draw(st.lists(value, min_size=n, max_size=n))
    return pool[np.asarray(picks, dtype=np.int64)], np.asarray(values, dtype=np.float64)


def assert_same_bytes(got: np.ndarray, want: np.ndarray) -> None:
    assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes()), (got, want)


nan = np.nan


@given(keyed_tables())
@example((np.asarray([0, 1, 1]), np.asarray([3.0, 1.0, nan])))       # a group of [1.0, NaN]
@example((np.asarray([1.0, nan, nan, 2.0]), np.asarray([2.0, nan, 5.0, 1.0])))  # NaN keys
@example((np.asarray([7, 0, 0]), np.asarray([4.0, nan, nan])))       # one row; NaN only
@settings(max_examples=80, deadline=None)
def test_frame_groupby_equals_sql_group_by(tmp_path_factory, table):
    """Every named aggregate, grouped and whole-frame.  The table is one
    row group: the SQL engine folds each row group into the running sums
    in turn, so only one chunking makes the additions the same."""
    keys, values = table
    frame = Frame({"k": keys, "v": values})
    db = Database(tmp_path_factory.mktemp("engines") / "e.db", result_cache=False)
    db.create_table("t", frame)
    items = ", ".join(f"{sql}(v) AS a_{how}" for how, sql in HOWS.items())
    grouped = db.query(f"SELECT k, {items} FROM t GROUP BY k ORDER BY k")
    whole = db.query(f"SELECT {items} FROM t")
    for how in HOWS:
        got = frame.groupby("k").agg({"v": how})
        assert_same_bytes(got["k"], grouped["k"])
        assert_same_bytes(got[f"v_{how}"], grouped[f"a_{how}"])
        want = whole[f"a_{how}"]
        assert_same_bytes(np.asarray(frame.agg({"v": how})["v"], dtype=want.dtype), want)


def test_value_counts_breaks_ties_by_ascending_value_nan_last():
    """Most frequent first; equal counts in ascending value order with NaN
    last, the order ``groupby`` gives its keys (DESIGN.md section 2)."""
    values = np.asarray([3.0, 1.0, nan, 2.0, 1.0, 3.0, nan, 2.0, 2.0])
    counts = Frame({"v": values}).value_counts("v")
    assert counts["count"].tolist() == [3, 2, 2, 2]
    assert counts["v"][:3].tolist() == [2.0, 1.0, 3.0] and np.isnan(counts["v"][3])
    words = Frame({"w": np.asarray(["b", "a", "c", "a", "c"])}).value_counts("w")
    assert words["w"].tolist() == ["a", "c", "b"] and words["count"].tolist() == [2, 2, 1]


def test_variance_of_a_group_holding_inf_warns_nothing(tmp_path):
    """VAR and STDDEV of a group holding ±inf, and the MEDIAN of one
    holding both, are NaN in both engines, without a warning."""
    import warnings

    frame = Frame({"k": np.asarray([0, 0, 1, 1, 2, 2]),
                   "v": np.asarray([np.inf, 1.0, -np.inf, 2.0, np.inf, -np.inf])})
    db = Database(tmp_path / "w.db", result_cache=False)
    db.create_table("t", frame)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = frame.groupby("k").agg({"v": "var"})["v_var"]
        median = frame.groupby("k").agg({"v": "median"})["v_median"]
        sql = db.query("SELECT k, VAR(v) AS s, STDDEV(v) AS d, MEDIAN(v) AS m "
                       "FROM t GROUP BY k ORDER BY k")
    assert np.isnan(got).all() and np.isnan(sql["s"]).all() and np.isnan(sql["d"]).all()
    assert np.isnan(median[2]) and np.isnan(sql["m"][2])
