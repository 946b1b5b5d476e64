"""Sort-merge join correctness."""

import numpy as np
import pytest

from repro.frame import Frame, merge


class TestInnerJoin:
    def test_basic(self):
        left = Frame({"k": [1, 2, 3], "a": [10, 20, 30]})
        right = Frame({"k": [2, 3, 4], "b": [200, 300, 400]})
        out = merge(left, right, on="k")
        assert sorted(out["k"].tolist()) == [2, 3]
        row = {k: v for k, v in zip(out["k"], out["b"])}
        assert row == {2: 200, 3: 300}

    def test_one_to_many(self):
        left = Frame({"k": [1, 2]})
        right = Frame({"k": [1, 1, 2, 2, 2], "b": [1, 2, 3, 4, 5]})
        out = merge(left, right, on="k")
        assert out.num_rows == 5

    def test_many_to_many(self):
        left = Frame({"k": [1, 1]})
        right = Frame({"k": [1, 1, 1], "b": [1, 2, 3]})
        assert merge(left, right, on="k").num_rows == 6

    def test_no_matches(self):
        out = merge(Frame({"k": [1]}), Frame({"k": [2], "b": [9]}), on="k")
        assert out.num_rows == 0

    def test_multi_key(self):
        left = Frame({"r": [0, 0, 1], "k": [1, 2, 1], "a": [1, 2, 3]})
        right = Frame({"r": [0, 1], "k": [1, 1], "b": [10, 11]})
        out = merge(left, right, on=["r", "k"])
        assert out.num_rows == 2
        pairs = set(zip(out["a"], out["b"]))
        assert pairs == {(1, 10), (3, 11)}

    def test_name_collision_suffixed(self):
        left = Frame({"k": [1], "v": [1]})
        right = Frame({"k": [1], "v": [2]})
        out = merge(left, right, on="k")
        assert "v" in out and "v_right" in out

    def test_duplicated_left_rows_preserved(self):
        left = Frame({"k": [1, 1], "a": [7, 8]})
        right = Frame({"k": [1], "b": [9]})
        out = merge(left, right, on="k")
        assert sorted(out["a"].tolist()) == [7, 8]


class TestLeftJoin:
    def test_keeps_unmatched(self):
        left = Frame({"k": [1, 2], "a": [10, 20]})
        right = Frame({"k": [1], "b": [100.0]})
        out = merge(left, right, on="k", how="left")
        assert out.num_rows == 2
        miss = out.filter(out["k"] == 2)
        assert np.isnan(miss["b"][0])

    def test_all_matched_no_nan(self):
        left = Frame({"k": [1, 2]})
        right = Frame({"k": [1, 2], "b": [10, 20]})
        out = merge(left, right, on="k", how="left")
        assert not np.isnan(out["b"].astype(np.float64)).any()


    def test_right_side_with_zero_rows(self):
        left = Frame({"k": [1, 2], "a": [10, 20]})
        right = Frame({"k": np.empty(0, dtype=np.int64), "b": np.empty(0, dtype=np.int64)})
        out = merge(left, right, on="k", how="left")
        assert out["a"].tolist() == [10, 20]
        assert out["b"].dtype == np.float64 and np.isnan(out["b"]).all()

    def test_unmatched_rows_pad_strings_with_the_empty_string(self):
        left = Frame({"k": [1, 2, 3]})
        right = Frame(
            {
                "k": [1, 3],
                "name": np.asarray(["fof", "sod"]),
                "raw": np.asarray([b"fof", b"sod"]),
                "tag": np.asarray(["fof", "sod"], dtype=object),
                "flag": [True, False],
                "n": [7, 9],
            }
        )
        out = merge(left, right, on="k", how="left")
        assert out["name"].dtype.kind == "U" and out["name"].tolist() == ["fof", "", "sod"]
        assert out["raw"].dtype.kind == "S" and out["raw"].tolist() == [b"fof", b"", b"sod"]
        assert out["tag"].tolist() == ["fof", None, "sod"]
        # numeric and bool columns turn float64, NaN where unmatched
        for name, want in (("flag", [1.0, np.nan, 0.0]), ("n", [7.0, np.nan, 9.0])):
            assert out[name].dtype == np.float64
            assert np.array_equal(out[name], want, equal_nan=True)


class TestNanKeys:
    """SQL equality is false for NaN, so a NaN key matches nothing."""

    def test_nan_keys_never_join_each_other(self):
        left = Frame({"k": [1.0, np.nan, np.nan], "a": [1, 2, 3]})
        right = Frame({"k": [np.nan, 1.0, np.nan], "b": [10, 20, 30]})
        inner = merge(left, right, on="k")
        assert inner["a"].tolist() == [1] and inner["b"].tolist() == [20]
        out = merge(left, right, on="k", how="left")
        assert out["a"].tolist() == [1, 2, 3]
        assert np.array_equal(out["b"], [20.0, np.nan, np.nan], equal_nan=True)

    def test_nan_in_one_of_two_keys(self):
        left = Frame({"r": [0, 0], "k": [np.nan, 2.0], "a": [1, 2]})
        right = Frame({"r": [0, 0], "k": [np.nan, 2.0], "b": [10, 20]})
        out = merge(left, right, on=["r", "k"])
        assert out["a"].tolist() == [2] and out["b"].tolist() == [20]


class TestErrors:
    def test_unknown_join_type(self):
        with pytest.raises(ValueError):
            merge(Frame({"k": [1]}), Frame({"k": [1]}), on="k", how="outer")

    def test_missing_key_column(self):
        from repro.frame.frame import ColumnMismatchError

        with pytest.raises(ColumnMismatchError):
            merge(Frame({"k": [1]}), Frame({"x": [1]}), on="k")

    def test_string_keys(self):
        left = Frame({"k": np.asarray(["a", "b"], dtype=object), "v": [1, 2]})
        right = Frame({"k": np.asarray(["b"], dtype=object), "w": [9]})
        out = merge(left, right, on="k")
        assert out.num_rows == 1 and out["v"][0] == 2
