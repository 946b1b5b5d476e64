"""Frame construction, selection, filtering, sorting."""

import numpy as np
import pytest

from repro.frame import Frame
from repro.frame.frame import ColumnMismatchError


class TestConstruction:
    def test_from_lists(self):
        f = Frame({"a": [1, 2, 3], "b": [1.0, 2.0, 3.0]})
        assert f.shape == (3, 2)
        assert f.columns == ["a", "b"]

    def test_empty(self):
        f = Frame()
        assert f.num_rows == 0
        assert f.num_columns == 0

    def test_scalar_broadcast(self):
        f = Frame({"a": [1, 2, 3], "b": 7})
        assert list(f["b"]) == [7, 7, 7]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Frame({"a": [1, 2], "b": [1, 2, 3]})

    def test_2d_rejected(self):
        with pytest.raises(ValueError):
            Frame({"a": np.zeros((2, 2))})

    def test_nbytes_positive(self):
        f = Frame({"a": np.zeros(100)})
        assert f.nbytes() == 800


class TestAccess:
    def test_getitem_column(self):
        f = Frame({"a": [1, 2]})
        assert list(f["a"]) == [1, 2]

    def test_missing_column_error_lists_candidates(self):
        f = Frame({"fof_halo_count": [1]})
        with pytest.raises(ColumnMismatchError) as exc:
            f.column("halo_count")
        assert "fof_halo_count" in str(exc.value)

    def test_getitem_list_projects(self):
        f = Frame({"a": [1], "b": [2], "c": [3]})
        assert f[["c", "a"]].columns == ["c", "a"]

    def test_getitem_mask(self):
        f = Frame({"a": np.arange(5)})
        assert f[f["a"] > 2].num_rows == 2

    def test_getitem_slice(self):
        f = Frame({"a": np.arange(10)})
        assert list(f[2:5]["a"]) == [2, 3, 4]

    def test_getitem_indices(self):
        f = Frame({"a": np.arange(10)})
        assert list(f[np.asarray([3, 1])]["a"]) == [3, 1]

    def test_contains(self):
        f = Frame({"a": [1]})
        assert "a" in f and "z" not in f

    def test_row(self):
        f = Frame({"a": [1, 2], "b": [10.0, 20.0]})
        assert f.row(1) == {"a": 2, "b": 20.0}


class TestMutationByCopy:
    def test_assign_adds_column(self):
        f = Frame({"a": [1, 2]})
        g = f.assign(b=[3, 4])
        assert "b" in g and "b" not in f

    def test_assign_replaces(self):
        f = Frame({"a": [1, 2]})
        g = f.assign(a=[5, 6])
        assert list(g["a"]) == [5, 6]
        assert list(f["a"]) == [1, 2]

    def test_drop(self):
        f = Frame({"a": [1], "b": [2]})
        assert f.drop("a").columns == ["b"]

    def test_drop_missing_raises(self):
        with pytest.raises(ColumnMismatchError):
            Frame({"a": [1]}).drop("z")

    def test_rename(self):
        f = Frame({"a": [1]})
        assert f.rename({"a": "x"}).columns == ["x"]


class TestFilterSort:
    def test_filter_requires_bool(self):
        f = Frame({"a": [1, 2]})
        with pytest.raises(TypeError):
            f.filter(np.asarray([1, 0]))

    def test_filter_length_checked(self):
        f = Frame({"a": [1, 2]})
        with pytest.raises(ValueError):
            f.filter(np.asarray([True]))

    def test_sort_single_key(self):
        f = Frame({"a": [3, 1, 2]})
        assert list(f.sort_values("a")["a"]) == [1, 2, 3]

    def test_sort_descending(self):
        f = Frame({"a": [3, 1, 2]})
        assert list(f.sort_values("a", ascending=False)["a"]) == [3, 2, 1]

    def test_sort_multi_key_lexicographic(self):
        f = Frame({"a": [1, 0, 1, 0], "b": [2, 1, 1, 2]})
        g = f.sort_values(["a", "b"])
        assert list(zip(g["a"], g["b"])) == [(0, 1), (0, 2), (1, 1), (1, 2)]

    def test_sort_stability(self):
        f = Frame({"k": [1, 1, 1], "i": [0, 1, 2]})
        g = f.sort_values("k")
        assert list(g["i"]) == [0, 1, 2]

    def test_sort_descending_keeps_tie_order(self):
        f = Frame({"k": [1, 1, 2], "i": [0, 1, 2]})
        g = f.sort_values("k", ascending=False)
        assert list(g["i"]) == [2, 0, 1]

    def test_nlargest(self):
        f = Frame({"a": np.arange(100)})
        top = f.nlargest(3, "a")
        assert list(top["a"]) == [99, 98, 97]

    def test_nlargest_more_than_rows(self):
        f = Frame({"a": [2, 1]})
        assert list(f.nlargest(10, "a")["a"]) == [2, 1]

    def test_nsmallest(self):
        f = Frame({"a": [5, 3, 9, 1]})
        assert list(f.nsmallest(2, "a")["a"]) == [1, 3]

    def test_nan_sorts_last_and_nlargest_drops_it(self):
        f = Frame({"x": np.asarray([2.0, np.nan, 5.0, 1.0])})
        assert f.nlargest(2, "x")["x"].tolist() == [5.0, 2.0]
        assert f.nsmallest(2, "x")["x"].tolist() == [1.0, 2.0]
        assert f.nlargest(10, "x")["x"].tolist() == [5.0, 2.0, 1.0]
        desc = f.sort_values("x", ascending=False)["x"]
        assert desc[:3].tolist() == [5.0, 2.0, 1.0] and np.isnan(desc[3])


class TestDedupNa:
    def test_unique(self):
        f = Frame({"a": [2, 1, 2, 1]})
        assert list(f.unique("a")) == [1, 2]

    def test_drop_duplicates_subset(self):
        f = Frame({"a": [1, 1, 2], "b": [9, 8, 7]})
        g = f.drop_duplicates("a")
        assert g.num_rows == 2
        assert list(g["b"]) == [9, 7]  # first occurrence kept

    def test_drop_duplicates_all_columns(self):
        f = Frame({"a": [1, 1, 1], "b": [1, 1, 2]})
        assert f.drop_duplicates().num_rows == 2

    def test_dropna(self):
        f = Frame({"a": [1.0, np.nan, 3.0]})
        assert f.dropna().num_rows == 2

    def test_dropna_ignores_int_columns(self):
        f = Frame({"a": [1, 2, 3]})
        assert f.dropna().num_rows == 3


class TestEquality:
    def test_equals_identical(self):
        f = Frame({"a": [1.0, 2.0]})
        g = Frame({"a": [1.0, 2.0]})
        assert f.equals(g)

    def test_equals_nan_aware(self):
        f = Frame({"a": [np.nan]})
        assert f.equals(Frame({"a": [np.nan]}))

    def test_not_equals_different_columns(self):
        assert not Frame({"a": [1]}).equals(Frame({"b": [1]}))

    def test_repr_contains_shape(self):
        f = Frame({"a": np.arange(10)})
        assert "10 rows" in repr(f)
