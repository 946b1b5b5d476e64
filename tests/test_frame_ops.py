"""concat."""

import numpy as np
import pytest

from repro.frame import Frame, concat


class TestConcat:
    def test_basic(self):
        a = Frame({"x": [1, 2]})
        b = Frame({"x": [3]})
        assert list(concat([a, b])["x"]) == [1, 2, 3]

    def test_column_order_from_first(self):
        a = Frame({"x": [1], "y": [2]})
        b = Frame({"y": [4], "x": [3]})
        out = concat([a, b])
        assert out.columns == ["x", "y"]
        assert list(out["x"]) == [1, 3]

    def test_mismatched_columns_rejected(self):
        with pytest.raises(ValueError):
            concat([Frame({"x": [1]}), Frame({"y": [1]})])

    def test_empty_list(self):
        assert concat([]).num_rows == 0

    def test_skips_empty_frames(self):
        out = concat([Frame(), Frame({"x": [1]})])
        assert out.num_rows == 1

