"""Clocks."""

import pytest

from repro.util.timing import SimulatedClock, WallClock


class TestSimulatedClock:
    def test_starts_at_zero(self):
        assert SimulatedClock().now() == 0.0

    def test_advance(self):
        c = SimulatedClock()
        c.advance(2.5)
        assert c.now() == 2.5

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            SimulatedClock().advance(-1)


class TestWallClock:
    def test_monotone(self):
        c = WallClock()
        a = c.now()
        b = c.now()
        assert b >= a

