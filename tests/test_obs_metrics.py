"""Mergeable process-local metrics: counters, gauges, fixed-bucket histograms."""

import pytest

from repro.obs.metrics import (
    TIME_BUCKETS_S,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    empty_snapshot,
    merge_snapshots,
    snapshot_delta,
)


class TestPrimitives:
    def test_counter_accumulates(self):
        c = Counter("n")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("n").inc(-1)

    def test_gauge_last_writer_wins(self):
        g = Gauge("g")
        g.set(3.0)
        g.set(7.5)
        assert g.value == 7.5

    def test_histogram_bucket_placement_and_mean(self):
        h = Histogram("h", bounds=(1.0, 10.0))
        for v in (0.5, 5.0, 50.0):
            h.observe(v)
        assert h.counts == [1, 1, 1]       # <=1, <=10, overflow
        assert h.count == 3
        assert h.mean == pytest.approx((0.5 + 5.0 + 50.0) / 3)

    def test_histogram_merge_requires_same_bounds(self):
        a = Histogram("h", bounds=(1.0, 2.0))
        b = Histogram("h", bounds=(1.0, 3.0))
        with pytest.raises(ValueError):
            a.merge(b)

    def test_histogram_merge_is_elementwise_addition(self):
        a = Histogram("h", bounds=TIME_BUCKETS_S)
        b = Histogram("h", bounds=TIME_BUCKETS_S)
        a.observe(0.01)
        b.observe(0.01)
        b.observe(100.0)
        a.merge(b)
        assert a.count == 3
        assert a.counts[a.bounds.index(0.01)] == 2

    def test_histogram_tracks_underflow_explicitly(self):
        h = Histogram("h", bounds=(1.0, 10.0))
        h.observe(0.5)   # below the first bound: counted in bucket 0 AND
        h.observe(1.0)   # exactly at the bound: bucket 0, no underflow
        h.observe(5.0)
        assert h.counts[0] == 2          # bucket semantics unchanged
        assert h.underflow == 1          # but sub-range values are visible
        assert h.count == 3

    def test_histogram_streams_true_min_max(self):
        h = Histogram("h", bounds=(1.0, 10.0))
        assert h.min_value is None and h.max_value is None
        for v in (3.0, 0.25, 700.0):
            h.observe(v)
        # true p0/p100, not the bucket edges (0.25 and 700 are both
        # outside every finite bound)
        assert h.min_value == 0.25
        assert h.max_value == 700.0

    def test_underflow_and_extremes_merge(self):
        a = Histogram("h", bounds=(1.0,))
        b = Histogram("h", bounds=(1.0,))
        a.observe(0.5)
        b.observe(0.1)
        b.observe(9.0)
        a.merge(b)
        assert a.underflow == 2
        assert a.min_value == 0.1 and a.max_value == 9.0

    def test_merge_from_empty_keeps_extremes_none(self):
        a = Histogram("h", bounds=(1.0,))
        a.merge(Histogram("h", bounds=(1.0,)))
        assert a.min_value is None and a.max_value is None


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        assert reg.histogram("h") is reg.histogram("h")

    def test_snapshot_is_plain_data(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        reg.gauge("g").set(1.5)
        reg.histogram("h").observe(0.5)
        snap = reg.snapshot()
        assert snap["counters"]["c"] == 2
        assert snap["gauges"]["g"] == 1.5
        assert sum(snap["histograms"]["h"]["counts"]) == 1

    def test_reset_clears_everything(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.reset()
        assert reg.snapshot() == empty_snapshot()


def _snap(counters=(), observations=()):
    reg = MetricsRegistry()
    for name, n in counters:
        reg.counter(name).inc(n)
    for name, value in observations:
        reg.histogram(name).observe(value)
    return reg.snapshot()


class TestMergeAlgebra:
    def test_merge_counters_add(self):
        merged = merge_snapshots(_snap(counters=[("c", 2)]), _snap(counters=[("c", 3)]))
        assert merged["counters"]["c"] == 5

    def test_merge_is_associative(self):
        # fixed bucket bounds make histogram merge element-wise addition,
        # so worker deltas can merge in any grouping
        a = _snap(counters=[("c", 1)], observations=[("h", 0.001)])
        b = _snap(counters=[("c", 2), ("d", 7)], observations=[("h", 0.5)])
        c = _snap(observations=[("h", 90.0), ("k", 1.0)])
        left = merge_snapshots(merge_snapshots(a, b), c)
        right = merge_snapshots(a, merge_snapshots(b, c))
        assert left == right

    def test_merge_identity_is_empty_snapshot(self):
        a = _snap(counters=[("c", 4)], observations=[("h", 1.0)])
        assert merge_snapshots(a, empty_snapshot()) == a
        assert merge_snapshots(empty_snapshot(), a) == a

    def test_delta_inverts_accumulation(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        before = reg.snapshot()
        reg.counter("c").inc(5)
        reg.histogram("h").observe(0.1)
        delta = snapshot_delta(reg.snapshot(), before)
        assert delta["counters"]["c"] == 5
        assert sum(delta["histograms"]["h"]["counts"]) == 1

    def test_snapshots_carry_and_merge_extremes(self):
        a = _snap(observations=[("h", 0.25), ("h", 3.0)])
        b = _snap(observations=[("h", 0.1), ("h", 700.0)])
        assert a["histograms"]["h"]["min"] == 0.25
        assert a["histograms"]["h"]["max"] == 3.0
        merged = merge_snapshots(a, b)
        assert merged["histograms"]["h"]["min"] == 0.1
        assert merged["histograms"]["h"]["max"] == 700.0

    def test_snapshots_without_extremes_are_refused(self):
        # every writer emits all seven keys: a snapshot lacking one is
        # another version's, and merging guessed extremes would hide that
        a = _snap(observations=[("h", 0.5)])
        for key in ("min", "max", "underflow"):
            other = _snap(observations=[("h", 2.0)])
            del other["histograms"]["h"][key]
            with pytest.raises(ValueError, match=f"no '{key}' key.*regenerate"):
                merge_snapshots(a, other)
