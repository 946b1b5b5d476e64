"""Admission queue semantics: bounded FIFO, honest 429s, drainable close."""

from __future__ import annotations

import threading

import pytest

from repro.resilience import ServiceEWMA
from repro.serve.admission import AdmissionQueue, QueueClosed, QueueFull
from repro.util.timing import SimulatedClock


def test_fifo_order_and_positions():
    q = AdmissionQueue(depth=4, workers=1)
    assert q.submit("a") == 0
    assert q.submit("b") == 1
    assert q.submit("c") == 2
    assert [q.pop(0.01) for _ in range(3)] == ["a", "b", "c"]
    assert q.pop(0.01) is None  # empty: timeout, not blocking forever


def test_full_queue_raises_structured_429():
    q = AdmissionQueue(depth=2, workers=1)
    q.submit("a")
    q.submit("b")
    with pytest.raises(QueueFull) as exc:
        q.submit("c")
    assert exc.value.depth == 2
    assert exc.value.retry_after_s > 0
    stats = q.stats()
    assert stats["admitted"] == 2 and stats["rejected"] == 1


def test_retry_after_scales_with_backlog_and_workers():
    one = AdmissionQueue(depth=100, workers=1)
    four = AdmissionQueue(depth=100, workers=4)
    for q in (one, four):
        q.service_time.observe(2.0)
        for i in range(8):
            q.submit(i)
    assert one.retry_after_s() == pytest.approx(16.0, rel=0.01)
    assert four.retry_after_s() == pytest.approx(4.0, rel=0.01)
    # the hint never drops below the anti-stampede floor
    empty = AdmissionQueue(depth=4, workers=64)
    empty.service_time.observe(0.0001)
    assert empty.retry_after_s() >= 0.05


def test_ewma_converges_toward_recent_observations():
    ewma = ServiceEWMA(alpha=0.5, initial=1.0)
    assert ewma.value == 1.0  # prior before any observation
    ewma.observe(3.0)
    assert ewma.value == 3.0  # first observation replaces the prior
    ewma.observe(1.0)
    assert ewma.value == pytest.approx(2.0)


def test_close_refuses_new_work_but_drains_backlog():
    q = AdmissionQueue(depth=4, workers=1)
    q.submit("a")
    q.submit("b")
    q.close()
    with pytest.raises(QueueClosed):
        q.submit("c")
    # the backlog is still poppable (the graceful-shutdown drain)
    assert q.pop(0.01) == "a"
    assert q.pop(0.01) == "b"
    assert q.pop(0.01) is None  # closed and empty: immediate None
    assert q.closed


def test_close_wakes_blocked_consumers():
    q = AdmissionQueue(depth=4, workers=1)
    got = []

    def consumer():
        got.append(q.pop(timeout_s=30.0))

    t = threading.Thread(target=consumer)
    t.start()
    q.close()
    t.join(timeout=5.0)
    assert not t.is_alive()
    assert got == [None]


def test_pop_timeout_uses_injected_clock():
    clock = SimulatedClock()
    q = AdmissionQueue(depth=4, workers=1, clock=clock)
    # deadline computed on the simulated clock is already expired when it
    # never advances, so pop returns immediately instead of wall-waiting
    clock.advance(1.0)
    assert q.pop(timeout_s=0.0) is None
