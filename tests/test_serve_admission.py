"""Admission gate semantics: FIFO slots, honest 429s, deadlines, drainable close."""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.resilience import Deadline, ServiceEWMA
from repro.serve.admission import AdmissionQueue, QueueClosed, QueueFull


def forever() -> Deadline:
    """A deadline no test outlives, made when the test runs."""
    return Deadline(60.0)


class Req:
    """A request as the gate sees it: told apart by identity."""

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:
        return self.name


def reqs(names: str) -> list[Req]:
    return [Req(name) for name in names]


def test_fifo_order_and_positions():
    q = AdmissionQueue(depth=4, slots=1)
    a, b, c = reqs("abc")
    assert q.submit(a) == 0
    assert q.submit(b) == 1
    assert q.submit(c) == 2
    started = []

    def run(item):
        assert q.acquire(item, forever())
        started.append(item)
        q.release()

    # the last to arrive asks first: it still waits for those ahead of it
    threads = [threading.Thread(target=run, args=(item,)) for item in (c, b, a)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=5.0)
    assert started == [a, b, c]
    assert len(q) == 0 and q.executed == 3


def test_slots_bound_how_many_execute_at_once():
    q = AdmissionQueue(depth=4, slots=2)
    a, b, c = reqs("abc")
    for item in (a, b, c):
        q.submit(item)
    assert q.acquire(a, forever()) and q.acquire(b, forever())
    got = []
    waiter = threading.Thread(target=lambda: got.append(q.acquire(c, forever())))
    waiter.start()
    time.sleep(0.05)
    assert got == [] and len(q) == 1  # both slots held: c waits
    q.release()
    waiter.join(timeout=5.0)
    assert got == [True] and len(q) == 0


def test_full_queue_raises_structured_429():
    q = AdmissionQueue(depth=2, slots=1)
    q.submit("a")
    q.submit("b")
    with pytest.raises(QueueFull) as exc:
        q.submit("c")
    assert exc.value.depth == 2
    assert exc.value.retry_after_s > 0
    stats = q.stats()
    assert stats["admitted"] == 2 and stats["rejected"] == 1


def test_retry_after_scales_with_backlog_and_workers():
    one = AdmissionQueue(depth=100, slots=1)
    four = AdmissionQueue(depth=100, slots=4)
    for q in (one, four):
        q.service_time.observe(2.0)
        for i in range(8):
            q.submit(i)
    assert one.retry_after_s() == pytest.approx(16.0, rel=0.01)
    assert four.retry_after_s() == pytest.approx(4.0, rel=0.01)
    # the hint never drops below the anti-stampede floor
    empty = AdmissionQueue(depth=4, slots=64)
    empty.service_time.observe(0.0001)
    assert empty.retry_after_s() >= 0.05


def test_ewma_converges_toward_recent_observations():
    ewma = ServiceEWMA(alpha=0.5, initial=1.0)
    assert ewma.value == 1.0  # prior before any observation
    ewma.observe(3.0)
    assert ewma.value == 3.0  # first observation replaces the prior
    ewma.observe(1.0)
    assert ewma.value == pytest.approx(2.0)


def test_a_waiter_whose_deadline_expires_leaves_the_line():
    q = AdmissionQueue(depth=4, slots=1)
    a, b, c = reqs("abc")
    for item in (a, b, c):
        q.submit(item)
    assert q.acquire(a, forever())
    t0 = time.monotonic()
    assert not q.acquire(b, Deadline(0.05))
    assert time.monotonic() - t0 >= 0.05
    assert len(q) == 1  # b is gone, c waits
    q.release()
    assert q.acquire(c, Deadline(0.05))  # c heads the line now
    q.release()
    assert q.executed == 2


def test_close_refuses_new_work_but_drains_backlog():
    q = AdmissionQueue(depth=4, slots=1)
    a, b, c = reqs("abc")
    q.submit(a)
    q.submit(b)
    q.close()
    with pytest.raises(QueueClosed):
        q.submit(c)
    # the waiting requests still get their slots (the graceful-shutdown drain)
    for item in (a, b):
        assert q.acquire(item, forever())
        q.release()
    assert q.stats()["closed"] and len(q) == 0


def test_wait_idle_waits_for_waiting_and_executing_requests():
    q = AdmissionQueue(depth=4, slots=1)
    a, b = reqs("ab")
    q.submit(a)
    q.submit(b)
    assert q.acquire(a, forever())
    assert not q.wait_idle(0.01)  # a executes, b waits

    def finish():
        q.release()
        assert q.acquire(b, forever())
        time.sleep(0.02)
        q.release()

    t = threading.Thread(target=finish)
    t.start()
    assert q.wait_idle(5.0)
    t.join(timeout=5.0)
    assert q.executed == 2


def test_many_threads_never_hold_more_than_the_slots():
    q = AdmissionQueue(depth=64, slots=2)
    inside, most, errors = [0], [0], []
    count = threading.Lock()

    def client(n: int) -> None:
        try:
            for _ in range(n):
                item = Req("r")
                q.submit(item)
                assert q.acquire(item, forever())
                with count:
                    inside[0] += 1
                    most[0] = max(most[0], inside[0])
                with count:
                    inside[0] -= 1
                q.release()
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=client, args=(200,)) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and not errors
    assert most[0] <= 2
    assert q.executed == 1600 and q.stats()["admitted"] == 1600 and len(q) == 0
