"""Admission control: a FIFO gate in front of a fixed number of execution slots.

A query runs on the HTTP handler thread that read it, but only while it
holds one of the gate's ``slots`` (the server's ``app_workers``); the
others wait their turn in arrival order, and only up to a fixed depth.
Past that the gate *fails fast* — a structured 429 with a
``retry_after_s`` hint — instead of letting latency grow without bound
while every waiting client times out anyway (the classic
unbounded-queue collapse).  The hint is computed from live telemetry:
an exponentially-weighted moving average of recent request service
times, scaled by how many requests are ahead of the caller and divided
across the slots.

The line is deliberately FIFO and single-priority: requests are
e2e-deterministic and short (seconds), so fairness across tenants comes
from per-request token budgets (``InferAConfig.token_budget``, enforced
at agent chats), not from scheduling policy.

``close()`` starts the drain: new submissions are refused with
:class:`QueueClosed` (the HTTP layer maps it to 503) while every waiting
request still gets its slot in turn, and :meth:`AdmissionQueue.wait_idle`
returns once none waits or executes, which is what lets graceful
shutdown finish every admitted request before checkpointing sessions.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any

from repro.resilience import Deadline, ServiceEWMA


class QueueFull(Exception):
    """Queue at capacity — reject now, retry after ``retry_after_s``."""

    def __init__(self, depth: int, retry_after_s: float):
        super().__init__(f"admission queue full ({depth} waiting)")
        self.depth = depth
        self.retry_after_s = retry_after_s


class QueueClosed(Exception):
    """Server is draining; no new work is admitted."""


class AdmissionQueue:
    """Bounded FIFO line in front of a fixed number of execution slots."""

    def __init__(self, depth: int, slots: int):
        if depth < 1:
            raise ValueError("queue depth must be >= 1")
        self.depth = depth
        self.slots = max(1, slots)
        self.service_time = ServiceEWMA(initial=1.0)
        self._waiting: deque[Any] = deque()  # admitted, no slot yet, by arrival
        self._executing = 0
        self._cond = threading.Condition()
        self._closed = False
        self.admitted = 0
        self.rejected = 0
        self.executed = 0

    # -- entering the line ---------------------------------------------
    def submit(self, item: Any) -> int:
        """Admit ``item`` or raise :class:`QueueFull`/:class:`QueueClosed`.

        Returns the number of requests waiting ahead of it.
        """
        with self._cond:
            if self._closed:
                raise QueueClosed("server is draining")
            waiting = len(self._waiting)
            if waiting >= self.depth:
                self.rejected += 1
                raise QueueFull(waiting, self.retry_after_s(waiting))
            self._waiting.append(item)
            self.admitted += 1
            return waiting

    def retry_after_s(self, waiting: int | None = None) -> float:
        """Expected seconds until a new submission would find room."""
        if waiting is None:
            with self._cond:
                waiting = len(self._waiting)
        # everyone ahead must be serviced, spread across the slots; never
        # hint below a floor that would invite instant-retry stampedes
        estimate = self.service_time.value * max(1, waiting) / self.slots
        return round(max(0.05, estimate), 3)

    # -- holding a slot ------------------------------------------------
    def acquire(self, item: Any, deadline: Deadline) -> bool:
        """Wait until ``item`` heads the line and a slot is free, then take it.

        ``item`` is the object given to :meth:`submit`, told apart from
        the others by identity.  Returns False, with ``item`` out of the
        line, when ``deadline`` expires first.
        """
        with self._cond:
            while True:
                remaining = deadline.remaining
                if remaining <= 0:
                    self._waiting.remove(item)
                    self._cond.notify_all()  # the next in line may head it now
                    return False
                if self._waiting[0] is item and self._executing < self.slots:
                    break
                self._cond.wait(remaining)
            self._waiting.popleft()
            self._executing += 1
            self._cond.notify_all()  # the new head may take a slot still free
            return True

    def release(self) -> None:
        """Give back the slot :meth:`acquire` granted."""
        with self._cond:
            self._executing -= 1
            self.executed += 1
            self._cond.notify_all()

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Refuse new work; requests already waiting still run (the drain)."""
        with self._cond:
            self._closed = True

    def wait_idle(self, timeout_s: float) -> bool:
        """Block until no request waits or executes; False on timeout."""
        with self._cond:
            return self._cond.wait_for(
                lambda: not self._waiting and not self._executing, timeout_s
            )

    def __len__(self) -> int:
        with self._cond:
            return len(self._waiting)

    def stats(self) -> dict[str, Any]:
        with self._cond:
            return {
                "depth": self.depth,
                "waiting": len(self._waiting),
                "admitted": self.admitted,
                "rejected": self.rejected,
                "closed": self._closed,
                "service_time_ewma_s": round(self.service_time.value, 4),
            }
