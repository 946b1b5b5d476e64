"""Admission control: a bounded request queue with honest backpressure.

The server accepts work only up to a fixed queue depth.  Past that it
*fails fast* — a structured 429 with a ``retry_after_s`` hint — instead
of letting latency grow without bound while every queued client times
out anyway (the classic unbounded-queue collapse).  The hint is computed
from live telemetry: an exponentially-weighted moving average of recent
request service times, scaled by how many requests are ahead of the
caller and divided across the worker pool.

The queue is deliberately FIFO and single-priority: requests are
e2e-deterministic and short (seconds), so fairness across tenants comes
from per-session token budgets (enforced by the cost ledger at agent
chats), not from scheduling policy.

``close()`` starts the drain: new submissions are refused with
:class:`QueueClosed` (the HTTP layer maps it to 503) while workers keep
popping until the queue is empty, which is what lets graceful shutdown
finish every admitted request before checkpointing sessions.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any

from repro.resilience import ServiceEWMA
from repro.util.timing import SimulatedClock, WallClock


class QueueFull(Exception):
    """Queue at capacity — reject now, retry after ``retry_after_s``."""

    def __init__(self, depth: int, retry_after_s: float):
        super().__init__(f"admission queue full ({depth} waiting)")
        self.depth = depth
        self.retry_after_s = retry_after_s


class QueueClosed(Exception):
    """Server is draining; no new work is admitted."""


class AdmissionQueue:
    """Bounded FIFO feeding the worker pool."""

    def __init__(
        self,
        depth: int,
        workers: int,
        clock: WallClock | SimulatedClock | None = None,
    ):
        if depth < 1:
            raise ValueError("queue depth must be >= 1")
        self.depth = depth
        self.workers = max(1, workers)
        self.clock = clock or WallClock()
        self.service_time = ServiceEWMA(initial=1.0)
        self._items: deque[Any] = deque()
        self._cond = threading.Condition()
        self._closed = False
        self.admitted = 0
        self.rejected = 0

    # -- producer side -------------------------------------------------
    def submit(self, item: Any) -> int:
        """Admit ``item`` or raise :class:`QueueFull`/:class:`QueueClosed`.

        Returns the number of requests ahead of it (its queue position).
        """
        with self._cond:
            if self._closed:
                raise QueueClosed("server is draining")
            waiting = len(self._items)
            if waiting >= self.depth:
                self.rejected += 1
                raise QueueFull(waiting, self.retry_after_s(waiting))
            self._items.append(item)
            self.admitted += 1
            self._cond.notify()
            return waiting

    def retry_after_s(self, waiting: int | None = None) -> float:
        """Expected seconds until a new submission would find room."""
        if waiting is None:
            with self._cond:
                waiting = len(self._items)
        # everyone ahead must be serviced, spread across the pool; never
        # hint below a floor that would invite instant-retry stampedes
        estimate = self.service_time.value * max(1, waiting) / self.workers
        return round(max(0.05, estimate), 3)

    # -- consumer side -------------------------------------------------
    def pop(self, timeout_s: float = 0.5) -> Any | None:
        """Next item, or None on timeout / when closed-and-empty."""
        deadline = self.clock.now() + timeout_s
        with self._cond:
            while not self._items:
                if self._closed:
                    return None
                remaining = deadline - self.clock.now()
                if remaining <= 0:
                    return None
                self._cond.wait(remaining)
            return self._items.popleft()

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Refuse new work; queued items remain poppable (the drain)."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    @property
    def closed(self) -> bool:
        with self._cond:
            return self._closed

    def __len__(self) -> int:
        with self._cond:
            return len(self._items)

    def stats(self) -> dict[str, Any]:
        with self._cond:
            return {
                "depth": self.depth,
                "waiting": len(self._items),
                "admitted": self.admitted,
                "rejected": self.rejected,
                "closed": self._closed,
                "service_time_ewma_s": round(self.service_time.value, 4),
            }
