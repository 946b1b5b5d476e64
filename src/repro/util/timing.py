"""Wall-clock and simulated clocks.

The evaluation harness reports per-query runtime (Table 2 "Time" column).
Real runs use :class:`WallClock`; tests use :class:`SimulatedClock` so that
timing-sensitive assertions are deterministic.  Components take a clock
dependency rather than calling ``time.perf_counter`` directly.
"""

from __future__ import annotations

import time


class WallClock:
    """Monotonic wall clock."""

    def now(self) -> float:
        return time.perf_counter()

    def advance(self, seconds: float) -> None:  # pragma: no cover - no-op
        """No-op for interface parity with SimulatedClock."""


class SimulatedClock:
    """Manually advanced clock for deterministic tests and cost models.

    The mock LLM also charges simulated latency here so that reported
    runtimes carry the paper's structure (LLM latency << execution time)
    without depending on host speed.
    """

    def __init__(self, start: float = 0.0):
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("cannot advance a clock backwards")
        self._now += seconds
