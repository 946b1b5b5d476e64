"""Retries, deadlines, and a circuit breaker for infrastructure faults.

The QA redo loop (§4.1) is the paper's answer to *generation* failures;
this module is the repo's answer to *infrastructure* failures — the
sandbox gateway resetting a connection, a request hanging past its
deadline, a dependency flapping.  Three primitives, all clock-injected
(DESIGN's determinism invariant) and all observable through
:mod:`repro.obs`:

* :func:`call_with_retries` — bounded retries with deterministic
  jittered exponential backoff.  Jitter comes from a caller-supplied
  ``numpy`` Generator (derive it with
  :func:`repro.util.rngs.derive_seed`), so two runs with the same seed
  wait the exact same schedule.
* :class:`Deadline` — a shrinking time budget shared across retries, so
  a retried operation cannot exceed its caller's overall timeout.
* :class:`CircuitBreaker` — closed → open after ``failure_threshold``
  consecutive failures; open fails fast (callers degrade to a fallback)
  until ``reset_timeout_s`` has elapsed on the injected clock; then one
  half-open probe decides between closing and re-opening.

:class:`ServiceEWMA`, the moving average of service times behind the
sandbox fleet's routing tiebreak and admission control's ``Retry-After``
estimate, lives here too.

Failures escalate into *classified* errors (:class:`RetriesExhausted`,
:class:`DeadlineExceeded`) so callers and provenance records see a named
degradation, never a raw traceback from deep inside a transport stack;
:func:`classify` reads the label.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.obs.metrics import get_registry
from repro.util.timing import SimulatedClock, WallClock

Clock = WallClock | SimulatedClock


class ResilienceError(RuntimeError):
    """Base of every classified resilience failure."""

    classification = "resilience"


class RetriesExhausted(ResilienceError):
    """The retry budget ran out; ``last_error`` is the final cause."""

    classification = "retries-exhausted"

    def __init__(self, message: str, last_error: BaseException | None = None):
        super().__init__(message)
        self.last_error = last_error


class DeadlineExceeded(ResilienceError):
    """The operation's overall time budget is spent."""

    classification = "deadline-exceeded"


class BudgetExceeded(ResilienceError):
    """The session's token budget is spent (``InferAConfig.token_budget``).

    Raised at the agent boundary (``AgentContext.chat``) and handled like any
    other classified resilience failure: the session ends with a
    ``budget-exceeded`` classification instead of unbounded redo growth.
    """

    classification = "budget-exceeded"


# ----------------------------------------------------------------------
# retry with deterministic jittered backoff
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with seeded jitter."""

    max_attempts: int = 3
    base_delay_s: float = 0.02
    max_delay_s: float = 1.0
    multiplier: float = 2.0
    jitter: float = 0.5          # +/- fraction of the nominal delay

    def delay_s(self, attempt: int, rng: np.random.Generator | None = None) -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        nominal = self.base_delay_s * self.multiplier ** max(attempt - 1, 0)
        if rng is not None and self.jitter > 0:
            nominal *= 1.0 + self.jitter * (2.0 * rng.uniform() - 1.0)
        return min(max(nominal, 0.0), self.max_delay_s)


def make_sleeper(clock: Clock | None) -> Callable[[float], None]:
    """Backoff sleep honouring the injected clock: simulated clocks
    advance instantly (bit-stable tests), wall clocks really sleep."""
    if isinstance(clock, SimulatedClock):
        return clock.advance
    return time.sleep


def call_with_retries(
    fn: Callable[[], Any],
    policy: RetryPolicy | None = None,
    retryable: tuple[type[BaseException], ...] = (ConnectionError, TimeoutError, OSError),
    rng: np.random.Generator | None = None,
    sleep: Callable[[float], None] | None = None,
    clock: Clock | None = None,
    deadline: "Deadline | None" = None,
    on_retry: Callable[[int, float, BaseException], None] | None = None,
    op: str = "op",
) -> Any:
    """Run ``fn`` under ``policy``, retrying classified-transient errors.

    Raises :class:`RetriesExhausted` (cause-chained) when the budget runs
    out, :class:`DeadlineExceeded` when ``deadline`` expires between
    attempts.  Every retry increments ``resilience.retries`` and the
    per-op counter.
    """
    policy = policy or RetryPolicy()
    sleep = sleep or make_sleeper(clock)
    last: BaseException | None = None
    for attempt in range(1, max(policy.max_attempts, 1) + 1):
        if deadline is not None and deadline.expired:
            raise DeadlineExceeded(
                f"{op}: deadline spent after {attempt - 1} attempt(s)"
            ) from last
        try:
            return fn()
        except retryable as exc:
            last = exc
            if attempt >= policy.max_attempts:
                break
            delay = policy.delay_s(attempt, rng)
            if deadline is not None:
                delay = min(delay, deadline.remaining)
            registry = get_registry()
            registry.counter("resilience.retries").inc()
            registry.counter(f"resilience.retries.{op}").inc()
            if on_retry is not None:
                on_retry(attempt, delay, exc)
            if delay > 0:
                sleep(delay)
    raise RetriesExhausted(
        f"{op}: gave up after {policy.max_attempts} attempt(s): "
        f"{type(last).__name__}: {last}",
        last_error=last,
    ) from last


# ----------------------------------------------------------------------
# deadlines
# ----------------------------------------------------------------------
class Deadline:
    """A total time budget measured on the injected clock."""

    def __init__(self, total_s: float, clock: Clock | None = None):
        self.clock = clock or WallClock()
        self.total_s = float(total_s)
        self._t0 = self.clock.now()

    @property
    def remaining(self) -> float:
        return max(0.0, self.total_s - (self.clock.now() - self._t0))

    @property
    def expired(self) -> bool:
        return self.remaining <= 0.0

    def clamp(self, timeout_s: float, floor_s: float = 0.001) -> float:
        """A per-attempt timeout that cannot outlive the deadline."""
        return max(min(timeout_s, self.remaining), floor_s)


# ----------------------------------------------------------------------
# circuit breaker
# ----------------------------------------------------------------------
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class CircuitBreaker:
    """Consecutive-failure breaker with clock-driven half-open probes.

    ``allow()`` answers "may I attempt the operation now?"; callers then
    report the outcome through ``record_success``/``record_failure``.
    Transitions are appended to ``self.transitions`` (tests assert the
    open → half-open → closed ladder) and counted as
    ``resilience.breaker.<transition>``.
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        reset_timeout_s: float = 5.0,
        clock: Clock | None = None,
        name: str = "breaker",
    ):
        self.failure_threshold = max(1, int(failure_threshold))
        self.reset_timeout_s = float(reset_timeout_s)
        self.clock = clock or WallClock()
        self.name = name
        self.state = CLOSED
        self.consecutive_failures = 0
        self.opened_at: float | None = None
        self.transitions: list[str] = []

    def _transition(self, state: str) -> None:
        if state == self.state:
            return
        self.state = state
        self.transitions.append(state)
        get_registry().counter(f"resilience.breaker.{state}").inc()

    def allow(self) -> bool:
        """True if an attempt may proceed (possibly as the half-open probe)."""
        if self.state == CLOSED:
            return True
        if self.state == OPEN:
            if (
                self.opened_at is not None
                and self.clock.now() - self.opened_at >= self.reset_timeout_s
            ):
                self._transition(HALF_OPEN)
                return True
            return False
        return True  # HALF_OPEN: the probe is in flight; let it through

    def record_success(self) -> None:
        self.consecutive_failures = 0
        if self.state != CLOSED:
            self._transition(CLOSED)

    def record_failure(self) -> None:
        self.consecutive_failures += 1
        if self.state == HALF_OPEN:
            self.opened_at = self.clock.now()
            self._transition(OPEN)
        elif self.state == CLOSED and self.consecutive_failures >= self.failure_threshold:
            self.opened_at = self.clock.now()
            self._transition(OPEN)


class ServiceEWMA:
    """Thread-safe exponentially weighted moving average of service times.

    ``value`` reads ``initial`` until the first sample, which replaces it
    outright.  The sandbox fleet starts at 0.0 so untried members sort
    ahead of proven-slow ones; admission control starts at 1.0 so a cold
    server quotes a one-second wait rather than none.
    """

    def __init__(self, alpha: float = 0.2, initial: float = 0.0):
        self.alpha = float(alpha)
        self.initial = float(initial)
        self._lock = threading.Lock()
        self.reset()

    def observe(self, seconds: float) -> None:
        with self._lock:
            self.samples += 1
            if self.samples == 1:
                self.value = float(seconds)
            else:
                self.value += self.alpha * (float(seconds) - self.value)

    def reset(self) -> None:
        with self._lock:
            self.value = self.initial
            self.samples = 0


def classify(exc: BaseException) -> str:
    """Stable classification label for a failure (provenance records it)."""
    if isinstance(exc, ResilienceError):
        return exc.classification
    return type(exc).__name__
