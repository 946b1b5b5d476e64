"""Retries, deadlines, circuit breaker (repro.resilience)."""

import numpy as np
import pytest

from repro.resilience import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    Deadline,
    DeadlineExceeded,
    ResilienceError,
    RetriesExhausted,
    RetryPolicy,
    call_with_retries,
    classify,
    make_sleeper,
)
from repro.util.timing import SimulatedClock


class Flaky:
    """Fails ``failures`` times with ``exc``, then returns ``value``."""

    def __init__(self, failures, exc=ConnectionError, value="ok"):
        self.failures = failures
        self.exc = exc
        self.value = value
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.exc(f"boom {self.calls}")
        return self.value


class TestRetryPolicy:
    def test_exponential_growth_capped(self):
        policy = RetryPolicy(base_delay_s=0.1, multiplier=2.0, max_delay_s=0.5, jitter=0.0)
        assert policy.delay_s(1) == pytest.approx(0.1)
        assert policy.delay_s(2) == pytest.approx(0.2)
        assert policy.delay_s(4) == pytest.approx(0.5)  # capped

    def test_jitter_is_seeded(self):
        policy = RetryPolicy(base_delay_s=0.1, jitter=0.5)
        a = [policy.delay_s(1, np.random.default_rng(3)) for _ in range(1)]
        b = [policy.delay_s(1, np.random.default_rng(3)) for _ in range(1)]
        assert a == b
        assert policy.delay_s(1, np.random.default_rng(3)) != pytest.approx(
            policy.delay_s(1, np.random.default_rng(4))
        )


class TestCallWithRetries:
    def test_eventual_success(self):
        clock = SimulatedClock()
        fn = Flaky(failures=2)
        out = call_with_retries(fn, RetryPolicy(max_attempts=3, jitter=0.0), clock=clock)
        assert out == "ok" and fn.calls == 3

    def test_retries_exhausted_classified(self):
        clock = SimulatedClock()
        fn = Flaky(failures=99)
        with pytest.raises(RetriesExhausted) as exc:
            call_with_retries(fn, RetryPolicy(max_attempts=3, jitter=0.0), clock=clock)
        assert fn.calls == 3
        assert exc.value.classification == "retries-exhausted"
        assert isinstance(exc.value.last_error, ConnectionError)
        assert isinstance(exc.value.__cause__, ConnectionError)

    def test_non_retryable_escapes_immediately(self):
        fn = Flaky(failures=99, exc=ValueError)
        with pytest.raises(ValueError):
            call_with_retries(fn, RetryPolicy(max_attempts=5))
        assert fn.calls == 1

    def test_backoff_advances_simulated_clock(self):
        clock = SimulatedClock()
        call_with_retries(
            Flaky(failures=2),
            RetryPolicy(max_attempts=3, base_delay_s=0.1, multiplier=2.0, jitter=0.0),
            clock=clock,
        )
        assert clock.now() == pytest.approx(0.1 + 0.2)

    def test_deadline_cuts_retries_short(self):
        clock = SimulatedClock()
        deadline = Deadline(0.15, clock=clock)
        with pytest.raises(DeadlineExceeded) as exc:
            call_with_retries(
                Flaky(failures=99),
                RetryPolicy(max_attempts=10, base_delay_s=0.1, jitter=0.0),
                clock=clock,
                deadline=deadline,
            )
        assert exc.value.classification == "deadline-exceeded"

    def test_on_retry_hook_sees_each_retry(self):
        seen = []
        call_with_retries(
            Flaky(failures=2),
            RetryPolicy(max_attempts=3, jitter=0.0),
            clock=SimulatedClock(),
            on_retry=lambda attempt, delay, exc: seen.append(attempt),
        )
        assert seen == [1, 2]


class TestDeadline:
    def test_remaining_shrinks_on_clock(self):
        clock = SimulatedClock()
        deadline = Deadline(1.0, clock=clock)
        assert deadline.remaining == pytest.approx(1.0)
        clock.advance(0.6)
        assert deadline.remaining == pytest.approx(0.4)
        assert not deadline.expired
        clock.advance(0.5)
        assert deadline.expired

    def test_clamp_never_outlives_deadline(self):
        clock = SimulatedClock()
        deadline = Deadline(0.5, clock=clock)
        assert deadline.clamp(30.0) == pytest.approx(0.5)
        clock.advance(10.0)
        assert deadline.clamp(30.0) == pytest.approx(0.001)  # floor, not zero


class TestCircuitBreaker:
    def make(self, clock=None, threshold=3, reset=5.0):
        return CircuitBreaker(
            failure_threshold=threshold, reset_timeout_s=reset,
            clock=clock or SimulatedClock(), name="test",
        )

    def test_opens_after_threshold(self):
        breaker = self.make()
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == CLOSED and breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN and not breaker.allow()

    def test_success_resets_consecutive_count(self):
        breaker = self.make()
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CLOSED

    def test_open_half_open_closed_ladder(self):
        clock = SimulatedClock()
        breaker = self.make(clock=clock, reset=5.0)
        for _ in range(3):
            breaker.record_failure()
        assert not breaker.allow()          # open: fail fast
        clock.advance(5.1)
        assert breaker.allow()              # reset elapsed -> half-open probe
        assert breaker.state == HALF_OPEN
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.transitions == [OPEN, HALF_OPEN, CLOSED]

    def test_half_open_failure_reopens(self):
        clock = SimulatedClock()
        breaker = self.make(clock=clock, reset=5.0)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(5.1)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()          # the reset timer restarted
        clock.advance(5.1)
        assert breaker.allow()
        assert breaker.transitions == [OPEN, HALF_OPEN, OPEN, HALF_OPEN]


class TestClassification:
    def test_classify_resilience_errors(self):
        assert classify(RetriesExhausted("x")) == "retries-exhausted"
        assert classify(DeadlineExceeded("x")) == "deadline-exceeded"
        assert classify(ResilienceError("x")) == "resilience"

    def test_classify_foreign_exception_by_type(self):
        assert classify(ConnectionResetError("x")) == "ConnectionResetError"


class TestSleeper:
    def test_simulated_clock_advances_instead_of_sleeping(self):
        clock = SimulatedClock()
        make_sleeper(clock)(2.5)
        assert clock.now() == pytest.approx(2.5)
