"""The request path: one query executed on the thread that read it.

The HTTP handler thread that read a ``/v1/query`` body submits it to the
admission gate and then calls :meth:`RequestExecutor.execute`, which

1. waits for an execution slot in arrival order; the request's
   :class:`~repro.resilience.Deadline` ticks while it waits, and a
   request whose deadline runs out first leaves the line and is answered
   ``rejected`` without executing;
2. opens a fresh per-request :class:`~repro.obs.tracer.Tracer` whose
   ``serve.request`` root span records the slot-wait/execution split;
   its context carries the request's listener (a streaming client's
   :class:`~repro.serve.streaming.EventStreamer`), so the request's spans,
   and only they, reach its SSE stream;
3. builds a fresh per-request app (:meth:`WarmState.build_app`) on the
   session's workdir with a deterministically derived seed, so the run
   is byte-identical to the same question asked via a one-shot CLI
   invocation — freshness of the app is what keeps per-query LLM seeds
   independent of arrival order;
4. sheds load while the server is structurally broken: a
   consecutive-internal-error circuit breaker refuses requests instead
   of burning slots on doomed ones;
5. adds the query's tokens and USD, read from its ``llm.chat`` spans,
   to its session, and gives the slot back.

Results carry a **deterministic answer payload** — completion flag,
failure classification, result tables serialized column-by-column, plan
shape, token totals — and deliberately exclude anything run-varying
(timings, paths, trace ids), so byte-equality of two payloads means the
*analyses* agreed.
"""

from __future__ import annotations

import hashlib
import traceback
import uuid
from dataclasses import dataclass, field
from typing import Any

from repro.obs.export import token_totals
from repro.obs.names import SERVE_REQUEST_SPAN
from repro.obs.tracer import Listener, TraceContext, Tracer, use_tracer
from repro.resilience import CircuitBreaker, Deadline, DeadlineExceeded, ResilienceError
from repro.sandbox.serialize import frame_to_json
from repro.serve.admission import AdmissionQueue
from repro.serve.session import ServeSession
from repro.serve.state import WarmState
from repro.util.timing import WallClock


def answer_payload(report: Any) -> dict[str, Any]:
    """The run-invariant view of a query report (byte-comparable)."""
    run = report.run
    return {
        "completed": run.completed,
        "failure": run.failure,
        "failed_at_step": run.failed_at_step,
        "semantic_level": run.semantic_level,
        "plan_size": run.plan_size,
        "analysis_steps": run.analysis_steps,
        "redo_iterations": run.redo_iterations,
        "tokens": run.tokens,
        # figures are SVG text; content hashes compare byte-exactly
        # without shipping kilobytes of markup in every response
        "figures": sorted(
            hashlib.sha256(svg.encode()).hexdigest() for svg in run.figures
        ),
        "tables": {
            name: frame_to_json(frame) for name, frame in sorted(run.tables.items())
        },
    }


@dataclass(eq=False)  # the admission line tells requests apart by identity
class ServeRequest:
    """One admitted request, filled in as it executes."""

    question: str
    session: ServeSession
    run_id: str
    request_index: int
    deadline: Deadline
    trace_id: str = field(default_factory=lambda: uuid.uuid4().hex)
    # hears each of the request's finished spans (a streaming client's
    # EventStreamer.on_span)
    listener: Listener | None = None
    submitted_at: float = 0.0
    # filled in by RequestExecutor.execute
    result: dict[str, Any] | None = None
    error: str | None = None
    status: str = "queued"
    queue_wait_s: float = 0.0
    exec_s: float = 0.0
    # the ensemble manifest version this request was pinned to — the
    # snapshot-isolation receipt a client needs to pick the matching
    # fault-free baseline for byte-comparison
    snapshot_version: int | None = None


class RequestExecutor:
    """Runs admitted requests, each on the thread that calls :meth:`execute`."""

    def __init__(self, state: WarmState, queue: AdmissionQueue, llm_factory=None):
        self.state = state
        self.queue = queue
        self.clock = WallClock()
        self._llm_factory = llm_factory
        # trips on consecutive *internal* errors (bugs, broken state) —
        # classified application failures are results, not breaker food
        self.breaker = CircuitBreaker(
            failure_threshold=5, reset_timeout_s=10.0, clock=self.clock, name="serve"
        )

    def execute(self, request: ServeRequest) -> None:
        """Wait for a slot, run ``request`` on this thread, give the slot back."""
        if not self.queue.acquire(request, request.deadline):
            request.queue_wait_s = max(0.0, self.clock.now() - request.submitted_at)
            request.status = "rejected"
            request.error = (
                f"{DeadlineExceeded.classification}: request deadline expired "
                f"after {request.queue_wait_s:.2f}s waiting for a slot"
            )
            return
        t_start = self.clock.now()
        request.queue_wait_s = max(0.0, t_start - request.submitted_at)
        try:
            tracer = Tracer(
                clock=self.clock,
                context=TraceContext(request.trace_id, None, request.listener),
            )
            with use_tracer(tracer), tracer.span(
                SERVE_REQUEST_SPAN,
                session=request.session.session_id,
                run_id=request.run_id,
            ) as span:
                payload = self._guarded_run(request)
                span.set(
                    queue_wait_s=round(request.queue_wait_s, 6),
                    exec_s=round(self.clock.now() - t_start, 6),
                    status=request.status,
                )
            request.result = payload
        except ResilienceError as exc:
            # breaker open: a classified shed-load outcome, not a bug —
            # the breaker is not charged
            request.status = "rejected"
            request.error = f"{exc.classification}: {exc}"
        except Exception as exc:  # pragma: no cover - defensive
            self.breaker.record_failure()
            request.status = "error"
            request.error = f"internal-error: {exc}"
            traceback.print_exc()
        finally:
            request.exec_s = self.clock.now() - t_start
            self.queue.service_time.observe(request.queue_wait_s + request.exec_s)
            self.queue.release()

    def _guarded_run(self, request: ServeRequest) -> dict[str, Any]:
        if not self.breaker.allow():
            raise ResilienceError("server circuit breaker is open")
        # pin the ensemble manifest as of *now*: snapshots committed by the
        # live ingester mid-request cannot shift this run's view, so the
        # answer is byte-identical to a quiescent run at this version
        pinned = self.state.ensemble.pinned()
        request.snapshot_version = pinned.version
        app = self.state.build_app(
            request.session.workdir,
            seed=self.state.config.seed,
            llm=self._llm_factory,
            ensemble=pinned,
        )
        # the app is fresh, so this request is its query #1: the LLM seed
        # becomes config.seed + request_index via the pre-set counter,
        # matching a one-shot run of the same question at the same index
        app._query_count = request.request_index - 1
        try:
            report = app.run_query(request.question, session_id=request.run_id)
        except Exception:
            self.breaker.record_failure()
            raise
        self.breaker.record_success()
        spend = token_totals(report.trace_spans)
        request.session.record_result(
            spend["total_tokens"], spend["cost_usd"], report.completed
        )
        request.status = "ok" if report.completed else "failed"
        return answer_payload(report)
