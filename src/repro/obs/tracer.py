"""Hierarchical spans with injected clocks and cross-process contexts.

The paper's system-level claims — QA-loop convergence within five
revisions, token growth per redo iteration, sandbox wall time dominating
LLM latency — are dynamics of a *run*, not of any single component.  The
tracer makes those dynamics first-class: every supervisor step, graph
node, SQL execution, sandbox run, retrieval and LLM exchange records a
span with ``trace_id``/``span_id``/``parent_id`` lineage, wall-clock
boundaries from the injected clock (``WallClock`` in production,
``SimulatedClock`` in tests), free-form attributes, and exception capture.

Design constraints, in order:

* **dependency-free** — stdlib only, no OpenTelemetry;
* **near-zero overhead when nobody is looking** — library components look
  up the ambient tracer via :func:`get_tracer`, which returns a shared
  :class:`NullTracer` outside an active trace: one contextvar read and a
  no-op context manager, no allocation per span;
* **clock-injected** — the tracer never calls ``time`` APIs directly
  (DESIGN's determinism invariant), so traces taken under
  ``SimulatedClock`` are bit-stable;
* **process-portable** — :class:`TraceContext` is two strings (and, in
  its own process, the trace's live listener) that pickle across the
  evaluation harness's process pool, and span ids carry a per-tracer
  random prefix so spans minted in different worker processes never
  collide when merged into one trace;
* **observable per trace** — a context's listener hears every span its
  tracers end (:mod:`repro.obs.events` states the contract); a trace
  with none pays one attribute check per span end.
"""

from __future__ import annotations

import logging
import os
import threading
import uuid
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.obs.metrics import get_registry
from repro.obs.names import OBS_BUS_SUBSCRIBER_ERRORS
from repro.util.timing import SimulatedClock, WallClock

Clock = WallClock | SimulatedClock
# called with each finished span's dict (Span.as_dict)
Listener = Callable[[dict[str, Any]], None]

log = logging.getLogger(__name__)


def notify(listener: Listener, doc: dict[str, Any]) -> None:
    """Hand one finished span's dict to ``listener``; one that raises is
    counted (``obs.bus.subscriber_errors``) and never fails the run."""
    try:
        listener(doc)
    except Exception:
        get_registry().counter(OBS_BUS_SUBSCRIBER_ERRORS).inc()
        log.debug("span listener %r raised", listener, exc_info=True)


# ----------------------------------------------------------------------
# span notes: the profiler's view of "what span is this thread inside?"
# ----------------------------------------------------------------------
# Maintained by start_span/end_span only while a profiler is attached
# (_NOTE_SPANS flipped by enable/disable), so the untraced/unprofiled
# fast path pays a single falsy bool check per span.  Values are the
# innermost open span name per thread id; the sampler reads them from
# its own thread without locking (dict get is atomic enough for a
# statistical profile).
_NOTE_SPANS = False
_SPAN_NOTES: dict[int, str] = {}


def enable_span_notes() -> None:
    global _NOTE_SPANS
    _SPAN_NOTES.clear()
    _NOTE_SPANS = True


def disable_span_notes() -> None:
    global _NOTE_SPANS
    _NOTE_SPANS = False
    _SPAN_NOTES.clear()


def current_span_note(thread_id: int) -> str:
    """The innermost open span name of ``thread_id``, or ''."""
    return _SPAN_NOTES.get(thread_id, "")


@dataclass(frozen=True)
class TraceContext:
    """The portable coordinates of a position inside a trace.

    Pickles across process boundaries; a tracer built ``Tracer(context=ctx)``
    mints spans in ``ctx.trace_id`` whose roots hang off ``ctx.span_id``
    and calls ``ctx.listener`` with each span it ends.  The listener stays
    in its process: a pickled context carries none.
    """

    trace_id: str
    span_id: str | None = None
    listener: Listener | None = None

    def __reduce__(self):
        return (TraceContext, (self.trace_id, self.span_id))

    def as_dict(self) -> dict[str, Any]:
        return {"trace_id": self.trace_id, "span_id": self.span_id}


@dataclass
class Span:
    """One timed operation in a trace."""

    trace_id: str
    span_id: str
    parent_id: str | None
    name: str
    start: float
    end: float | None = None
    attributes: dict[str, Any] = field(default_factory=dict)
    status: str = "open"            # 'open' | 'ok' | 'error'
    error_type: str = ""
    error_message: str = ""

    @property
    def duration(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0

    def set(self, **attributes: Any) -> "Span":
        self.attributes.update(attributes)
        return self

    def as_dict(self) -> dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "status": self.status,
            "attributes": dict(self.attributes),
            "error_type": self.error_type,
            "error_message": self.error_message,
        }


class _NullSpan:
    """Shared inert span; ``set`` swallows attributes."""

    __slots__ = ()

    def set(self, **attributes: Any) -> "_NullSpan":
        return self

    @property
    def duration(self) -> float:
        return 0.0


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The ambient default outside any active trace: records nothing.

    Components instrumented against :func:`get_tracer` pay one contextvar
    read and a no-op context manager per operation when tracing has no
    consumer, which keeps the "tracing is always on" posture essentially
    free for direct library use.
    """

    def __init__(self) -> None:
        self.clock: Clock = WallClock()
        self.trace_id = ""
        self.spans: list[Span] = []

    @contextmanager
    def span(self, name: str, parent: Any = None, **attributes: Any) -> Iterator[_NullSpan]:
        yield _NULL_SPAN

    def start_span(self, name: str, parent: Any = None, **attributes: Any) -> _NullSpan:
        return _NULL_SPAN

    def end_span(self, span: Any, exc: BaseException | None = None) -> None:
        pass

    def current(self) -> None:
        return None

    def context(self) -> TraceContext | None:
        return None

    def span_dicts(self) -> list[dict[str, Any]]:
        return []


class Tracer:
    """Mints and collects spans for one trace (or one process's shard of it).

    Span nesting is tracked per thread, so spans opened on worker threads
    (the parallel-viz batch) become roots unless an explicit ``parent`` is
    passed.  Finished and open spans live in ``self.spans`` in start
    order; ``span_dicts()`` is the serialized view the exporters and the
    process-pool merge consume.
    """

    def __init__(
        self,
        clock: Clock | None = None,
        context: TraceContext | None = None,
        id_prefix: str | None = None,
    ):
        self.clock: Clock = clock or WallClock()
        if context is not None and context.trace_id:
            self.trace_id = context.trace_id
            self._root_parent = context.span_id
        else:
            self.trace_id = uuid.uuid4().hex
            self._root_parent = None
        # per-tracer random prefix + counter: unique across the worker
        # processes whose spans are merged into one trace
        self._id_prefix = id_prefix or uuid.uuid4().hex[:8]
        self._counter = 0
        self._lock = threading.Lock()
        self.listener = context.listener if context is not None else None
        # one listener call at a time, even when threads end spans at once;
        # re-entrant, so a listener that ends a span is served inline
        self._listener_lock = threading.RLock()
        # the listener stays in this process: a forked child ending spans
        # on its inherited copy of the tracer calls nobody
        self._pid = os.getpid()
        self._stacks = threading.local()
        self.spans: list[Span] = []

    # ------------------------------------------------------------------
    def _next_id(self) -> str:
        with self._lock:
            self._counter += 1
            return f"{self._id_prefix}-{self._counter:04d}"

    def _stack(self) -> list[Span]:
        stack = getattr(self._stacks, "value", None)
        if stack is None:
            stack = []
            self._stacks.value = stack
        return stack

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def context(self) -> TraceContext:
        """Portable coordinates of the innermost open span (or the root)."""
        cur = self.current()
        return TraceContext(
            self.trace_id, cur.span_id if cur else self._root_parent, self.listener
        )

    # ------------------------------------------------------------------
    def start_span(self, name: str, parent: Span | None = None, **attributes: Any) -> Span:
        if parent is None:
            parent = self.current()
        parent_id = parent.span_id if parent is not None else self._root_parent
        span = Span(
            trace_id=self.trace_id,
            span_id=self._next_id(),
            parent_id=parent_id,
            name=name,
            start=self.clock.now(),
            attributes=dict(attributes),
        )
        with self._lock:
            self.spans.append(span)
        self._stack().append(span)
        if _NOTE_SPANS:
            _SPAN_NOTES[threading.get_ident()] = name
        return span

    def end_span(self, span: Span, exc: BaseException | None = None) -> None:
        span.end = self.clock.now()
        if exc is not None:
            span.status = "error"
            span.error_type = type(exc).__name__
            span.error_message = str(exc)
        elif span.status == "open":
            span.status = "ok"
        stack = self._stack()
        if span in stack:
            stack.remove(span)
        if _NOTE_SPANS:
            _SPAN_NOTES[threading.get_ident()] = stack[-1].name if stack else ""
        if self.listener is not None and os.getpid() == self._pid:
            with self._listener_lock:
                notify(self.listener, span.as_dict())

    @contextmanager
    def span(self, name: str, parent: Span | None = None, **attributes: Any) -> Iterator[Span]:
        """``with tracer.span("sql.execute", step=3) as sp:`` — the main API."""
        span = self.start_span(name, parent=parent, **attributes)
        try:
            yield span
        except BaseException as exc:
            self.end_span(span, exc)
            raise
        else:
            self.end_span(span)

    # ------------------------------------------------------------------
    def span_dicts(self) -> list[dict[str, Any]]:
        with self._lock:
            return [s.as_dict() for s in self.spans]


# ----------------------------------------------------------------------
# the ambient tracer: what instrumented library components record into
# ----------------------------------------------------------------------
NULL_TRACER = NullTracer()

_ACTIVE: ContextVar[Tracer | None] = ContextVar("repro_obs_tracer", default=None)


def get_tracer() -> Tracer | NullTracer:
    """The active tracer of the calling context, or the shared null tracer."""
    return _ACTIVE.get() or NULL_TRACER


@contextmanager
def use_tracer(tracer: Tracer) -> Iterator[Tracer]:
    """Activate ``tracer`` for the dynamic extent of the block."""
    token = _ACTIVE.set(tracer)
    try:
        yield tracer
    finally:
        _ACTIVE.reset(token)


def current_context() -> TraceContext | None:
    """Coordinates to hand to a child tracer (possibly in another process)."""
    tracer = _ACTIVE.get()
    if tracer is None:
        return None
    return tracer.context()
