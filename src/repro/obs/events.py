"""Streaming telemetry: each finished span, delivered as it ends.

A run's record is its trace (``trace.jsonl``, written once at the end of
the run).  This module makes the same spans *observable while they
happen*: when a span ends, the tracer publishes its dict
(:meth:`~repro.obs.tracer.Span.as_dict`, the dict
:func:`repro.obs.export.write_jsonl` writes) onto an ambient
:class:`EventBus`.  That dict is the only thing the bus carries; counts
live in the :mod:`repro.obs.metrics` registry.  Subscribers include

* :class:`LiveRenderer` — per-step progress lines on stderr for
  ``repro eval --live`` / ``repro query --live``;
* any callable attached through :func:`subscribe` — the documented
  public hook (``repro serve`` streams per-session progress through it).

**Subscriber contract** (:func:`subscribe` / :meth:`EventBus.subscribe`):

* *Ordering* — subscribers see spans in the order they end.
  :meth:`EventBus.publish` calls the subscribers in order under one
  lock, on the thread that ended the span, so two callbacks never run at
  once and a direct subscriber's latency is paid by the traced work.  A
  subscriber that itself ends a span is served inline on its own thread
  (the lock is re-entrant) instead of deadlocking.
* *Isolation* — a raising subscriber is skipped and counted in the
  registry (``obs.bus.subscriber_errors``); it can never fail the run it
  observes.  A *slow* subscriber stalls the publisher, so anything that
  does I/O must hand spans off instead of doing it in the callback: the
  serving layer's per-session streams put each progress line into the
  request's own bounded queue, which drops and counts what a stalled
  client cannot take (:class:`repro.serve.streaming.EventStreamer`).
* *Per-session filtering* — span dicts carry their ``trace_id``; pass
  ``trace_id=`` to :func:`subscribe` to see exactly one session's spans,
  which is how ``repro serve`` fans one process-wide bus out into
  per-request progress streams.

Design constraints, matching the tracer's:

* **near-zero overhead when nobody is listening** — the tracer pays one
  module-global read and an identity check per span end when no bus is
  active (:data:`NULL_BUS`);
* **process-wide and thread-safe** — the ambient bus is a module global
  (not a contextvar) so spans ended on parallel-viz threads and serve
  workers reach the same bus as the coordinator's.  Forked harness
  workers deliberately *reset* the ambient bus (``os.register_at_fork``)
  so a child never calls into the parent's subscribers.  Worker spans
  instead ship back with each :class:`~repro.eval.harness.RunOutcome`
  and are re-published on the parent by :func:`replay_spans`, preserving
  parenting because span dicts carry their ``parent_id``.
"""

from __future__ import annotations

import logging
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro.obs.metrics import get_registry
from repro.obs.names import OBS_BUS_SUBSCRIBER_ERRORS

Subscriber = Callable[[dict[str, Any]], None]

log = logging.getLogger(__name__)


def _subscriber_failed(fn: Subscriber) -> None:
    """Count (and log at debug) a subscriber that raised; call from the
    ``except`` block that caught it."""
    get_registry().counter(OBS_BUS_SUBSCRIBER_ERRORS).inc()
    log.debug("span subscriber %r raised", fn, exc_info=True)


class NullBus:
    """The ambient default: swallows everything, allocates nothing."""

    __slots__ = ()

    def publish(self, doc: dict[str, Any]) -> None:
        pass


NULL_BUS = NullBus()


class EventBus:
    """Calls every subscriber with each finished span's dict, in order."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        # replaced, never mutated: a subscriber that (un)subscribes from
        # inside a callback does not disturb the loop that called it
        self.subscribers: tuple[Subscriber, ...] = ()

    def subscribe(self, fn: Subscriber) -> Subscriber:
        with self._lock:
            if fn not in self.subscribers:
                self.subscribers += (fn,)
        return fn

    def unsubscribe(self, fn: Subscriber) -> None:
        with self._lock:
            self.subscribers = tuple(s for s in self.subscribers if s != fn)

    def publish(self, doc: dict[str, Any]) -> None:
        with self._lock:
            for fn in self.subscribers:
                try:
                    fn(doc)
                except Exception:
                    _subscriber_failed(fn)


# ----------------------------------------------------------------------
# the ambient bus
# ----------------------------------------------------------------------
_AMBIENT: EventBus | NullBus = NULL_BUS
_AMBIENT_LOCK = threading.Lock()


def get_bus() -> EventBus | NullBus:
    """The process's active event bus, or the shared null bus."""
    return _AMBIENT


@contextmanager
def use_bus(bus: EventBus) -> Iterator[EventBus]:
    """Activate ``bus`` process-wide for the extent of the block.

    A module global rather than a contextvar so spans ended on worker
    *threads* (parallel viz, serve workers) reach the same bus; nesting
    restores the previous bus on exit.
    """
    global _AMBIENT
    with _AMBIENT_LOCK:
        previous = _AMBIENT
        _AMBIENT = bus
    try:
        yield bus
    finally:
        with _AMBIENT_LOCK:
            _AMBIENT = previous


def _reset_ambient() -> None:
    global _AMBIENT
    _AMBIENT = NULL_BUS


if hasattr(os, "register_at_fork"):
    # forked harness workers must not call into the parent's subscribers;
    # their spans ship back with the RunOutcome and are re-published on
    # the parent via replay_spans
    os.register_at_fork(after_in_child=_reset_ambient)


def replay_spans(bus: EventBus | NullBus, span_docs: list[dict[str, Any]]) -> int:
    """Re-publish spans shipped back from a worker process.

    The spans go out in span end order, as a live in-process run
    publishes them (parenting is carried by the span dicts'
    ``parent_id``).  Returns the number of spans published.
    """
    if bus is NULL_BUS or not span_docs:
        return 0
    ends = sorted(
        span_docs,
        key=lambda d: (float(d.get("end") or d.get("start", 0.0)), str(d.get("span_id", ""))),
    )
    for doc in ends:
        bus.publish(doc)
    return len(ends)


# ----------------------------------------------------------------------
# subscribers
# ----------------------------------------------------------------------
class LiveRenderer:
    """Progress lines for humans: one per completed step-level span.

    Prints a compact line per finished coarse-grained span (grid cells,
    sessions, plan/step/QA phases); fine-grained spans (SQL, sandbox
    internals) are skipped so ``--live`` output stays readable.
    """

    INTERESTING = (
        "harness.cell",
        "session",
        "plan.generate",
        "step.sql",
        "step.python",
        "step.viz",
        "qa.assess",
        "llm.chat",
    )

    def __init__(self, stream=None, verbose: bool = False):
        import sys

        self.stream = stream if stream is not None else sys.stderr
        self.verbose = verbose
        self.lines = 0

    @classmethod
    def format_event(cls, doc: dict[str, Any], verbose: bool = False) -> str | None:
        """One progress line for a finished span's dict, or None to skip it.

        Shared by the stderr renderer and the serving layer's SSE
        streams, so ``--live`` output and streamed session progress stay
        word-for-word identical.
        """
        name = doc.get("name", "")
        if not verbose and name not in cls.INTERESTING:
            return None
        attrs = doc.get("attributes", {})
        hints = " ".join(
            f"{k}={attrs[k]}"
            for k in ("qid", "run_index", "session_id", "step", "attempt",
                      "skill", "ok", "passed", "steps")
            if k in attrs
        )
        status = doc.get("status", "")
        mark = "" if status == "ok" else f" [{status}]"
        dur_ms = float(doc.get("duration", 0.0)) * 1e3
        return f"[live] {name:<18} {dur_ms:9.2f} ms  {hints}{mark}"

    def __call__(self, doc: dict[str, Any]) -> None:
        line = self.format_event(doc, verbose=self.verbose)
        if line is None:
            return
        print(line, file=self.stream)
        self.lines += 1


# ----------------------------------------------------------------------
# the public subscription API
# ----------------------------------------------------------------------
@dataclass
class Subscription:
    """Handle for one :func:`subscribe` attachment; ``close()`` detaches."""

    bus: EventBus
    attached: Subscriber

    def close(self) -> None:
        self.bus.unsubscribe(self.attached)


def subscribe(
    fn: Subscriber, bus: EventBus | None = None, trace_id: str | None = None
) -> Subscription:
    """Attach ``fn`` to an event bus; the documented public hook.

    ``bus`` defaults to the ambient bus (:func:`get_bus`) and must be a
    real :class:`EventBus` — subscribing to the null bus is an error, not
    a silent no-op, because the caller clearly expects spans.
    ``trace_id`` keeps only that trace's spans (see the module
    docstring's subscriber contract).  Returns a :class:`Subscription`
    whose ``close()`` detaches.
    """
    target = bus if bus is not None else get_bus()
    if not isinstance(target, EventBus):
        raise RuntimeError(
            "no active event bus to subscribe to; activate one with use_bus() first"
        )
    attached = fn if trace_id is None else _only_trace(fn, trace_id)
    target.subscribe(attached)
    return Subscription(bus=target, attached=attached)


def _only_trace(fn: Subscriber, trace_id: str) -> Subscriber:
    def filtered(doc: dict[str, Any]) -> None:
        if doc.get("trace_id") == trace_id:
            fn(doc)

    return filtered
