"""Streaming telemetry: each finished span, delivered as it ends.

A run's record is its trace (``trace.jsonl``, written once at the end of
the run).  The same spans are *observable while they happen* through the
trace's listener: a :class:`~repro.obs.tracer.TraceContext` may carry a
callable, every tracer built from that context (or from one it hands on)
calls it with each span's dict as the span ends
(:meth:`~repro.obs.tracer.Span.as_dict`, the dict
:func:`repro.obs.export.write_jsonl` writes), and nothing else rides on
it; counts live in the :mod:`repro.obs.metrics` registry.  Listeners
include

* :class:`LiveRenderer` — per-step progress lines on stderr for
  ``repro eval --live`` / ``repro query --live``;
* :meth:`repro.serve.streaming.EventStreamer.on_span` — one served
  request's SSE progress stream.

**Listener contract** (kept by :meth:`~repro.obs.tracer.Tracer.end_span`):

* *Ordering* — a listener sees a tracer's spans in the order they end,
  one call at a time, on the thread that ended the span, so its latency
  is paid by the traced work.  A listener that itself ends a span is
  served inline on its own thread instead of deadlocking.
* *Isolation* — a raising listener is counted in the registry
  (``obs.bus.subscriber_errors``); it can never fail the run it
  observes.  A *slow* listener stalls the traced work, so anything that
  does I/O must hand spans off instead of doing it in the call: a served
  request's stream puts each progress line into its own bounded queue,
  which drops and counts what a stalled client cannot take.
* *Locality* — a listener never runs in another process: a pickled
  ``TraceContext`` drops it.  Harness worker processes ship their spans
  back with each :class:`~repro.eval.harness.RunOutcome`, and
  :func:`replay_spans` hands them to the parent's listener, preserving
  parenting because span dicts carry their ``parent_id``.
"""

from __future__ import annotations

from typing import Any

from repro.obs.tracer import Listener, notify


def replay_spans(listener: Listener | None, span_docs: list[dict[str, Any]]) -> int:
    """Hand spans shipped back from a worker process to ``listener``.

    The spans go out in span end order, as a live in-process run delivers
    them (parenting is carried by the span dicts' ``parent_id``).
    Returns the number of spans delivered.
    """
    if listener is None or not span_docs:
        return 0
    ends = sorted(
        span_docs,
        key=lambda d: (float(d.get("end") or d.get("start", 0.0)), str(d.get("span_id", ""))),
    )
    for doc in ends:
        notify(listener, doc)
    return len(ends)


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
