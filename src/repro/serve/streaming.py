"""Per-request SSE progress streams over the process-wide event bus.

One server process has one :class:`~repro.obs.events.EventBus`; every
request's spans are published onto it tagged with the request's
``trace_id``.  A streaming client (``POST /v1/query`` with
``"stream": true``) gets those events fanned back out as a
``text/event-stream``: the subscription filters the bus down to the one
trace and buffers it (:func:`repro.obs.events.subscribe` with
``trace_id=`` and ``buffered=True``), so a slow or stalled HTTP client
can never stall the workers publishing on the request path — events the
client cannot absorb are dropped, counted, and reported in the terminal
``result`` frame.

Progress lines reuse :meth:`LiveRenderer.format_event`, so what streams
to a serve client is word-for-word what ``repro query --live`` prints.
"""

from __future__ import annotations

import json
import queue
from typing import Any, Iterator

from repro.obs.events import SPAN_END, Event, LiveRenderer, subscribe
from repro.obs.names import SERVE_REQUEST_SPAN


def sse_frame(event_name: str, data: dict[str, Any]) -> bytes:
    """One Server-Sent-Events frame (``event:`` + ``data:`` + blank)."""
    payload = json.dumps(data, separators=(",", ":"), sort_keys=True)
    return f"event: {event_name}\ndata: {payload}\n\n".encode()


class EventStreamer:
    """Bridge one request's bus events onto an SSE byte iterator."""

    def __init__(self, trace_id: str, verbose: bool = False, capacity: int = 4096):
        self.trace_id = trace_id
        self.verbose = verbose
        self._lines: queue.Queue[str | None] = queue.Queue()  # None: request over
        # buffered: the drain thread formats and enqueues; the publisher
        # (a worker thread mid-request) only ever appends to the buffer
        self._subscription = subscribe(
            self._on_event, trace_id=trace_id, buffered=True, capacity=capacity
        )

    def _on_event(self, event: Event) -> None:
        line = LiveRenderer.format_event(event, verbose=self.verbose)
        if line is not None:
            self._lines.put(line)
        if event.kind == SPAN_END and event.name == SERVE_REQUEST_SPAN:
            # the request's last event: wake frames() now, not a poll later
            self._lines.put(None)

    def frames(self, done, poll_s: float = 0.05) -> Iterator[bytes]:
        """Yield progress frames until ``done`` is set and lines are drained.

        The request's own span end wakes the wait; the ``poll_s`` look at
        ``done`` stays for a request whose span end the buffer dropped.
        """
        over = False  # done seen: sweep the stragglers without blocking
        while True:
            try:
                line = self._lines.get(timeout=0 if over else poll_s)
            except queue.Empty:
                if over:
                    return
                over = done.is_set()
            else:
                if line is not None:
                    yield sse_frame("progress", {"line": line})
                else:  # the worker sets ``done`` right after that span
                    over = done.wait(poll_s)

    @property
    def dropped(self) -> int:
        return self._subscription.dropped

    def close(self) -> None:
        self._subscription.close()
