"""Per-request SSE progress streams fed by the request's own trace.

A streaming client (``POST /v1/query`` with ``"stream": true``) gets its
request's finished spans as a ``text/event-stream``.  The handler hands
:meth:`EventStreamer.on_span` to the request as its trace listener
(:class:`~repro.obs.tracer.TraceContext`), so exactly that request's
spans reach it, and each span's progress line goes straight into the
request's own bounded queue, which the HTTP handler thread drains.  A
slow or stalled HTTP client can never stall the worker ending spans on
the request path: progress lines the queue cannot take are dropped,
counted, and reported as ``stream_dropped_events`` in the terminal
``result`` frame.

Progress lines reuse :meth:`LiveRenderer.format_event`, so what streams
to a serve client is word-for-word what ``repro query --live`` prints.
"""

from __future__ import annotations

import json
import queue
from contextlib import suppress
from typing import Any, Iterator

from repro.obs.events import LiveRenderer
from repro.obs.names import SERVE_REQUEST_SPAN


def sse_frame(event_name: str, data: dict[str, Any]) -> bytes:
    """One Server-Sent-Events frame (``event:`` + ``data:`` + blank)."""
    payload = json.dumps(data, separators=(",", ":"), sort_keys=True)
    return f"event: {event_name}\ndata: {payload}\n\n".encode()


class EventStreamer:
    """Bridge one request's finished spans onto an SSE byte iterator."""

    def __init__(self, verbose: bool = False, capacity: int = 4096):
        self.verbose = verbose
        # progress lines the full queue refused (the tracer calls on_span
        # one span at a time, so the count needs no lock of its own)
        self.dropped = 0
        # the worker ending a span formats its line and never waits on the
        # client: a full queue drops the line
        self._lines: queue.Queue[str | None] = queue.Queue(maxsize=capacity)  # None: request over

    def on_span(self, doc: dict[str, Any]) -> None:
        line = LiveRenderer.format_event(doc, verbose=self.verbose)
        if line is not None:
            try:
                self._lines.put_nowait(line)
            except queue.Full:
                self.dropped += 1
        if doc.get("name") == SERVE_REQUEST_SPAN:
            # the request's last span: wake frames() now, not a poll later
            with suppress(queue.Full):
                self._lines.put_nowait(None)

    def frames(self, done, poll_s: float = 0.05) -> Iterator[bytes]:
        """Yield progress frames until ``done`` is set and lines are drained.

        The request's own span end wakes the wait; the ``poll_s`` look at
        ``done`` stays for a request whose wake-up a full queue refused.
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
