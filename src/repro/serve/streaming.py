"""Per-request SSE progress streams fed by the request's own trace.

A streaming client (``POST /v1/query`` with ``"stream": true``) gets its
request's finished spans as a ``text/event-stream``.  The handler hands
:meth:`EventStreamer.on_span` to the request as its trace listener
(:class:`~repro.obs.tracer.TraceContext`), so exactly that request's
spans reach it, and each span's progress line is written as one SSE
frame straight to the request's socket by the thread that ended the
span: the handler thread executing the request, or a parallel-viz
thread (so writes take a lock).

A client that goes away cannot fail the request: the first write that
raises marks the stream broken, later frames are skipped, and the
request runs on to completion.  A client that stays connected but never
reads cannot stall it either in practice: a whole stream is a few
kilobytes (2.4 to 7.6 KB, result frame included, for ``serve_mixed``'s
hot, redo-prone and heavy questions), which the socket's send and
receive buffers hold (16 KB and 128 KB by default on Linux), and past
them a write blocks at most the connection's ``request_timeout_s``
socket timeout before it raises and the stream is marked broken.  A
client that receives the terminal ``result`` frame received every line
before it.

Progress lines reuse :meth:`LiveRenderer.format_event`, so what streams
to a serve client is word-for-word what ``repro query --live`` prints.
"""

from __future__ import annotations

import json
import threading
from typing import Any, BinaryIO

from repro.obs.events import LiveRenderer


def sse_frame(event_name: str, data: dict[str, Any]) -> bytes:
    """One Server-Sent-Events frame (``event:`` + ``data:`` + blank)."""
    payload = json.dumps(data, separators=(",", ":"), sort_keys=True)
    return f"event: {event_name}\ndata: {payload}\n\n".encode()


class EventStreamer:
    """Write one request's finished spans to its client as SSE frames."""

    def __init__(self, wfile: BinaryIO):
        self.wfile = wfile
        self.broken = False  # a write failed: the client is gone
        self._lock = threading.Lock()

    def on_span(self, doc: dict[str, Any]) -> None:
        line = LiveRenderer.format_event(doc)
        if line is not None:
            self.send("progress", {"line": line})

    def send(self, event_name: str, data: dict[str, Any]) -> None:
        """Write one frame, or nothing once a write has failed."""
        frame = sse_frame(event_name, data)
        with self._lock:
            if self.broken:
                return
            try:
                self.wfile.write(frame)
                self.wfile.flush()
            except OSError:
                self.broken = True
