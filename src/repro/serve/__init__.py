"""Multi-tenant serving layer: one warm process, many sessions.

``repro serve`` turns the one-shot assistant into a long-running server:
shared read-only warm state (:mod:`repro.serve.state`), per-tenant
session isolation (:mod:`repro.serve.session`), bounded admission with
honest backpressure in front of a fixed number of execution slots
(:mod:`repro.serve.admission`), the deterministic request path run on
the HTTP thread that read the request (:mod:`repro.serve.request`),
per-request SSE progress streams (:mod:`repro.serve.streaming`), and the
stdlib HTTP front end tying them together (:mod:`repro.serve.server`).
"""

from repro.serve.admission import AdmissionQueue, QueueClosed, QueueFull
from repro.serve.request import RequestExecutor, ServeRequest, answer_payload
from repro.serve.server import ReproServer
from repro.serve.session import InvalidSessionId, ServeSession, SessionRegistry
from repro.serve.state import WarmState, WarmupReport
from repro.serve.streaming import EventStreamer, sse_frame

__all__ = [
    "AdmissionQueue",
    "EventStreamer",
    "InvalidSessionId",
    "QueueClosed",
    "QueueFull",
    "ReproServer",
    "RequestExecutor",
    "ServeRequest",
    "ServeSession",
    "SessionRegistry",
    "WarmState",
    "WarmupReport",
    "answer_payload",
    "sse_frame",
]
