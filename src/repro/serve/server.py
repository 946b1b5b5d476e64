"""The multi-tenant HTTP serving layer: ``repro serve``.

A stdlib-only long-running server over one warm process:

* ``POST /v1/query`` — run one question in one tenant session.  The
  request is admitted through the bounded admission gate (429 +
  ``Retry-After`` when too many wait, 503 while draining) and executed
  over the shared warm state on the handler thread that read it, once
  it holds one of ``app_workers`` execution slots; with ``"stream":
  true`` the response is an SSE stream of live progress lines followed
  by a terminal ``result`` frame.
* ``POST /v1/ingest`` — append one generated snapshot to the live
  ensemble (and its live analysis database) through the WAL commit
  protocol.  Single-writer: concurrent ingests get 409, draining
  servers 503; queries admitted before, during, and after the commit
  stay byte-identical to a quiescent run at their pinned snapshot
  version.
* ``GET /healthz`` — liveness plus drain state.
* ``GET /stats`` — queue, session, breaker, cache, and live-ingest
  (snapshot version + WAL) telemetry.  Every count in it is a read of the
  :mod:`repro.obs.metrics` registry or live state; nothing is counted
  twice.

The HTTP threads (one per connection, via
:class:`~http.server.ThreadingHTTPServer`) are the only threads the
server runs besides its listener: each executes the queries its
connection sends, and the execution slots, not the number of
connections, bound how many queries run at once.

Graceful shutdown (:meth:`ReproServer.shutdown`) closes the admission
gate (new work → 503), waits until every admitted request has run,
writes the ``sessions.json`` registry summary, publishes what the
registry counted over the server's life as ``metrics.json`` (the
evaluation harness's snapshot format, which ``repro sandbox stats``
reads), and only then stops listening.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any

from repro.core.config import InferAConfig
from repro.durable import atomic_publish
from repro.obs.metrics import get_registry, snapshot_delta
from repro.obs.tracer import Listener
from repro.resilience import Deadline
from repro.sandbox.server import (
    DEFAULT_MAX_BODY_BYTES,
    BadRequest,
    PayloadTooLarge,
    read_json_object,
    send_json_reply,
)
from repro.serve.admission import AdmissionQueue, QueueClosed, QueueFull
from repro.serve.request import RequestExecutor, ServeRequest
from repro.serve.session import InvalidSessionId, SessionRegistry
from repro.serve.state import WarmState
from repro.serve.streaming import EventStreamer
from repro.sim.ensemble import Ensemble

DEFAULT_REQUEST_TIMEOUT_S = 120.0


class IngestBusy(Exception):
    """A snapshot ingest is already in flight (single-writer system)."""


class ReproServer:
    """Owns warm state, sessions, the admission gate, and the HTTP listener."""

    def __init__(
        self,
        ensemble: Ensemble,
        workdir: str | Path,
        config: InferAConfig | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        app_workers: int = 4,
        queue_depth: int = 32,
        request_timeout_s: float = DEFAULT_REQUEST_TIMEOUT_S,
        llm_factory=None,
    ):
        self.config = config or InferAConfig()
        self.workdir = Path(workdir)
        self.state = WarmState(ensemble, self.workdir, self.config)
        self.registry = SessionRegistry(self.workdir)
        self.queue = AdmissionQueue(depth=queue_depth, slots=app_workers)
        self.executor = RequestExecutor(self.state, self.queue, llm_factory=llm_factory)
        self.clock = self.executor.clock
        self.request_timeout_s = float(request_timeout_s)
        # live ingestion: built lazily on the first /v1/ingest (serving a
        # static ensemble must not pay for a writer it never uses); the
        # lock makes the server a single-writer system
        self._ingester = None
        self._ingest_injector = None
        self._ingest_lock = threading.Lock()
        self._metrics_at_start: dict[str, Any] | None = None
        self._httpd: ThreadingHTTPServer | None = None
        self._http_thread: threading.Thread | None = None
        self._started_at: float | None = None
        self._draining = False
        self.host = host
        self.port = port

    # -- lifecycle -----------------------------------------------------
    def start(self):
        """Warm shared state, bind and serve; returns the warm-up report."""
        self._metrics_at_start = get_registry().snapshot()
        report = self.state.warm()
        handler = _make_handler(self)
        self._httpd = ThreadingHTTPServer((self.host, self.port), handler)
        self.port = self._httpd.server_address[1]
        self._http_thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="repro-serve-http",
            daemon=True,
        )
        self._http_thread.start()
        self._started_at = self.clock.now()
        return report

    def shutdown(self, timeout_s: float = 30.0) -> Path:
        """Graceful drain: finish admitted work, checkpoint, stop listening.

        Returns the path of the persisted ``sessions.json``.
        """
        self._draining = True
        # 1. refuse new admissions, let every admitted request run
        self.queue.close()
        self.queue.wait_idle(timeout_s)
        # 2. the registry summary: every session's requests and spend
        manifest = self.registry.checkpoint()
        # release warm resources that own workers (the sandbox fleet)
        # after the drain, so in-flight executions finished first
        self.state.close()
        # 3. what the registry counted while this server ran
        if self._metrics_at_start is not None:
            delta = snapshot_delta(get_registry().snapshot(), self._metrics_at_start)
            atomic_publish(self.workdir / "metrics.json", json.dumps(delta, indent=1).encode())
        # 4. stop accepting connections last so in-flight responses finish
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
        if self._http_thread is not None:
            self._http_thread.join(timeout_s)
        return manifest

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- request handling (called from HTTP threads) --------------------
    def admit(
        self, question: str, session_id: str, listener: Listener | None = None
    ) -> ServeRequest:
        """Create one request whose finished spans reach ``listener`` and
        put it in line for a slot (may raise
        :class:`QueueFull`/:class:`QueueClosed`/:class:`InvalidSessionId`);
        :meth:`RequestExecutor.execute` runs it."""
        session = self.registry.get_or_create(session_id)
        index, run_id = session.next_run_id(question)
        request = ServeRequest(
            question=question,
            session=session,
            run_id=run_id,
            request_index=index,
            deadline=Deadline(self.request_timeout_s, clock=self.clock),
            submitted_at=self.clock.now(),
            listener=listener,
        )
        self.queue.submit(request)
        return request

    # -- live ingestion -------------------------------------------------
    def _ensure_ingester(self):
        from repro import faults
        from repro.sim.ingest import StreamingIngester

        if self._ingester is None:
            self._ingester = StreamingIngester(
                self.state.ensemble.root,
                db_path=self.workdir / "live.db",
                arm_faults=True,
            )
            profile = self.config.fault_profile
            if profile is None:
                profile = faults.FaultProfile.from_env(seed=self.config.seed)
            # one injector for the server's lifetime: the kill schedule is
            # a deterministic function of (profile, seed, attempt number)
            self._ingest_injector = faults.FaultInjector(profile)
        return self._ingester

    def run_ingest(self, step: int | None = None) -> dict[str, Any]:
        """Append one snapshot (admission-controlled, drain-aware).

        Runs under the server's chaos profile with kill faults armed; a
        simulated death is recovered and retried internally, so the call
        returns only when the commit landed (the report counts the kills
        it absorbed).
        """
        from repro import faults

        if self._draining:
            raise QueueClosed()
        if not self._ingest_lock.acquire(blocking=False):
            raise IngestBusy()
        try:
            ingester = self._ensure_ingester()
            with faults.use_faults(self._ingest_injector):
                report = ingester.ingest_step_resilient(step)
            # publish the committed manifest to the warm shared handle:
            # requests admitted from now on pin the new snapshot version
            self.state.ensemble.reload()
            return report.as_dict()
        finally:
            self._ingest_lock.release()

    def stats(self) -> dict[str, Any]:
        from repro.db.cache import QueryCacheStats
        from repro.db.wal import WalStats
        from repro.rag.cache import CacheStats

        counters = get_registry().snapshot()["counters"]
        qstats = QueryCacheStats.from_counters(counters)
        ensemble = self.state.ensemble
        return {
            "uptime_s": (
                round(self.clock.now() - self._started_at, 3)
                if self._started_at is not None
                else 0.0
            ),
            "draining": self._draining,
            # execution slots (every one always available) and the
            # requests that have held one
            "workers": {
                "alive": self.queue.slots,
                "executed": self.queue.executed,
            },
            "queue": self.queue.stats(),
            "sessions": self.registry.stats(),
            "breaker": {
                "state": self.executor.breaker.state,
                "consecutive_failures": self.executor.breaker.consecutive_failures,
            },
            "warmup": self.state.report.as_dict() if self.state.report else None,
            "query_cache": {**qstats.as_dict(), "hit_ratio": round(qstats.hit_ratio, 4)},
            "retrieval_cache": CacheStats.from_counters(counters).as_dict(),
            # snapshot version queries pin against + WAL/kill counters;
            # "live" carries writer detail once the first ingest ran
            "ingest": {
                "ensemble_version": ensemble.version,
                "timesteps": len(ensemble.timesteps),
                "wal": WalStats.from_counters(counters).as_dict(),
                "live": self._ingester.stats() if self._ingester is not None else None,
            },
            # fleet topology + per-worker load/breaker state + the
            # sandbox.fleet.* counters when the warm sandbox is a
            # SandboxFleet; None for single-client setups
            "sandbox_fleet": (
                self.state.sandbox.stats()
                if hasattr(self.state.sandbox, "stats")
                else None
            ),
        }


# ----------------------------------------------------------------------
# the HTTP handler
# ----------------------------------------------------------------------
def _make_handler(server: ReproServer):
    class Handler(BaseHTTPRequestHandler):
        # keep-alive: one client reuses one socket (and one HTTP thread)
        # across requests; the socket timeout closes a connection whose
        # body read stalls or that sits idle, so neither pins the thread.
        # A request executing on the thread reads nothing from the
        # socket, so it may run past the timeout.
        protocol_version = "HTTP/1.1"
        server_version = "repro-serve"
        timeout = server.request_timeout_s

        def log_message(self, fmt, *args):  # quiet by default
            pass

        # -- helpers ---------------------------------------------------
        def _send_json(self, code: int, doc: dict[str, Any], headers: dict | None = None):
            send_json_reply(self, code, json.dumps(doc, sort_keys=True).encode(), headers)

        def _read_body(self) -> dict[str, Any] | None:
            """The body as a JSON object, or None once 400/413 has been sent."""
            try:
                return read_json_object(self, DEFAULT_MAX_BODY_BYTES)
            except PayloadTooLarge as exc:
                status, error, detail = 413, "payload-too-large", str(exc)
            except BadRequest as exc:
                status, error, detail = 400, "bad-request", str(exc)
            # the body may be unread (413 refuses before reading), so this
            # connection cannot carry another request
            self.close_connection = True
            self._send_json(status, {"error": error, "detail": detail})
            return None

        # -- routes ----------------------------------------------------
        def do_GET(self):
            if self.path == "/healthz":
                self._send_json(
                    200,
                    {
                        "status": "draining" if server._draining else "ok",
                        "warmed": server.state.warmed,
                        "workers": server.queue.slots,
                    },
                )
            elif self.path == "/stats":
                self._send_json(200, server.stats())
            else:
                self._send_json(404, {"error": "not-found", "path": self.path})

        def do_POST(self):
            if self.path == "/v1/ingest":
                self._ingest_response()
                return
            if self.path != "/v1/query":
                self._send_json(404, {"error": "not-found", "path": self.path})
                return
            doc = self._read_body()
            if doc is None:
                return
            if not isinstance(doc.get("question"), str) or not doc["question"].strip():
                self._send_json(400, {"error": "bad-request", "detail": "body must be JSON with a non-empty 'question'"})
                return
            question = doc["question"]
            session_id = str(doc.get("session") or "default")
            streamer = EventStreamer(self.wfile) if doc.get("stream", False) else None
            try:
                request = server.admit(
                    question, session_id, streamer.on_span if streamer else None
                )
            except InvalidSessionId as exc:
                self._send_json(400, {"error": "bad-session", "detail": str(exc)})
                return
            except QueueFull as exc:
                self._send_json(
                    429,
                    {
                        "error": "queue-full",
                        "detail": str(exc),
                        "retry_after_s": exc.retry_after_s,
                        "queue_depth": exc.depth,
                    },
                    headers={"Retry-After": f"{exc.retry_after_s:.3f}"},
                )
                return
            except QueueClosed:
                self._send_json(503, {"error": "draining", "detail": "server is shutting down"})
                return

            if streamer is not None:
                self._stream_response(request, streamer)
            else:
                self._block_response(request)

        def _ingest_response(self) -> None:
            doc = self._read_body()
            if doc is None:
                return
            step = doc.get("step")
            if step is not None and not isinstance(step, int):
                self._send_json(
                    400,
                    {"error": "bad-request", "detail": "'step' must be an integer"},
                )
                return
            try:
                report = server.run_ingest(step)
            except QueueClosed:
                self._send_json(
                    503, {"error": "draining", "detail": "server is shutting down"}
                )
                return
            except IngestBusy:
                self._send_json(
                    409,
                    {
                        "error": "ingest-busy",
                        "detail": "a snapshot ingest is already in flight",
                    },
                )
                return
            except ValueError as exc:
                # append_snapshot rejects out-of-grid / non-monotonic steps
                self._send_json(400, {"error": "bad-step", "detail": str(exc)})
                return
            self._send_json(200, {"status": "committed", "report": report})

        def _result_doc(self, request: ServeRequest) -> dict[str, Any]:
            return {
                "status": request.status,
                "session": request.session.session_id,
                "run_id": request.run_id,
                "trace_id": request.trace_id,
                "result": request.result,
                "error": request.error,
                # the snapshot-isolation receipt: which ensemble manifest
                # version this run was pinned to (outside the byte-compared
                # answer payload — two runs at the same version must agree)
                "snapshot": {"ensemble_version": request.snapshot_version},
                "timing": {
                    "queue_wait_s": round(request.queue_wait_s, 6),
                    "exec_s": round(request.exec_s, 6),
                },
            }

        def _block_response(self, request: ServeRequest) -> None:
            server.executor.execute(request)
            code = 200 if request.status in ("ok", "failed") else 500
            self._send_json(code, self._result_doc(request))

        def _stream_response(self, request: ServeRequest, streamer: EventStreamer) -> None:
            self.send_response(200)
            self.send_header("Content-Type", "text/event-stream")
            self.send_header("Cache-Control", "no-cache")
            self.send_header("Connection", "close")
            try:
                self.end_headers()
            except OSError:
                streamer.broken = True  # client gone; the request still runs
            # progress frames are written as the request's spans end
            server.executor.execute(request)
            streamer.send("result", self._result_doc(request))

    return Handler
