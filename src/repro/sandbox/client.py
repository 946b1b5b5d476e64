"""Clients for the sandbox gateway.

:class:`SandboxClient` speaks HTTP to a running :class:`SandboxServer`;
:class:`InProcessClient` calls the executor directly with the same
interface, which is what the evaluation harness uses (one process, no
socket overhead, identical semantics since the executor already copies
all inputs).

The HTTP client carries the resilience ladder (:mod:`repro.resilience`):

1. transient transport failures — connection reset, timeout, 5xx,
   garbage JSON — are retried with deterministic jittered backoff under
   an overall :class:`Deadline`;
2. consecutive failures trip a :class:`CircuitBreaker`; while it is open
   the client *degrades* onto its in-process fallback executor instead of
   hammering a dead gateway (the span records ``degraded="in-process"``);
3. after ``reset_timeout_s`` the breaker half-opens and the cheap
   :meth:`health` probe — which distinguishes connection-refused from
   timeout — decides whether real traffic resumes.

Without a fallback the ladder ends in a *classified*
:class:`SandboxUnavailable`, never a raw transport traceback.  Faults
injected by the ambient :class:`repro.faults.FaultInjector` enter at the
transport layer, so the whole ladder is exercised by the chaos suite.

Transport is **persistent**: executions reuse pooled keep-alive
``http.client.HTTPConnection`` sockets (``sandbox.conn.dials`` /
``sandbox.conn.reuses`` counters), cutting per-exec TCP setup.  A stale
pooled socket — the server restarted, or reaped the idle connection —
surfaces as a :class:`TransientSandboxError`, so the normal retry dials
fresh; staleness is indistinguishable from (and handled exactly like) a
transient network failure.

``http.client`` / ``urllib.request`` (and the ssl and email packages under
them, ~50 ms and 8 MB cold) are imported by the three methods that dial:
every process that runs a query imports this module for
:class:`InProcessClient`, few of them ever open a socket.
"""

from __future__ import annotations

import io
import json
import threading
import urllib.parse
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro import faults
from repro.frame import Frame
from repro.obs.logsetup import get_logger
from repro.obs.metrics import get_registry
from repro.obs.tracer import get_tracer
from repro.resilience import (
    HALF_OPEN,
    CircuitBreaker,
    Deadline,
    ResilienceError,
    RetriesExhausted,
    RetryPolicy,
    call_with_retries,
    classify,
)
from repro.sandbox.executor import ExecutionResult, SandboxExecutor
from repro.sandbox.serialize import frame_from_json, frame_to_json
from repro.util.rngs import derive_seed
from repro.util.timing import SimulatedClock, WallClock

import numpy as np

if TYPE_CHECKING:
    import http.client

log = get_logger("sandbox")


class InProcessClient:
    """Direct executor invocation behind the client interface."""

    def __init__(self, executor: SandboxExecutor | None = None):
        self.executor = executor or SandboxExecutor()

    def execute(self, code: str, tables: dict[str, Frame]) -> ExecutionResult:
        return self.executor.execute(code, tables)


class SandboxUnavailable(ResilienceError):
    """The gateway is down and no fallback executor was configured."""

    classification = "sandbox-unavailable"


class TransientSandboxError(ConnectionError):
    """A retryable transport-level failure (reset/timeout/5xx/garbage)."""


@dataclass(frozen=True)
class HealthStatus:
    """Classified gateway liveness: truthy iff healthy, ``detail`` says
    *how* it is unhealthy (``refused`` vs ``timeout`` vs ``http-<code>``
    vs ``bad-response``), which is what the breaker's half-open probe and
    the status log line need."""

    ok: bool
    detail: str

    def __bool__(self) -> bool:
        return self.ok


class SandboxClient:
    """HTTP client for a SandboxServer, with retries/breaker/fallback."""

    def __init__(
        self,
        url: str,
        timeout_s: float = 30.0,
        retry_policy: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        fallback: InProcessClient | None = None,
        clock: WallClock | SimulatedClock | None = None,
        total_timeout_s: float | None = None,
        seed: int = 0,
    ):
        self.url = url.rstrip("/")
        self.timeout_s = timeout_s
        self.clock = clock or WallClock()
        self.retry_policy = retry_policy or RetryPolicy(
            max_attempts=3, base_delay_s=0.02, max_delay_s=0.5
        )
        self.breaker = breaker or CircuitBreaker(
            failure_threshold=3, reset_timeout_s=2.0, clock=self.clock, name="sandbox"
        )
        self.fallback = fallback
        # overall per-execute budget shared across retries and backoff
        self.total_timeout_s = (
            total_timeout_s
            if total_timeout_s is not None
            else timeout_s * self.retry_policy.max_attempts
        )
        self._retry_rng = np.random.default_rng(derive_seed(seed, "sandbox.retry", url))
        # persistent-connection pool: keep-alive sockets to the gateway,
        # reused across executions (the server speaks HTTP/1.1).  Guarded
        # by a lock because the serving layer shares one client across
        # worker threads.  A stale pooled socket (server restarted or
        # reaped the idle connection) surfaces as a transport error that
        # is classified retryable — the retry dials a fresh connection.
        parts = urllib.parse.urlsplit(self.url)
        self._conn_host = parts.hostname or "127.0.0.1"
        self._conn_port = parts.port or 80
        self._conn_path = parts.path.rstrip("/")
        self._conn_lock = threading.Lock()
        self._idle_conns: list[http.client.HTTPConnection] = []
        self._pool_max = 8

    # -- persistent connections ----------------------------------------
    def _acquire_conn(self, timeout_s: float) -> http.client.HTTPConnection:
        import http.client

        with self._conn_lock:
            conn = self._idle_conns.pop() if self._idle_conns else None
        if conn is not None:
            get_registry().counter("sandbox.conn.reuses").inc()
            if conn.sock is not None:
                conn.sock.settimeout(timeout_s)
            conn.timeout = timeout_s
            return conn
        get_registry().counter("sandbox.conn.dials").inc()
        return http.client.HTTPConnection(
            self._conn_host, self._conn_port, timeout=timeout_s
        )

    def _release_conn(self, conn: http.client.HTTPConnection, reusable: bool) -> None:
        if reusable:
            with self._conn_lock:
                if len(self._idle_conns) < self._pool_max:
                    self._idle_conns.append(conn)
                    return
        conn.close()

    def close(self) -> None:
        """Drop every pooled connection (idempotent)."""
        with self._conn_lock:
            conns, self._idle_conns = self._idle_conns, []
        for conn in conns:
            conn.close()

    # ------------------------------------------------------------------
    def health(self, timeout_s: float | None = None) -> HealthStatus:
        """Probe ``GET /health``, classifying *why* it failed if it did."""
        import urllib.error
        import urllib.request

        try:
            with urllib.request.urlopen(
                f"{self.url}/health", timeout=timeout_s or self.timeout_s
            ) as resp:
                doc = json.loads(resp.read().decode())
            ok = doc.get("status") == "ok"
            status = HealthStatus(ok, "ok" if ok else "bad-response")
        except urllib.error.HTTPError as exc:
            status = HealthStatus(False, f"http-{exc.code}")
        except urllib.error.URLError as exc:
            reason = exc.reason
            if isinstance(reason, ConnectionRefusedError):
                status = HealthStatus(False, "refused")
            elif isinstance(reason, TimeoutError):
                status = HealthStatus(False, "timeout")
            else:
                status = HealthStatus(
                    False, type(reason).__name__ if reason is not None else "unreachable"
                )
        except TimeoutError:
            status = HealthStatus(False, "timeout")
        except (ValueError, KeyError):
            status = HealthStatus(False, "bad-response")
        if not status.ok:
            log.debug("sandbox %s unhealthy: %s", self.url, status.detail)
        return status

    # ------------------------------------------------------------------
    def execute(self, code: str, tables: dict[str, Frame]) -> ExecutionResult:
        tracer = get_tracer()
        with tracer.span(
            "sandbox.request", code_lines=code.count("\n") + 1, n_tables=len(tables)
        ) as sp:
            if not self.breaker.allow():
                return self._degrade(sp, code, tables, reason="circuit-open")
            if self.breaker.state == HALF_OPEN:
                # reuse the classified health probe before risking traffic
                probe = self.health(timeout_s=min(self.timeout_s, 2.0))
                sp.set(probe=probe.detail)
                if not probe.ok:
                    self.breaker.record_failure()
                    return self._degrade(sp, code, tables, reason=f"probe-{probe.detail}")
            deadline = Deadline(self.total_timeout_s, clock=self.clock)
            attempts = 0

            def post() -> dict[str, Any]:
                nonlocal attempts
                attempts += 1
                return self._post_execute(code, tables, deadline)

            try:
                doc = call_with_retries(
                    post,
                    policy=self.retry_policy,
                    retryable=(TransientSandboxError,),
                    rng=self._retry_rng,
                    clock=self.clock,
                    deadline=deadline,
                    on_retry=lambda n, delay, exc: self.breaker.record_failure(),
                    op="sandbox.execute",
                )
            except (RetriesExhausted, ResilienceError) as exc:
                self.breaker.record_failure()
                sp.set(attempts=attempts, retries=max(attempts - 1, 0))
                return self._degrade(
                    sp, code, tables, reason=classify(exc), error=exc
                )
            self.breaker.record_success()
            sp.set(attempts=attempts, retries=max(attempts - 1, 0))
            return _decode_result(doc)

    # ------------------------------------------------------------------
    def _degrade(
        self,
        sp: Any,
        code: str,
        tables: dict[str, Frame],
        reason: str,
        error: BaseException | None = None,
    ) -> ExecutionResult:
        if self.fallback is None:
            sp.set(degraded_reason=reason)
            raise SandboxUnavailable(
                f"sandbox gateway {self.url} unavailable ({reason}) and no "
                f"fallback executor is configured"
            ) from error
        get_registry().counter("resilience.fallbacks").inc()
        get_registry().counter("resilience.fallbacks.sandbox").inc()
        sp.set(degraded="in-process", degraded_reason=reason)
        log.warning("sandbox %s degraded to in-process executor (%s)", self.url, reason)
        return self.fallback.execute(code, tables)

    # ------------------------------------------------------------------
    def _post_execute(
        self, code: str, tables: dict[str, Frame], deadline: Deadline
    ) -> dict[str, Any]:
        """One transport attempt; raises :class:`TransientSandboxError`
        for anything a retry could fix."""
        import http.client
        import urllib.error

        injector = faults.get_injector()
        if injector.fire(faults.SANDBOX_DROP):
            raise TransientSandboxError("injected: connection reset by peer")
        if injector.fire(faults.SANDBOX_HANG):
            raise TransientSandboxError("injected: request deadline exceeded")
        payload = {
            "code": code,
            "tables": {name: frame_to_json(f) for name, f in tables.items()},
        }
        data = json.dumps(payload).encode("utf-8")
        conn = self._acquire_conn(deadline.clamp(self.timeout_s))
        reusable = False
        try:
            conn.request(
                "POST",
                f"{self._conn_path}/execute",
                body=data,
                headers={"Content-Type": "application/json"},
            )
            resp = conn.getresponse()
            body = resp.read()  # drain fully so the socket can be reused
            status = resp.status
            reusable = not resp.will_close
        except TimeoutError as exc:
            raise TransientSandboxError("transport: timeout") from exc
        except (http.client.HTTPException, ConnectionError, OSError) as exc:
            # includes RemoteDisconnected from a stale keep-alive socket:
            # the retry path dials a fresh connection
            raise TransientSandboxError(
                f"transport: {type(exc).__name__}: {exc}"
            ) from exc
        finally:
            self._release_conn(conn, reusable)
        if status >= 500:
            raise TransientSandboxError(f"http-{status}")
        if status >= 400:
            # caller bug with a structured body; not transient — surface
            # the same HTTPError urllib used to raise so callers keep
            # classifying on .code / reading the body
            raise urllib.error.HTTPError(
                f"{self.url}/execute",
                status,
                resp.reason,
                resp.headers,
                io.BytesIO(body),
            )
        if injector.fire(faults.SANDBOX_5XX):
            raise TransientSandboxError("injected: http-503")
        text = body.decode("utf-8")
        if injector.fire(faults.SANDBOX_GARBAGE):
            text = "{garbage//" + text[:24]
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise TransientSandboxError("garbage-json response") from exc


def _decode_result(doc: dict[str, Any]) -> ExecutionResult:
    result = ExecutionResult(
        ok=bool(doc.get("ok")),
        error_type=doc.get("error_type", ""),
        error_message=doc.get("error_message", ""),
    )
    if "result" in doc:
        result.result = frame_from_json(doc["result"])
    result.tables = {
        name: frame_from_json(t) for name, t in doc.get("tables", {}).items()
    }
    if doc.get("figure_svg"):
        result.meta["figure_svg"] = doc["figure_svg"]
    return result
