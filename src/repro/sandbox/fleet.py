"""Warm sandbox fleet: pooled code-execution workers behind one client.

After the serving layer landed, the single HTTP sandbox gateway was the
last serial resource in an otherwise parallel stack — every concurrent
session funnels its generated-code executions through one process.  The
fleet multiplies that resource: N warm :class:`SandboxServer` workers
(threads in-process, or separate ``python -m repro.sandbox``
processes), each fronted by its own :class:`SandboxClient` with its own
:class:`CircuitBreaker`, behind one fleet façade that speaks the same
``execute(code, tables)`` interface as a plain client.

**Routing** is least-loaded: the member with the fewest in-flight
requests wins, ties broken by the lower service-time EWMA, then the
lower index.  Routing picks *where* a request runs, never *what* it
computes — executions are pure functions of ``(code, tables)`` over
copied inputs — so concurrent fleet answers stay byte-identical to
sequential single-worker runs by construction.

**Degradation** is tier-by-tier:

1. *fleet* — the full pool is healthy and requests spread least-loaded;
2. *degraded* — a member whose classified execute fails (its breaker
   trips via the normal client ladder) is skipped, the request re-routes
   to surviving members; an open breaker half-opens after its reset
   timeout and the member's next routed request runs the classified
   ``health()`` probe before real traffic resumes; a member that stays
   unavailable for ``respawn_after`` consecutive routed attempts is
   reaped and respawned when the fleet owns a spawner;
3. *fallback* — with every member unavailable the request runs on the
   in-process fallback executor (identical semantics), or raises a
   classified :class:`SandboxUnavailable` when none is configured.

Every route/trip/respawn/fallback lands in ``repro.obs`` counters
(``sandbox.fleet.*``) and additive span attributes (``fleet_*``,
excluded from the canonical trace tree), surfacing in ``repro trace
summary``, ``repro sandbox stats``, and the serve ``/stats`` endpoint.
"""

from __future__ import annotations

import json
import os
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.durable import atomic_publish
from repro.frame import Frame
from repro.obs.logsetup import get_logger
from repro.obs.metrics import get_registry
from repro.obs.tracer import get_tracer
from repro.resilience import CircuitBreaker, ServiceEWMA
from repro.sandbox.client import InProcessClient, SandboxClient, SandboxUnavailable
from repro.sandbox.executor import ExecutionResult, SandboxExecutor
from repro.sandbox.server import SandboxServer
from repro.util.timing import SimulatedClock, WallClock

log = get_logger("sandbox.fleet")

FLEET_WORKERS_ENV = "REPRO_SANDBOX_WORKERS"

# per-worker breaker defaults: one failed execute walks the client's own
# retry ladder first, so the threshold counts *exhausted* ladders
DEFAULT_FAILURE_THRESHOLD = 3
DEFAULT_RESET_TIMEOUT_S = 2.0
DEFAULT_RESPAWN_AFTER = 2

# the shape of ``SandboxFleet.stats()`` / ``sandbox_fleet.json``; bump when
# it changes: ``repro sandbox stats`` reads this schema and no other
STATS_SCHEMA = 2


def resolve_sandbox_workers(explicit: int | None = None) -> int | None:
    """Fleet size: explicit knob > ``REPRO_SANDBOX_WORKERS`` > disabled.

    ``None`` (or an unset/invalid env var) disables the fleet entirely;
    ``0`` means one worker per core; a positive value is taken as-is
    (workers are latency-bound, not CPU-bound, so no core clamp).
    Negative values disable, like ``None``.
    """
    if explicit is None:
        env = os.environ.get(FLEET_WORKERS_ENV, "").strip()
        if not env:
            return None
        try:
            explicit = int(env)
        except ValueError:
            return None
    if explicit < 0:
        return None
    if explicit == 0:
        return max(1, os.cpu_count() or 1)
    return int(explicit)


# ----------------------------------------------------------------------
# spawners: how the fleet materializes a worker
# ----------------------------------------------------------------------
@dataclass
class WorkerHandle:
    """One spawned worker the fleet can address and kill."""

    url: str
    _kill: Callable[[], None]

    def kill(self) -> None:
        try:
            self._kill()
        except Exception:  # reaping must never take the fleet down
            log.debug("worker %s kill raised", self.url, exc_info=True)


class ThreadSpawner:
    """In-process workers: one :class:`SandboxServer` (daemon threads)
    per member.  Cheap to spawn — the spawner of the chaos suite —
    while still crossing a real HTTP socket boundary.
    """

    mode = "thread"

    def __init__(
        self,
        executor_factory: Callable[[], Any] | None = None,
        read_timeout_s: float = 30.0,
    ):
        self._executor_factory = executor_factory
        self.read_timeout_s = float(read_timeout_s)

    def _build_executor(self) -> Any:
        if self._executor_factory is not None:
            return self._executor_factory()
        # deferred: agents.tools pulls in the full agent stack
        from repro.agents.tools import default_toolset

        return SandboxExecutor(tools=default_toolset())

    def spawn(self, index: int) -> WorkerHandle:
        server = SandboxServer(
            executor=self._build_executor(),
            read_timeout_s=self.read_timeout_s,
        )
        server.start()
        return WorkerHandle(url=server.url, _kill=server.stop)


class ProcessSpawner:
    """Separate-process workers via ``python -m repro.sandbox``.

    The child prints ``SANDBOX_URL=<url>`` when its ephemeral port is
    bound; one that has not within ``spawn_timeout_s``, or exits first,
    is killed and reaped and the spawn raises a classified
    :class:`SandboxUnavailable` carrying the tail of its stderr.  Kill is
    terminate-then-wait.  This is the production shape — a crashed
    worker cannot take the host down — at the cost of a per-spawn
    interpreter boot.
    """

    mode = "process"

    def __init__(self, spawn_timeout_s: float = 60.0):
        self.spawn_timeout_s = float(spawn_timeout_s)

    def _command(self) -> list[str]:
        return [sys.executable, "-m", "repro.sandbox", "--port", "0"]

    def spawn(self, index: int) -> WorkerHandle:
        import subprocess
        import tempfile

        import repro

        env = dict(os.environ)
        src_root = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = (
            src_root + os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH")
            else src_root
        )
        # stderr to a file, not a pipe: nobody drains it while the member
        # serves, and it is only read when the member failed to start
        with tempfile.TemporaryFile() as errlog:
            proc = subprocess.Popen(
                self._command(),
                stdout=subprocess.PIPE,
                stderr=errlog,
                env=env,
                text=True,
            )
            # readline() has no timeout of its own: wait for it on a thread
            lines: list[str] = []
            reader = threading.Thread(
                target=lambda: lines.append(proc.stdout.readline()), daemon=True
            )
            reader.start()
            reader.join(self.spawn_timeout_s)
            line = lines[0] if lines else ""
            if not line.startswith("SANDBOX_URL="):
                try:
                    # stdout at EOF means the child is on its way out: let
                    # it finish, so the exit code reported is its own
                    rc = proc.wait(timeout=1.0 if lines else 0.0)
                except subprocess.TimeoutExpired:
                    rc = None
                    proc.kill()
                    proc.wait()
                reader.join()
                proc.stdout.close()
                errlog.seek(0)
                tail = errlog.read()[-2000:].decode(errors="replace").strip()
                why = (
                    f"exited {rc}" if rc is not None
                    else f"printed no SANDBOX_URL within {self.spawn_timeout_s:g} s"
                )
                raise SandboxUnavailable(
                    f"sandbox worker {index} failed to start ({why}, "
                    f"stdout {line!r}); stderr: {tail or '(empty)'}"
                )
        url = line.split("=", 1)[1].strip()

        def kill() -> None:
            proc.terminate()
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=5)

        return WorkerHandle(url=url, _kill=kill)


# ----------------------------------------------------------------------
# the fleet
# ----------------------------------------------------------------------
@dataclass
class FleetMember:
    """One worker slot: client + breaker + load/health accounting."""

    index: int
    client: Any
    handle: WorkerHandle | None = None
    in_flight: int = 0
    ewma: ServiceEWMA = field(default_factory=ServiceEWMA)
    routes: int = 0
    trips: int = 0
    respawns: int = 0
    consecutive_unavailable: int = 0

    @property
    def url(self) -> str:
        return getattr(self.client, "url", "<in-process>")

    def as_dict(self) -> dict[str, Any]:
        breaker = getattr(self.client, "breaker", None)
        return {
            "index": self.index,
            "url": self.url,
            "in_flight": self.in_flight,
            "ewma_s": round(self.ewma.value, 6),
            "breaker": breaker.state if breaker is not None else "none",
            "routes": self.routes,
            "trips": self.trips,
            "respawns": self.respawns,
            "consecutive_unavailable": self.consecutive_unavailable,
        }


class SandboxFleet:
    """N warm sandbox workers behind the single-client interface."""

    def __init__(
        self,
        clients: list[Any] | None = None,
        spawner: Any | None = None,
        workers: int | None = None,
        client_factory: Callable[[int, str], Any] | None = None,
        fallback: InProcessClient | None = None,
        clock: WallClock | SimulatedClock | None = None,
        seed: int = 0,
        timeout_s: float = 30.0,
        respawn_after: int = DEFAULT_RESPAWN_AFTER,
        stats_path: str | Path | None = None,
        checkpoint_every: int = 32,
    ):
        self.clock = clock or WallClock()
        self.seed = int(seed)
        self.timeout_s = float(timeout_s)
        self.spawner = spawner
        self.respawn_after = max(1, int(respawn_after))
        self.fallback = fallback
        self.stats_path = Path(stats_path) if stats_path else None
        self.checkpoint_every = max(1, int(checkpoint_every))
        self._client_factory = client_factory or self._make_client
        self._lock = threading.Lock()
        self._closed = False
        # lifetime accounting (member counters roll up independently)
        self.routes_total = 0
        self.trips_total = 0
        self.respawns_total = 0
        self.fallbacks_total = 0

        self.members: list[FleetMember] = []
        if clients is not None:
            for i, client in enumerate(clients):
                self.members.append(FleetMember(index=i, client=client))
        elif spawner is not None:
            for i in range(max(1, int(workers or 1))):
                handle = spawner.spawn(i)
                self.members.append(
                    FleetMember(
                        index=i,
                        client=self._client_factory(i, handle.url),
                        handle=handle,
                    )
                )
        else:
            raise ValueError("SandboxFleet needs either clients or a spawner")

    # -- construction ---------------------------------------------------
    @classmethod
    def spawn_local(
        cls,
        workers: int,
        mode: str = "thread",
        fallback: InProcessClient | None = None,
        executor_factory: Callable[[], Any] | None = None,
        stats_path: str | Path | None = None,
        clock: WallClock | SimulatedClock | None = None,
        seed: int = 0,
        timeout_s: float = 30.0,
        respawn_after: int = DEFAULT_RESPAWN_AFTER,
    ) -> "SandboxFleet":
        """Spawn ``workers`` members locally (``thread`` or ``process``)."""
        if mode == "process":
            spawner: Any = ProcessSpawner()
        elif mode == "thread":
            spawner = ThreadSpawner(executor_factory=executor_factory)
        else:
            raise ValueError(f"unknown fleet spawn mode {mode!r}")
        return cls(
            spawner=spawner,
            workers=workers,
            fallback=fallback,
            clock=clock,
            seed=seed,
            timeout_s=timeout_s,
            respawn_after=respawn_after,
            stats_path=stats_path,
        )

    @property
    def mode(self) -> str:
        return getattr(self.spawner, "mode", "external")

    def _make_client(self, index: int, url: str) -> SandboxClient:
        # no per-member fallback: degradation is the *fleet's* decision,
        # so a dead member surfaces as classified SandboxUnavailable here
        return SandboxClient(
            url,
            timeout_s=self.timeout_s,
            clock=self.clock,
            seed=self.seed,
            breaker=CircuitBreaker(
                failure_threshold=DEFAULT_FAILURE_THRESHOLD,
                reset_timeout_s=DEFAULT_RESET_TIMEOUT_S,
                clock=self.clock,
                name=f"sandbox-w{index}",
            ),
        )

    # -- boot probe ------------------------------------------------------
    def warm(self) -> dict[str, Any]:
        """Health-probe every member (the serve warm-up report line)."""
        probes = []
        for member in self.members:
            health = getattr(member.client, "health", None)
            if health is None:
                probes.append({"index": member.index, "url": member.url,
                               "ok": True, "detail": "no-probe"})
                continue
            status = health(timeout_s=min(self.timeout_s, 5.0))
            probes.append(
                {
                    "index": member.index,
                    "url": member.url,
                    "ok": bool(status),
                    "detail": status.detail,
                }
            )
        healthy = sum(1 for p in probes if p["ok"])
        self._checkpoint()
        return {
            "workers": len(self.members),
            "healthy": healthy,
            "mode": self.mode,
            "probes": probes,
        }

    # -- routing ---------------------------------------------------------
    def _route(self, exclude: set[int]) -> FleetMember | None:
        """Pick the least-loaded allowed member and charge it (atomic).

        Least in-flight wins; ties break on lower service-time EWMA,
        then lower index — fully deterministic for a given load state.
        An OPEN breaker past its reset timeout transitions to HALF_OPEN
        inside ``allow()``, so the pick *is* the half-open probe grant.
        """
        with self._lock:
            best: FleetMember | None = None
            best_key: tuple[float, float, int] | None = None
            for member in self.members:
                if member.index in exclude:
                    continue
                breaker = getattr(member.client, "breaker", None)
                if breaker is not None and not breaker.allow():
                    continue
                key = (float(member.in_flight), member.ewma.value, member.index)
                if best_key is None or key < best_key:
                    best, best_key = member, key
            if best is not None:
                best.in_flight += 1
            return best

    # -- the client interface -------------------------------------------
    def execute(self, code: str, tables: dict[str, Frame]) -> ExecutionResult:
        """Route one execution; skip tripped members; degrade tier-by-tier."""
        tried: set[int] = set()
        while True:
            member = self._route(tried)
            if member is None:
                break
            t0 = self.clock.now()
            try:
                result = member.client.execute(code, tables)
            except SandboxUnavailable as exc:
                self._note_unavailable(member, exc)
                tried.add(member.index)
                continue
            finally:
                with self._lock:
                    member.in_flight = max(0, member.in_flight - 1)
            self._note_success(member, self.clock.now() - t0, degraded=bool(tried))
            return result
        return self._fallback_execute(code, tables)

    # -- outcome accounting ----------------------------------------------
    def _note_success(self, member: FleetMember, elapsed_s: float, degraded: bool) -> None:
        with self._lock:
            member.ewma.observe(elapsed_s)
            member.consecutive_unavailable = 0
            member.routes += 1
            self.routes_total += 1
            routes = self.routes_total
        get_registry().counter("sandbox.fleet.routes").inc()
        span = get_tracer().current()
        if span is not None:
            attrs = span.attributes
            attrs["fleet_routes"] = int(attrs.get("fleet_routes", 0)) + 1
            attrs["fleet_worker"] = member.index
            attrs["fleet_tier"] = "degraded" if degraded else "fleet"
        if routes % self.checkpoint_every == 0:
            self._checkpoint()

    def _note_unavailable(self, member: FleetMember, exc: BaseException) -> None:
        with self._lock:
            member.trips += 1
            member.consecutive_unavailable += 1
            self.trips_total += 1
            should_respawn = (
                self.spawner is not None
                and member.consecutive_unavailable >= self.respawn_after
            )
        get_registry().counter("sandbox.fleet.trips").inc()
        span = get_tracer().current()
        if span is not None:
            attrs = span.attributes
            attrs["fleet_trips"] = int(attrs.get("fleet_trips", 0)) + 1
        log.warning("fleet worker %d (%s) unavailable: %s", member.index, member.url, exc)
        if should_respawn:
            self._respawn(member)
        self._checkpoint()

    def _respawn(self, member: FleetMember) -> None:
        """Reap a repeatedly-failing member and put a fresh worker in its
        slot (new server, new client, new breaker, reset EWMA)."""
        if member.handle is not None:
            member.handle.kill()
        close = getattr(member.client, "close", None)
        if callable(close):
            close()
        try:
            handle = self.spawner.spawn(member.index)
        except Exception as exc:  # spawn failure: slot stays dead until next trip
            log.warning("fleet worker %d respawn failed: %s", member.index, exc)
            return
        with self._lock:
            member.handle = handle
            member.client = self._client_factory(member.index, handle.url)
            member.ewma.reset()
            member.consecutive_unavailable = 0
            member.respawns += 1
            self.respawns_total += 1
        get_registry().counter("sandbox.fleet.respawns").inc()
        span = get_tracer().current()
        if span is not None:
            attrs = span.attributes
            attrs["fleet_respawns"] = int(attrs.get("fleet_respawns", 0)) + 1
        log.warning("fleet worker %d respawned at %s", member.index, handle.url)

    def _fallback_execute(self, code: str, tables: dict[str, Frame]) -> ExecutionResult:
        if self.fallback is None:
            raise SandboxUnavailable(
                f"all {len(self.members)} sandbox fleet workers unavailable "
                f"and no fallback executor is configured"
            )
        with self._lock:
            self.fallbacks_total += 1
        registry = get_registry()
        registry.counter("sandbox.fleet.fallbacks").inc()
        registry.counter("resilience.fallbacks").inc()
        registry.counter("resilience.fallbacks.sandbox").inc()
        span = get_tracer().current()
        if span is not None:
            attrs = span.attributes
            attrs["fleet_fallbacks"] = int(attrs.get("fleet_fallbacks", 0)) + 1
            attrs["fleet_tier"] = "fallback"
        log.warning(
            "sandbox fleet fully unavailable; degraded to in-process executor"
        )
        self._checkpoint()
        return self.fallback.execute(code, tables)

    # -- introspection ---------------------------------------------------
    def stats(self) -> dict[str, Any]:
        with self._lock:
            return {
                "schema": STATS_SCHEMA,
                "workers": len(self.members),
                "mode": self.mode,
                "members": [m.as_dict() for m in self.members],
                "lifetime": {
                    "routes": self.routes_total,
                    "trips": self.trips_total,
                    "respawns": self.respawns_total,
                    "fallbacks": self.fallbacks_total,
                },
            }

    def _checkpoint(self) -> None:
        """Atomically snapshot ``stats()`` for ``repro sandbox stats``."""
        if self.stats_path is None:
            return
        doc = json.dumps(self.stats(), indent=2, sort_keys=True)
        try:
            # called from every routing thread, outside the lock: each call
            # writes its own temp file, so snapshots cannot tear each other
            atomic_publish(self.stats_path, doc.encode())
        except OSError:  # telemetry write failures never break requests
            log.debug("fleet stats checkpoint failed", exc_info=True)

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        """Kill every worker and drop pooled connections (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._checkpoint()
        for member in self.members:
            close = getattr(member.client, "close", None)
            if callable(close):
                close()
            if member.handle is not None:
                member.handle.kill()

    def __enter__(self) -> "SandboxFleet":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
