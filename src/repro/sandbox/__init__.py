"""Sandboxed code execution (§3.2, §4.2.3).

The paper executes all generated code on *temporary data copies* inside an
isolated ASGI server, guaranteeing the ground-truth data is never modified
and returning either an error-free dataframe or a detailed error message.

This package provides the same contract:

* :mod:`repro.sandbox.safety` — an AST audit rejecting filesystem/network/
  process access, dunder traversal and unapproved imports before anything
  runs;
* :mod:`repro.sandbox.executor` — a restricted ``exec`` namespace over
  copied Frames, returning a structured :class:`ExecutionResult`;
* :mod:`repro.sandbox.server` / ``client`` — a stdlib HTTP JSON gateway
  mirroring the paper's Uvicorn/FastAPI deployment (keep-alive, one
  execution at a time), with an in-process client for tests and the
  evaluation harness;
* :mod:`repro.sandbox.fleet` — N warm gateway workers behind one client
  interface: least-loaded routing, per-worker circuit breakers, reap/
  respawn, and tiered degradation down to the in-process executor.

:func:`configured_sandbox` is the one place a configuration becomes one
of these.
"""

from typing import Any

from repro.sandbox.safety import audit_code, SafetyViolation
from repro.sandbox.executor import SandboxExecutor, ExecutionResult
from repro.sandbox.server import SandboxServer
from repro.sandbox.client import (
    HealthStatus,
    InProcessClient,
    SandboxClient,
    SandboxUnavailable,
)
from repro.sandbox.fleet import (
    FleetMember,
    FleetStats,
    ProcessSpawner,
    SandboxFleet,
    ThreadSpawner,
    resolve_sandbox_workers,
)


def configured_sandbox(config: Any, clock: Any = None) -> tuple[Any, str]:
    """The sandbox ``config`` selects, warmed, and a line describing it.

    ``config`` is an :class:`~repro.core.config.InferAConfig` (read for
    ``sandbox_workers``, ``sandbox_spawn``, ``sandbox_url`` and ``seed``).
    A fleet size (``REPRO_SANDBOX_WORKERS`` when the config has none)
    selects a warm :class:`SandboxFleet` whose members are health-probed;
    else a ``sandbox_url`` selects a probed :class:`SandboxClient`; else
    the in-process executor.  Both remote kinds degrade onto an
    in-process executor with the same tools.  The caller owns the
    sandbox and closes it when it has a ``close``.
    """
    # deferred: agents.tools pulls in the agent stack
    from repro.agents.tools import default_toolset

    local = InProcessClient(SandboxExecutor(tools=default_toolset()))
    workers = resolve_sandbox_workers(config.sandbox_workers)
    if workers:
        fleet = SandboxFleet.spawn_local(
            workers,
            mode=config.sandbox_spawn or "thread",
            fallback=local,
            clock=clock,
            seed=config.seed,
        )
        probe = fleet.warm()
        return fleet, f"fleet {probe['healthy']}/{probe['workers']} healthy ({probe['mode']})"
    if config.sandbox_url:
        client = SandboxClient(config.sandbox_url, clock=clock, seed=config.seed, fallback=local)
        return client, f"remote {client.health().detail}"
    return local, "in-process"


__all__ = [
    "audit_code",
    "SafetyViolation",
    "SandboxExecutor",
    "ExecutionResult",
    "SandboxServer",
    "SandboxClient",
    "InProcessClient",
    "HealthStatus",
    "SandboxUnavailable",
    "SandboxFleet",
    "FleetMember",
    "FleetStats",
    "ThreadSpawner",
    "ProcessSpawner",
    "resolve_sandbox_workers",
    "configured_sandbox",
]
