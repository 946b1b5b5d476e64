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
"""

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
    ProcessSpawner,
    SandboxFleet,
    ThreadSpawner,
    resolve_sandbox_workers,
)

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
    "ThreadSpawner",
    "ProcessSpawner",
    "resolve_sandbox_workers",
]
