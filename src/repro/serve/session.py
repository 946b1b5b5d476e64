"""Per-session isolation over the shared warm state.

A *session* is one tenant's conversation with the server: its requests
share nothing writable with other sessions except the content-addressed
caches.  Each session owns

* a **workdir** under ``<server workdir>/sessions/<session id>``, so
  provenance trails, analysis databases, figures, and checkpoints of
  different tenants never collide;
* a **request counter** that names runs deterministically
  (``r0001_<slug>``, ``r0002_...``) — the session-relative index also
  seeds the request's RNG streams, which is what makes a served session
  byte-identical to the same questions asked through one-shot CLI runs;
* a **cost ledger**: every request's per-query ledger is merged into the
  session ledger (written to ``<session workdir>/cost_ledger.json`` on
  checkpoint) *and* into the server's aggregate ledger, so both "what
  did this tenant spend" and "what did the process spend" stay exact
  under interleaving — the contextvar-scoped ambient ledger guarantees
  concurrent requests never cross-charge.

:meth:`SessionRegistry.checkpoint` persists the registry (``sessions.json``
+ per-session ledgers) and is called by graceful shutdown after the
drain, so a restarted server can report on what past sessions spent.
"""

from __future__ import annotations

import json
import re
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.durable import atomic_publish
from repro.obs.cost import CostLedger


def _slug(text: str, max_len: int = 24) -> str:
    slug = re.sub(r"[^a-z0-9]+", "_", text.lower()).strip("_")
    return slug[:max_len] or "q"


_SESSION_ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


class InvalidSessionId(ValueError):
    """Session ids are path components; reject anything that isn't one."""


@dataclass
class ServeSession:
    """One tenant's isolated state."""

    session_id: str
    workdir: Path
    requests: int = 0
    completed: int = 0
    failed: int = 0
    ledger: CostLedger = field(default_factory=CostLedger)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def next_run_id(self, question: str) -> tuple[int, str]:
        """Claim the next session-relative request index and its run id."""
        with self._lock:
            self.requests += 1
            index = self.requests
        return index, f"r{index:04d}_{_slug(question)}"

    def record_result(self, cost: dict[str, Any], completed: bool) -> None:
        with self._lock:
            if completed:
                self.completed += 1
            else:
                self.failed += 1
        self.ledger.merge(cost)

    def as_dict(self) -> dict[str, Any]:
        with self._lock:
            return {
                "session_id": self.session_id,
                "workdir": str(self.workdir),
                "requests": self.requests,
                "completed": self.completed,
                "failed": self.failed,
                "total_tokens": self.ledger.total_tokens(),
                "cost_usd": self.ledger.total_cost_usd(),
            }

    def checkpoint(self) -> None:
        """Write this session's ledger to ``cost_ledger.json`` atomically."""
        atomic_publish(
            self.workdir / "cost_ledger.json",
            json.dumps(self.ledger.as_dict(), indent=2, sort_keys=True).encode(),
        )


class SessionRegistry:
    """All live sessions plus the server's aggregate ledger."""

    def __init__(self, root: str | Path, token_budget: int | None = None):
        self.root = Path(root)
        self.sessions_root = self.root / "sessions"
        self.sessions_root.mkdir(parents=True, exist_ok=True)
        self.token_budget = token_budget
        self.aggregate = CostLedger()
        self._sessions: dict[str, ServeSession] = {}
        self._lock = threading.Lock()

    def get_or_create(self, session_id: str) -> ServeSession:
        if not _SESSION_ID_RE.match(session_id):
            raise InvalidSessionId(
                f"invalid session id {session_id!r}: use 1-64 chars from "
                "[A-Za-z0-9._-], starting alphanumeric"
            )
        with self._lock:
            session = self._sessions.get(session_id)
            if session is None:
                session = ServeSession(
                    session_id=session_id,
                    workdir=self.sessions_root / session_id,
                    ledger=CostLedger(token_budget=self.token_budget),
                )
                session.workdir.mkdir(parents=True, exist_ok=True)
                self._sessions[session_id] = session
            return session

    def record_result(
        self, session: ServeSession, cost: dict[str, Any], completed: bool
    ) -> None:
        """Fold one request's ledger into its session and the aggregate."""
        session.record_result(cost, completed)
        self.aggregate.merge(cost)

    # ------------------------------------------------------------------
    def sessions(self) -> list[ServeSession]:
        with self._lock:
            return list(self._sessions.values())

    def stats(self) -> dict[str, Any]:
        sessions = self.sessions()
        return {
            "sessions": len(sessions),
            "requests": sum(s.requests for s in sessions),
            "completed": sum(s.completed for s in sessions),
            "failed": sum(s.failed for s in sessions),
            "total_tokens": self.aggregate.total_tokens(),
            "cost_usd": self.aggregate.total_cost_usd(),
        }

    def checkpoint(self) -> Path:
        """Persist every session ledger plus the registry summary."""
        sessions = self.sessions()
        for session in sessions:
            session.checkpoint()
        doc = {
            "sessions": [s.as_dict() for s in sessions],
            "aggregate": self.aggregate.as_dict(),
        }
        target = self.root / "sessions.json"
        atomic_publish(target, json.dumps(doc, indent=2, sort_keys=True).encode())
        return target
