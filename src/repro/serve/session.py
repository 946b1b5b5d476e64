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
  byte-identical to the same questions asked through one-shot CLI runs.
  A session opened on a workdir that already holds runs continues past
  the highest ``rNNNN_`` run directory in it, so a restarted server
  (even one killed before it wrote ``sessions.json``) never reuses a run
  id and never mixes two runs into one provenance trail;
* **spend sums**: the tokens and USD of every request, read from the
  ``llm.chat`` spans of its own trace, so concurrent requests never
  cross-charge; ``/stats`` adds them up across sessions, and each
  request's trail keeps the per-chat detail.

:meth:`SessionRegistry.checkpoint` writes ``sessions.json``, a summary
of what this server's life served and spent, and is called by graceful
shutdown after the drain; nothing reads it back.
"""

from __future__ import annotations

import json
import re
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.durable import atomic_publish
from repro.util.text import slug

_SESSION_ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")
_RUN_DIR_RE = re.compile(r"^r(\d{4,})_")


def _highest_run_index(workdir: Path) -> int:
    """The index of the highest ``rNNNN_`` run directory in ``workdir``."""
    found = (_RUN_DIR_RE.match(path.name) for path in workdir.iterdir() if path.is_dir())
    return max((int(match.group(1)) for match in found if match), default=0)


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
    tokens: int = 0
    cost_usd: float = 0.0
    # the highest run index claimed so far, runs of earlier servers included
    last_index: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def next_run_id(self, question: str) -> tuple[int, str]:
        """Claim the next session-relative request index and its run id."""
        with self._lock:
            self.requests += 1
            self.last_index += 1
            index = self.last_index
        return index, f"r{index:04d}_{slug(question)}"

    def record_result(self, tokens: int, cost_usd: float, completed: bool) -> None:
        with self._lock:
            if completed:
                self.completed += 1
            else:
                self.failed += 1
            self.tokens += tokens
            self.cost_usd += cost_usd

    def as_dict(self) -> dict[str, Any]:
        with self._lock:
            return {
                "session_id": self.session_id,
                "workdir": str(self.workdir),
                "requests": self.requests,
                "completed": self.completed,
                "failed": self.failed,
                "total_tokens": self.tokens,
                "cost_usd": self.cost_usd,
            }


class SessionRegistry:
    """All live sessions."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.sessions_root = self.root / "sessions"
        self.sessions_root.mkdir(parents=True, exist_ok=True)
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
                workdir = self.sessions_root / session_id
                workdir.mkdir(parents=True, exist_ok=True)
                session = ServeSession(
                    session_id=session_id,
                    workdir=workdir,
                    last_index=_highest_run_index(workdir),
                )
                self._sessions[session_id] = session
            return session

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
            "total_tokens": sum(s.tokens for s in sessions),
            "cost_usd": sum(s.cost_usd for s in sessions),
        }

    def checkpoint(self) -> Path:
        """Persist the registry summary: one record per session."""
        doc = {"sessions": [s.as_dict() for s in self.sessions()]}
        target = self.root / "sessions.json"
        atomic_publish(target, json.dumps(doc, indent=2, sort_keys=True).encode())
        return target
