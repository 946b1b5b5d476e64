"""Execution trace events emitted by the graph engine."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any


@dataclass
class ExecutionEvent:
    """One node execution in a graph run.

    ``started_at``/``duration`` come from the graph's injected clock
    (``None`` for events that carry no timing, e.g. interrupts).
    """

    seq: int
    node: str
    status: str                 # 'ok' | 'error' | 'interrupt'
    updated_keys: list[str] = field(default_factory=list)
    detail: str = ""
    checkpoint_id: str | None = None
    started_at: float | None = None
    duration: float | None = None

    def as_dict(self) -> dict[str, Any]:
        return {
            "seq": self.seq,
            "node": self.node,
            "status": self.status,
            "updated_keys": self.updated_keys,
            "detail": self.detail,
            "checkpoint_id": self.checkpoint_id,
            "started_at": self.started_at,
            "duration": self.duration,
        }

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "ExecutionEvent":
        """Decode a document :meth:`as_dict` wrote (its only writer).

        One format: a document with other keys is refused by name rather
        than patched up with defaults.
        """
        if set(doc) != {f.name for f in fields(cls)}:
            raise ValueError(
                f"not an ExecutionEvent.as_dict() document (keys {sorted(doc)}): "
                f"the checkpoint was written by another version of this repo; "
                f"start the thread afresh"
            )
        return cls(**doc)
