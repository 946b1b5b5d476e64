"""Process-local counters, kept where something reads them.

A fact about one unit of work (an LLM exchange, a SELECT, a sandbox
run, a retrieval, an ingest step) is an attribute of its span, and the
span tree is its one record.  A counter exists only for a reader that
cannot walk spans: ``/stats`` on a live server, the ``metrics.json`` a
harness or server leaves behind (``repro cache stats`` / ``repro
sandbox stats``), ``HarnessPerf``'s cache and chaos lines.  Counters
live in one process-local :class:`MetricsRegistry`; the evaluation
harness snapshots it around each grid cell and ships plain-dict deltas
back from worker processes, where :func:`merge_snapshots` adds them (so
shard merge order never matters).  A :class:`CounterView` subclass (the
caches' ``CacheStats`` / ``QueryCacheStats``) is a typed read of named
counters, from the live registry or from any snapshot.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Self


@dataclass
class Counter:
    """Monotonically increasing count."""

    name: str
    value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class MetricsRegistry:
    """Named counters for one process (get-or-create semantics)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.counters: dict[str, Counter] = {}

    def counter(self, name: str) -> Counter:
        with self._lock:
            inst = self.counters.get(name)
            if inst is None:
                inst = self.counters[name] = Counter(name)
            return inst

    def snapshot(self) -> dict[str, Any]:
        """Plain-dict copy of every counter (picklable, JSON-able)."""
        with self._lock:
            return {"counters": {n: c.value for n, c in self.counters.items()}}


def empty_snapshot() -> dict[str, Any]:
    return {"counters": {}}


def merge_snapshots(a: dict[str, Any], b: dict[str, Any]) -> dict[str, Any]:
    """Associative fold of two snapshots (counters add)."""
    out = dict(a["counters"])
    for name, value in b["counters"].items():
        out[name] = out.get(name, 0) + value
    return {"counters": out}


def snapshot_delta(after: dict[str, Any], before: dict[str, Any]) -> dict[str, Any]:
    """What happened between two snapshots of the same registry."""
    prior = before["counters"]
    return {"counters": {
        name: value - prior.get(name, 0)
        for name, value in after["counters"].items()
        if value != prior.get(name, 0)
    }}


class SnapshotUnreadable(ValueError):
    """A snapshot file that is torn or was not written as one."""


def read_snapshot_counters(path: Path) -> dict[str, float] | None:
    """The ``counters`` of a snapshot file such as ``metrics.json``, or
    None when there is no file; a torn or foreign file raises
    :class:`SnapshotUnreadable` naming the file and what is wrong."""
    if not path.is_file():
        return None
    try:
        counters = json.loads(path.read_bytes())["counters"]
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise SnapshotUnreadable(f"{path} is not JSON ({exc})") from None
    except (KeyError, TypeError):
        raise SnapshotUnreadable(f"{path} has no 'counters' section") from None
    if not isinstance(counters, dict) or not all(
        isinstance(v, (int, float)) for v in counters.values()
    ):
        raise SnapshotUnreadable(f"{path}: 'counters' is not a name-to-number map")
    return counters


# the process-wide registry library instrumentation records into
REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    return REGISTRY


def counter_field(name: str) -> Any:
    """A :class:`CounterView` field reading registry counter ``name``."""
    return field(default=0, metadata={"counter": name})


class CounterView:
    """A typed, read-only view of named registry counters.

    Subclass as a dataclass whose every field is a :func:`counter_field`;
    the registry stays the only store, so a view is always a read — of
    the live process (:meth:`read`) or of a snapshot's ``counters``
    section, such as a harness suite's merged cell deltas.
    """

    @classmethod
    def from_counters(cls, counters: dict[str, float]) -> Self:
        """Read from a snapshot's ``counters`` (an absent name is 0)."""
        return cls(**{f.name: int(counters.get(f.metadata["counter"], 0)) for f in fields(cls)})

    @classmethod
    def read(cls) -> Self:
        """The process-wide registry's current values."""
        return cls.from_counters(REGISTRY.snapshot()["counters"])

    def delta(self, earlier: Self) -> Self:
        """What happened between two reads of the same counters."""
        return type(self)(
            **{f.name: getattr(self, f.name) - getattr(earlier, f.name) for f in fields(self)}
        )

    def as_dict(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}
