"""Process-local counters, gauges, and fixed-bucket histograms.

The metrics layer answers the questions the paper's tables ask —
cumulative LLM tokens, retrieval volume, sandbox wall time, QA redo
count — continuously rather than post-hoc.  Instruments live in a
process-local :class:`MetricsRegistry`; the evaluation harness snapshots
the registry around each grid cell and ships plain-dict deltas back from
worker processes, where :func:`merge_snapshots` folds them (associatively,
so shard merge order never matters) alongside ``MetricsAggregator``.

Histograms use *fixed* bucket bounds so that two histograms of the same
name are always merge-compatible across processes: merging is element-wise
addition of bucket counts, which is what makes the fold associative.
"""

from __future__ import annotations

import bisect
import math
import threading
from dataclasses import dataclass, field
from typing import Any

from repro.obs.events import NULL_BUS, get_bus

# default bounds (seconds) for latency-shaped histograms
TIME_BUCKETS_S: tuple[float, ...] = (
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0
)
# default bounds for token-count histograms
TOKEN_BUCKETS: tuple[float, ...] = (100, 500, 1_000, 5_000, 10_000, 50_000, 100_000, 500_000)
# default bounds for small-integer counts (rows, redo iterations, ...)
COUNT_BUCKETS: tuple[float, ...] = (0, 1, 2, 5, 10, 50, 100, 1_000, 10_000)


@dataclass
class Counter:
    """Monotonically increasing count."""

    name: str
    value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount
        bus = get_bus()
        if bus is not NULL_BUS:
            bus.publish_counter(self.name, amount)


@dataclass
class Gauge:
    """Last-written value (queue depth, cache size, ...)."""

    name: str
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value


@dataclass
class Histogram:
    """Fixed-bucket histogram: ``counts[i]`` holds observations
    ``<= bounds[i]``; the final slot is the overflow bucket.

    Fixed buckets answer "what's the distribution shape" but report
    p0/p100 as bucket edges; the supplementary ``underflow`` count (how
    many observations fell strictly below ``bounds[0]`` — they still
    land in ``counts[0]``) and the streaming ``vmin``/``vmax`` give the
    exact extremes, which is what ``repro trace summary`` and the SLO
    gates quote as true p0/p100.
    """

    name: str
    bounds: tuple[float, ...] = TIME_BUCKETS_S
    counts: list[int] = field(default_factory=list)
    total: float = 0.0
    count: int = 0
    underflow: int = 0
    vmin: float = math.inf
    vmax: float = -math.inf

    def __post_init__(self) -> None:
        if not self.counts:
            self.counts = [0] * (len(self.bounds) + 1)
        if len(self.counts) != len(self.bounds) + 1:
            raise ValueError("counts length must be len(bounds) + 1")

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.total += value
        self.count += 1
        if value < self.bounds[0]:
            self.underflow += 1
        if value < self.vmin:
            self.vmin = value
        if value > self.vmax:
            self.vmax = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def min_value(self) -> float | None:
        """Exact smallest observation, or None when empty."""
        return self.vmin if self.count else None

    @property
    def max_value(self) -> float | None:
        """Exact largest observation, or None when empty."""
        return self.vmax if self.count else None

    def merge(self, other: "Histogram") -> "Histogram":
        if tuple(other.bounds) != tuple(self.bounds):
            raise ValueError(
                f"cannot merge histograms with different bounds: "
                f"{self.bounds} vs {other.bounds}"
            )
        self.counts = [a + b for a, b in zip(self.counts, other.counts)]
        self.total += other.total
        self.count += other.count
        self.underflow += other.underflow
        self.vmin = min(self.vmin, other.vmin)
        self.vmax = max(self.vmax, other.vmax)
        return self


class MetricsRegistry:
    """Named instruments for one process (get-or-create semantics)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        with self._lock:
            inst = self.counters.get(name)
            if inst is None:
                inst = self.counters[name] = Counter(name)
            return inst

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            inst = self.gauges.get(name)
            if inst is None:
                inst = self.gauges[name] = Gauge(name)
            return inst

    def histogram(self, name: str, bounds: tuple[float, ...] = TIME_BUCKETS_S) -> Histogram:
        with self._lock:
            inst = self.histograms.get(name)
            if inst is None:
                inst = self.histograms[name] = Histogram(name, tuple(bounds))
            return inst

    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """Plain-dict copy of every instrument (picklable, JSON-able)."""
        with self._lock:
            return {
                "counters": {n: c.value for n, c in self.counters.items()},
                "gauges": {n: g.value for n, g in self.gauges.items()},
                "histograms": {
                    n: {
                        "bounds": list(h.bounds),
                        "counts": list(h.counts),
                        "total": h.total,
                        "count": h.count,
                        "underflow": h.underflow,
                        # JSON has no inf: empty extremes serialize as None
                        "min": h.min_value,
                        "max": h.max_value,
                    }
                    for n, h in self.histograms.items()
                },
            }

    def merge_snapshot(self, snap: dict[str, Any]) -> None:
        """Fold a snapshot (e.g. shipped from a worker process) into live
        instruments."""
        for name, value in snap.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in snap.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, doc in snap.get("histograms", {}).items():
            hist = self.histogram(name, tuple(doc["bounds"]))
            hist.merge(_hist_from_doc(name, doc))

    def reset(self) -> None:
        with self._lock:
            self.counters.clear()
            self.gauges.clear()
            self.histograms.clear()


def _hist_from_doc(name: str, doc: dict[str, Any]) -> Histogram:
    """Decode a histogram snapshot dict: the seven keys ``snapshot`` and
    ``_hist_doc`` write, nothing less."""
    try:
        vmin, vmax = doc["min"], doc["max"]
        return Histogram(
            name,
            tuple(doc["bounds"]),
            list(doc["counts"]),
            doc["total"],
            doc["count"],
            doc["underflow"],
            math.inf if vmin is None else vmin,
            -math.inf if vmax is None else vmax,
        )
    except KeyError as exc:
        raise ValueError(
            f"histogram snapshot {name!r} has no {exc.args[0]!r} key: it was "
            f"written by another version of this repo; regenerate the snapshot"
        ) from None


def _hist_doc(h: Histogram) -> dict[str, Any]:
    return {
        "bounds": list(h.bounds),
        "counts": list(h.counts),
        "total": h.total,
        "count": h.count,
        "underflow": h.underflow,
        "min": h.min_value,
        "max": h.max_value,
    }


def empty_snapshot() -> dict[str, Any]:
    return {"counters": {}, "gauges": {}, "histograms": {}}


def merge_snapshots(a: dict[str, Any], b: dict[str, Any]) -> dict[str, Any]:
    """Associative fold of two snapshots (counters/histograms add; gauges
    take the right operand, matching 'last writer wins')."""
    out = {
        "counters": dict(a.get("counters", {})),
        "gauges": dict(a.get("gauges", {})),
        "histograms": {n: _hist_doc(_hist_from_doc(n, d))
                       for n, d in a.get("histograms", {}).items()},
    }
    for name, value in b.get("counters", {}).items():
        out["counters"][name] = out["counters"].get(name, 0) + value
    out["gauges"].update(b.get("gauges", {}))
    for name, doc in b.get("histograms", {}).items():
        mine = out["histograms"].get(name)
        if mine is None:
            out["histograms"][name] = _hist_doc(_hist_from_doc(name, doc))
            continue
        if list(mine["bounds"]) != list(doc["bounds"]):
            raise ValueError(f"histogram {name!r} bucket bounds differ across snapshots")
        merged = _hist_from_doc(name, mine).merge(_hist_from_doc(name, doc))
        out["histograms"][name] = _hist_doc(merged)
    return out


def snapshot_delta(after: dict[str, Any], before: dict[str, Any]) -> dict[str, Any]:
    """What happened between two snapshots of the same registry.

    Histogram extremes are not subtractable, so a delta carries the
    *after* snapshot's min/max — an over-wide bound for the interval,
    never an under-wide one, which is the safe direction for SLO checks.
    """
    delta = empty_snapshot()
    for name, value in after.get("counters", {}).items():
        diff = value - before.get("counters", {}).get(name, 0)
        if diff:
            delta["counters"][name] = diff
    delta["gauges"] = dict(after.get("gauges", {}))
    for name, doc in after.get("histograms", {}).items():
        prior = before.get("histograms", {}).get(
            name, {"bounds": doc["bounds"], "counts": [0] * len(doc["counts"]),
                   "total": 0.0, "count": 0, "underflow": 0}
        )
        counts = [a - b for a, b in zip(doc["counts"], prior["counts"])]
        if any(counts):
            delta["histograms"][name] = {
                "bounds": list(doc["bounds"]),
                "counts": counts,
                "total": doc["total"] - prior["total"],
                "count": doc["count"] - prior["count"],
                "underflow": doc.get("underflow", 0) - prior.get("underflow", 0),
                "min": doc.get("min"),
                "max": doc.get("max"),
            }
    return delta


# the process-wide registry library instrumentation records into
REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    return REGISTRY
