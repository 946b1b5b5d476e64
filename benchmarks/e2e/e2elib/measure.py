"""Timing primitives: calibrated op timing, percentiles, pass aggregation.

**Why times are calibrated.**  The 2-vCPU sandbox this benchmark is sized
for shares its physical cores, caches and memory bus with other tenants.
A fixed piece of work there runs anywhere between 1x and 1.8x its quiet
duration, and a slow spell lasts anywhere from a millisecond to minutes:
the median of a 10-second window of identical operations moves by 20-35 %
(quartile distance over median) from window to window, which would drown
every bound in ``BENCHMARK.json``.  So each thread that times operations
also times a small fixed kernel beside them (:class:`Calibrator`), and
every reported duration is the wall duration divided by the *slowdown*
observed around it: kernel time there and then, over the kernel's quiet
time on the host the benchmark was defined on (``_REFERENCE_S``).  The
result reads as seconds on that host when quiet.  On another machine all
numbers scale by one constant, which cancels in every parent-vs-change
comparison.  The window-to-window spread drops to 3-10 %.  Raw wall
seconds and the slowdown itself are kept in the result envelope.

The kernel has four parts, because the interference has more than one
dimension and the program's operations load them differently: an integer
loop (core), dict and string churn (allocator, branchy interpreter
paths), small numpy arrays (cache-resident vector work) and large numpy
arrays (memory bus).  A sample's slowdown is the geometric mean of the
four parts' ratios to their references.  Measured on the defining host
against a cache hit, a grouped aggregate, a scan, pure-Python planning
and a process start, no single part tracked all five; the mean of the
four did best overall.  The numpy parts release the GIL, so a thread
that shares the interpreter with other busy threads samples the two
pure-Python parts only (``threaded=True``): waiting to get the GIL back
would be counted as slowdown.

A run makes ``PASSES`` identical passes (fresh set-up, same seed, same
operations).  An operation's latency is the best of its calibrated
latencies over the passes; percentiles and rates are taken over those.
"""

from __future__ import annotations

import bisect
import math
import resource
import statistics
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

# re-sample when this much time has passed since the last sample; short
# ops share a sample pair, long ops are bracketed by their own
CAL_INTERVAL_S = 0.040

_now = time.perf_counter

# the op the calling thread is timing right now ("client#index"), read
# by the trace recorder to attribute spans; unset outside timed ops
current_op = threading.local()


def _part_int() -> float:
    t0 = _now()
    acc = 0
    for i in range(10_000):
        acc += i * i
    return _now() - t0


def _part_objects() -> float:
    t0 = _now()
    counts: dict[str, int] = {}
    pairs = []
    for i in range(1500):
        key = "k%d" % (i % 257)
        counts[key] = counts.get(key, 0) + i
        pairs.append((key, i))
    "".join(k for k, _ in sorted(counts.items()))
    return _now() - t0


_SMALL_A = np.random.default_rng(0).normal(size=16_384)
_SMALL_B = np.random.default_rng(1).normal(size=16_384)
_LARGE = np.random.default_rng(2).normal(size=1_000_000)
_LARGE_OUT = np.empty_like(_LARGE)


def _part_small_arrays() -> float:
    t0 = _now()
    _SMALL_B[_SMALL_A > 0.3].sum()
    np.unique((_SMALL_A * 4).astype(np.int64))
    return _now() - t0


def _part_large_arrays() -> float:
    t0 = _now()
    np.multiply(_LARGE, 1.0001, out=_LARGE_OUT)
    _LARGE_OUT.sum()
    return _now() - t0


_PARTS = (_part_int, _part_objects, _part_small_arrays, _part_large_arrays)
# each part's quiet duration on the defining host: the 3rd percentile of
# samples spread over several minutes there (constants, so that a run
# spent entirely in a slow spell is still scaled correctly)
_REFERENCE_S = (5.35e-4, 4.70e-4, 4.90e-4, 9.90e-4)


class Calibrator:
    """Samples the calibration kernel beside the ops of one thread."""

    def __init__(self, threaded: bool = False) -> None:
        self.threaded = threaded
        self.times: list[float] = []     # when each sample was taken
        self.values: list[float] = []    # slowdown at that moment
        self.cpu_s = 0.0                 # thread CPU spent sampling

    def sample(self) -> None:
        c0 = time.thread_time()
        parts = _PARTS[:2] if self.threaded else _PARTS
        logs = [math.log(part() / ref) for part, ref in zip(parts, _REFERENCE_S)]
        self.times.append(_now())
        self.values.append(math.exp(statistics.fmean(logs)))
        self.cpu_s += time.thread_time() - c0

    def maybe(self) -> None:
        if not self.times or _now() - self.times[-1] >= CAL_INTERVAL_S:
            self.sample()

    def slowdown(self, t0: float, t1: float) -> float:
        """Host slowdown over ``[t0, t1]``: mean of the samples inside
        the interval and the nearest one on either side."""
        if not self.values:
            raise ValueError("no calibration sample taken")
        lo = max(bisect.bisect_right(self.times, t0) - 1, 0)
        hi = min(bisect.bisect_left(self.times, t1), len(self.times) - 1)
        return statistics.fmean(self.values[lo : hi + 1] or [self.values[lo]])


def stretch_removed(wall: float, cpu_s: float, slowdown: float) -> float:
    """``wall`` with its on-CPU part divided by the host slowdown.

    The kernel measures how much slower code runs while it is on the CPU.
    Time spent waiting (fsync, a socket, a child not yet scheduled) does
    not stretch with that and is left as measured.
    """
    share = min(cpu_s / wall, 1.0) if wall > 0 else 0.0
    return wall * (share / slowdown + 1.0 - share)


def _cpu_user_sys() -> tuple[float, float]:
    """User and system CPU of the calling thread plus reaped children (an
    op that runs a subprocess is charged the child's CPU)."""
    own = resource.getrusage(resource.RUSAGE_THREAD)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + kids.ru_utime, own.ru_stime + kids.ru_stime


@dataclass
class OpSample:
    index: int
    cls: str            # op class, e.g. "hit", "agg", "hot"
    t0: float
    t1: float
    user_s: float = 0.0     # user-mode CPU of the calling thread + children
    sys_s: float = 0.0
    ok: bool = True
    error: str = ""


@dataclass
class ClientLog:
    """One closed-loop client's timed ops and its calibrator."""

    name: str
    cal: Calibrator = field(default_factory=Calibrator)
    ops: list[OpSample] = field(default_factory=list)
    # share of an op's wall spent on the CPU, for clients whose ops
    # execute on other threads (set per pass by the pass loop); ``None``
    # means each op's own measured CPU is used
    cpu_share: float | None = None

    def run(self, cls: str, fn: Callable[[], Any]) -> Any:
        """Time ``fn`` as this client's next op; an exception marks the
        op failed (its traceback is kept) and is returned, not raised."""
        self.cal.maybe()
        current_op.key = self.op_key(len(self.ops))
        u0, s0 = _cpu_user_sys()
        t0 = _now()
        try:
            out = fn()
            ok, error = True, ""
        except Exception as exc:  # boundary: the loop must reach the next op
            out, ok, error = exc, False, traceback.format_exc(limit=6)
        t1 = _now()
        u1, s1 = _cpu_user_sys()
        current_op.key = None
        self.ops.append(OpSample(len(self.ops), cls, t0, t1, u1 - u0, s1 - s0, ok, error))
        return out

    def op_key(self, index: int) -> str:
        return f"{self.name}#{index}"

    def close(self) -> None:
        self.cal.sample()  # every op needs a sample after it

    def calibrated(self, op: OpSample) -> float:
        """The op's wall, calibrated (see :func:`stretch_removed`)."""
        wall = op.t1 - op.t0
        cpu = op.user_s + op.sys_s if self.cpu_share is None else self.cpu_share * wall
        return stretch_removed(wall, cpu, self.cal.slowdown(op.t0, op.t1))


def probe_p50(cal: Calibrator, fn: Callable[[], Any], repeats: int) -> float:
    """Calibrated median duration of ``repeats`` calls of ``fn``, for
    direct probes; an exception in ``fn`` propagates."""
    log = ClientLog("probe", cal=cal)
    for _ in range(repeats):
        out = log.run("probe", fn)
        if isinstance(out, Exception):
            raise out
    log.close()
    return percentile([log.calibrated(op) for op in log.ops], 0.5)


def cpu_seconds() -> float:
    """User+system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child (Linux
    reports ``ru_maxrss`` in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the value at sorted index ceil(q*n)-1."""
    ordered = sorted(values)
    return ordered[percentile_index(len(ordered), q)]


def percentile_index(n: int, q: float) -> int:
    if n < 1:
        raise ValueError("percentile of an empty sample")
    return max(0, math.ceil(q * n) - 1)


@dataclass
class PassRecord:
    """What one pass (set-up + timed phase) measured."""

    traced: bool
    setup_wall_s: float
    setup_cpu_s: float                 # CPU during set-up, whole process tree
    setup_slowdown: float
    wall_s: float                      # timed phase, raw
    cpu_s: float                       # timed phase, user+system, calibrators excluded
    clients: list[ClientLog]
    rss_mb: float = 0.0                # peak RSS when the timed phase ended
    spans: list[dict] = field(default_factory=list)       # traced passes only

    @property
    def setup_s(self) -> float:
        return stretch_removed(self.setup_wall_s, self.setup_cpu_s, self.setup_slowdown)

    def slowdown_p50(self) -> float:
        return statistics.median(v for c in self.clients for v in c.cal.values)

    def op_count(self) -> int:
        return sum(len(c.ops) for c in self.clients)


def merged_latencies(passes: list[PassRecord]) -> dict[tuple[str, int], tuple[str, float]]:
    """``(client, op index) -> (class, best calibrated latency)`` over the
    passes in which that op succeeded.

    The best of the passes, not their median: what calibration leaves
    behind is one-sided (a spell the kernel samples missed only ever adds
    time), and on the defining host the minimum over three passes varied
    about half as much from run to run as the median did."""
    table: dict[tuple[str, int], list[float]] = {}
    classes: dict[tuple[str, int], str] = {}
    for record in passes:
        for client in record.clients:
            for op in client.ops:
                key = (client.name, op.index)
                classes[key] = op.cls
                if op.ok:
                    table.setdefault(key, []).append(client.calibrated(op))
    return {key: (classes[key], min(vals)) for key, vals in table.items()}


def class_table(passes: list[PassRecord]) -> dict[str, dict[str, float]]:
    """Per op class: count and p50 of the merged latencies."""
    by_class: dict[str, list[float]] = {}
    for cls, lat in merged_latencies(passes).values():
        by_class.setdefault(cls, []).append(lat)
    return {cls: {"ops": len(v), "p50_s": percentile(v, 0.5)} for cls, v in sorted(by_class.items())}


def end_to_end(passes: list[PassRecord]) -> dict[str, float]:
    """The end-to-end metrics of ``BENCHMARK.json`` from identical passes."""
    merged = merged_latencies(passes)
    if not merged:
        raise ValueError("no op succeeded in any pass")
    latencies = [lat for _cls, lat in merged.values()]
    per_client: dict[str, list[float]] = {}
    for (client, _index), (_cls, lat) in merged.items():
        per_client.setdefault(client, []).append(lat)
    # closed loop, no think time: a client's rate is its ops over the
    # sum of their latencies, and clients add
    rate = sum(len(v) / sum(v) for v in per_client.values())
    cpu_per_op = min(p.cpu_s / p.slowdown_p50() / max(p.op_count(), 1) for p in passes)
    return {
        "setup_s": statistics.median(p.setup_s for p in passes),
        "op_p50_s": percentile(latencies, 0.50),
        "op_p90_s": percentile(latencies, 0.90),
        "ops_per_s": rate,
        "cpu_s_per_op": cpu_per_op,
        # the high-water mark when the first timed phase ended: set-up and
        # the program's work, before any answer check allocated anything
        "peak_rss_mb": passes[0].rss_mb,
    }


def raw_summary(passes: list[PassRecord]) -> dict[str, Any]:
    """Uncalibrated numbers for the envelope, so a reader can undo the
    calibration and see how noisy the host was."""
    walls = [op.t1 - op.t0 for p in passes for c in p.clients for op in c.ops if op.ok]
    q = statistics.quantiles(walls, n=4) if len(walls) >= 2 else [walls[0]] * 3
    return {
        "op_wall_p50_s": percentile(walls, 0.5),
        "op_wall_p90_s": percentile(walls, 0.9),
        "op_wall_iqr_s": q[2] - q[0],
        "pass_wall_s": [p.wall_s for p in passes],
        # per pass and client: (class, wall, user CPU, system CPU, slowdown) of every op
        "ops": [
            {c.name: [(op.cls, op.t1 - op.t0, op.user_s, op.sys_s, c.cal.slowdown(op.t0, op.t1))
                      for op in c.ops] for c in p.clients}
            for p in passes
        ],
        "setup_wall_s": [p.setup_wall_s for p in passes],
        "pass_cpu_s": [p.cpu_s for p in passes],
        "host_slowdown_per_pass": [p.slowdown_p50() for p in passes],
    }
