"""The pass loop: runs one workload in this process and builds its result.

``run.py`` starts one child process per workload and calls
:func:`run_workload` there, so process-global state (the query-cache
LRU, the metrics registry, peak RSS) never leaks between workloads.
"""

from __future__ import annotations

import gc
import importlib
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from . import layers, measure, spec
from .measure import Calibrator, PassRecord
from .workload import PASSES, SIZED_FOR_SECONDS, CheckResult, Workload

_now = time.perf_counter


# workload name -> (module, class); imported on demand, because each module
# pulls in the part of repro it drives (and wl_cli must pull in none)
_WORKLOAD_CLASSES = {
    "oneshot_cli": ("wl_cli", "OneshotCli"),
    "eval_suite": ("wl_eval", "EvalSuite"),
    "serve_mixed": ("wl_serve", "ServeMixed"),
    "sql_read": ("wl_sql", "SqlRead"),
    "ingest_live": ("wl_sql", "IngestLive"),
}


def workload_class(name: str) -> type[Workload]:
    if name not in _WORKLOAD_CLASSES:
        raise ValueError(f"unknown workload {name!r}; known: {', '.join(_WORKLOAD_CLASSES)}")
    module, cls = _WORKLOAD_CLASSES[name]
    return getattr(importlib.import_module(f".{module}", __package__), cls)


@dataclass
class PassOutcome:
    workload: Workload              # the instance that ran this pass
    record: PassRecord
    check: CheckResult
    values: dict[str, Any]          # calibrated layer values and probes


def _one_pass(wl: Workload, pass_dir: Path, traced: bool, recorder: layers.Recorder,
              last: bool) -> PassOutcome:
    pass_dir.mkdir(parents=True)
    cal = Calibrator()
    cal.sample()
    t0, setup_cpu0 = _now(), measure.cpu_seconds()
    try:
        wl.setup(pass_dir, cal, traced)
        setup_wall = _now() - t0
        setup_cpu = measure.cpu_seconds() - setup_cpu0 - cal.cpu_s
        cal.sample()
        setup_slowdown = cal.slowdown(t0, t0 + setup_wall)
        if traced:
            recorder.install()
        gc.collect()
        cpu0, w0 = measure.cpu_seconds(), _now()
        try:
            clients = wl.run()
        finally:
            wall, cpu = _now() - w0, measure.cpu_seconds() - cpu0
            rss = measure.peak_rss_mb()
            if traced:
                recorder.uninstall()
        logs = wl.timed_logs(clients)
        for log in logs:
            if log.cal.threaded:
                # these clients' ops run on other threads of this process,
                # which take turns on one GIL: the share of an op's wall that
                # stretches is the share of the phase the process was on a CPU
                log.cpu_share = min(cpu / wall, 1.0)
        cpu -= sum(log.cal.cpu_s for log in logs)
    finally:
        wl.finish()
    record = PassRecord(traced, setup_wall, setup_cpu, setup_slowdown, wall, cpu, clients,
                        rss_mb=rss, spans=recorder.drain() + wl.extra_spans() if traced else [])
    check = wl.check(clients)
    slow = record.slowdown_p50()
    values: dict[str, Any] = {}
    for key, value in wl.layer_values().items():
        unit = spec.UNITS[key]
        values[key] = value / slow if unit == "s" else value * slow if unit.endswith("/s") else value
    if traced and last:
        values.update(wl.probes(cal))
    return PassOutcome(wl, record, check, values)


def run_passes(name: str, seed: int, scale: float, plan: list[bool], work_root: Path,
               tiny: bool = False, keep_dirs: bool = False) -> list[PassOutcome]:
    """One pass per entry of ``plan`` (``True`` = traced), each on a fresh
    workload instance and directory.  Pass directories are removed as
    soon as the pass is checked unless ``keep_dirs``."""
    recorder = layers.Recorder()
    outcomes: list[PassOutcome] = []
    memo: dict = {}     # answers confirmed by earlier passes of this run
    shutil.rmtree(work_root, ignore_errors=True)
    try:
        for i, traced in enumerate(plan):
            pass_dir = work_root / f"pass{i}"
            outcomes.append(_one_pass(workload_class(name)(seed, scale, tiny, memo), pass_dir, traced,
                                      recorder, last=i == len(plan) - 1))
            if not keep_dirs:
                shutil.rmtree(pass_dir, ignore_errors=True)
    except BaseException:
        shutil.rmtree(work_root, ignore_errors=True)
        raise
    if not keep_dirs:
        shutil.rmtree(work_root, ignore_errors=True)
    return outcomes


def run_workload(name: str, seed: int, seconds: float, trace: bool, work_root: Path,
                 tiny: bool = False, passes: int = PASSES) -> dict[str, Any]:
    """All passes of one workload; returns the result document."""
    scale = seconds / SIZED_FOR_SECONDS
    plan = [False] * passes
    if trace:
        # a traced run alternates untraced and traced passes at half the ops,
        # so the overhead ratio compares like with like within one process
        plan = [False, True] * workload_class(name).trace_pairs
        scale *= 0.5
    outcomes = run_passes(name, seed, scale, plan, work_root, tiny)
    return build_doc(name, seed, seconds, trace, outcomes)


def build_doc(name: str, seed: int, seconds: float, trace: bool,
              outcomes: list[PassOutcome]) -> dict[str, Any]:
    records = [o.record for o in outcomes]
    checks = [o.check for o in outcomes]
    untraced = [r for r in records if not r.traced]
    doc: dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "passes": len(outcomes),
        "ops_per_pass": records[0].op_count(),
        "attempted": sum(c.attempted for c in checks),
        "failed": sum(c.failed for c in checks),
        "notes": [n for c in checks for n in c.notes][:20],
        "exact": checks[0].exact,
        # every pass of one seed must repeat every exact value
        "exact_repeats": all(c.exact == checks[0].exact for c in checks[1:])
        if name in spec.SINGLE_CLIENT else None,
        "raw": measure.raw_summary(untraced),
        "skipped": {},
    }
    doc["correct"] = doc["failed"] == 0 and doc["exact_repeats"] is not False
    doc["end_to_end"] = measure.end_to_end(untraced)
    doc["op_classes"] = measure.class_table(untraced)
    doc["percentile_classes"] = percentile_classes(untraced)
    if trace:
        traced = [r for r in records if r.traced]
        per_layer, detail = _per_layer(outcomes[-1].workload, traced, untraced, outcomes[-1].values)
        doc["per_layer"] = per_layer
        doc["layers"] = detail["layers"]
        doc["skipped"] = detail["skipped"]
        doc["trace_spans"] = detail["spans"]
        doc["op_self_times"] = detail["op_self_times"]
    return doc


def percentile_classes(passes: list[PassRecord]) -> dict[str, list[str]]:
    """The classes of the ops at and beside the p50 and p90 indices (the
    selfcheck asserts each list names one class)."""
    ranked = sorted(measure.merged_latencies(passes).values(), key=lambda cv: cv[1])
    out = {}
    for label, q in (("p50", 0.5), ("p90", 0.9)):
        i = measure.percentile_index(len(ranked), q)
        out[label] = [ranked[j][0] for j in range(max(i - 1, 0), min(i + 2, len(ranked)))]
    return out


def _per_layer(wl: Workload, traced: list[PassRecord], untraced: list[PassRecord],
               last_values: dict[str, Any]) -> tuple[dict[str, float], dict[str, Any]]:
    """Every per-layer metric of ``BENCHMARK.json`` for this workload.

    Span-derived seconds come from the traced pass with the shortest
    timed phase, divided by that pass's host slowdown and by its op
    count, so they read as calibrated seconds per op.
    """
    best = min(traced, key=lambda r: r.wall_s / r.slowdown_p50())
    slow = best.slowdown_p50()
    summary = layers.summarise(best.spans)
    out: dict[str, float | str] = layers.span_metrics(summary, slow, max(best.op_count(), 1))
    # what the workload read from public stats in the last pass (a traced
    # one), its probes, and what it derives from the whole run
    out.update(last_values)
    out.update(wl.run_values(traced, untraced))
    op_walls = wl.op_walls(best.clients)    # keyed as the spans' ``op``
    out["obs.unattributed_share"] = layers.unattributed_share(best.spans, op_walls, wl.root_layer)
    out["obs.trace_overhead_ratio"] = (
        measure.end_to_end(traced)["op_p50_s"] / measure.end_to_end(untraced)["op_p50_s"]
    )
    out["obs.host_slowdown"] = statistics.median(r.slowdown_p50() for r in traced + untraced)

    # a probe the host cannot evaluate reports its reason in place of a number
    skipped = {k: v for k, v in out.items() if isinstance(v, str)}
    metrics: dict[str, float] = {}
    for metric in spec.PER_LAYER:
        value = out.get(metric["name"])
        if value is None or isinstance(value, str):
            skipped.setdefault(metric["name"], "not exercised by this workload")
            value = 0.0
        metrics[metric["name"]] = float(value)
    detail = {
        "layers": {k: {f: (v / slow if f.endswith("_s") else v) for f, v in agg.items()}
                   for k, agg in summary.items()},
        "skipped": skipped,
        "spans": best.spans,
        "op_self_times": layers.per_op_self_times(best.spans, op_walls),
    }
    return metrics, detail
