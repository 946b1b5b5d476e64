#!/usr/bin/env python3
"""The repository's end-to-end benchmark: one command, five workloads.

    python3 benchmarks/e2e/run.py [--workload NAME]... [--seed N]
        [--seconds S] [--trace [0|1|both]] [--repeats N] [--out FILE]
    python3 benchmarks/e2e/run.py --compare A.json B.json

Each workload runs in its own child process.  Every metric named in
``BENCHMARK.json`` is printed with its unit; the last line of standard
output is one JSON object ``{correct, attempted, failed, metrics}``.
The exit code is non-zero when any answer check failed.  See README.md
beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"


def _fail(message: str) -> "NoReturn":  # noqa: F821
    print(f"run.py: {message}", file=sys.stderr)
    raise SystemExit(2)


if not (SRC / "repro" / "__init__.py").is_file():
    _fail(f"no program to measure: {SRC / 'repro'} is missing (run from a full checkout)")
if not (ROOT / "BENCHMARK.json").is_file():
    _fail(f"{ROOT / 'BENCHMARK.json'} is missing")
sys.path.insert(0, str(HERE))

from e2elib import compare, spec  # noqa: E402


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", action="append", choices=spec.WORKLOADS, metavar="NAME",
                   help=f"run only this workload (repeatable); one of {', '.join(spec.WORKLOADS)}")
    p.add_argument("--seed", type=int, default=1, help="workload seed: same seed, same inputs (default 1)")
    p.add_argument("--seconds", type=float, default=float(spec.RUN_SECONDS),
                   help="length the timed phase is sized for; op counts scale with it")
    p.add_argument("--trace", nargs="?", const="both", default="0", choices=("0", "1", "both"),
                   help="0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run; "
                        "both (or bare --trace): one run of each")
    p.add_argument("--repeats", type=int, default=1,
                   help="run each workload this many times on seeds seed, seed+1, ...")
    p.add_argument("--out", type=Path, help="write the result envelope (JSON) here")
    p.add_argument("--compare", nargs=2, type=Path, metavar=("A.json", "B.json"),
                   help="compare two result envelopes against the bounds and exit")
    # internal: the per-workload child process
    p.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    # internal: the selfcheck's reduced sizes
    p.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--passes", type=int, default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ----------------------------------------------------------------------
# child: one workload, in this process
# ----------------------------------------------------------------------
def child_main(args: argparse.Namespace) -> int:
    # One vCPU for the workload's whole process tree, before anything is
    # imported (numpy sizes its thread pools from the CPUs it may use).
    # This host's interference is per vCPU, so the calibration kernel only
    # describes the ops if both run on the same one; and how much of a
    # second, contended vCPU a run happens to get is itself the largest
    # noise there is (cold CLI processes ran 25 % faster when it was idle).
    # ``cpu_s_per_op`` is what shows a change that buys speed with cores.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    from e2elib import runner

    (name,) = args.workload
    work_root = spec.OUTPUT_DIR / "work" / f"{name}-{os.getpid()}"
    doc = runner.run_workload(name, args.seed, args.seconds, args.trace == "1", work_root,
                              tiny=args.tiny, **({"passes": args.passes} if args.passes else {}))
    args.child.write_text(json.dumps(doc))
    return 0


def run_child(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
              passes: int | None = None) -> dict:
    """Run one workload in a fresh interpreter and return its result."""
    spec.OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    tmp = spec.OUTPUT_DIR / "tmp"
    tmp.mkdir(exist_ok=True)
    result_path = spec.OUTPUT_DIR / f"result-{name}-{os.getpid()}.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["TMPDIR"] = str(tmp)   # nothing may be written outside the checkout
    cmd = [sys.executable, str(HERE / "run.py"), "--child", str(result_path), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if tiny:
        cmd.append("--tiny")
    if passes:
        cmd += ["--passes", str(passes)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=170)
        if proc.returncode != 0 or not result_path.is_file():
            raise RuntimeError(f"workload {name} child exited with {proc.returncode}")
        return json.loads(result_path.read_text())
    finally:
        result_path.unlink(missing_ok=True)


# ----------------------------------------------------------------------
# parent: orchestrate, print, write
# ----------------------------------------------------------------------
def envelope(args: argparse.Namespace) -> dict:
    import numpy

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "git_sha": sha,
        "git_sha_skipped": None if sha else "not a git checkout",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "repeats": args.repeats,
        "load_avg_1m": os.getloadavg()[0],
        "started_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "claim": None,
    }


def print_result(doc: dict) -> None:
    units = spec.UNITS
    name = doc["workload"]
    kind = "traced" if doc["trace"] else "untraced"
    print(f"\n== {name} (seed {doc['seed']}, {kind}, {doc['passes']} passes x {doc['ops_per_pass']} ops) ==")
    print(f"   ops attempted {doc['attempted']}  correct {doc['attempted'] - doc['failed']}  "
          f"failed {doc['failed']}  failed_share {doc['failed'] / max(doc['attempted'], 1):.4f}")
    for note in doc["notes"]:
        print(f"   FAILED: {note}")
    if doc["exact_repeats"] is False:
        print("   FAILED: exact counts differ between passes of one seed")
    metrics = doc["per_layer"] if doc["trace"] else doc["end_to_end"]
    for metric, value in metrics.items():
        reason = doc["skipped"].get(metric)
        shown = f"null {units[metric]}  (skipped: {reason})" if reason else f"{value:.6g} {units[metric]}"
        print(f"   {metric:<36} {shown}")
    if not doc["trace"]:
        classes = "  ".join(f"{c}:{v['ops']}@{v['p50_s'] * 1e3:.2f}ms" for c, v in doc["op_classes"].items())
        print(f"   op classes (ops @ p50): {classes}")
        at = doc["percentile_classes"]
        print(f"   classes at the p50 index and its neighbours: {at['p50']}; at the p90 index: {at['p90']}")
        raw = doc["raw"]
        print(f"   raw wall: op p50 {raw['op_wall_p50_s']:.6g} s, host slowdown per pass "
              f"{[round(x, 3) for x in raw['host_slowdown_per_pass']]}")
    for key, value in doc["exact"].items():
        print(f"   exact {key} = {value}")


def contract_line(docs: list[dict], prefix: bool) -> dict:
    """The last line of standard output: counts over every result, metric
    values from the first repeat of each (workload, trace) pair."""
    metrics: dict[str, dict] = {}
    for doc in (d for d in docs if d["repeat"] == 0):
        values = doc["per_layer"] if doc["trace"] else doc["end_to_end"]
        for metric, value in values.items():
            key = f"{doc['workload']}.{metric}" if prefix else metric
            metrics[key] = {"value": value, "unit": spec.UNITS[metric]}
    return {
        "correct": all(d["correct"] for d in docs),
        "attempted": sum(d["attempted"] for d in docs),
        "failed": sum(d["failed"] for d in docs),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    if args.compare:
        return compare.main(*args.compare)

    names = args.workload or list(spec.WORKLOADS)
    traces = {"0": [False], "1": [True], "both": [False, True]}[args.trace]
    env = envelope(args)
    docs: list[dict] = []
    for name in names:
        for repeat in range(args.repeats):
            for trace in traces:
                doc = run_child(name, args.seed + repeat, args.seconds, trace, tiny=args.tiny, passes=args.passes)
                doc["repeat"] = repeat
                print_result(doc)
                docs.append(doc)

    spans = {f"{d['workload']}/seed{d['seed']}": {"spans": d.pop("trace_spans"),
                                                   "op_self_times": d.pop("op_self_times")}
             for d in docs if d["trace"]}
    if spans:
        trace_path = spec.OUTPUT_DIR / "trace.json"
        trace_path.write_text(json.dumps(spans))
        print(f"\ntrace spans: {trace_path.relative_to(ROOT)}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"envelope": env, "results": docs}, indent=1))
        print(f"result envelope: {args.out}")

    prefix = len(names) > 1 or len(traces) > 1
    line = contract_line(docs, prefix)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
