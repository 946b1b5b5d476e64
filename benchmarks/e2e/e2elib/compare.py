"""``run.py --compare A.json B.json``: B against A, per the declared bounds.

For every (end-to-end metric, workload) pair the verdict is

* ``ok``         B's median is not worse than A's by more than the bound;
* ``worse``      it is;
* ``unresolved`` the spread between A's own repeats exceeds the bound, so
  the pair cannot tell a regression from noise -- unless every B value
  is better than every A value, which is ``ok`` whatever the spread.

The spread is the distance between the first and third quartile of A's
values over their median (``statistics.quantiles(values, n=4)``); with
fewer than four repeats it is the range over the median.  With a single
run in A there is no spread to measure, so a difference beyond the bound
is ``unresolved`` too: on the host this benchmark was sized for, two
single runs of one commit can differ by more than a bound (use
``--repeats``).  ``failed_share`` may not rise at all, and the exact
counts of the single-client workloads must be equal.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from . import spec


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    median = statistics.median(values)
    if median == 0:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / abs(median)
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / abs(median)


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[str, float, float]:
    """``(verdict, worse_by, spread_of_a)``; ``worse_by`` is the share of
    A's median by which B's median is worse (negative when better)."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    noise = spread(a)
    if noise > bound or (len(a) < 2 and worse_by > bound):
        all_better = max(b) < min(a) if better == "lower" else min(b) > max(a)
        return ("ok" if all_better else "unresolved"), worse_by, noise
    return ("worse" if worse_by > bound else "ok"), worse_by, noise


def _by_workload(path: Path) -> dict[str, list[dict]]:
    doc = json.loads(path.read_text())
    table: dict[str, list[dict]] = {}
    for result in doc["results"]:
        if not result["trace"]:
            table.setdefault(result["workload"], []).append(result)
    return table


def main(path_a: Path, path_b: Path) -> int:
    a_runs, b_runs = _by_workload(path_a), _by_workload(path_b)
    print(f"A = {path_a}\nB = {path_b}")
    print(f"{'workload':<12} {'metric':<14} {'A median':>12} {'B median':>12} {'B worse by':>11} "
          f"{'A spread':>9} {'bound':>6}  verdict")
    bad = 0
    for name in spec.WORKLOADS:
        if name not in a_runs or name not in b_runs:
            print(f"{name:<12} (not in both files)")
            continue
        for metric in spec.END_TO_END:
            a = [r["end_to_end"][metric["name"]] for r in a_runs[name]]
            b = [r["end_to_end"][metric["name"]] for r in b_runs[name]]
            v, worse_by, noise = verdict(a, b, metric["better"], metric["bound"])
            bad += v != "ok"
            print(f"{name:<12} {metric['name']:<14} {statistics.median(a):>12.6g} "
                  f"{statistics.median(b):>12.6g} {worse_by:>+11.1%} {noise:>9.1%} "
                  f"{metric['bound']:>6.0%}  {v}")
        share_a = max(r["failed"] / max(r["attempted"], 1) for r in a_runs[name])
        share_b = max(r["failed"] / max(r["attempted"], 1) for r in b_runs[name])
        v = "ok" if share_b <= share_a else "worse"
        bad += v != "ok"
        print(f"{name:<12} {'failed_share':<14} {share_a:>12.4f} {share_b:>12.4f} "
              f"{'':>11} {'':>9} {'any':>6}  {v}")
        if name in spec.SINGLE_CLIENT:
            by_seed = {r["seed"]: r["exact"] for r in a_runs[name]}
            same = all(by_seed.get(r["seed"], r["exact"]) == r["exact"] for r in b_runs[name])
            bad += not same
            print(f"{name:<12} {'exact counts':<14} {'':>12} {'':>12} {'':>11} {'':>9} {'equal':>6}  "
                  f"{'ok' if same else 'differ'}")
    print("all pairs ok" if not bad else f"{bad} pair(s) not ok")
    return 0 if not bad else 1
