#!/usr/bin/env python3
"""Checks the benchmark itself, at tiny sizes (about 30 s).

    PYTHONPATH=src python3 benchmarks/e2e/selfcheck.py
    PYTHONPATH=src python3 -m pytest benchmarks/e2e -q

Not part of the tier-1 suite.  It asserts that

* every name in ``BENCHMARK.json`` is well formed and is printed by
  ``run.py`` with its unit (end-to-end names by an untraced run,
  per-layer names by a traced one);
* every workload passes its answer check at tiny counts, two passes of
  one seed repeat every exact value (``eval.rows_digest``, cache and
  pruning counts, answer digests), and each answer check *rejects* a
  deliberately perturbed value: a wrong row count, a flipped byte, a
  lost append, a changed answer;
* the shares of ``sql_read`` and ``serve_mixed`` put the p50 and the p90
  index strictly inside one latency class.  Shares do not depend on the
  seed (seeds change literals, data and order, never the counts), so
  this holds for every seed; a full run prints the classes it measured
  at those indices.
"""

from __future__ import annotations

import copy
import json
import re
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from e2elib import measure, runner, spec, sqlmix  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")
TINY_SECONDS = 2.0
WORK = spec.OUTPUT_DIR / "selfcheck"


class Failures(list):
    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.append(what)


# ----------------------------------------------------------------------
def check_names(failures: Failures) -> None:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]] + [w["name"] for w in doc["workloads"]]
    for name in names:
        failures.expect(bool(NAME_RE.fullmatch(name)) and len(name) <= 64, f"malformed name {name!r}")
    failures.expect(len(set(names)) == len(names), "a name is used twice in BENCHMARK.json")
    failures.expect(doc["paths"] == ["benchmarks/e2e"], "paths is not ['benchmarks/e2e']")
    for trace, metrics in (("0", doc["end_to_end"]), ("1", doc["per_layer"])):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "ingest_live", "--tiny",
             "--seconds", str(TINY_SECONDS), "--passes", "1", "--trace", trace],
            capture_output=True, text=True, cwd=ROOT, timeout=120,
        )
        failures.expect(out.returncode == 0, f"run.py --trace {trace} exited {out.returncode}: {out.stderr[-300:]}")
        printed = {}
        for line in out.stdout.splitlines():
            parts = line.split()
            if len(parts) >= 3 and line.startswith("   "):
                printed[parts[0]] = parts[2]
        for metric in metrics:
            failures.expect(printed.get(metric["name"]) == metric["unit"],
                            f"{metric['name']} not printed with unit {metric['unit']} by --trace {trace}")
        last = json.loads(out.stdout.strip().splitlines()[-1])
        failures.expect(sorted(last) == ["attempted", "correct", "failed", "metrics"],
                        "last stdout line is not the result object")
        failures.expect(sorted(last["metrics"]) == sorted(m["name"] for m in metrics),
                        f"--trace {trace} result object does not carry exactly the declared metrics")


# ----------------------------------------------------------------------
def _inside_one_class(order: list[tuple[str, int]], q: float) -> bool:
    """``order`` lists latency classes cheapest first with their op
    counts; true when the index of percentile ``q`` and both neighbours
    fall in one class."""
    ranks = [cls for cls, n in order for _ in range(n)]
    i = measure.percentile_index(len(ranks), q)
    return len({ranks[max(i - 1, 0)], ranks[i], ranks[min(i + 1, len(ranks) - 1)]}) == 1


def check_percentile_placement(failures: Failures) -> None:
    from e2elib import wl_serve

    c = sqlmix.DEFAULT_COUNTS
    sql_order = [
        ("memory hit", c["hit"] + c["respell"]), ("diskhit", c["diskhit"]), ("point", c["point"]),
        ("narrow", c["narrow"]), ("zone", c["zone"]), ("distinct", c["distinct"]),
        ("scan", c["scan"]), ("agg", c["agg"]),
        ("heavy", c["bloom"] + c["topk"] + c["join"]),
    ]
    t = wl_serve.DEFAULT_PER_TENANT
    tenants = len(wl_serve.TENANTS)
    serve_order = [("light", tenants * (t["hot"] + t["unique"] + t["redo"])), ("heavy", tenants * t["heavy"])]
    for name, order in (("sql_read", sql_order), ("serve_mixed", serve_order)):
        for label, q in (("p50", 0.5), ("p90", 0.9)):
            failures.expect(_inside_one_class(order, q), f"{name}: the {label} index is on a class boundary")


# ----------------------------------------------------------------------
def _two_passes(name: str, failures: Failures) -> runner.PassOutcome:
    outcomes = runner.run_passes(name, seed=1, scale=TINY_SECONDS / 15.0, plan=[False, False],
                                 work_root=WORK / name, tiny=True, keep_dirs=True)
    for o in outcomes:
        failures.expect(o.check.failed == 0, f"{name}: answer check failed at tiny size: {o.check.notes[:2]}")
    if name in spec.SINGLE_CLIENT:
        failures.expect(outcomes[0].check.exact == outcomes[1].check.exact,
                        f"{name}: exact values differ between two passes of one seed")
    return outcomes[-1]


def check_sql_read(failures: Failures) -> None:
    import numpy as np
    from repro.frame import Frame
    from e2elib import wl_sql

    last = _two_passes("sql_read", failures)
    wl, log = last.workload, last.record.clients[0]
    target = next(i for i, s in enumerate(wl.mix.ops) if s.shape == "select" and wl.results[i].num_rows > 1)
    frame = wl.results[target]

    def rejected(replacement) -> bool:
        results = list(wl.results)
        results[target] = replacement
        return wl_sql.check_sql_results(wl.mix.ops, log, results, wl.tables, exact={}).failed == 1

    shorter = Frame({c: np.asarray(frame.column(c))[:-1] for c in frame.columns})
    failures.expect(rejected(shorter), "sql_read: a result with a wrong row count passed the check")
    flipped = {c: np.array(frame.column(c), copy=True) for c in frame.columns}
    first = flipped[frame.columns[0]]
    first.view(np.uint8)[0] ^= 1
    failures.expect(rejected(Frame(flipped)), "sql_read: a result with a flipped byte passed the check")


def check_ingest_live(failures: Failures) -> None:
    from e2elib import wl_sql

    last = _two_passes("ingest_live", failures)
    lost = wl_sql.check_ingest(last.workload, lose_append=True)
    failures.expect(lost.failed >= 1, "ingest_live: a lost append passed the durability check")


def check_eval_suite(failures: Failures) -> None:
    from e2elib import wl_eval

    last = _two_passes("eval_suite", failures)
    wl, log = last.workload, last.record.clients[0]
    failures.expect(wl_eval.check_eval(log, wl.rows[:-1]).failed == 1,
                    "eval_suite: a missing metrics row passed the check")
    changed = copy.deepcopy(wl.rows)
    changed[0]["tokens"] += 1
    failures.expect(wl_eval.rows_digest(changed) != wl_eval.rows_digest(wl.rows),
                    "eval_suite: rows_digest ignores a changed outcome")
    changed = copy.deepcopy(wl.rows)
    changed[0]["time_s"] += 1.0
    failures.expect(wl_eval.rows_digest(changed) == wl_eval.rows_digest(wl.rows),
                    "eval_suite: rows_digest depends on a time field")


def check_serve_mixed(failures: Failures) -> None:
    from e2elib import wl_serve

    last = _two_passes("serve_mixed", failures)
    wl, logs = last.workload, last.record.clients
    answers = {(log.name, op.index): wl_serve.answer_tables_digest(reply[1])
               for log, replies in zip(logs, wl.replies) for op, reply in zip(log.ops, replies)}

    def failed_with(edit) -> int:
        replies = copy.deepcopy(wl.replies)
        edit(replies)
        return wl_serve.check_serve(wl.plans, logs, replies, answers=dict(answers)).failed

    def change_answer(replies) -> None:
        tables = replies[1][0][1]["result"]["tables"]
        tables[next(iter(tables))] = {"changed": True}

    def server_error(replies) -> None:
        replies[0][0] = (500, {"status": "error", "error": "internal-error: injected"})

    failures.expect(failed_with(lambda replies: None) == 0, "serve_mixed: unchanged replies fail the check")
    failures.expect(failed_with(change_answer) == 1, "serve_mixed: a changed answer passed the check")
    failures.expect(failed_with(server_error) == 1, "serve_mixed: an HTTP 500 passed the check")


def check_oneshot_cli(failures: Failures) -> None:
    from e2elib import wl_cli

    last = _two_passes("oneshot_cli", failures)
    wl, log = last.workload, last.record.clients[0]
    answers = {q: wl_cli.answer_block(out.stdout) for (_c, q), out in zip(wl.questions, wl.outputs)}
    outputs = copy.copy(wl.outputs)
    text = outputs[0].stdout
    at = text.index("Frame[") + len("Frame[")
    outputs[0] = subprocess.CompletedProcess(outputs[0].args, 0, text[:at] + chr(ord(text[at]) ^ 1) + text[at + 1:], "")
    failures.expect(wl_cli.check_cli(wl.questions, log, outputs, dict(answers)).failed == 1,
                    "oneshot_cli: a flipped byte in a result table passed the check")
    outputs[0] = subprocess.CompletedProcess(wl.outputs[0].args, 1, wl.outputs[0].stdout, "boom")
    failures.expect(wl_cli.check_cli(wl.questions, log, outputs, dict(answers)).failed == 1,
                    "oneshot_cli: a non-zero exit passed the check")


# ----------------------------------------------------------------------
def run_all() -> list[str]:
    """Every check; returns the failures (empty when all hold)."""
    import shutil

    failures = Failures()
    in_process = (check_percentile_placement, check_sql_read, check_ingest_live,
                  check_eval_suite, check_serve_mixed)

    def sequentially() -> None:
        for check in in_process:
            check(failures)

    try:
        # the CLI and name checks spend their time in child processes, so
        # they overlap the in-process checks (which share this process's
        # query-cache state and therefore run one after another)
        with ThreadPoolExecutor(max_workers=3) as pool:
            jobs = [pool.submit(sequentially), pool.submit(check_oneshot_cli, failures),
                    pool.submit(check_names, failures)]
            for job in jobs:
                job.result()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    return list(failures)


if __name__ == "__main__":
    started = time.perf_counter()
    problems = run_all()
    for problem in problems:
        print(f"FAILED: {problem}")
    print(f"selfcheck: {'ok' if not problems else f'{len(problems)} failure(s)'} "
          f"in {time.perf_counter() - started:.1f} s")
    sys.exit(1 if problems else 0)
