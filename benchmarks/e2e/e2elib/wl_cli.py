"""``oneshot_cli``: cold ``python -m repro query`` processes.

This module never imports ``repro``: the runner process stays small, so
the peak RSS it reports is that of the CLI processes it starts.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from . import spec
from .measure import Calibrator, ClientLog, percentile, probe_p50
from .workload import CheckResult, Workload

PROCESS_TIMEOUT_S = 120.0
TRACED_LAUNCHER = spec.BENCH_DIR / "traced_cli.py"

_TOKENS_RE = re.compile(r"tokens: ([\d,]+)\s+storage: ([\d,]+) bytes")


def build_questions(seed: int, n: int) -> list[tuple[str, str]]:
    """``(class, question)``: five templates with seeded parameters that
    leave the amount of work alone (no plots, so no figure rendering)."""
    rng = np.random.default_rng([seed, 6])
    run = lambda: int(rng.integers(0, 4))   # noqa: E731
    templates = [
        ("topk", f"Can you find me the top {int(rng.choice([10, 20, 50]))} largest friends-of-friends "
                 f"halos from timestep {int(rng.choice([249, 374, 498]))} in simulation {run()}?"),
        ("count", f"How many halos are there in run {run()} at the final timestep?"),
        ("halo_avg", f"What is the average fof_halo_mass of halos at each time step in simulation {run()}?"),
        ("gal_avg", f"What is the average gal_gas_mass of galaxies at each time step in simulation {run()}?"),
        ("all_runs", "Across all the simulations, what is the average size (fof_halo_count) "
                     "of halos at each time step?"),
    ]
    return [templates[i % len(templates)] for i in range(n)]


def answer_block(stdout: str) -> str:
    """The run-invariant part of ``repro query`` output: completion, step
    count and the result table (the ``time:`` figure and paths vary)."""
    keep, in_table = [], False
    for line in stdout.splitlines():
        if line.startswith(("completed:", "steps:", "failure:")):
            keep.append(line)
        elif line.startswith("Frame["):
            in_table = True
        elif line.startswith(("figure:", "provenance:")):
            in_table = False
        if in_table:
            keep.append(line)
    return "\n".join(keep)


class OneshotCli(Workload):
    name = "oneshot_cli"
    QUESTIONS_PER_PASS = 5      # at scale 1.0
    trace_pairs = 1     # a pass costs ~1 s per op plus ~2.5 s of set-up

    def __init__(self, seed: int, scale: float, tiny: bool = False, memo: dict | None = None):
        super().__init__(seed, scale, tiny, memo)
        self.questions = build_questions(seed, max(2, round(self.QUESTIONS_PER_PASS * scale)))
        self.particles = 800 if tiny else 4000
        self.env = dict(os.environ)
        src = str(spec.ROOT / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in self.env.get("PYTHONPATH", "").split(os.pathsep) if p and p != src])

    def _repro(self, *argv: str, launcher: list[str] | None = None) -> subprocess.CompletedProcess:
        cmd = (launcher or [sys.executable, "-m", "repro"]) + list(argv)
        return subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                              timeout=PROCESS_TIMEOUT_S)

    def _query_argv(self, question: str, workdir: Path) -> list[str]:
        return ["query", question, "--ensemble", str(self.ensemble), "--workdir", str(workdir),
                "--seed", str(self.seed), "--no-errors"]

    def setup(self, pass_dir: Path, cal: Calibrator, traced: bool) -> None:
        self.pass_dir, self.traced = pass_dir, traced
        self.ensemble = pass_dir / "ensemble"
        t0 = time.perf_counter()
        done = self._repro("generate", "--out", str(self.ensemble), "--runs", "4",
                           "--particles", str(self.particles), "--seed", str(40_000 + self.seed))
        self.generate_wall_s = time.perf_counter() - t0
        if done.returncode != 0:
            raise RuntimeError(f"repro generate failed: {done.stderr[-500:]}")
        cal.maybe()
        # warm pass: bytecode caches written, files in the page cache
        warm = self._repro(*self._query_argv(self.questions[0][1], pass_dir / "warm"))
        if warm.returncode != 0:
            raise RuntimeError(f"warm repro query failed: {warm.stderr[-500:]}")

    def run(self) -> list[ClientLog]:
        log = ClientLog("scientist")
        self.outputs: list[subprocess.CompletedProcess | Exception] = []
        for i, (cls, question) in enumerate(self.questions):
            argv = self._query_argv(question, self.pass_dir / f"workdir{i}")
            launcher = None
            if self.traced:
                launcher = [sys.executable, str(TRACED_LAUNCHER), "run",
                            str(self.pass_dir / f"spans{i}.json"), log.op_key(i), str(i + 1)]
            self.outputs.append(log.run(cls, lambda: self._repro(*argv, launcher=launcher)))
        log.close()
        return [log]

    def extra_spans(self) -> list[dict]:
        spans: list[dict] = []
        for path in sorted(self.pass_dir.glob("spans*.json")):
            spans.extend(json.loads(path.read_text()))
        return spans

    def check(self, clients: list[ClientLog]) -> CheckResult:
        return check_cli(self.questions, clients[0], self.outputs, answers=self.memo)

    def layer_values(self) -> dict[str, float]:
        tokens, storage = [], []
        for out in self.outputs:
            match = None if isinstance(out, Exception) else _TOKENS_RE.search(out.stdout)
            if match:
                tokens.append(int(match.group(1).replace(",", "")))
                storage.append(int(match.group(2).replace(",", "")))
        n = max(len(tokens), 1)
        return {
            "llm.tokens": sum(tokens) / n,
            "provenance.bytes": sum(storage) / n,
            "sim.generate_s": self.generate_wall_s,
        }

    def run_values(self, traced: list, untraced: list) -> dict[str, float]:
        every = [log.calibrated(op) for record in traced + untraced for log in record.clients
                 for op in log.ops if op.ok]
        quartiles = statistics.quantiles(every, n=4)
        return {"cli.wall_iqr_s": quartiles[2] - quartiles[0]}

    def probes(self, cal: Calibrator) -> dict[str, float | str]:
        """Where a cold process's second goes: the bare interpreter, the
        import, ``--help``, and the same question with imports warm."""
        def checked(*argv: str, launcher: list[str] | None = None) -> subprocess.CompletedProcess:
            done = self._repro(*argv, launcher=launcher)
            if done.returncode != 0:
                raise RuntimeError(f"probe {argv[:1]} exited {done.returncode}: {done.stderr[-300:]}")
            return done

        floor = probe_p50(cal, lambda: checked("-c", "pass", launcher=[sys.executable]), 3)
        helped = probe_p50(cal, lambda: checked("--help"), 3)
        # the launcher's probe mode prints the import and the warm-import
        # session timings it took inside the child; each is calibrated by
        # the slowdown observed around that child
        log = ClientLog("probe", cal=cal)
        inner = []
        for i in range(3):
            out = log.run("inner", lambda: checked(
                *self._query_argv(self.questions[0][1], self.pass_dir / f"probe{i}"),
                launcher=[sys.executable, str(TRACED_LAUNCHER), "probe"]))
            if isinstance(out, Exception):
                raise out
            inner.append(json.loads(out.stdout.strip().splitlines()[-1]))
        log.close()
        slow = [cal.slowdown(op.t0, op.t1) for op in log.ops]
        return {
            "cli.interp_floor_s": floor,
            "cli.help_wall_s": helped,
            "cli.import_s": percentile([d["import_s"] / s for d, s in zip(inner, slow)], 0.5),
            "cli.query_session_s": percentile([d["query_session_s"] / s for d, s in zip(inner, slow)], 0.5),
        }


def check_cli(questions, log: ClientLog, outputs, answers: dict[str, str]) -> CheckResult:
    """Exit 0, and the answer block byte-equal across the repeats of a
    question (``answers`` carries it from pass to pass)."""
    failed, notes = 0, []
    for (cls, question), op, out in zip(questions, log.ops, outputs):
        if not op.ok:
            failed += 1
            notes.append(f"{cls}: {op.error.strip().splitlines()[-1]}")
            continue
        block = answer_block(out.stdout)
        if out.returncode != 0:
            failed += 1
            notes.append(f"{cls}: exit {out.returncode}: {out.stderr.strip()[-300:]}")
        elif "completed: True" not in block:
            failed += 1
            notes.append(f"{cls}: no completed answer in output")
        elif answers.setdefault(question, block) != block:
            failed += 1
            notes.append(f"{cls}: result table differs between repeats of the question")
    digest = hashlib.sha256("\n\n".join(sorted(answers.values())).encode()).hexdigest()
    return CheckResult(len(questions), failed, notes, exact={"answers_digest": digest})
