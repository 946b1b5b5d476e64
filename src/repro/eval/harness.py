"""The 20 × 10 evaluation harness (Table 2).

"We tested each question 10 times without human feedback, either by
skipping human feedback or instructing the LLM to 'ignore missing
requirements and continue'."  Each run gets its own seed (fresh mock-LLM
error draws), its own provenance session, and its own analysis database;
metrics are judged by the programmatic oracle and aggregated into the
paper's row groups.

The harness fans the (question, run_index) grid out to a process pool
(``HarnessConfig.workers``).  Runs are fully independent by construction
— per-run seeds derive from a stable CRC32 digest of the question id, so
they are identical in every interpreter and in every worker process —
and results are merged back in canonical grid order, which makes the
parallel ``RunMetrics`` rows identical to a sequential run's (except the
measured wall-clock ``time_s``, which is a per-run measurement, not a
derived output).  All runs share one retrieval-artifact cache (see
:mod:`repro.rag.cache`) so only the first run per corpus pays the
column-corpus embedding cost, and one semantic query-result cache (see
:mod:`repro.db.cache`) so a SELECT executed in any run — or any redo
attempt — is served from memory or mmap everywhere else.  Both caches
count in the :mod:`repro.obs.metrics` registry, so their hit/miss
counters ride in each cell's metrics delta, and ``HarnessResult.perf``
reads them from the merged suite total.
"""

from __future__ import annotations

import json
import os
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from repro.agents.planner import AutoApprove
from repro.core import InferA, InferAConfig
from repro.db.cache import QueryCacheStats
from repro.durable import atomic_publish
from repro.eval.metrics import MetricsAggregator, RunMetrics, oracle_assess
from repro.eval.questions import (
    QUESTION_SUITE,
    EvalQuestion,
    classify_question,
)
from repro.faults import FaultProfile
from repro.llm.errors import ErrorModel
from repro.obs.events import replay_spans
from repro.obs.export import phase_rollups, write_jsonl
from repro.obs.metrics import (
    empty_snapshot,
    get_registry,
    merge_snapshots,
    snapshot_delta,
)
from repro.obs.tracer import TraceContext, Tracer, current_context, use_tracer
from repro.rag.cache import CacheStats
from repro.sim.ensemble import Ensemble
from repro.util.timing import SimulatedClock, WallClock


@dataclass
class HarnessConfig:
    runs_per_question: int = 10
    seed: int = 7
    error_model: ErrorModel = field(default_factory=ErrorModel)
    llm_latency_s: float = 0.0      # 0 keeps harness wall-time honest; >0 adds the simulated API latency
    keep_reports: bool = False
    # worker processes for the (question, run) grid; 1 = sequential,
    # 0 = one per CPU core; explicit values are honored as given
    workers: int = 1
    # chaos mode: a FaultProfile threaded into every run's InferAConfig.
    # Injected infrastructure faults are absorbed by the resilience layer,
    # so the metrics rows stay identical to a fault-free suite; fault and
    # recovery counters surface in ``HarnessPerf.fault_counters``.
    fault_profile: FaultProfile | None = None
    # per-session hard token budget threaded into every run's
    # InferAConfig; blown budgets end sessions as classified failures
    token_budget: int | None = None


@dataclass
class RunOutcome:
    """One grid cell's full result (what pool workers ship back)."""

    metrics: RunMetrics
    wall_s: float
    report: object | None = None
    # serialized spans of the cell (parented under the suite's root span,
    # so the parent process can merge every worker into one trace)
    spans: list[dict] = field(default_factory=list)
    # obs-metrics delta measured around the cell (cache counters
    # included); deltas from worker processes merge element-wise into
    # the suite total
    obs_metrics: dict = field(default_factory=empty_snapshot)


# the counters ``HarnessPerf.fault_counters`` reports, by name prefix
FAULT_COUNTER_PREFIXES = ("faults.", "resilience.", "checkpoint.corrupt",
                          "db.cache.quarantine", "storage.write_verify_retry")


@dataclass
class HarnessPerf:
    """Throughput and cache instrumentation for one ``run_suite`` call."""

    workers: int
    total_wall_s: float
    runs_per_s: float
    per_run_wall_s: list[float]
    # per-phase span rollups (spans/total_s/errors keyed by phase) over
    # the merged suite trace, plus the merged obs-metrics snapshot
    span_rollups: dict = field(default_factory=dict)
    obs_metrics: dict = field(default_factory=empty_snapshot)

    @property
    def cache(self) -> CacheStats:
        """Retrieval-cache tiers, read from the merged counters."""
        return CacheStats.from_counters(self.obs_metrics["counters"])

    @property
    def query_cache(self) -> QueryCacheStats:
        """Query-result-cache tiers, read from the merged counters."""
        return QueryCacheStats.from_counters(self.obs_metrics["counters"])

    @property
    def fault_counters(self) -> dict[str, int]:
        """Chaos accounting: injected faults and the recoveries that
        absorbed them, pulled from the merged obs-metrics counters."""
        return {
            name: value
            for name, value in sorted(self.obs_metrics["counters"].items())
            if name.startswith(FAULT_COUNTER_PREFIXES)
        }

    def as_dict(self) -> dict:
        return {
            "workers": self.workers,
            "total_wall_s": self.total_wall_s,
            "runs_per_s": self.runs_per_s,
            "per_run_wall_s": list(self.per_run_wall_s),
            "cache": self.cache.as_dict(),
            "query_cache": self.query_cache.as_dict(),
            "fault_counters": self.fault_counters,
            "span_rollups": dict(self.span_rollups),
            "obs_metrics": dict(self.obs_metrics),
        }


@dataclass
class HarnessResult:
    aggregator: MetricsAggregator
    metrics: list[RunMetrics]
    reports: list = field(default_factory=list)
    perf: HarnessPerf | None = None
    # the merged suite trace (suite root span + every cell's spans, in
    # canonical grid order) and where it was written on disk
    spans: list[dict] = field(default_factory=list)
    trace_path: Path | None = None

    def ranges(self) -> dict[str, tuple[float, float]]:
        """Per-query min/max of the §4.1.3/§4.1.4 resource metrics.

        The paper reports these as ranges over per-question averages
        (tokens 65k–178k, time 96–1412 s, storage 8 MB–4.9 GB).
        """
        per_question: dict[str, list[RunMetrics]] = {}
        for m in self.metrics:
            per_question.setdefault(m.qid, []).append(m)

        def span(metric: str) -> tuple[float, float]:
            averages = [
                sum(getattr(m, metric) for m in runs) / len(runs)
                for runs in per_question.values()
                if runs  # a question bucket with zero kept runs contributes nothing
            ]
            return (min(averages), max(averages)) if averages else (0.0, 0.0)

        return {
            "tokens": span("tokens"),
            "time_s": span("time_s"),
            "storage_bytes": span("storage_bytes"),
        }


def derive_seed(base_seed: int, qid: str, run_index: int) -> int:
    """Stable per-run seed for a (question, run) grid cell.

    Uses ``zlib.crc32`` rather than ``hash()``: Python's string hash is
    salted per interpreter (PYTHONHASHSEED), so the old derivation gave
    different seeds in every invocation — and in every pool worker.
    """
    return base_seed + 1000 * run_index + zlib.crc32(qid.encode("utf-8")) % 997


# ----------------------------------------------------------------------
# pool plumbing: one harness per worker process, built once in the
# initializer (fork or spawn), then driven cell by cell
# ----------------------------------------------------------------------
_WORKER_STATE: dict[str, "EvaluationHarness"] = {}


def _pool_init(ensemble_root: str, workdir: str, config: HarnessConfig) -> None:
    _WORKER_STATE["harness"] = EvaluationHarness(
        Ensemble(ensemble_root), workdir, config
    )


def _pool_execute(
    question: EvalQuestion, run_index: int, ctx: TraceContext | None
) -> RunOutcome:
    return _WORKER_STATE["harness"]._execute_cell(question, run_index, ctx)


class EvaluationHarness:
    def __init__(
        self,
        ensemble: Ensemble,
        workdir: str | Path,
        config: HarnessConfig | None = None,
        clock: WallClock | SimulatedClock | None = None,
    ):
        self.ensemble = ensemble
        self.workdir = Path(workdir)
        self.config = config or HarnessConfig()
        self.clock = clock or WallClock()

    # ------------------------------------------------------------------
    def resolve_workers(self, workers: int | None = None) -> int:
        requested = self.config.workers if workers is None else workers
        if requested <= 0:
            requested = os.cpu_count() or 1
        return max(1, requested)

    def run_suite(
        self,
        questions: tuple[EvalQuestion, ...] = QUESTION_SUITE,
        runs_per_question: int | None = None,
        workers: int | None = None,
    ) -> HarnessResult:
        runs = runs_per_question or self.config.runs_per_question
        n_workers = self.resolve_workers(workers)
        grid = [(question, run_index) for question in questions for run_index in range(runs)]

        # worker parity: pool workers start with empty in-process cache
        # tiers, so the main process must too — otherwise a sequential
        # suite could be served from memory warmed by earlier work in this
        # interpreter and diverge from a parallel run of the same grid.
        # Cross-suite reuse flows through the shared on-disk tier instead.
        from repro.db import cache as query_cache

        query_cache.clear_memory_cache()

        # the suite tracer owns the root span; its TraceContext is handed to
        # every cell — in both modes, so sequential and parallel runs build
        # the same span tree; like a session it hangs under whatever trace
        # is already active (the CLI's process span)
        tracer = Tracer(clock=self.clock, context=current_context())
        start = tracer.clock.now()
        with use_tracer(tracer), tracer.span(
            "harness.run_suite",
            questions=len(questions),
            runs_per_question=runs,
            workers=n_workers,
        ):
            ctx = tracer.context()
            if n_workers <= 1 or len(grid) <= 1:
                outcomes = [self._execute_cell(q, ri, ctx) for q, ri in grid]
            else:
                outcomes = self._run_parallel(grid, n_workers, ctx)
        total_wall = tracer.clock.now() - start

        # canonical-order merge: outcomes arrive in grid order regardless
        # of which worker finished first, so the row list is identical to
        # a sequential run's
        aggregator = MetricsAggregator()
        kept: list = []
        per_run_wall: list[float] = []
        all_spans: list[dict] = list(tracer.span_dicts())
        obs_total = empty_snapshot()
        for outcome in outcomes:
            aggregator.add(outcome.metrics)
            per_run_wall.append(outcome.wall_s)
            all_spans.extend(outcome.spans)
            obs_total = merge_snapshots(obs_total, outcome.obs_metrics)
            if outcome.report is not None:
                kept.append(outcome.report)
        trace_path = self.workdir / "trace.jsonl"
        write_jsonl(all_spans, trace_path)
        # persisted beside the trace so a later process (`repro cache stats`,
        # `repro sandbox stats`) can read the suite's counters
        atomic_publish(self.workdir / "metrics.json", json.dumps(obs_total, indent=1).encode())
        perf = HarnessPerf(
            workers=n_workers,
            total_wall_s=total_wall,
            runs_per_s=len(grid) / total_wall if total_wall > 0 else 0.0,
            per_run_wall_s=per_run_wall,
            span_rollups=phase_rollups(all_spans),
            obs_metrics=obs_total,
        )
        return HarnessResult(
            aggregator=aggregator,
            metrics=aggregator.rows,
            reports=kept,
            perf=perf,
            spans=all_spans,
            trace_path=trace_path,
        )

    def _run_parallel(
        self,
        grid: list[tuple[EvalQuestion, int]],
        n_workers: int,
        ctx: TraceContext,
    ) -> list[RunOutcome]:
        with ProcessPoolExecutor(
            max_workers=n_workers,
            initializer=_pool_init,
            initargs=(str(self.ensemble.root), str(self.workdir), self.config),
        ) as pool:
            futures = [pool.submit(_pool_execute, q, ri, ctx) for q, ri in grid]
            outcomes: list[RunOutcome] = []
            for future in futures:
                outcome = future.result()
                # cross-process propagation: a pickled context drops its
                # listener, so each cell's spans are handed to it here as
                # the future resolves — parenting rides on the span dicts'
                # parent_id, so the listener sees the same canonical tree
                # a sequential in-process run delivers
                replay_spans(ctx.listener, outcome.spans)
                outcomes.append(outcome)
            return outcomes

    # ------------------------------------------------------------------
    def _execute_cell(
        self,
        question: EvalQuestion,
        run_index: int,
        ctx: TraceContext | None = None,
    ) -> RunOutcome:
        """One grid cell: run, judge, classify, and measure."""
        obs_before = get_registry().snapshot()
        # a fresh tracer per cell (unique span-id prefix, so merged worker
        # traces never collide) parented under the suite's root span
        cell_tracer = Tracer(clock=self.clock, context=ctx)
        t0 = cell_tracer.clock.now()
        with use_tracer(cell_tracer), cell_tracer.span(
            "harness.cell", qid=question.qid, run_index=run_index
        ):
            report = self.run_once(question, run_index)
        wall = cell_tracer.clock.now() - t0
        data_ok, visual_ok = oracle_assess(report)
        classification = classify_question(question)
        metrics = RunMetrics(
            qid=question.qid,
            run_index=run_index,
            completed=report.completed,
            tasks_fraction=report.run.tasks_completed_fraction,
            data_ok=data_ok and report.run.tasks_completed_fraction > 0,
            visual_ok=visual_ok,
            tokens=report.tokens,
            storage_bytes=report.storage_bytes,
            time_s=report.time_s,
            redo_iterations=report.run.redo_iterations,
            plan_steps=classification.plan_steps,
            semantic_level=classification.semantic_level,
            analysis_level=classification.analysis_level,
            multi_run=classification.multi_run,
            multi_step=classification.multi_step,
        )
        return RunOutcome(
            metrics=metrics,
            wall_s=wall,
            report=report if self.config.keep_reports else None,
            spans=cell_tracer.span_dicts() + list(report.trace_spans),
            obs_metrics=snapshot_delta(get_registry().snapshot(), obs_before),
        )

    def run_once(self, question: EvalQuestion, run_index: int):
        """One seeded evaluation run of one question."""
        seed = derive_seed(self.config.seed, question.qid, run_index)
        app = InferA(
            self.ensemble,
            self.workdir / question.qid / f"run_{run_index:02d}",
            InferAConfig(
                seed=seed,
                error_model=self.config.error_model,
                llm_latency_s=self.config.llm_latency_s,
                retrieval_cache_dir=str(self.workdir / ".retrieval_cache"),
                query_cache_dir=str(self.workdir / ".query_cache"),
                fault_profile=self.config.fault_profile,
                token_budget=self.config.token_budget,
            ),
            clock=self.clock,
        )
        try:
            return app.run_query(question.text, feedback=AutoApprove())
        finally:
            app.close()  # a sandbox fleet's member servers die with the cell
