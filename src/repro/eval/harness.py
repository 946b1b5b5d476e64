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
attempt — is served from memory or mmap everywhere else; hit/miss
counters for both land in ``HarnessResult.perf``.
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
from repro.db.cache import stats_snapshot as query_stats_snapshot
from repro.eval.metrics import MetricsAggregator, RunMetrics, oracle_assess
from repro.eval.questions import (
    QUESTION_SUITE,
    EvalQuestion,
    classify_question,
)
from repro.faults import FaultProfile
from repro.llm.errors import ErrorModel
from repro.obs.cost import CostLedger
from repro.obs.events import (
    NULL_BUS,
    JsonlSink,
    get_bus,
    replay_counters,
    replay_spans,
)
from repro.obs.export import phase_rollups, write_jsonl
from repro.obs.metrics import (
    empty_snapshot,
    get_registry,
    merge_snapshots,
    snapshot_delta,
)
from repro.obs.tracer import TraceContext, Tracer, current_context, use_tracer
from repro.rag.cache import CacheStats, stats_snapshot
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
    cache_stats: CacheStats
    wall_s: float
    report: object | None = None
    # semantic query-result cache counters (repro.db.cache) measured
    # around the cell, merged across workers like ``cache_stats``
    query_cache_stats: QueryCacheStats = field(default_factory=QueryCacheStats)
    # serialized spans of the cell (parented under the suite's root span,
    # so the parent process can merge every worker into one trace)
    spans: list[dict] = field(default_factory=list)
    # obs-metrics delta measured around the cell; deltas from worker
    # processes merge element-wise into the suite total
    obs_metrics: dict = field(default_factory=empty_snapshot)
    # the session's cost ledger (CostLedger.as_dict()); cell ledgers
    # merge entry-wise into the suite ledger like metrics snapshots
    cost: dict = field(default_factory=dict)


@dataclass
class HarnessPerf:
    """Throughput and cache instrumentation for one ``run_suite`` call."""

    workers: int
    total_wall_s: float
    runs_per_s: float
    per_run_wall_s: list[float]
    cache: CacheStats
    query_cache: QueryCacheStats = field(default_factory=QueryCacheStats)
    # per-phase span rollups (spans/total_s/errors keyed by phase) over
    # the merged suite trace, plus the merged obs-metrics snapshot
    span_rollups: dict = field(default_factory=dict)
    obs_metrics: dict = field(default_factory=empty_snapshot)
    # the suite cost ledger (CostLedger.as_dict()): every cell's session
    # ledger merged entry-wise, totals == Σ per-entry spend
    cost: dict = field(default_factory=dict)

    @property
    def fault_counters(self) -> dict[str, int]:
        """Chaos accounting: injected faults and the recoveries that
        absorbed them, pulled from the merged obs-metrics counters."""
        prefixes = ("faults.", "resilience.", "checkpoint.corrupt",
                    "db.cache.quarantine", "storage.write_verify_retry")
        return {
            name: value
            for name, value in sorted(self.obs_metrics.get("counters", {}).items())
            if name.startswith(prefixes)
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
            "cost": dict(self.cost),
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

        # streaming telemetry: when an event bus is active (repro eval
        # --live, serving layer), the trace file is written incrementally
        # by a JSONL sink as spans end, replacing the end-of-run export
        trace_path = self.workdir / "trace.jsonl"
        bus = get_bus()
        sink: JsonlSink | None = None
        if bus is not NULL_BUS:
            sink = JsonlSink(trace_path)
            bus.subscribe(sink)

        # the suite tracer owns the root span; its TraceContext is handed to
        # every cell — in both modes, so sequential and parallel runs build
        # the same span tree; like a session it hangs under whatever trace
        # is already active (the CLI's process span)
        tracer = Tracer(clock=self.clock, context=current_context())
        start = tracer.clock.now()
        try:
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
        finally:
            if sink is not None:
                bus.unsubscribe(sink)
                sink.close()

        # canonical-order merge: outcomes arrive in grid order regardless
        # of which worker finished first, so the row list is identical to
        # a sequential run's
        aggregator = MetricsAggregator()
        kept: list = []
        cache_total = CacheStats()
        query_cache_total = QueryCacheStats()
        suite_ledger = CostLedger()
        per_run_wall: list[float] = []
        all_spans: list[dict] = list(tracer.span_dicts())
        obs_total = empty_snapshot()
        for outcome in outcomes:
            aggregator.add(outcome.metrics)
            cache_total.merge(outcome.cache_stats)
            query_cache_total.merge(outcome.query_cache_stats)
            suite_ledger.merge(outcome.cost)
            per_run_wall.append(outcome.wall_s)
            all_spans.extend(outcome.spans)
            obs_total = merge_snapshots(obs_total, outcome.obs_metrics)
            if outcome.report is not None:
                kept.append(outcome.report)
        if sink is None:
            write_jsonl(all_spans, trace_path)
        suite_cost = suite_ledger.as_dict()
        # persisted beside the trace so `repro cost` / `repro slo check`
        # can read a suite's spend and exact histogram extremes post-hoc
        (self.workdir / "cost_ledger.json").write_text(json.dumps(suite_cost, indent=1))
        (self.workdir / "metrics.json").write_text(json.dumps(obs_total, indent=1))
        perf = HarnessPerf(
            workers=n_workers,
            total_wall_s=total_wall,
            runs_per_s=len(grid) / total_wall if total_wall > 0 else 0.0,
            per_run_wall_s=per_run_wall,
            cache=cache_total,
            query_cache=query_cache_total,
            span_rollups=phase_rollups(all_spans),
            obs_metrics=obs_total,
            cost=suite_cost,
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
        ctx: TraceContext | None,
    ) -> list[RunOutcome]:
        bus = get_bus()
        with ProcessPoolExecutor(
            max_workers=n_workers,
            initializer=_pool_init,
            initargs=(str(self.ensemble.root), str(self.workdir), self.config),
        ) as pool:
            futures = [pool.submit(_pool_execute, q, ri, ctx) for q, ri in grid]
            outcomes: list[RunOutcome] = []
            for future in futures:
                outcome = future.result()
                # cross-process propagation: fork children reset their
                # ambient bus (they must not write into inherited sinks),
                # so each cell's spans and counter deltas are re-published
                # here as the future resolves — parenting rides on the
                # span dicts' parent_id, so subscribers see the same
                # canonical tree a sequential in-process run publishes
                if bus is not NULL_BUS:
                    replay_spans(bus, outcome.spans)
                    replay_counters(bus, outcome.obs_metrics.get("counters", {}))
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
        stats_before = stats_snapshot()
        query_before = query_stats_snapshot()
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
            cache_stats=stats_snapshot().delta(stats_before),
            query_cache_stats=query_stats_snapshot().delta(query_before),
            wall_s=wall,
            report=report if self.config.keep_reports else None,
            spans=cell_tracer.span_dicts() + list(report.trace_spans),
            obs_metrics=snapshot_delta(get_registry().snapshot(), obs_before),
            cost=report.cost,
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
        return app.run_query(question.text, feedback=AutoApprove())
