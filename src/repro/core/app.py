"""The InferA assistant façade.

Wires the full two-stage workflow over a HACC-style ensemble:

1. *Planning* — the planning agent interprets the question (chain of
   thought + structured intent), proposes a step-by-step plan, and loops
   on human feedback until approval.
2. *Analysis* — the supervisor executes the approved plan through the
   specialized agents with sandboxed execution, QA revision loops, and
   full provenance tracking.

Each query gets its own provenance session directory and its own on-disk
analysis database; ``QueryReport`` carries every number the paper's
evaluation tables are computed from.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from pathlib import Path

from repro.agents import (
    AgentContext,
    DataLoadingAgent,
    PlanningAgent,
    Supervisor,
)
from repro.agents.planner import FeedbackProvider, PlanningResult
from repro.agents.supervisor import RunReport
from repro.db import Database
from repro.faults import FaultInjector, FaultProfile, use_faults
from repro.frame import Frame
from repro.graph.checkpoint import DurableCheckpointer
from repro.llm import MockLLM
from repro.llm.base import MeteredModel
from repro.obs.names import PLAN_SPAN, SESSION_SPAN
from repro.obs.tracer import Tracer, current_context, use_tracer
from repro.resilience import BudgetExceeded
from repro.provenance import ProvenanceTracker
from repro.rag import ColumnRetriever, RetrievalArtifactCache
from repro.sandbox import configured_sandbox
from repro.sim.ensemble import Ensemble
from repro.util.text import slug
from repro.util.timing import SimulatedClock, WallClock
from repro.sim.schema import (
    COLUMN_DESCRIPTIONS,
    FILE_STRUCTURE_DESCRIPTIONS,
    IMPORTANT_COLUMNS,
)
from repro.core.config import InferAConfig


@dataclass
class QueryReport:
    """Everything one query produced."""

    run: RunReport
    plan: PlanningResult
    session_dir: Path
    db_bytes: int
    # the session's execution trace as serialized span dicts (also written
    # to the provenance trail as a kind="trace" JSONL artifact); its
    # llm.chat spans are the session's spend (repro.obs.export.llm_spend)
    trace_spans: list[dict] = field(default_factory=list)

    # convenience passthroughs -----------------------------------------
    @property
    def completed(self) -> bool:
        return self.run.completed

    @property
    def tokens(self) -> int:
        return self.run.tokens

    @property
    def storage_bytes(self) -> int:
        return self.run.storage_bytes

    @property
    def time_s(self) -> float:
        return self.run.time_s

    @property
    def figures(self) -> list[str]:
        return self.run.figures

    @property
    def tables(self) -> dict[str, Frame]:
        return self.run.tables

    @property
    def analysis_steps(self) -> int:
        return self.run.analysis_steps


class InferA:
    """A smart assistant for cosmological ensemble data."""

    def __init__(
        self,
        ensemble: Ensemble,
        workdir: str | Path,
        config: InferAConfig | None = None,
        llm=None,
        clock: WallClock | SimulatedClock | None = None,
        retriever: ColumnRetriever | None = None,
        sandbox=None,
    ):
        self.ensemble = ensemble
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.config = config or InferAConfig()
        self._llm_factory = llm
        # the single clock every timed component of a query shares
        # (tracer spans, provenance timestamps, supervisor wall time)
        self.clock = clock or WallClock()
        self._query_count = 0
        self._count_lock = threading.Lock()
        # process-wide read-only warm state may be injected by a host that
        # shares it across many apps (the serving layer builds the
        # retriever and sandbox once at warm-up and hands them to every
        # per-request app); when absent they are built on the first query
        # and shared by every query of this app, and close() releases the
        # sandbox the app built (a fleet's workers)
        self.sandbox = sandbox
        self._owns_sandbox = sandbox is None
        # the metadata dictionaries come straight from the ensemble manifest
        # when present (new datasets plug in by shipping their own)
        manifest = ensemble.manifest
        self.column_descriptions = manifest.get("column_descriptions", COLUMN_DESCRIPTIONS)
        self.structure = manifest.get("structure", FILE_STRUCTURE_DESCRIPTIONS)
        cache_dir = self.config.retrieval_cache_dir or self.workdir / ".retrieval_cache"
        self._retrieval_cache = RetrievalArtifactCache(cache_dir)
        self._retriever: ColumnRetriever | None = retriever
        # chaos engineering: one injector per app so every query of a run
        # draws from the same deterministic per-fault-point schedule.  An
        # explicit profile wins; otherwise REPRO_FAULT_PROFILE (resolved
        # here, never in library code, so unit tests stay fault-free).
        profile = self.config.fault_profile
        if profile is None:
            profile = FaultProfile.from_env(seed=self.config.seed)
        self.fault_injector = FaultInjector(profile)

    # ------------------------------------------------------------------
    def _build_context(
        self, session_id: str, tracer: Tracer, query_index: int | None = None
    ) -> tuple[AgentContext, Database]:
        cfg = self.config
        if query_index is None:
            query_index = self._query_count
        base_llm = self._llm_factory or MockLLM(
            seed=cfg.seed + query_index,
            error_model=cfg.error_model,
            latency_per_call_s=cfg.llm_latency_s,
        )
        if callable(self._llm_factory):
            base_llm = self._llm_factory(cfg.seed + query_index)
        # the corpus is fixed for the ensemble, so the retriever (and its
        # embedding matrix, shared on disk across processes) is built once
        # per app and reused by every query
        if self._retriever is None:
            self._retriever = ColumnRetriever(
                self.column_descriptions,
                self.structure,
                important=IMPORTANT_COLUMNS,
                cache=self._retrieval_cache,
            )
        retriever = self._retriever
        provenance = ProvenanceTracker(self.workdir, session_id, clock=self.clock)
        query_cache_dir = cfg.query_cache_dir or self.workdir / ".query_cache"
        db = Database(self.workdir / session_id / "analysis.db", cache_dir=query_cache_dir)
        provenance.register_external(db.path)
        # under the query-count lock: concurrent first queries may race here
        with self._count_lock:
            if self.sandbox is None:
                self.sandbox, _ = configured_sandbox(cfg, clock=self.clock)
        context = AgentContext(
            llm=MeteredModel(base_llm),
            retriever=retriever,
            db=db,
            sandbox=self.sandbox,
            provenance=provenance,
            limited_context=cfg.limited_context,
            tracer=tracer,
            token_budget=cfg.token_budget,
        )
        return context, db

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the sandbox this app built (a fleet's workers)."""
        close = getattr(self.sandbox, "close", None)
        if self._owns_sandbox and callable(close):
            close()
            self.sandbox = None

    # ------------------------------------------------------------------
    def run_query(
        self,
        question: str,
        feedback: FeedbackProvider | None = None,
        session_id: str | None = None,
        plan_transform=None,
    ) -> QueryReport:
        """Run one natural-language query end to end.

        ``plan_transform`` (steps -> steps) rewrites the approved plan
        before execution; used by the §4.4.1 architecture baselines to
        force e.g. a static linear workflow through the same machinery.
        """
        with self._count_lock:
            self._query_count += 1
            query_index = self._query_count
        session_id = session_id or f"query_{query_index:03d}_{slug(question)}"
        # the session tracer parents itself under whatever trace is already
        # active (e.g. the evaluation harness's suite trace) so multi-process
        # runs merge into one coherent tree
        tracer = Tracer(clock=self.clock, context=current_context())
        context, db = self._build_context(session_id, tracer, query_index)
        context.provenance.record_query(question)

        plan_result: PlanningResult | None = None
        with use_faults(self.fault_injector), use_tracer(tracer), tracer.span(
            SESSION_SPAN, session_id=session_id
        ):
            try:
                planner = PlanningAgent(context)
                with tracer.span(PLAN_SPAN) as plan_span:
                    plan_result = planner.plan(question, feedback=feedback)
                    plan_span.set(steps=len(plan_result.steps))
                if plan_transform is not None:
                    transformed = plan_transform([dict(s) for s in plan_result.steps])
                    plan_result.steps = [dict(s, index=i) for i, s in enumerate(transformed)]

                loader = DataLoadingAgent(context, self.ensemble)
                checkpointer = None
                if self.config.use_checkpointer:
                    checkpointer = DurableCheckpointer(
                        self.workdir / session_id / "checkpoints"
                    )
                supervisor = Supervisor(
                    context,
                    loader,
                    max_revisions=self.config.max_revisions,
                    qa_mode=self.config.qa_mode,
                    enable_documentation=self.config.enable_documentation,
                    supervisor_history=self.config.supervisor_history,
                    parallel_viz=self.config.parallel_viz,
                    checkpointer=checkpointer,
                )
                self._last_supervisor = supervisor
                self._last_context = context
                run = supervisor.execute(
                    question,
                    plan_result.steps,
                    plan_result.semantic_level,
                    plan_result.intent,
                    thread_id=session_id,
                )
            except BudgetExceeded as exc:
                # budget blown during planning, before the supervisor's own
                # handler could take over: classify and end the session
                if plan_result is None:
                    plan_result = PlanningResult(
                        intent={}, steps=[], semantic_level=0,
                        reasoning="", rounds=0,
                    )
                run = RunReport.from_state(
                    context,
                    question,
                    plan_result.steps,
                    plan_result.semantic_level,
                    plan_result.intent,
                    llm_latency_s=context.simulated_latency_s,
                    failure=exc.classification,
                )
        spans = tracer.span_dicts()
        context.provenance.record_trace(spans)
        context.provenance.close()
        return QueryReport(
            run=run,
            plan=plan_result,
            session_dir=context.provenance.root,
            db_bytes=db.nbytes(),
            trace_spans=spans,
        )
