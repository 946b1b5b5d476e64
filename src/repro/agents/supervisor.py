"""Supervisor agent: plan-driven orchestration with the QA redo loop.

"the analysis stage begins under the direction of a supervisor agent,
which orchestrates step-by-step task execution according to the
established plan, while monitoring overall progress and performance."

Execution is a state graph (Fig. 3): supervisor routes each plan step to
the matching specialized agent; every code-generating step passes through
the quality-assurance agent, which can demand up to ``max_revisions``
regenerations with the error text in context; exhausting the budget fails
the run (the paper's reliability metric); a documentation agent summarizes
at the end.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

from repro.agents.base import AgentContext
from repro.agents.data_loader import DataLoadingAgent, LoadReport
from repro.agents.documentation import DocumentationAgent
from repro.agents.python_agent import PythonProgrammingAgent
from repro.agents.qa_agent import QualityAssuranceAgent
from repro.agents.sql_agent import SQLProgrammingAgent
from repro.agents.viz_agent import VisualizationAgent
from repro.frame import Frame
from repro.graph import Channel, StateGraph, END, Checkpointer
from repro.graph.state import (
    add_reducer,
    append_reducer,
    apply_update,
    initial_state,
    merge_reducer,
)
from repro.obs.names import QA_SPAN, STEP_SPAN_PREFIX, SUPERVISOR_SPAN
from repro.obs.tracer import use_tracer
from repro.resilience import BudgetExceeded

MAX_REVISIONS = 5


@dataclass
class StepResult:
    index: int
    kind: str
    description: str
    status: str                 # 'ok' | 'failed' | 'skipped'
    attempts: int
    op: str = ""
    form_intended: str = ""
    form_used: str = ""
    result_rows: int = 0
    result_columns: list[str] = field(default_factory=list)
    redo_iterations: int = 0

    def as_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class RunReport:
    question: str
    completed: bool
    failed_at_step: int | None
    steps: list[StepResult]
    plan_size: int
    analysis_steps: int          # load/sql/python/viz steps (the paper's count)
    tokens: int
    storage_bytes: int
    time_s: float
    llm_latency_s: float
    redo_iterations: int
    load_report: LoadReport | None
    tables: dict[str, Frame]
    figures: list[str]           # SVG strings
    semantic_level: int
    intent: dict
    # classified failure label when the run ended on a resilience-style
    # error (e.g. 'budget-exceeded') rather than a step failure
    failure: str = ""

    @classmethod
    def from_state(
        cls,
        context: AgentContext,
        question: str,
        plan_steps: list[dict],
        semantic_level: int,
        intent: dict,
        *,
        llm_latency_s: float,
        wall_s: float = 0.0,
        state: dict | None = None,
        failure: str = "",
    ) -> "RunReport":
        """Assemble the report from the graph's final ``state``.

        A session that a classified ``failure`` ended before the graph
        finished has no final state and reports the channels' defaults.
        """
        if state is None:
            state = initial_state(_CHANNELS)
        return cls(
            question=question,
            completed=not failure and state["status"] != "failed",
            failed_at_step=state["failed_at_step"],
            steps=[StepResult(**r) for r in state["step_results"]],
            plan_size=len(plan_steps),
            analysis_steps=sum(
                1 for s in plan_steps if s["kind"] in ("load", "sql", "python", "viz")
            ),
            tokens=context.total_tokens,
            storage_bytes=context.provenance.storage_bytes(),
            time_s=wall_s + llm_latency_s,
            llm_latency_s=llm_latency_s,
            redo_iterations=state["redo_iterations"],
            load_report=state["load_report"],
            tables=state["tables"],
            figures=state["figures"],
            semantic_level=semantic_level,
            intent=intent,
            failure=failure,
        )

    @property
    def tasks_completed_fraction(self) -> float:
        if not self.steps:
            return 0.0
        done = sum(1 for s in self.steps if s.status == "ok")
        return done / self.plan_size if self.plan_size else 0.0


# the session state: one channel per fact the graph's nodes exchange
_CHANNELS = {
    channel.name: channel
    for channel in (
        Channel("plan", default=[]),
        Channel("question", default=""),
        Channel("semantic_level", default=0),
        Channel("step_index", default=0),
        Channel("attempt", default=0),
        Channel("status", default="running"),
        Channel("last_error", default=""),
        Channel("last_outcome", default=None),
        Channel("tables", merge_reducer, default={}),
        Channel("step_results", append_reducer, default=[]),
        Channel("figures", append_reducer, default=[]),
        Channel("redo_iterations", add_reducer, default=0),
        Channel("load_report", default=None),
        Channel("resolved_steps", default=None),
        Channel("failed_at_step", default=None),
        Channel("summary", default=""),
    )
}


class Supervisor:
    def __init__(
        self,
        context: AgentContext,
        data_loader: DataLoadingAgent,
        max_revisions: int = MAX_REVISIONS,
        qa_mode: str = "score",
        enable_documentation: bool = True,
        supervisor_history: int | None = 6,
        parallel_viz: bool = False,
        checkpointer: Checkpointer | None = None,
    ):
        self.context = context
        self.data_loader = data_loader
        # the code-generating agents, by the plan-step kind they serve
        self.agents = {
            "sql": SQLProgrammingAgent(context),
            "python": PythonProgrammingAgent(context),
            "viz": VisualizationAgent(context),
        }
        self.qa_agent = QualityAssuranceAgent(context, mode=qa_mode)
        self.doc_agent = DocumentationAgent(context)
        self.max_revisions = max_revisions
        self.enable_documentation = enable_documentation
        self.supervisor_history = supervisor_history
        self.checkpointer = checkpointer
        self.parallel_viz = parallel_viz

    # ------------------------------------------------------------------
    def build_graph(self):
        g = StateGraph(list(_CHANNELS.values()))
        g.add_node("supervisor", self._node_supervisor)
        g.add_node("data_loader", self._node_load)
        for kind in self.agents:
            g.add_node(kind, self._attempt)
        g.add_node("qa", self._judge)
        g.add_node("viz_batch", self._node_viz_batch)
        g.add_node("documentation", self._node_documentation)
        g.set_entry_point("supervisor")
        g.add_conditional_edges("supervisor", self._route)
        g.add_edge("data_loader", "supervisor")
        g.add_edge("sql", "qa")
        g.add_edge("python", "qa")
        g.add_edge("viz", "qa")
        g.add_edge("viz_batch", "supervisor")
        g.add_edge("qa", "supervisor")
        g.add_edge("documentation", END)
        return g.compile(
            checkpointer=self.checkpointer,
            max_steps=1000,
            tracer=self.context.tracer,
        )

    # ------------------------------------------------------------------
    # nodes
    # ------------------------------------------------------------------
    def _node_supervisor(self, state: dict) -> dict:
        plan = state["plan"]
        idx = state["step_index"]
        if state["status"] == "failed" or idx >= len(plan):
            return {}
        step = plan[idx]
        history = self.context.message_log
        if self.supervisor_history is not None:
            history = history[-self.supervisor_history:]
        self.context.chat(
            "supervisor",
            {"next_kind": step["kind"], "step_index": idx},
            context_text="Progress so far:\n" + "\n".join(history),
        )
        return {}

    def _route(self, state: dict) -> str:
        plan = state["plan"]
        idx = state["step_index"]
        if state["status"] == "failed" or idx >= len(plan):
            return "documentation" if self.enable_documentation else END
        kind = plan[idx]["kind"]
        if kind == "viz" and self.parallel_viz:
            return "viz_batch"
        return {"load": "data_loader", "sql": "sql", "python": "python", "viz": "viz"}[kind]

    def _step_key(self, state: dict) -> str:
        # crc32, not hash(): the step key seeds the mock LLM's error-draw
        # streams, and Python's salted string hash would make every
        # interpreter invocation (and every pool worker) draw differently
        return f"q{zlib.crc32(state['question'].encode()) & 0xFFFF:x}.s{state['step_index']}"

    def _node_load(self, state: dict) -> dict:
        step = state["plan"][state["step_index"]]
        report = self.data_loader.load(
            step["params"], state["question"], plan_text=_plan_text(state["plan"])
        )
        resolved = report.resolved_steps
        # propagate the resolved run/snapshot lists into downstream step params
        for later in state["plan"]:
            if later["kind"] == "sql":
                if later["params"].get("steps") is not None:
                    later["params"]["steps"] = resolved
                if later["params"].get("runs") is not None:
                    later["params"]["runs"] = report.resolved_runs
        result = StepResult(
            index=step["index"],
            kind="load",
            description=step["description"],
            status="ok",
            attempts=1,
            result_rows=sum(report.tables.values()),
        )
        return {
            "step_index": state["step_index"] + 1,
            "attempt": 0,
            "load_report": report,
            "resolved_steps": resolved,
            "step_results": result.as_dict(),
        }

    def _attempt(self, state: dict, parent=None) -> dict:
        """One attempt at the current step: the ``sql``, ``python`` and ``viz`` nodes."""
        position, attempt = state["step_index"], state["attempt"]
        step = state["plan"][position]
        with self.context.tracer.span(
            STEP_SPAN_PREFIX + step["kind"], parent=parent, step=position, attempt=attempt
        ) as sp:
            outcome = self.agents[step["kind"]].run_step(
                step,
                state["tables"],
                self._step_key(state),
                attempt,
                state["semantic_level"],
                previous_error=state["last_error"],
            )
            sp.set(ok=outcome.ok)
        update = {
            "last_error": outcome.error,
            # checkpointed with the state, so only the StepResult fields the
            # judge will need and never the outcome's frames
            "last_outcome": {
                "op": outcome.op,
                "form_intended": step["params"].get("form", ""),
                "form_used": outcome.form_used,
                "result_rows": outcome.rows,
                "result_columns": outcome.columns,
            },
        }
        if outcome.tables:
            update["tables"] = outcome.tables
        if outcome.svg:
            update["figures"] = outcome.svg
        return update

    def _judge(self, state: dict) -> dict:
        """Pass, redo or fail the attempt just made: the ``qa`` node.

        QA sees every attempt, failed executions included.  An attempt
        passes when it ran clean and QA accepts it; otherwise it is redone
        with the error text in context until ``max_revisions`` redos are
        spent, which fails the run.
        """
        position, attempt, error = state["step_index"], state["attempt"], state["last_error"]
        step = state["plan"][position]
        facts = state["last_outcome"]
        with self.context.tracer.span(QA_SPAN, step=position, attempt=attempt) as sp:
            verdict = self.qa_agent.assess(
                step,
                self._step_key(state),
                attempt,
                result_rows=facts["result_rows"],
                error=error,
                expects_rows=step["kind"] != "viz",
            )
            passed = verdict.passed and not error
            sp.set(passed=passed)
        if not passed and attempt < self.max_revisions:
            return {
                "attempt": attempt + 1,
                "redo_iterations": 1,
                "last_error": error or f"QA rejected output: {verdict.feedback}",
            }
        result = StepResult(
            index=step["index"],
            kind=step["kind"],
            description=step["description"],
            status="ok" if passed else "failed",
            attempts=attempt + 1,
            redo_iterations=attempt,
            **(facts if passed else {"op": facts["op"]}),
        ).as_dict()
        if passed:
            return {
                "step_index": position + 1,
                "attempt": 0,
                "last_error": "",
                "step_results": result,
            }
        return {
            "status": "failed",
            "failed_at_step": position,
            "step_results": result,
            # known double count (DESIGN.md, "Step protocol"): the channel
            # adds, and each of these redos already added its own 1
            "redo_iterations": attempt,
        }

    def _node_viz_batch(self, state: dict) -> dict:
        """Run consecutive viz steps concurrently, each as it would run in turn.

        The paper's stated future work ("investigate parallelized workflow
        execution to reduce execution runtime"): visualization steps are
        mutually independent, so each plot gets a private copy of the state
        and goes through the serial attempt and judge under its serial step
        key; the attempts of a round (chat and sandbox) overlap.  The mock
        model keys its draws by (step key, attempt), so a plot produces what
        it would have produced in turn.  What differs from the serial path
        is one supervisor chat per batch instead of one per attempt.
        """
        from concurrent.futures import ThreadPoolExecutor

        plan, start = state["plan"], state["step_index"]
        end = start
        while end < len(plan) and plan[end]["kind"] == "viz":
            end += 1
        # the accumulating channels start empty per plot and are joined in
        # plan order below, which is the order the serial path fills them in
        fresh = {"figures": [], "step_results": [], "redo_iterations": 0}
        plots = {p: {**state, **fresh, "step_index": p} for p in range(start, end)}

        tracer = self.context.tracer
        parent = tracer.current()

        def attempt(plot: dict) -> dict:
            # pool threads start with an empty span stack and no active
            # tracer (both context-scoped): re-enter the coordinator's and
            # parent under its node span, so the attempt's spans, LLM
            # spend included, stay inside this session's trace
            with use_tracer(tracer):
                return self._attempt(plot, parent=parent)

        pending = list(plots)
        failed_at = None
        while pending and failed_at is None:
            with ThreadPoolExecutor(max_workers=len(pending)) as pool:
                attempted = list(pool.map(attempt, [plots[p] for p in pending]))
            for position, update in zip(pending, attempted):
                plot = apply_update(_CHANNELS, plots[position], update)
                plot = plots[position] = apply_update(_CHANNELS, plot, self._judge(plot))
                if plot["status"] == "failed":
                    failed_at = position
                    break
            pending = [p for p in pending if not plots[p]["step_results"]]

        joined = {
            "step_index": end,
            "attempt": 0,
            "step_results": [r for plot in plots.values() for r in plot["step_results"]],
            "figures": [svg for plot in plots.values() for svg in plot["figures"]],
            "redo_iterations": sum(plot["redo_iterations"] for plot in plots.values()),
        }
        if failed_at is not None:
            joined.update(status="failed", failed_at_step=failed_at)
        return joined

    def _node_documentation(self, state: dict) -> dict:
        summary = self.doc_agent.summarize(state["question"], state["step_results"])
        return {"summary": summary}

    # ------------------------------------------------------------------
    def execute(
        self,
        question: str,
        plan_steps: list[dict],
        semantic_level: int,
        intent: dict,
        thread_id: str = "main",
    ) -> RunReport:
        graph = self.build_graph()
        tracer = self.context.tracer
        # wall time comes from the injected clock (DESIGN: components never
        # call time APIs directly), so runs under SimulatedClock are exact
        t0 = tracer.clock.now()
        latency0 = self.context.simulated_latency_s
        self._last_graph = graph
        state, failure = None, ""
        try:
            with tracer.span(
                SUPERVISOR_SPAN,
                thread=thread_id,
                plan_size=len(plan_steps),
                semantic_level=semantic_level,
            ):
                state = graph.invoke(
                    {
                        "plan": [dict(s) for s in plan_steps],
                        "question": question,
                        "semantic_level": semantic_level,
                    },
                    thread_id=thread_id,
                ).state
        except BudgetExceeded as exc:
            # a blown token budget ends the session as a classified
            # failure instead of funding further redo growth
            failure = exc.classification
        return RunReport.from_state(
            self.context,
            question,
            plan_steps,
            semantic_level,
            intent,
            llm_latency_s=self.context.simulated_latency_s - latency0,
            wall_s=tracer.clock.now() - t0,
            state=state,
            failure=failure,
        )


def _plan_text(plan: list[dict]) -> str:
    return "\n".join(f"{s['index']}. [{s['kind']}] {s['description']}" for s in plan)
