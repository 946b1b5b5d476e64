"""The step protocol, directly: one attempt (``CodeAgent.run_step`` ->
``StepOutcome``) for each of the three code agents under a scripted model
reply, and the supervisor's judge (pass / redo / fail) for both of its
callers, the ``qa`` node and the parallel-viz batch."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.agents import (
    AgentContext,
    PythonProgrammingAgent,
    SQLProgrammingAgent,
    StepOutcome,
    Supervisor,
    VisualizationAgent,
)
from repro.agents.qa_agent import QAVerdict
from repro.db import Database
from repro.db.errors import DBError
from repro.frame import Frame
from repro.llm.base import ChatResponse, MeteredModel
from repro.obs.names import QA_SPAN
from repro.provenance import ProvenanceTracker
from repro.rag import ColumnRetriever
from repro.sandbox import InProcessClient, SandboxExecutor
from repro.sim.schema import COLUMN_DESCRIPTIONS, FILE_STRUCTURE_DESCRIPTIONS, IMPORTANT_COLUMNS


class ScriptedModel:
    """A chat model that always answers ``reply`` and keeps what it was sent."""

    def __init__(self, reply: str = ""):
        self.reply = reply
        self.prompts: list[str] = []

    def chat(self, messages, role="agent"):
        self.prompts.append("\n".join(m.content for m in messages))
        return ChatResponse(self.reply, prompt_tokens=1, completion_tokens=1)


@pytest.fixture(scope="module")
def retriever():
    return ColumnRetriever(
        COLUMN_DESCRIPTIONS, FILE_STRUCTURE_DESCRIPTIONS, important=IMPORTANT_COLUMNS
    )


@pytest.fixture()
def context(tmp_path, retriever, halos_frame):
    db = Database(tmp_path / "db")
    db.create_table("halos", halos_frame)
    return AgentContext(
        llm=MeteredModel(ScriptedModel()),
        retriever=retriever,
        db=db,
        sandbox=InProcessClient(SandboxExecutor()),
        provenance=ProvenanceTracker(tmp_path, "s"),
    )


SQL_CODE = "SELECT fof_halo_tag, fof_halo_count FROM halos WHERE run = 0"
PY_CODE = "result = tables['work'].head(3)"
VIZ_CODE = (
    "figure = Figure()\n"
    "figure.axes(0).plot(np.arange(3), np.arange(3), label='x')\n"
    "result = tables['work']"
)

# one fixed step per agent: what the table-driven cases run and what the
# pinned prompts below were recorded for
STEPS = {
    "sql": {
        "index": 1, "kind": "sql",
        "description": "Filter the database down to the rows and columns needed",
        "params": {"table": "halos", "columns": ["fof_halo_tag", "fof_halo_count"],
                   "runs": [0], "steps": None, "secondary": [], "secondary_columns": {}},
    },
    "python": {
        "index": 2, "kind": "python",
        "description": "Rank halos by fof_halo_count within each (run, step) cell",
        "params": {"op": "top_k_per_cell", "metric": "fof_halo_count", "top_k": 3},
    },
    "viz": {
        "index": 3, "kind": "viz",
        "description": "Create a line visualization of the results",
        "params": {"form": "line", "source": "work", "metric": "fof_halo_count"},
    },
}
AGENTS = {
    "sql": (SQLProgrammingAgent, "sql", ".sql", SQL_CODE),
    "python": (PythonProgrammingAgent, "python", ".py", PY_CODE),
    "viz": (VisualizationAgent, "python", ".py", VIZ_CODE),
}
# sha256 of the exact prompt sent for STEPS[kind] at attempt 1 with a
# previous error, recorded at 908570a (before the agents shared a
# skeleton): llm.tokens is a function of this string
PINNED_PROMPTS = {
    "sql": "89e52467d2ac80c660f8bd5854b09a4dc0089b4df99b0f6a657e1a94cffd1f8d",
    "python": "b28485c23546858c4095f2a077d8b2623d8b12146ccbd7ca6fba0b9ffeed1e0b",
    "viz": "5a8adf23c2fb07d4cb90969b35d58c9e62eedc29a4781763b7bdc28bb4858530",
}


def run(context, kind, reply, tables=None, step=None, attempt=0, previous_error=""):
    context.llm.inner.reply = reply
    agent = AGENTS[kind][0](context)
    if tables is None:
        tables = {"work": context.db.query("SELECT * FROM halos")}
    return agent.run_step(
        step or STEPS[kind], tables, "qtest.s1", attempt, 0, previous_error=previous_error
    )


def recorded_code(context):
    record = next(r for r in reversed(context.provenance.records) if r.kind == "code")
    return record, (context.provenance.root / record.path).read_bytes()


@pytest.mark.parametrize("kind", list(AGENTS))
class TestOneAttempt:
    @pytest.mark.parametrize("fenced", [True, False])
    def test_code_is_extracted_recorded_and_run(self, context, kind, fenced):
        _, language, suffix, code = AGENTS[kind]
        reply = f"```{language}\n{code}\n```" if fenced else f"\n  {code}  \n"
        outcome = run(context, kind, reply, attempt=2)
        assert isinstance(outcome, StepOutcome)
        assert outcome.ok and outcome.error == ""
        assert outcome.code == code
        record, data = recorded_code(context)
        assert data == code.encode()
        assert record.path.endswith(f"step{STEPS[kind]['index']:02d}_attempt2_code{suffix}")
        assert record.meta == {"language": "sql" if kind == "sql" else "python", "attempt": 2}

    def test_failing_execution_reports_type_and_message(self, context, kind):
        bad = "SELECT nope FROM halos" if kind == "sql" else "result = tables['missing']"
        outcome = run(context, kind, bad)
        assert not outcome.ok
        assert outcome.result is None and outcome.tables == {} and outcome.svg == ""
        if kind == "sql":
            with pytest.raises(DBError) as exc:
                context.db.query(bad)
            assert outcome.error == f"{type(exc.value).__name__}: {exc.value}"
        else:
            assert outcome.error.startswith("KeyError: 'missing'")
        # the code is on the trail even though it failed; no result is
        kinds = [r.kind for r in context.provenance.records]
        assert "code" in kinds and "result" not in kinds and "figure" not in kinds

    def test_prompt_is_pinned(self, context, kind):
        run(context, kind, "", attempt=1, previous_error="ColumnNotFound: no column 'fof_halo_cnt'")
        prompt = context.llm.inner.prompts[-1]
        # the parts, in the order every agent sends them
        description = prompt.index(STEPS[kind]["description"])
        error = prompt.index("\nThe previous attempt failed: ColumnNotFound: no column")
        payload = prompt.index("[[PAYLOAD]]\n" + json.dumps({
            "step_key": "qtest.s1", "attempt": 1, "semantic_level": 0,
            "params": STEPS[kind]["params"],
        }))
        assert prompt.startswith(f"[[ROLE:{kind}]]\n\n")
        assert description < error < payload
        assert ("\nRelevant columns:\n" in prompt) == (kind == "python")
        assert hashlib.sha256(prompt.encode()).hexdigest() == PINNED_PROMPTS[kind]


class TestSQLAgent:
    def test_publishes_work_and_companion_tables(self, context, halos_frame):
        context.db.create_table("galaxies", halos_frame.select(["run", "step", "fof_halo_tag"]))
        step = json.loads(json.dumps(STEPS["sql"]))
        step["params"].update(secondary=["galaxies"], secondary_columns={"galaxies": ["fof_halo_tag"]})
        outcome = run(context, "sql", f"```sql\n{SQL_CODE}\n```", step=step)
        assert outcome.ok and outcome.op == "sql"
        assert list(outcome.tables) == ["work", "work_galaxies"]
        assert outcome.tables["work"] is outcome.result
        assert outcome.rows == 20 and outcome.columns == ["fof_halo_tag", "fof_halo_count"]
        assert outcome.tables["work_galaxies"].columns == ["run", "step", "fof_halo_tag"]
        assert outcome.tables["work_galaxies"].num_rows == 20  # run = 0 only
        result = next(r for r in context.provenance.records if r.kind == "result")
        assert result.path.endswith("step01_sql_result.csv")

    def test_failing_companion_query_reports_the_companion_statement(self, context):
        step = json.loads(json.dumps(STEPS["sql"]))
        step["params"]["secondary"] = ["galaxies"]  # no such table
        outcome = run(context, "sql", f"```sql\n{SQL_CODE}\n```", step=step)
        assert not outcome.ok
        assert outcome.code == "SELECT * FROM galaxies WHERE run = 0"
        assert "galaxies" in outcome.error and ": " in outcome.error
        assert outcome.tables == {}
        assert not any(r.kind == "result" for r in context.provenance.records)


class TestPythonAgent:
    @pytest.mark.parametrize(
        "params, table",
        [
            ({"op": "top_k_per_cell"}, "work"),
            ({"op": "aggregate"}, "aggregated"),
            ({"op": "track_evolution", "metric": "fof_halo_mass"}, "track_fof_halo_mass"),
            ({"op": "track_evolution"}, "track_metric"),
            ({"op": "alignment"}, None),
        ],
    )
    def test_result_is_published_under_the_ops_table_name(self, context, params, table):
        step = dict(STEPS["python"], params=params)
        source = Frame({"a": np.arange(5)})
        outcome = run(context, "python", f"```python\n{PY_CODE}\n```", {"work": source}, step)
        assert outcome.ok and outcome.op == params["op"]
        assert outcome.rows == 3 and outcome.columns == ["a"]
        # the sandbox's working tables are published too, the op's result on top
        assert set(outcome.tables) == {"work"} | ({table} if table else set())
        if table:
            assert outcome.tables[table] is outcome.result
        result = next(r for r in context.provenance.records if r.kind == "result")
        assert result.path.endswith("step02_result.csv")

    def test_retrieval_runs_before_the_chat(self, context, monkeypatch):
        order = []
        retrieve, chat = context.retriever.retrieve, context.llm.inner.chat
        monkeypatch.setattr(
            context.retriever, "retrieve",
            lambda **kw: order.append("retrieve") or retrieve(**kw),
        )
        monkeypatch.setattr(
            context.llm.inner, "chat",
            lambda *a, **kw: order.append("chat") or chat(*a, **kw),
        )
        run(context, "python", f"```python\n{PY_CODE}\n```")
        assert order == ["retrieve", "chat"]


class TestVizAgent:
    def test_header_form_wins_and_the_svg_is_recorded(self, context):
        reply = json.dumps({"form": "hist"}) + f"\n```python\n{VIZ_CODE}\n```"
        outcome = run(context, "viz", reply)
        assert outcome.ok and outcome.op == "viz"
        assert outcome.form_used == "hist"  # the plan asked for 'line'
        assert outcome.svg.startswith("<svg") and outcome.tables == {}
        figure = next(r for r in context.provenance.records if r.kind == "figure")
        assert (context.provenance.root / figure.path).read_text() == outcome.svg
        assert figure.meta == {"form": "hist"}

    def test_without_a_header_the_plans_form_stands(self, context):
        outcome = run(context, "viz", f"```python\n{VIZ_CODE}\n```")
        assert outcome.form_used == "line"

    @pytest.mark.parametrize("first_line", ['["hist"]', '"hist"', "3", "null"])
    def test_a_json_first_line_that_is_not_an_object_is_no_header(self, context, first_line):
        outcome = run(context, "viz", f"{first_line}\n```python\n{VIZ_CODE}\n```")
        assert outcome.ok and outcome.form_used == "line"

    def test_code_without_a_figure_records_none(self, context):
        outcome = run(context, "viz", "```python\nresult = tables['work']\n```")
        assert outcome.ok and outcome.svg == ""
        assert not any(r.kind == "figure" for r in context.provenance.records)


# ----------------------------------------------------------------------
# the judge
# ----------------------------------------------------------------------
VIZ_PLAN = [dict(STEPS["viz"], index=0)]
FACTS = {"op": "viz", "form_intended": "line", "form_used": "hist",
         "result_rows": 7, "result_columns": ["a"]}

# (the attempt's error, QA's verdict) -> what the judge decides and the
# error text the next attempt is given
JUDGE_TABLE = [
    ("", QAVerdict(True, 90, "fine"), "pass", None),
    ("", QAVerdict(False, 30, "too few rows"), "redo", "QA rejected output: too few rows"),
    ("KeyError: 'x'", QAVerdict(False, 10, "fix the key"), "redo", "KeyError: 'x'"),
    # a QA false positive never passes an attempt that did not run clean
    ("KeyError: 'x'", QAVerdict(True, 80, "fine"), "redo", "KeyError: 'x'"),
]


@pytest.fixture()
def supervisor(context):
    return Supervisor(context, data_loader=None, max_revisions=2)


def script_qa(supervisor, monkeypatch, verdicts):
    """QA answers ``verdicts`` in turn and keeps what it was asked."""
    asked = []
    verdicts = iter(verdicts)

    def assess(step, step_key, attempt, result_rows, error="", expects_rows=True):
        asked.append((step_key, attempt, result_rows, error, expects_rows))
        return next(verdicts)

    monkeypatch.setattr(supervisor.qa_agent, "assess", assess)
    return asked


def script_viz(supervisor, monkeypatch, errors):
    """The viz agent's attempts end with ``errors`` in turn ('' = ran clean)."""
    given = []
    errors = iter(errors)

    def run_step(step, tables, step_key, attempt, semantic_level, previous_error=""):
        given.append((step_key, attempt, previous_error))
        error = next(errors)
        if error:
            return StepOutcome(ok=False, code="c", error=error, op="viz")
        return StepOutcome(
            ok=True, code="c", result=Frame({"a": np.arange(7)}),
            op="viz", form_used="hist", svg=f"<svg>{attempt}</svg>",
        )

    monkeypatch.setattr(supervisor.agents["viz"], "run_step", run_step)
    return given


def state_for(attempt=0, error=""):
    return {
        "plan": VIZ_PLAN, "question": "q", "semantic_level": 0, "tables": {},
        "step_index": 0, "attempt": attempt, "last_error": error,
        "last_outcome": dict(FACTS), "status": "running",
    }


def redo_count(supervisor):
    """Redos so far, read from their record: the QA verdicts that failed
    with revisions left (``qa.assess`` spans)."""
    return sum(
        1 for s in supervisor.context.tracer.span_dicts()
        if s["name"] == QA_SPAN and not s["attributes"]["passed"]
        and s["attributes"]["attempt"] < supervisor.max_revisions
    )


class TestJudge:
    @pytest.mark.parametrize("error, verdict, decision, next_error", JUDGE_TABLE)
    def test_qa_node(self, supervisor, monkeypatch, error, verdict, decision, next_error):
        asked = script_qa(supervisor, monkeypatch, [verdict])
        before = redo_count(supervisor)
        update = supervisor._judge(state_for(attempt=1, error=error))
        # QA is asked about every attempt, failed executions included
        assert asked == [(supervisor._step_key(state_for()), 1, 7, error, False)]
        if decision == "pass":
            assert update == {
                "step_index": 1, "attempt": 0, "last_error": "",
                "step_results": dict(
                    FACTS, index=0, kind="viz", description=VIZ_PLAN[0]["description"],
                    status="ok", attempts=2, redo_iterations=1,
                ),
            }
            assert redo_count(supervisor) == before
        else:
            assert update == {"attempt": 2, "redo_iterations": 1, "last_error": next_error}
            assert redo_count(supervisor) == before + 1

    @pytest.mark.parametrize("error, verdict, decision, next_error", JUDGE_TABLE)
    def test_viz_batch(self, supervisor, monkeypatch, error, verdict, decision, next_error):
        # the same table through the batch: the scripted first attempt,
        # then (after a redo) one that runs clean and passes
        asked = script_qa(supervisor, monkeypatch, [verdict, QAVerdict(True, 90, "fine")])
        given = script_viz(supervisor, monkeypatch, [error, ""])
        before = redo_count(supervisor)
        update = supervisor._node_viz_batch(dict(state_for(), step_results=[], figures=[]))
        key = supervisor._step_key(state_for())
        redos = 0 if decision == "pass" else 1
        assert given == [(key, 0, ""), (key, 1, next_error)][: redos + 1]
        assert [a[:2] for a in asked] == [(key, 0), (key, 1)][: redos + 1]
        assert update["step_index"] == 1 and "status" not in update
        assert update["redo_iterations"] == redos == redo_count(supervisor) - before
        assert update["step_results"] == [dict(
            FACTS, index=0, kind="viz", description=VIZ_PLAN[0]["description"],
            status="ok", attempts=redos + 1, redo_iterations=redos,
        )]
        # every attempt that drew a figure keeps it, in attempt order
        assert update["figures"] == [f"<svg>{a}</svg>" for a, e in enumerate([error, ""][: redos + 1]) if not e]

    def test_qa_node_fails_the_run_when_the_budget_is_spent(self, supervisor, monkeypatch):
        script_qa(supervisor, monkeypatch, [QAVerdict(False, 10, "no")])
        before = redo_count(supervisor)
        update = supervisor._judge(state_for(attempt=2, error="KeyError: 'x'"))
        assert update == {
            "status": "failed", "failed_at_step": 0,
            "step_results": {
                "index": 0, "kind": "viz", "description": VIZ_PLAN[0]["description"],
                "status": "failed", "attempts": 3, "op": "viz", "form_intended": "",
                "form_used": "", "result_rows": 0, "result_columns": [],
                "redo_iterations": 2,
            },
            # the known double count: the two redos were already added one by one
            "redo_iterations": 2,
        }
        assert redo_count(supervisor) == before  # exhaustion is not a redo

    def test_viz_batch_fails_the_run_when_the_budget_is_spent(self, supervisor, monkeypatch):
        script_qa(supervisor, monkeypatch, [QAVerdict(False, 10, "no")] * 3)
        given = script_viz(supervisor, monkeypatch, ["KeyError: 'x'"] * 3)
        before = redo_count(supervisor)
        update = supervisor._node_viz_batch(dict(state_for(), step_results=[], figures=[]))
        assert [g[1:] for g in given] == [(0, ""), (1, "KeyError: 'x'"), (2, "KeyError: 'x'")]
        assert update["status"] == "failed" and update["failed_at_step"] == 0
        assert [r["status"] for r in update["step_results"]] == ["failed"]
        assert update["step_results"][0]["attempts"] == 3
        assert update["redo_iterations"] == 2 + 2  # as the serial path counts it
        assert redo_count(supervisor) == before + 2
