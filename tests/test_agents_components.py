"""Individual agents: planner dialogue, data loader, QA."""

import numpy as np
import pytest

from repro.agents import (
    AgentContext,
    DataLoadingAgent,
    PlanningAgent,
    QualityAssuranceAgent,
    ScriptedFeedback,
)
from repro.agents.planner import AutoApprove
from repro.db import Database
from repro.llm import MockLLM, NO_ERRORS
from repro.llm.base import MeteredModel
from repro.provenance import ProvenanceTracker
from repro.rag import ColumnRetriever
from repro.sandbox import InProcessClient
from repro.sim.schema import COLUMN_DESCRIPTIONS, FILE_STRUCTURE_DESCRIPTIONS, IMPORTANT_COLUMNS


@pytest.fixture()
def context(tmp_path):
    return AgentContext(
        llm=MeteredModel(MockLLM(seed=1, error_model=NO_ERRORS, latency_per_call_s=0.0)),
        retriever=ColumnRetriever(
            COLUMN_DESCRIPTIONS, FILE_STRUCTURE_DESCRIPTIONS, important=IMPORTANT_COLUMNS
        ),
        db=Database(tmp_path / "a.db"),
        sandbox=InProcessClient(),
        provenance=ProvenanceTracker(tmp_path, "s"),
    )


class TestPlanningAgent:
    def test_auto_approve_single_round(self, context):
        agent = PlanningAgent(context)
        result = agent.plan("top 10 halos at timestep 624 in simulation 0", AutoApprove())
        assert result.rounds == 1
        assert result.steps[0]["kind"] == "load"
        assert result.reasoning

    def test_scripted_feedback_drop_viz(self, context):
        agent = PlanningAgent(context)
        result = agent.plan(
            "plot the change in mass of the largest halos over all timesteps",
            ScriptedFeedback(["drop viz"]),
        )
        assert result.rounds == 2
        assert all(s["kind"] != "viz" for s in result.steps)
        assert [s["index"] for s in result.steps] == list(range(len(result.steps)))

    def test_scripted_feedback_limit_runs(self, context):
        agent = PlanningAgent(context)
        result = agent.plan(
            "average halo count at each time step across all the simulations",
            ScriptedFeedback(["limit runs 2"]),
        )
        load = result.steps[0]
        assert load["params"]["runs"] == [0, 1]

    def test_plan_recorded_in_provenance(self, context):
        PlanningAgent(context).plan("top 5 halos in simulation 0", AutoApprove())
        kinds = [r.kind for r in context.provenance.records]
        assert "plan" in kinds

    def test_tokens_metered(self, context):
        PlanningAgent(context).plan("top 5 halos in simulation 0", AutoApprove())
        assert context.total_tokens > 0


class TestDataLoadingAgent:
    def test_loads_requested_scope(self, context, ensemble):
        agent = DataLoadingAgent(context, ensemble)
        report = agent.load(
            {
                "entities": ["halos"],
                "columns": {"halos": ["fof_halo_tag", "fof_halo_count"]},
                "runs": [0],
                "steps": [624],
            },
            question="top halos by count",
        )
        assert "halos" in report.tables
        assert context.db.has_table("halos")
        frame = context.db.table_frame("halos")
        assert set(np.unique(frame["run"])) == {0}
        assert set(np.unique(frame["step"])) == {624}

    def test_selectivity_below_one(self, context, ensemble):
        agent = DataLoadingAgent(context, ensemble)
        report = agent.load(
            {
                "entities": ["halos"],
                "columns": {"halos": ["fof_halo_tag", "fof_halo_count"]},
                "runs": [0],
                "steps": [624],
            },
            question="halo count",
        )
        assert 0 < report.selectivity < 0.35 / 100 * 50  # far below full ingestion

    def test_latest_step_resolution(self, context, ensemble):
        agent = DataLoadingAgent(context, ensemble)
        agent.load(
            {"entities": ["halos"], "columns": {"halos": ["fof_halo_count"]}, "runs": [0], "steps": ["latest"]},
            question="q",
        )
        frame = context.db.table_frame("halos")
        assert set(np.unique(frame["step"])) == {max(ensemble.timesteps)}

    def test_step_snapping(self, context, ensemble):
        agent = DataLoadingAgent(context, ensemble)
        agent.load(
            {"entities": ["halos"], "columns": {"halos": ["fof_halo_count"]}, "runs": [0], "steps": [500]},
            question="q",
        )
        frame = context.db.table_frame("halos")
        assert set(np.unique(frame["step"])) == {498}  # nearest available snapshot

    def test_param_columns_injected(self, context, ensemble):
        agent = DataLoadingAgent(context, ensemble)
        agent.load(
            {
                "entities": ["halos"],
                "columns": {"halos": ["fof_halo_count"]},
                "runs": None,
                "steps": [624],
                "param_columns": ["M_seed"],
            },
            question="by seed mass",
        )
        frame = context.db.table_frame("halos")
        assert "param_M_seed" in frame.columns
        assert len(np.unique(frame["param_M_seed"])) == ensemble.n_runs

    def test_empty_steps_means_every_snapshot(self, context, ensemble):
        """``steps: []`` raised IndexError (``step_list[0]``)."""
        agent = DataLoadingAgent(context, ensemble)
        report = agent.load(
            {"entities": ["halos"], "columns": {"halos": ["fof_halo_count"]}, "runs": [0], "steps": []},
            question="q",
        )
        assert report.resolved_steps == ensemble.timesteps
        frame = context.db.table_frame("halos")
        assert set(np.unique(frame["step"])) == set(ensemble.timesteps)

    def test_empty_runs_means_every_run(self, context, ensemble):
        """``runs: []`` raised ValueError (``min`` of an empty list)."""
        agent = DataLoadingAgent(context, ensemble)
        report = agent.load(
            {"entities": ["halos"], "columns": {"halos": ["fof_halo_count"]}, "runs": [], "steps": [624]},
            question="q",
        )
        assert report.resolved_runs == list(range(ensemble.n_runs))
        frame = context.db.table_frame("halos")
        assert set(np.unique(frame["run"])) == set(range(ensemble.n_runs))

    def test_rag_augments_requested_columns(self, context, ensemble):
        agent = DataLoadingAgent(context, ensemble)
        report = agent.load(
            {"entities": ["halos"], "columns": {"halos": ["fof_halo_tag"]}, "runs": [0], "steps": [624]},
            question="velocity dispersion of the halos",
        )
        assert "fof_halo_vel_disp" in report.columns["halos"]

    def test_reload_replaces_table(self, context, ensemble):
        agent = DataLoadingAgent(context, ensemble)
        params = {"entities": ["halos"], "columns": {"halos": ["fof_halo_count"]}, "runs": [0], "steps": [624]}
        agent.load(params, question="q")
        first = context.db.table_frame("halos").num_rows
        agent.load(params, question="q")
        assert context.db.table_frame("halos").num_rows == first


class TestQAAgent:
    def test_error_fails(self, context):
        agent = QualityAssuranceAgent(context)
        verdict = agent.assess(
            {"index": 0, "description": "d"}, "k", 0, result_rows=0, error="KeyError: x"
        )
        assert not verdict.passed
        assert verdict.score is not None and verdict.score < 50

    def test_good_output_passes(self, context):
        agent = QualityAssuranceAgent(context)
        verdict = agent.assess({"index": 0, "description": "d"}, "k2", 0, result_rows=50)
        assert verdict.passed

    def test_binary_mode(self, context):
        agent = QualityAssuranceAgent(context, mode="binary")
        verdict = agent.assess({"index": 0, "description": "d"}, "k3", 0, result_rows=50)
        assert verdict.score is None

    def test_invalid_mode(self, context):
        with pytest.raises(ValueError):
            QualityAssuranceAgent(context, mode="fuzzy")

    def test_qa_recorded(self, context):
        QualityAssuranceAgent(context).assess(
            {"index": 2, "description": "d"}, "k4", 1, result_rows=3
        )
        qa_records = [r for r in context.provenance.records if r.kind == "qa"]
        assert qa_records and qa_records[0].meta["attempt"] == 1
