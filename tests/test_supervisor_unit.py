"""Supervisor orchestration mechanics (beyond the end-to-end paths)."""

import zlib

import numpy as np
import pytest

from repro.agents import AgentContext, DataLoadingAgent, Supervisor
from repro.db import Database
from repro.graph import node_sequence
from repro.llm import MockLLM, NO_ERRORS
from repro.llm.base import MeteredModel
from repro.obs.tracer import Tracer, use_tracer
from repro.provenance import ProvenanceTracker
from repro.rag import ColumnRetriever
from repro.sandbox import InProcessClient, SandboxExecutor
from repro.agents.tools import default_toolset
from repro.sim.schema import COLUMN_DESCRIPTIONS, FILE_STRUCTURE_DESCRIPTIONS, IMPORTANT_COLUMNS


@pytest.fixture()
def supervisor(ensemble, tmp_path):
    context = AgentContext(
        llm=MeteredModel(MockLLM(seed=2, error_model=NO_ERRORS, latency_per_call_s=0.0)),
        retriever=ColumnRetriever(
            COLUMN_DESCRIPTIONS, FILE_STRUCTURE_DESCRIPTIONS, important=IMPORTANT_COLUMNS
        ),
        db=Database(tmp_path / "db"),
        sandbox=InProcessClient(SandboxExecutor(tools=default_toolset())),
        provenance=ProvenanceTracker(tmp_path, "s"),
        tracer=Tracer(),
    )
    return Supervisor(context, DataLoadingAgent(context, ensemble))


def executed_nodes(supervisor) -> list[str]:
    return node_sequence(supervisor.context.tracer.span_dicts(), "main")


def plan_steps():
    return [
        {
            "index": 0, "kind": "load",
            "description": "load halos",
            "params": {"entities": ["halos"],
                       "columns": {"halos": ["fof_halo_tag", "fof_halo_count"]},
                       "runs": [0], "steps": [624], "param_columns": []},
        },
        {
            "index": 1, "kind": "sql",
            "description": "filter",
            "params": {"table": "halos", "columns": ["fof_halo_tag", "fof_halo_count"],
                       "runs": [0], "steps": [624], "top_k": 5,
                       "rank_metric": "fof_halo_count", "per_cell_rank": False,
                       "secondary": [], "secondary_columns": {}, "param_columns": []},
        },
        {
            "index": 2, "kind": "python",
            "description": "verify",
            "params": {"op": "top_k_per_cell", "metric": "fof_halo_count", "top_k": 5},
        },
    ]


class TestExecution:
    def test_execute_returns_report(self, supervisor):
        report = supervisor.execute("top 5 halos", plan_steps(), 0, {})
        assert report.completed
        assert report.plan_size == 3
        assert [s.kind for s in report.steps] == ["load", "sql", "python"]
        assert report.tables["work"].num_rows == 5

    def test_routing_order(self, supervisor):
        supervisor.execute("q", plan_steps(), 0, {})
        nodes = executed_nodes(supervisor)
        assert nodes == [
            "supervisor", "data_loader",
            "supervisor", "sql", "qa",
            "supervisor", "python", "qa",
            "supervisor", "documentation",
        ]

    def test_documentation_can_be_disabled(self, supervisor):
        supervisor.enable_documentation = False
        report = supervisor.execute("q", plan_steps(), 0, {})
        assert report.completed
        nodes = executed_nodes(supervisor)
        assert nodes and "documentation" not in nodes

    def test_tokens_accumulate_per_step(self, supervisor):
        with use_tracer(supervisor.context.tracer):
            report = supervisor.execute("q", plan_steps(), 0, {})
        # supervisor + sql + python + 2 qa + doc exchanges at minimum
        chats = [
            s for s in supervisor.context.tracer.span_dicts() if s["name"] == "llm.chat"
        ]
        assert len(chats) >= 6
        assert report.tokens == supervisor.context.total_tokens == sum(
            s["attributes"]["prompt_tokens"] + s["attributes"]["completion_tokens"]
            for s in chats
        )

    def test_empty_plan_goes_straight_to_documentation(self, supervisor):
        report = supervisor.execute("q", [], 0, {})
        assert report.completed
        assert report.plan_size == 0
        assert report.steps == []

    def test_step_key_distinct_per_question(self, supervisor):
        k1 = supervisor._step_key({"question": "a", "step_index": 1})
        k2 = supervisor._step_key({"question": "b", "step_index": 1})
        k3 = supervisor._step_key({"question": "a", "step_index": 2})
        assert len({k1, k2, k3}) == 3

    def test_step_key_stable_across_interpreters(self, supervisor):
        # pinned values: the step key seeds the mock LLM's error-draw
        # streams, so it must not depend on the salted str hash
        assert supervisor._step_key({"question": "a", "step_index": 1}) == "qbe43.s1"
        assert supervisor._step_key(
            {"question": "top 20 halos", "step_index": 0}
        ) == f"q{zlib.crc32(b'top 20 halos') & 0xFFFF:x}.s0"


class TestDeterminism:
    def test_same_seed_same_outcome(self, ensemble, tmp_path):
        from repro.core import InferA, InferAConfig

        def run(workdir):
            app = InferA(ensemble, workdir, InferAConfig(seed=99, llm_latency_s=0.0))
            r = app.run_query("top 5 halos by fof_halo_count at timestep 624 in simulation 0")
            return r.completed, r.run.redo_iterations, r.tokens

        a = run(tmp_path / "a")
        b = run(tmp_path / "b")
        assert a == b

    def test_different_seed_can_differ(self, ensemble, tmp_path):
        from repro.core import InferA, InferAConfig

        outcomes = set()
        for seed in range(6):
            app = InferA(ensemble, tmp_path / f"s{seed}", InferAConfig(seed=seed, llm_latency_s=0.0))
            r = app.run_query("top 5 halos by fof_halo_count at timestep 624 in simulation 0")
            outcomes.add(r.run.redo_iterations)
        assert len(outcomes) > 1  # the error model actually varies across seeds
