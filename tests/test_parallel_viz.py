"""Parallel visualization execution (the paper's §5 future-work item)."""

import pytest

from repro.agents import AgentContext, StepOutcome, Supervisor, VisualizationAgent
from repro.core import InferA, InferAConfig
from repro.db import Database
from repro.frame import Frame
from repro.llm import MockLLM
from repro.llm.base import MeteredModel
from repro.llm.errors import ErrorModel, NO_ERRORS
from repro.provenance import ProvenanceTracker
from repro.rag import ColumnRetriever
from repro.sandbox import InProcessClient, SandboxExecutor
from repro.sim.schema import COLUMN_DESCRIPTIONS

TWO_PLOT_QUESTION = (
    "Can you plot the change in mass of the largest friends-of-friends "
    "halos for all timesteps in all simulations? Provide me two plots "
    "using both fof_halo_count and fof_halo_mass as metrics for mass."
)


class TestParallelViz:
    def test_same_outputs_as_serial(self, ensemble, tmp_path):
        serial_app = InferA(
            ensemble, tmp_path / "serial",
            InferAConfig(error_model=NO_ERRORS, llm_latency_s=0.0),
        )
        parallel_app = InferA(
            ensemble, tmp_path / "parallel",
            InferAConfig(error_model=NO_ERRORS, llm_latency_s=0.0, parallel_viz=True),
        )
        serial = serial_app.run_query(TWO_PLOT_QUESTION)
        parallel = parallel_app.run_query(TWO_PLOT_QUESTION)
        assert serial.completed and parallel.completed
        assert len(parallel.figures) == len(serial.figures) == 2
        assert serial.tables["track_fof_halo_mass"].equals(
            parallel.tables["track_fof_halo_mass"]
        )

    def test_step_results_complete(self, ensemble, tmp_path):
        app = InferA(
            ensemble, tmp_path / "p",
            InferAConfig(error_model=NO_ERRORS, llm_latency_s=0.0, parallel_viz=True),
        )
        report = app.run_query(TWO_PLOT_QUESTION)
        viz_results = [s for s in report.run.steps if s.kind == "viz"]
        assert len(viz_results) == 2
        assert all(s.status == "ok" for s in viz_results)
        assert report.run.tasks_completed_fraction == 1.0

    def test_repair_loop_still_works_in_batch(self, ensemble, tmp_path):
        flaky = ErrorModel(
            column_typo_rate=0.6, repair_miss_rate=0.0, double_error_rate=0.0,
            concept_error_rates=(0, 0, 0), wrong_metric_rate=0.0,
            tool_misuse_rate=0.0, viz_misselection_rate=0.0,
        )
        app = InferA(
            ensemble, tmp_path / "f",
            InferAConfig(seed=11, error_model=flaky, llm_latency_s=0.0, parallel_viz=True),
        )
        report = app.run_query(TWO_PLOT_QUESTION)
        assert report.completed  # typos repaired inside the batch loop

    def test_budget_exhaustion_fails_run(self, ensemble, tmp_path):
        hopeless = ErrorModel(
            column_typo_rate=1.0, repair_miss_rate=1.0, double_error_rate=0.0,
            concept_error_rates=(0, 0, 0), wrong_metric_rate=0.0,
            tool_misuse_rate=0.0, viz_misselection_rate=0.0,
        )
        app = InferA(
            ensemble, tmp_path / "h",
            InferAConfig(error_model=hopeless, llm_latency_s=0.0, parallel_viz=True),
        )
        report = app.run_query(TWO_PLOT_QUESTION)
        assert not report.completed


def frames_equal(a: dict[str, Frame], b: dict[str, Frame]) -> bool:
    return list(a) == list(b) and all(a[name].equals(b[name]) for name in a)


class TestParallelIsSerialRunConcurrently:
    """The batch is the serial attempt and judge per plot: same step keys,
    so the same model draws, the same verdicts and the same report."""

    @pytest.mark.parametrize("parallel_viz", [False, True])
    def test_the_failing_plot_is_named_and_counted_alike(
        self, tmp_path, monkeypatch, parallel_viz
    ):
        # plot 0 draws its figure, plot 1 never runs clean
        def run_step(agent, step, tables, step_key, attempt, semantic_level, previous_error=""):
            if step["index"] == 1:
                return StepOutcome.failure("c", "KeyError", "'nope'", "viz")
            return StepOutcome(ok=True, code="c", op="viz", form_used="line", svg="<svg/>")

        monkeypatch.setattr(VisualizationAgent, "run_step", run_step)
        context = AgentContext(
            llm=MeteredModel(MockLLM(seed=2, error_model=NO_ERRORS, latency_per_call_s=0.0)),
            retriever=ColumnRetriever(COLUMN_DESCRIPTIONS),
            db=Database(tmp_path / "db"),
            sandbox=InProcessClient(SandboxExecutor()),
            provenance=ProvenanceTracker(tmp_path, "s"),
        )
        supervisor = Supervisor(context, data_loader=None, parallel_viz=parallel_viz)
        plan = [
            {"index": i, "kind": "viz", "description": f"plot {i}", "params": {"form": "line"}}
            for i in range(2)
        ]
        report = supervisor.execute("two plots", plan, 0, {})
        assert not report.completed
        assert report.failed_at_step == 1
        assert [(s.index, s.status, s.attempts, s.redo_iterations) for s in report.steps] == [
            (0, "ok", 1, 0), (1, "failed", 6, 5),
        ]
        # 5 redos, counted twice on exhaustion (DESIGN.md, "Step protocol")
        assert report.redo_iterations == 10
        assert report.figures == ["<svg/>"]

    @pytest.mark.parametrize(
        "options",
        [dict(seed=seed) for seed in range(8)]
        # rigid QA rejects ~1 clean attempt in 5, which is what sends plots
        # (whose generated code tolerates column typos) through a redo
        + [dict(seed=seed, qa_mode="binary", error_model=NO_ERRORS) for seed in (1, 2, 4, 6)],
        ids=lambda o: f"{o.get('qa_mode', 'default')}-{o['seed']}",
    )
    def test_same_report_as_serial(self, ensemble, tmp_path, options):
        def run(name, parallel_viz):
            app = InferA(
                ensemble, tmp_path / name,
                InferAConfig(llm_latency_s=0.0, parallel_viz=parallel_viz, **options),
            )
            return app.run_query(TWO_PLOT_QUESTION).run

        serial, parallel = run("serial", False), run("parallel", True)
        assert parallel.completed == serial.completed
        assert parallel.failed_at_step == serial.failed_at_step
        if serial.completed:
            assert parallel.steps == serial.steps
            assert parallel.redo_iterations == serial.redo_iterations
            assert frames_equal(parallel.tables, serial.tables)
            assert parallel.figures == serial.figures
        else:
            # the batch may also have finished plots the serial run never reached
            assert parallel.steps[: len(serial.steps)] == serial.steps
