"""Oracle judgments and Table 2 aggregation."""

import numpy as np
import pytest

from repro.eval.metrics import AggregateRow, MetricsAggregator, RunMetrics


def make_metrics(**overrides) -> RunMetrics:
    base = dict(
        qid="q01", run_index=0, completed=True, tasks_fraction=1.0,
        data_ok=True, visual_ok=True, tokens=1000, storage_bytes=10_000,
        time_s=1.0, redo_iterations=0, plan_steps=4,
        semantic_level=0, analysis_level=0, multi_run=False, multi_step=False,
    )
    base.update(overrides)
    return RunMetrics(**base)


class TestAggregator:
    def test_total_bucket(self):
        agg = MetricsAggregator()
        agg.add(make_metrics())
        agg.add(make_metrics(qid="q02", completed=False, data_ok=False, tasks_fraction=0.5))
        row = agg.bucket("Total", lambda r: True)
        assert row.runs == 2
        assert row.count == 2
        assert row.pct_runs_completed == 50.0
        assert row.pct_satisfactory_data == 50.0
        assert row.pct_tasks_complete == 75.0

    def test_empty_bucket(self):
        row = MetricsAggregator().bucket("x", lambda r: True)
        assert row.runs == 0

    def test_token_average(self):
        agg = MetricsAggregator()
        agg.add(make_metrics(tokens=100))
        agg.add(make_metrics(tokens=300))
        assert agg.bucket("t", lambda r: True).token_usage == 200

    def test_storage_in_gb(self):
        agg = MetricsAggregator()
        agg.add(make_metrics(storage_bytes=2_000_000_000))
        assert agg.bucket("t", lambda r: True).storage_overhead_gb == pytest.approx(2.0)

    def test_table2_rows_structure(self):
        agg = MetricsAggregator()
        for level in (0, 1, 2):
            agg.add(make_metrics(qid=f"q{level}", analysis_level=level, semantic_level=level))
        rows = agg.table2_rows()
        labels = [r.label for r in rows]
        assert labels[0] == "Analysis Easy"
        assert "Semantic Hard" in labels
        assert labels[-3:] == ["Total", "Successful runs", "Unsuccessful runs"]

    def test_success_split(self):
        agg = MetricsAggregator()
        agg.add(make_metrics(completed=True, tokens=100))
        agg.add(make_metrics(completed=False, tokens=500))
        rows = {r.label: r for r in agg.table2_rows()}
        assert rows["Successful runs"].token_usage == 100
        assert rows["Unsuccessful runs"].token_usage == 500


class TestOracleViaPipeline:
    """Oracle behaviour on real runs is covered in test_core_app; here we
    check the silent failure modes are caught end to end."""

    def test_tool_misuse_marks_data_unsat(self, ensemble, tmp_path):
        import dataclasses

        from repro.core import InferA, InferAConfig
        from repro.eval.metrics import oracle_assess
        from repro.llm.errors import NO_ERRORS

        em = dataclasses.replace(NO_ERRORS, tool_misuse_rate=1.0)
        app = InferA(ensemble, tmp_path / "w", InferAConfig(error_model=em, llm_latency_s=0))
        report = app.run_query(
            "Plot the change in mass of the largest friends-of-friends halos "
            "for all timesteps in all simulations using fof_halo_mass."
        )
        assert report.completed  # valid code, run completes
        data_ok, _ = oracle_assess(report)
        assert not data_ok       # ... but the analysis is off-target

    def test_viz_misselection_marks_visual_unsat(self, ensemble, tmp_path):
        import dataclasses

        from repro.core import InferA, InferAConfig
        from repro.eval.metrics import oracle_assess
        from repro.llm.errors import NO_ERRORS

        em = dataclasses.replace(NO_ERRORS, viz_misselection_rate=1.0)
        app = InferA(ensemble, tmp_path / "w", InferAConfig(error_model=em, llm_latency_s=0))
        report = app.run_query(
            "Plot a dark matter halo and all halos within 20 Mpc of it at "
            "timestep 624 in simulation 0 using Paraview."
        )
        assert report.completed
        _, visual_ok = oracle_assess(report)
        assert not visual_ok

    def test_wrong_metric_marks_data_unsat(self, ensemble, tmp_path):
        import dataclasses

        from repro.core import InferA, InferAConfig
        from repro.eval.metrics import oracle_assess
        from repro.llm.errors import NO_ERRORS

        em = dataclasses.replace(NO_ERRORS, wrong_metric_rate=1.0)
        app = InferA(ensemble, tmp_path / "w", InferAConfig(error_model=em, llm_latency_s=0))
        report = app.run_query(
            "Across all the simulations, what is the average size "
            "(fof_halo_count) of halos at each time step?"
        )
        assert report.completed
        data_ok, _ = oracle_assess(report)
        assert not data_ok
