"""End-to-end InferA queries over the shared test ensemble."""

import numpy as np
import pytest

from repro.eval.metrics import oracle_assess
from repro.provenance.audit import verify_audit_trail


class TestSimpleExtraction:
    def test_top_k_question(self, clean_app, ensemble):
        report = clean_app.run_query(
            "Can you find me the top 20 largest friends-of-friends halos from "
            "timestep 498 in simulation 0?"
        )
        assert report.completed
        work = report.tables["work"]
        assert work.num_rows == 20
        # verify against the raw data
        truth = ensemble.read(0, 498, "halos", ["fof_halo_count"])
        expected_max = truth["fof_halo_count"].max()
        assert work["fof_halo_count"].max() == expected_max
        assert np.all(np.diff(work["fof_halo_count"]) <= 0)

    def test_aggregate_question_matches_truth(self, clean_app, ensemble):
        report = clean_app.run_query(
            "Across all the simulations, what is the average size "
            "(fof_halo_count) of halos at each time step?"
        )
        assert report.completed
        agg = report.tables["aggregated"]
        # recompute from the raw ensemble for one step
        step = ensemble.timesteps[-1]
        counts = np.concatenate(
            [
                ensemble.read(r, step, "halos", ["fof_halo_count"])["fof_halo_count"]
                for r in range(ensemble.n_runs)
            ]
        )
        row = agg.filter(agg["step"] == step)
        assert row["fof_halo_count_mean"][0] == pytest.approx(counts.mean())


class TestComplexPipelines:
    def test_evolution_two_plots(self, clean_app):
        report = clean_app.run_query(
            "Can you plot the change in mass of the largest friends-of-friends "
            "halos for all timesteps in all simulations? Provide me two plots "
            "using both fof_halo_count and fof_halo_mass as metrics for mass."
        )
        assert report.completed
        assert len(report.figures) == 2
        track = report.tables["track_fof_halo_mass"]
        assert "fof_halo_mass" in track.columns
        # the tracked halo grows over time within each run
        for run in np.unique(track["run"]):
            seg = track.filter(track["run"] == run).sort_values("step")
            assert seg["fof_halo_mass"][seg.num_rows - 1] >= seg["fof_halo_mass"][0]

    def test_smhm_by_seed_mass_finds_threshold(self, clean_app, ensemble):
        report = clean_app.run_query(
            "At timestep 624, how does the slope and intrinsic scatter of the "
            "stellar-to-halo mass (SMHM) relation vary as a function of seed "
            "mass? Which seed mass values produce the tightest SMHM correlation?"
        )
        assert report.completed
        fit = report.tables["fit_by_param"]
        assert fit.num_rows == ensemble.n_runs  # one fit per seed value
        best = report.tables["best_param"]
        # the selected seed is the scatter argmin
        assert best["scatter"][0] == fit["scatter"].min()

    def test_gas_fraction_evolution(self, clean_app):
        report = clean_app.run_query(
            "How does the slope and normalization of the gas-mass fraction-mass "
            "relation (sod_halo_MGas500c/sod_halo_M500c) evolve from the "
            "earliest timestep to the latest timestep in simulation 0?"
        )
        assert report.completed
        evolution = report.tables["evolution"]
        assert set(evolution["quantity"].tolist()) == {"slope", "normalization", "scatter"}
        # physics: the slope flattens with cosmic time (change < 0)
        slope_change = float(
            evolution.filter(evolution["quantity"] == "slope")["change"][0]
        )
        assert slope_change < 0

    def test_paraview_neighborhood(self, clean_app):
        report = clean_app.run_query(
            "Can you plot a dark matter halo and all halos within 20 Mpc of it "
            "at timestep 624 in simulation 0 using Paraview?"
        )
        assert report.completed
        hood = report.tables["neighborhood"]
        assert hood["is_target"].sum() >= 1
        assert (hood["distance"] <= 20.0).all()
        assert report.figures and "#e34948" in report.figures[0]

    def test_interestingness_umap(self, clean_app):
        report = clean_app.run_query(
            "Find the most unique halos in simulation 0 at timestep 624: using "
            "velocity, mass, and kinetic energy, generate an interestingness "
            "score and plot the top 100 halos as a UMAP plot, highlighting the "
            "top 10 halos that are the most interesting."
        )
        assert report.completed
        scored = report.tables["scored"]
        assert "interestingness" in scored.columns
        assert "umap_x" in scored.columns


class TestReportContents:
    def test_metrics_populated(self, clean_app):
        report = clean_app.run_query("top 5 halos at timestep 624 in simulation 0")
        assert report.tokens > 0
        assert report.storage_bytes > 0
        assert report.time_s >= 0
        assert report.run.plan_size == len(report.plan.steps)

    def test_oracle_passes_clean_runs(self, clean_app):
        report = clean_app.run_query(
            "What is the average fof_halo_mass of halos at each time step in simulation 2?"
        )
        data_ok, visual_ok = oracle_assess(report)
        assert data_ok and visual_ok

    def test_provenance_trail_verifies(self, clean_app):
        report = clean_app.run_query("top 5 halos at timestep 624 in simulation 0")
        records = verify_audit_trail(report.session_dir)
        kinds = {r["kind"] for r in records}
        assert {"query", "plan", "code", "result", "llm", "qa"} <= kinds

    def test_sessions_isolated(self, clean_app):
        r1 = clean_app.run_query("top 5 halos at timestep 624 in simulation 0")
        r2 = clean_app.run_query("top 3 halos at timestep 498 in simulation 1")
        assert r1.session_dir != r2.session_dir
        assert r1.tables["work"].num_rows == 5
        assert r2.tables["work"].num_rows == 3

    def test_db_bytes_reported(self, clean_app):
        report = clean_app.run_query("top 5 halos at timestep 624 in simulation 0")
        assert report.db_bytes > 0
        assert report.db_bytes <= report.storage_bytes


class TestFaultyRuns:
    def test_redo_loop_repairs_and_completes_most_runs(self, faulty_app):
        outcomes = []
        for _ in range(6):
            r = faulty_app.run_query(
                "Can you find me the top 20 largest friends-of-friends halos "
                "from timestep 498 in simulation 0?"
            )
            outcomes.append(r.completed)
        assert sum(outcomes) >= 4  # easy question: mostly completes

    def test_failed_step_recorded(self, ensemble, tmp_path):
        from repro.core import InferA, InferAConfig
        from repro.llm.errors import ErrorModel

        always_fail = ErrorModel(
            column_typo_rate=1.0, repair_miss_rate=1.0, double_error_rate=0.0,
            concept_error_rates=(0, 0, 0), wrong_metric_rate=0.0,
            tool_misuse_rate=0.0, viz_misselection_rate=0.0,
        )
        app = InferA(ensemble, tmp_path / "w", InferAConfig(error_model=always_fail, llm_latency_s=0))
        report = app.run_query("top 5 halos by fof_halo_count at timestep 624 in simulation 0")
        assert not report.completed
        assert report.run.failed_at_step is not None
        assert report.run.redo_iterations >= 5
        failed = [s for s in report.run.steps if s.status == "failed"]
        assert len(failed) == 1
