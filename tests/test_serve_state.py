"""Warm state: timed one-time construction, shared across per-request apps."""

from __future__ import annotations

from repro.core.config import InferAConfig
from repro.llm.errors import NO_ERRORS
from repro.serve.state import WarmState


def make_state(ensemble, tmp_path, **config_kwargs) -> WarmState:
    kwargs = {"error_model": NO_ERRORS, "llm_latency_s": 0.0}
    kwargs.update(config_kwargs)
    return WarmState(ensemble, tmp_path / "serve", InferAConfig(**kwargs))


def test_warmup_report_times_every_component(ensemble, tmp_path):
    state = make_state(ensemble, tmp_path)
    assert not state.warmed
    report = state.warm()
    assert state.warmed
    assert set(report.component_s) == {
        "retriever",
        "query_cache",
        "catalogs",
        "sandbox",
    }
    assert all(s >= 0 for s in report.component_s.values())
    assert report.total_s == sum(report.component_s.values())
    doc = report.as_dict()
    assert doc["total_s"] == report.total_s
    assert doc["details"]["sandbox"] == "in-process"
    rendered = report.render()
    assert "warm-up complete" in rendered and "retriever" in rendered


def test_warm_is_idempotent(ensemble, tmp_path):
    state = make_state(ensemble, tmp_path)
    first = state.warm()
    retriever = state.retriever
    assert state.warm() is first
    assert state.retriever is retriever


def test_apps_share_warm_components_but_isolate_workdirs(ensemble, tmp_path):
    state = make_state(ensemble, tmp_path)
    state.warm()
    app_a = state.build_app(tmp_path / "serve" / "sessions" / "a", seed=3)
    app_b = state.build_app(tmp_path / "serve" / "sessions" / "b", seed=3)
    # shared read-only warm state: one retriever, one sandbox client
    assert app_a._retriever is state.retriever
    assert app_b._retriever is state.retriever
    assert app_a.sandbox is state.sandbox
    # shared on-disk cache tiers under the server workdir
    assert app_a.config.query_cache_dir == str(state.query_cache_dir)
    assert app_a.config.retrieval_cache_dir == str(state.retrieval_cache_dir)
    # isolated writable state
    assert app_a.workdir != app_b.workdir


def test_build_app_overrides_seed_only(ensemble, tmp_path):
    state = make_state(ensemble, tmp_path, seed=100, token_budget=50_000)
    app = state.build_app(tmp_path / "s", seed=7)
    assert app.config.seed == 7
    assert app.config.token_budget == 50_000  # everything else passes through


def test_build_app_warms_lazily(ensemble, tmp_path):
    state = make_state(ensemble, tmp_path)
    app = state.build_app(tmp_path / "s", seed=1)
    assert state.warmed  # building an app forces warm-up if skipped
    assert app._retriever is state.retriever
