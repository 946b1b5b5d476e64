"""Declarative SLO gates: trace, phase, and histogram budgets."""

import json

import pytest

from repro.obs.slo import DEFAULT_POLICY, SLOPolicy, check_workdir


def _span(name, duration=0.1, status="ok", **attrs):
    return {
        "name": name, "status": status, "duration": duration,
        "span_id": f"s{id(attrs)}", "parent_id": None, "attributes": attrs,
    }


SPANS = [
    _span("session", 2.0),
    _span("sql.execute", 0.5),
    _span("llm.chat", 0.1, prompt_tokens=100, completion_tokens=40, cost_usd=0.5),
    _span("llm.chat", 0.1, prompt_tokens=60, completion_tokens=20, cost_usd=0.25),
]


class TestTraceGates:
    def test_default_policy_passes_a_clean_trace(self):
        report = SLOPolicy.default().check(SPANS)
        assert report.ok
        assert "SLO: PASS" in report.render()

    def test_open_span_violates_default_policy(self):
        spans = SPANS + [_span("sql.execute", 0.0, status="open")]
        report = SLOPolicy.default().check(spans)
        assert not report.ok
        (violation,) = report.violations
        assert violation.rule == "trace.open_spans"
        assert "SLO: FAIL" in report.render()

    def test_token_ceiling_reads_span_counters(self):
        # the llm.chat spans carry 220 tokens
        assert not SLOPolicy.from_dict({"trace": {"max_total_tokens": 200}}).check(SPANS).ok
        assert SLOPolicy.from_dict({"trace": {"max_total_tokens": 220}}).check(SPANS).ok

    def test_cost_usd_gate_reads_span_prices(self):
        (check,) = SLOPolicy.from_dict({"trace": {"max_cost_usd": 0.5}}).check(SPANS).checks
        assert not check.ok and check.observed == 0.75
        assert SLOPolicy.from_dict({"trace": {"max_cost_usd": 1.0}}).check(SPANS).ok

    def test_error_span_gate(self):
        policy = SLOPolicy.from_dict({"trace": {"max_error_spans": 0}})
        assert policy.check(SPANS).ok
        assert not policy.check(SPANS + [_span("step.sql", status="error")]).ok


class TestPhaseGates:
    def test_latency_error_and_span_budgets(self):
        policy = SLOPolicy.from_dict({"phases": {
            "sql": {"max_total_s": 1.0, "max_errors": 0, "max_spans": 10},
        }})
        assert policy.check(SPANS).ok
        slow = SPANS + [_span("sql.execute", 5.0)]
        report = policy.check(slow)
        assert [v.rule for v in report.violations] == ["phase.sql.total_s"]

    def test_absent_phase_counts_as_zero(self):
        policy = SLOPolicy.from_dict({"phases": {
            "sandbox": {"max_total_s": 1.0, "max_errors": 0},
        }})
        assert policy.check(SPANS).ok


class TestHistogramGates:
    METRICS = {"histograms": {
        "sql.latency_s": {
            "count": 10, "sum": 2.0, "underflow": 1,
            "min": 0.001, "max": 0.9,
        },
    }}

    def test_true_extremes_gate_p0_and_p100(self):
        policy = SLOPolicy.from_dict({"histograms": {
            "sql.latency_s": {"max_p100": 1.0, "min_p0": 0.0},
        }})
        assert policy.check([], metrics=self.METRICS).ok
        tight = SLOPolicy.from_dict({"histograms": {
            "sql.latency_s": {"max_p100": 0.5},
        }})
        report = tight.check([], metrics=self.METRICS)
        assert [v.rule for v in report.violations] == ["hist.sql.latency_s.p100"]

    def test_underflow_budget(self):
        policy = SLOPolicy.from_dict({"histograms": {
            "sql.latency_s": {"max_underflow": 0},
        }})
        assert not policy.check([], metrics=self.METRICS).ok

    def test_absent_histogram_is_skipped(self):
        policy = SLOPolicy.from_dict({"histograms": {
            "no.such.metric": {"max_p100": 1.0},
        }})
        report = policy.check([], metrics=self.METRICS)
        assert report.ok and report.checks[0].skipped


class TestPolicyLoading:
    def test_from_json_file(self, tmp_path):
        path = tmp_path / "policy.json"
        path.write_text(json.dumps({"trace": {"max_open_spans": 5}}))
        policy = SLOPolicy.from_json(path)
        assert policy.doc["trace"]["max_open_spans"] == 5

    def test_default_is_a_deep_copy(self):
        policy = SLOPolicy.default()
        policy.doc["trace"]["max_open_spans"] = 99
        assert DEFAULT_POLICY["trace"]["max_open_spans"] == 0


class TestCheckWorkdir:
    def test_reads_sidecar_artifacts(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        trace.write_text("".join(json.dumps(s) + "\n" for s in SPANS))
        (tmp_path / "metrics.json").write_text(json.dumps(
            {"histograms": {"h": {"count": 2, "min": 0.1, "max": 0.2}}}))
        policy = SLOPolicy.from_dict({
            "trace": {"max_total_tokens": 300, "max_cost_usd": 1.0},
            "histograms": {"h": {"max_p100": 1.0}},
        })
        report = check_workdir(tmp_path, policy=policy)
        assert report.ok
        assert not any(c.skipped for c in report.checks)

    def test_bare_trace_file_skips_sidecar_gates(self, tmp_path):
        trace = tmp_path / "lone_trace.jsonl"
        trace.write_text("".join(json.dumps(s) + "\n" for s in SPANS))
        policy = SLOPolicy.from_dict({"histograms": {"h": {"max_p100": 1.0}}})
        report = check_workdir(trace, policy=policy)
        assert report.ok and report.checks[0].skipped

    def test_missing_trace_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            check_workdir(tmp_path / "nowhere")
