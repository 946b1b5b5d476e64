"""Declarative SLO gates: trace and phase budgets."""

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

    def test_histograms_section_is_refused_by_name(self):
        # the registry keeps counters only: a latency gate is a phase budget
        with pytest.raises(ValueError, match="'histograms' section.*phases"):
            SLOPolicy.from_dict({"histograms": {"sql.latency_s": {"max_p100": 1.0}}})

    @pytest.mark.parametrize(
        "doc, named",
        [
            ({"trace": {"max_total_token": 1}}, "max_total_token"),
            ({"trac": {"max_total_tokens": 1}}, "'trac'"),
            ({"phases": {"llm": {"max_total": 0}}}, "max_total:"),
        ],
        ids=["trace-rule", "section", "phase-rule"],
    )
    def test_a_misspelled_budget_is_refused_by_name(self, tmp_path, capsys, doc, named):
        # each of these used to evaluate 0 checks and print SLO: PASS
        with pytest.raises(ValueError, match=named):
            SLOPolicy.from_dict(doc)
        from repro.cli import main

        policy = tmp_path / "typo.json"
        policy.write_text(json.dumps(doc))
        assert main(["slo", "check", str(tmp_path), "--policy", str(policy)]) == 1
        out = capsys.readouterr().out
        assert out.startswith(f"cannot use policy {policy}") and named in out
        assert "SLO:" not in out


class TestCheckWorkdir:
    def test_checks_the_workdir_trace(self, tmp_path):
        (tmp_path / "trace.jsonl").write_text("".join(json.dumps(s) + "\n" for s in SPANS))
        policy = SLOPolicy.from_dict({"trace": {"max_total_tokens": 300, "max_cost_usd": 1.0}})
        assert check_workdir(tmp_path, policy=policy).ok
        tight = SLOPolicy.from_dict({"trace": {"max_total_tokens": 200}})
        assert not check_workdir(tmp_path / "trace.jsonl", policy=tight).ok

    def test_missing_trace_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            check_workdir(tmp_path / "nowhere")
