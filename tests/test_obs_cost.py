"""The cost ledger: pricing, attribution, merging, the §4.5 growth
curve, and hard token budgets enforced end to end."""

import json

import pytest

from repro.core import InferA, InferAConfig
from repro.eval.harness import EvaluationHarness, HarnessConfig
from repro.eval.questions import QUESTION_SUITE
from repro.llm.errors import NO_ERRORS
from repro.obs.cost import (
    DEFAULT_MODEL,
    KEY_FIELDS,
    PRICE_TABLE,
    CostLedger,
    cost_attribution,
    current_attribution,
    get_ledger,
    price_of,
    record_llm_call,
    use_ledger,
)
from repro.resilience import BudgetExceeded, ResilienceError


class TestPricing:
    def test_cost_is_per_1k_tokens_by_direction(self):
        price = PRICE_TABLE["mock-gpt-4o"]
        assert price.cost(1000, 0) == pytest.approx(price.prompt_usd_per_1k)
        assert price.cost(0, 1000) == pytest.approx(price.completion_usd_per_1k)
        assert price.cost(0, 0) == 0.0

    def test_unknown_model_falls_back_to_default(self):
        assert price_of("no-such-model") is PRICE_TABLE[DEFAULT_MODEL]

    def test_mini_model_is_cheaper(self):
        big = price_of("mock-gpt-4o").cost(500, 500)
        small = price_of("mock-gpt-4o-mini").cost(500, 500)
        assert small < big


class TestLedger:
    def test_totals_equal_sum_of_entries(self):
        ledger = CostLedger()
        ledger.record(100, 50, agent="planner", attempt=0)
        ledger.record(200, 30, agent="sql", attempt=1)
        ledger.record(10, 5, agent="sql", attempt=1)  # same key accumulates
        doc = ledger.as_dict()
        assert len(doc["entries"]) == 2
        for field in ("calls", "prompt_tokens", "completion_tokens",
                      "total_tokens", "cost_usd"):
            assert doc["totals"][field] == pytest.approx(
                sum(e[field] for e in doc["entries"]))
        assert ledger.total_tokens() == 395
        assert ledger.total_calls() == 3

    def test_every_entry_carries_all_key_fields(self):
        ledger = CostLedger()
        ledger.record(10, 5, agent="qa")
        (entry,) = ledger.as_dict()["entries"]
        assert set(KEY_FIELDS) <= set(entry)
        assert entry["agent"] == "qa" and entry["session"] == ""

    def test_merge_is_entrywise_addition(self):
        a, b = CostLedger(), CostLedger()
        a.record(100, 10, agent="x")
        b.record(50, 5, agent="x")
        b.record(30, 3, agent="y")
        a.merge(b)
        doc = a.as_dict()
        by_agent = {e["agent"]: e for e in doc["entries"]}
        assert by_agent["x"]["prompt_tokens"] == 150
        assert by_agent["y"]["completion_tokens"] == 3

    def test_merge_accepts_serialized_dicts(self):
        a, b = CostLedger(), CostLedger()
        a.record(10, 1, agent="x")
        b.record(20, 2, agent="x")
        a.merge(b.as_dict())
        assert a.total_tokens() == 33

    def test_round_trips_through_json(self):
        ledger = CostLedger(token_budget=1000)
        ledger.record(100, 50, agent="p", level=2)
        restored = CostLedger.from_dict(json.loads(json.dumps(ledger.as_dict())))
        assert restored.as_dict() == ledger.as_dict()
        assert restored.token_budget == 1000

    def test_growth_curve_groups_by_level_then_attempt(self):
        ledger = CostLedger()
        ledger.record(100, 0, level=1, attempt=0)
        ledger.record(50, 0, level=1, attempt=1)
        ledger.record(70, 0, level=2, attempt=0)
        ledger.record(30, 0)  # unattributed -> level "?"
        curve = ledger.growth_curve()
        assert curve["1"] == {0: 100, 1: 50}
        assert curve["2"] == {0: 70}
        assert curve["?"] == {0: 30}

    def test_by_field_folds_and_rejects_unknown(self):
        ledger = CostLedger()
        ledger.record(10, 0, agent="a", attempt=0)
        ledger.record(20, 0, agent="a", attempt=1)
        assert ledger.by_field("agent")["a"].prompt_tokens == 30
        with pytest.raises(ValueError):
            ledger.by_field("color")


class TestAttributionScopes:
    def test_scopes_nest_and_override_per_field(self):
        with cost_attribution(session="s1", node="plan"):
            with cost_attribution(node="sql", attempt=2):
                assert current_attribution() == {
                    "session": "s1", "node": "sql", "attempt": 2}
            assert current_attribution() == {"session": "s1", "node": "plan"}
        assert current_attribution() == {}

    def test_record_llm_call_uses_ambient_scope(self):
        ledger = CostLedger()
        with use_ledger(ledger), cost_attribution(session="s", agent="viz"):
            cost = record_llm_call(100, 50)
        assert cost == pytest.approx(price_of(DEFAULT_MODEL).cost(100, 50))
        (entry,) = ledger.as_dict()["entries"]
        assert entry["session"] == "s" and entry["agent"] == "viz"

    def test_unmetered_calls_are_free_noops(self):
        assert get_ledger() is None
        assert record_llm_call(100, 50) is None

    def test_use_ledger_nests_and_restores(self):
        outer, inner = CostLedger(), CostLedger()
        with use_ledger(outer):
            with use_ledger(inner):
                record_llm_call(10, 0)
            record_llm_call(20, 0)
        assert get_ledger() is None
        assert inner.total_tokens() == 10
        assert outer.total_tokens() == 20


class TestBudget:
    def test_check_budget_raises_classified_error_over_budget(self):
        ledger = CostLedger(token_budget=100)
        ledger.record(80, 10)
        ledger.check_budget()  # 90 <= 100: fine
        ledger.record(20, 0)
        with pytest.raises(BudgetExceeded) as exc_info:
            ledger.check_budget()
        assert isinstance(exc_info.value, ResilienceError)
        assert exc_info.value.classification == "budget-exceeded"

    def test_no_budget_never_raises(self):
        ledger = CostLedger()
        ledger.record(10**9, 10**9)
        ledger.check_budget()


class TestEndToEnd:
    def test_query_report_carries_ledger(self, clean_app):
        report = clean_app.run_query("top 5 halos at timestep 624 in simulation 0")
        assert report.completed
        totals = report.cost["totals"]
        assert totals["calls"] > 0
        assert totals["total_tokens"] == report.tokens
        assert report.cost_usd > 0
        # attribution covered every call: totals == sum of entries
        assert totals["calls"] == sum(e["calls"] for e in report.cost["entries"])
        agents = {e["agent"] for e in report.cost["entries"]}
        assert "planner" in agents
        # the telemetry rollup span rides in the trace
        cost_spans = [s for s in report.trace_spans if s["name"] == "cost.ledger"]
        assert len(cost_spans) == 1
        assert cost_spans[0]["attributes"]["total_tokens"] == totals["total_tokens"]

    def test_tiny_budget_fails_session_classified(self, ensemble, tmp_path):
        app = InferA(
            ensemble,
            tmp_path / "work",
            InferAConfig(error_model=NO_ERRORS, llm_latency_s=0.0, token_budget=50),
        )
        report = app.run_query("top 5 halos at timestep 624 in simulation 0")
        assert not report.completed
        assert report.run.failure == "budget-exceeded"
        # the spend that triggered the stop is still fully accounted
        assert report.cost["totals"]["total_tokens"] > 50
        assert report.cost["token_budget"] == 50

    def test_mid_run_budget_fails_during_execution(self, ensemble, tmp_path):
        # enough budget for planning, not for the whole analysis: the
        # supervisor's handler converts it into a classified failed run
        app = InferA(
            ensemble,
            tmp_path / "work",
            InferAConfig(error_model=NO_ERRORS, llm_latency_s=0.0, token_budget=800),
        )
        report = app.run_query("top 5 halos at timestep 624 in simulation 0")
        assert not report.completed
        assert report.run.failure == "budget-exceeded"
        assert report.plan.steps, "planning should have finished within budget"

    def test_harness_suite_ledger_is_sum_of_cells(self, ensemble, tmp_path):
        harness = EvaluationHarness(
            ensemble,
            tmp_path / "wd",
            HarnessConfig(runs_per_question=2, error_model=NO_ERRORS),
        )
        result = harness.run_suite(questions=QUESTION_SUITE[:1])
        suite = result.perf.cost
        assert suite["totals"]["calls"] > 0
        # the suite ledger is the entry-wise sum over per-cell ledgers,
        # and it lands on disk for `repro cost`
        on_disk = json.loads((tmp_path / "wd" / "cost_ledger.json").read_text())
        assert on_disk == suite
        for field in ("calls", "total_tokens", "cost_usd"):
            assert suite["totals"][field] == pytest.approx(
                sum(e[field] for e in suite["entries"]), abs=1e-9)
        # cross-check the ledger against the independent span-level
        # token accounting on the merged suite trace
        from repro.obs.export import token_totals

        span_tokens = token_totals(result.spans)
        assert suite["totals"]["total_tokens"] == span_tokens["total_tokens"]
        assert suite["totals"]["calls"] == span_tokens["calls"]


class TestConcurrentLedgers:
    """The serving-layer regression: interleaved sessions on separate
    threads must never cross-charge (the ambient ledger is a contextvar,
    not a process global)."""

    def test_threads_meter_independently(self):
        import threading

        ledgers = [CostLedger() for _ in range(4)]
        barrier = threading.Barrier(4)
        errors = []

        def session(i: int) -> None:
            try:
                with use_ledger(ledgers[i]), cost_attribution(session=f"s{i}"):
                    barrier.wait(5.0)  # all four sessions active at once
                    for _ in range(10):
                        record_llm_call(100 * (i + 1), 10 * (i + 1))
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=session, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(5.0)
        assert not errors
        for i, ledger in enumerate(ledgers):
            doc = ledger.as_dict()
            # exactly this session's spend, attributed to this session only
            assert doc["totals"]["calls"] == 10
            assert doc["totals"]["total_tokens"] == 10 * (110 * (i + 1))
            assert {e["session"] for e in doc["entries"]} == {f"s{i}"}

    def test_ambient_ledger_isolated_per_thread(self):
        import threading

        outer = CostLedger()
        seen = {}

        def worker():
            # a fresh thread starts with no inherited ambient ledger
            seen["worker"] = get_ledger()

        with use_ledger(outer):
            t = threading.Thread(target=worker)
            t.start()
            t.join(5.0)
            assert get_ledger() is outer
        assert seen["worker"] is None
        assert get_ledger() is None
