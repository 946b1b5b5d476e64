"""LLM spend: pricing, the fold over ``llm.chat`` spans and their
ancestors (the trace is the ledger), the §4.5 growth curve, and hard
token budgets enforced end to end."""

import sys
import threading
from types import SimpleNamespace

import pytest

from repro.agents.base import AgentContext
from repro.core import InferA, InferAConfig
from repro.eval.harness import EvaluationHarness, HarnessConfig
from repro.eval.questions import QUESTION_SUITE
from repro.llm.base import ChatMessage, ChatResponse, MeteredModel
from repro.llm.errors import NO_ERRORS
from repro.llm.mock import DEFAULT_MODEL, PRICE_TABLE, MockLLM, price_of
from repro.obs.export import (
    SPEND_FIELDS,
    growth_curve,
    llm_spend,
    read_spans,
    token_totals,
    write_jsonl,
)
from repro.obs.tracer import NULL_TRACER, Tracer, get_tracer, use_tracer
from repro.resilience import BudgetExceeded, ResilienceError


def _chat(tracer, skill, prompt, completion, parent=None, cost_usd=None):
    """One hand-made ``llm.chat`` span under the tracer's current span."""
    with tracer.span(
        "llm.chat",
        parent=parent,
        skill=skill,
        prompt_tokens=prompt,
        completion_tokens=completion,
        cost_usd=price_of(DEFAULT_MODEL).cost(prompt, completion)
        if cost_usd is None else cost_usd,
    ):
        pass


def _session_tree(session_id="s1", level=2):
    """A session laid out the way InferA.run_query and the supervisor lay
    it out, with a parallel-viz attempt recorded from a pool thread under
    an explicit parent (the coordinator's ``viz_batch`` node span)."""
    tracer = Tracer()
    with tracer.span("session", session_id=session_id):
        with tracer.span("plan.generate"):
            _chat(tracer, "planner", 100, 50)
        with tracer.span("supervisor.execute", semantic_level=level):
            with tracer.span("graph.node.supervisor"):
                _chat(tracer, "supervisor", 40, 10)
            with tracer.span("graph.node.sql"):
                with tracer.span("step.sql", step=1, attempt=0):
                    _chat(tracer, "sql", 30, 20)
            with tracer.span("graph.node.qa"):
                with tracer.span("qa.assess", step=1, attempt=1):
                    _chat(tracer, "qa", 20, 5)
            with tracer.span("graph.node.viz_batch"):
                parent = tracer.current()

                def attempt():
                    # a pool thread: no span stack of its own
                    with use_tracer(tracer), tracer.span(
                        "step.viz", parent=parent, step=2, attempt=1
                    ):
                        _chat(tracer, "viz", 60, 30)

                worker = threading.Thread(target=attempt)
                worker.start()
                worker.join(5.0)
            with tracer.span("graph.node.documentation"):
                _chat(tracer, "doc", 10, 10)
    return tracer.span_dicts()


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
    """The ledger is the trace: ``llm_spend`` folds span dicts."""

    def test_totals_equal_sum_of_entries(self):
        spans = _session_tree()
        totals = token_totals(spans)
        entries = llm_spend(spans, *SPEND_FIELDS)
        assert len(entries) == 6
        for field in ("calls", "prompt_tokens", "completion_tokens",
                      "total_tokens", "cost_usd"):
            assert totals[field] == pytest.approx(sum(e[field] for e in entries.values()))
        assert totals["calls"] == 6
        assert totals["total_tokens"] == 385

    def test_every_entry_carries_all_key_fields(self):
        tracer = Tracer()
        _chat(tracer, "qa", 10, 5)  # outside every attributing span
        (key,) = llm_spend(tracer.span_dicts(), *SPEND_FIELDS)
        assert len(key) == len(SPEND_FIELDS)
        assert dict(zip(SPEND_FIELDS, key)) == {
            "session": "?", "agent": "qa", "node": "?", "attempt": "?", "level": "?"}

    def test_merge_is_entrywise_addition(self):
        # a suite trace is its cells' traces side by side
        a, b = _session_tree("a"), _session_tree("b", level=1)
        merged = llm_spend(a + b, "agent")
        for (agent,), entry in merged.items():
            parts = [llm_spend(t, "agent").get((agent,)) for t in (a, b)]
            assert entry["total_tokens"] == sum(p["total_tokens"] for p in parts)
            assert entry["calls"] == 2
        assert set(llm_spend(a + b, "session")) == {("a",), ("b",)}

    def test_merge_accepts_serialized_dicts(self):
        tracer = Tracer()
        with tracer.span("session", session_id="s"):
            _chat(tracer, "sql", 10, 1)
        live, dicts = list(tracer.spans), tracer.span_dicts()
        assert llm_spend(live, "session") == llm_spend(dicts, "session")
        assert token_totals(live)["total_tokens"] == 11

    def test_round_trips_through_json(self, tmp_path):
        spans = _session_tree()
        write_jsonl(spans, tmp_path / "trace.jsonl")
        restored = read_spans(tmp_path)
        assert llm_spend(restored, *SPEND_FIELDS) == llm_spend(spans, *SPEND_FIELDS)

    def test_growth_curve_groups_by_level_then_attempt(self):
        spans = _session_tree(level=1) + _session_tree("t", level=2)
        curve = growth_curve(spans)
        # supervisor + sql + doc chats are attempt 0; qa and viz attempt 1
        assert curve["1"] == {0: 50 + 50 + 20, 1: 25 + 90}
        assert curve["2"] == curve["1"]
        assert curve["?"] == {0: 2 * 150}  # planning precedes the level
        assert list(curve) == ["1", "2", "?"]

    def test_by_field_folds_and_rejects_unknown(self):
        spans = _session_tree()
        assert llm_spend(spans, "agent")[("planner",)]["prompt_tokens"] == 100
        with pytest.raises(ValueError):
            llm_spend(spans, "color")

    def test_each_by_field_over_a_tree_with_a_parallel_viz_step(self):
        spans = _session_tree("s1", level=2)
        # the viz step ran on another thread, whose span stack was empty:
        # attribution follows the explicit parent id, not the thread
        batch = next(s for s in spans if s["name"] == "graph.node.viz_batch")
        step = next(s for s in spans if s["name"] == "step.viz")
        assert step["parent_id"] == batch["span_id"]
        by = {f: {k[0]: e["calls"] for k, e in llm_spend(spans, f).items()}
              for f in SPEND_FIELDS}
        assert by["session"] == {"s1": 6}
        assert by["agent"] == {a: 1 for a in
                               ("doc", "planner", "qa", "sql", "supervisor", "viz")}
        assert by["node"] == {"documentation": 1, "plan": 1, "qa": 1, "sql": 1,
                              "supervisor": 1, "viz_batch": 1}
        assert by["attempt"] == {"0": 1, "1": 2, "?": 3}
        assert by["level"] == {"2": 5, "?": 1}
        (viz_key,) = [k for k in llm_spend(spans, *SPEND_FIELDS) if k[1] == "viz"]
        assert viz_key == ("s1", "viz", "viz_batch", "1", "2")


class TestAttributionScopes:
    """Attribution is the span tree: the nearest ancestor of each kind."""

    def test_scopes_nest_and_override_per_field(self):
        tracer = Tracer()
        with tracer.span("session", session_id="outer"):
            with tracer.span("plan.generate"):
                _chat(tracer, "planner", 1, 0)
                with tracer.span("session", session_id="inner"):
                    with tracer.span("graph.node.sql"):
                        _chat(tracer, "sql", 1, 0)
        keys = set(llm_spend(tracer.span_dicts(), "session", "node"))
        assert keys == {("outer", "plan"), ("inner", "sql")}

    def test_record_llm_call_uses_ambient_scope(self):
        tracer = Tracer()
        llm = MockLLM(error_model=NO_ERRORS, latency_per_call_s=0.0)
        with use_tracer(tracer), tracer.span("session", session_id="s"):
            response = llm.chat([ChatMessage("user", "[[ROLE:doc]]\n[[PAYLOAD]]\n{}")])
        ((key, entry),) = llm_spend(tracer.span_dicts(), "session", "agent").items()
        assert key == ("s", "doc")
        assert entry["cost_usd"] == pytest.approx(
            price_of(DEFAULT_MODEL).cost(response.prompt_tokens, response.completion_tokens))
        (chat,) = [s for s in tracer.span_dicts() if s["name"] == "llm.chat"]
        assert chat["attributes"]["model"] == DEFAULT_MODEL

    def test_unmetered_calls_are_free_noops(self):
        # with no active tracer a chat still answers, and records nothing
        assert get_tracer() is NULL_TRACER
        bystander = Tracer()
        llm = MockLLM(error_model=NO_ERRORS, latency_per_call_s=0.0)
        assert llm.chat([ChatMessage("user", "[[ROLE:doc]]\n[[PAYLOAD]]\n{}")]).content
        assert token_totals(bystander.span_dicts())["calls"] == 0

    def test_use_ledger_nests_and_restores(self):
        outer, inner = Tracer(), Tracer()
        with use_tracer(outer):
            _chat(get_tracer(), "a", 20, 0)
            with use_tracer(inner):
                _chat(get_tracer(), "b", 10, 0)
            _chat(get_tracer(), "c", 20, 0)
        assert get_tracer() is NULL_TRACER
        assert token_totals(inner.span_dicts())["total_tokens"] == 10
        assert token_totals(outer.span_dicts())["total_tokens"] == 40


class _Fixed:
    """A chat model whose every reply reports the same usage."""

    def __init__(self, prompt_tokens, completion_tokens):
        self.usage = (prompt_tokens, completion_tokens)

    def chat(self, messages, role="agent"):
        return ChatResponse("{}", *self.usage)


def _budgeted_context(budget, prompt_tokens, completion_tokens):
    return AgentContext(
        llm=MeteredModel(_Fixed(prompt_tokens, completion_tokens)),
        retriever=None,
        db=None,
        sandbox=None,
        provenance=SimpleNamespace(record_llm_exchange=lambda *args: None),
        token_budget=budget,
    )


class TestBudget:
    def test_check_budget_raises_classified_error_over_budget(self):
        context = _budgeted_context(100, 80, 10)
        context.chat("sql", {})  # 90 <= 100: fine
        with pytest.raises(BudgetExceeded) as exc_info:
            context.chat("sql", {})
        assert isinstance(exc_info.value, ResilienceError)
        assert exc_info.value.classification == "budget-exceeded"
        assert str(exc_info.value) == (
            "token budget exceeded: 180 tokens spent of 100 budgeted")

    def test_no_budget_never_raises(self):
        context = _budgeted_context(None, 10**9, 10**9)
        context.chat("sql", {})
        assert context.total_tokens == 2 * 10**9

    def test_metered_model_tokens_exact_under_threads(self):
        # parallel-viz attempts chat from pool threads: a 1 µs switch
        # interval makes an unlocked `+=` lose updates
        model = MeteredModel(_Fixed(3, 4))
        calls, threads = 2_000, 8
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pool = [
                threading.Thread(target=lambda: [model.chat([]) for _ in range(calls)])
                for _ in range(threads)
            ]
            for t in pool:
                t.start()
            for t in pool:
                t.join(60.0)
        finally:
            sys.setswitchinterval(previous)
        assert model.tokens == threads * calls * 7


class TestEndToEnd:
    def test_query_report_carries_ledger(self, clean_app):
        report = clean_app.run_query("top 5 halos at timestep 624 in simulation 0")
        assert report.completed
        totals = token_totals(report.trace_spans)
        assert totals["total_tokens"] == report.tokens
        # one llm.chat span per exchange the provenance trail recorded
        exchanges = [r.meta for r in clean_app._last_context.provenance.records if r.kind == "llm"]
        assert totals["calls"] == len(exchanges) > 0
        assert totals["prompt_tokens"] == sum(e["prompt_tokens"] for e in exchanges)
        assert totals["completion_tokens"] == sum(e["completion_tokens"] for e in exchanges)
        assert totals["cost_usd"] > 0
        # every chat is attributed to this session
        session = report.session_dir.name
        assert set(llm_spend(report.trace_spans, "session")) == {(session,)}
        assert ("planner",) in llm_spend(report.trace_spans, "agent")
        assert not any(s["name"] == "cost.ledger" for s in report.trace_spans)

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
        assert token_totals(report.trace_spans)["total_tokens"] == report.tokens > 50

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
        suite = token_totals(result.spans)
        # each cell's Table 2 tokens (its MeteredModel) add up to the
        # spend its chats carry in the merged suite trace
        assert len(result.metrics) == 2
        assert suite["total_tokens"] == sum(m.tokens for m in result.metrics) > 0
        # both runs ask the same question, so they share a session id
        ((session, entry),) = llm_spend(result.spans, "session").items()
        assert session[0].startswith("query_001_") and entry == suite
        # the spend is read from the trace on disk; no second file
        assert token_totals(read_spans(tmp_path / "wd")) == suite
        assert not (tmp_path / "wd" / "cost_ledger.json").exists()


class TestConcurrentLedgers:
    """The serving-layer regression: interleaved sessions on separate
    threads never cross-charge (each session's chats hang under its own
    tracer's session span)."""

    def test_threads_meter_independently(self):
        tracers = [Tracer() for _ in range(4)]
        barrier = threading.Barrier(4)
        errors = []

        def session(i: int) -> None:
            try:
                with use_tracer(tracers[i]), tracers[i].span("session", session_id=f"s{i}"):
                    barrier.wait(5.0)  # all four sessions active at once
                    for _ in range(10):
                        _chat(get_tracer(), "sql", 100 * (i + 1), 10 * (i + 1))
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=session, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(5.0)
        assert not errors
        spans = [s for t in tracers for s in t.span_dicts()]
        by_session = llm_spend(spans, "session")
        for i in range(4):
            entry = by_session[(f"s{i}",)]
            assert entry["calls"] == 10
            assert entry["total_tokens"] == 10 * (110 * (i + 1))

    def test_ambient_ledger_isolated_per_thread(self):
        outer = Tracer()
        seen = {}

        def worker():
            # a fresh thread starts with no ambient tracer: its chats are
            # recorded nowhere unless it re-enters one (parallel viz does)
            seen["worker"] = get_tracer()
            _chat(get_tracer(), "viz", 5, 5)

        with use_tracer(outer):
            t = threading.Thread(target=worker)
            t.start()
            t.join(5.0)
            assert get_tracer() is outer
        assert seen["worker"] is NULL_TRACER
        assert token_totals(outer.span_dicts())["calls"] == 0
