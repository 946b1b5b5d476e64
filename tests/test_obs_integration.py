"""End-to-end observability: session traces in provenance, timed graph
node spans, and trace parity between sequential and parallel harness
runs."""

import json

import pytest

from repro.db.cache import QueryCacheStats
from repro.eval.harness import EvaluationHarness, HarnessConfig
from repro.eval.questions import QUESTION_SUITE
from repro.graph import Channel, END, StateGraph
from repro.graph.state import append_reducer
from repro.llm.errors import NO_ERRORS
from repro.obs.export import canonical_tree, phase_rollups
from repro.obs.tracer import Tracer
from repro.util.timing import SimulatedClock


class TestSessionTrace:
    def test_query_records_trace_in_provenance(self, clean_app):
        report = clean_app.run_query("top 5 halos at timestep 624 in simulation 0")
        assert report.completed
        spans = report.trace_spans
        assert spans, "session produced no trace"
        names = {s["name"] for s in spans}
        assert {"session", "plan.generate", "supervisor.execute", "llm.chat"} <= names
        assert all(s["status"] != "open" for s in spans)
        assert len({s["trace_id"] for s in spans}) == 1

        # the trace is a provenance artifact: registered on the trail with
        # kind="trace" and written next to the other artifacts
        trail = report.session_dir / "trail.jsonl"
        records = [json.loads(line) for line in trail.read_text().splitlines()]
        trace_records = [r for r in records if r["kind"] == "trace"]
        assert len(trace_records) == 1
        assert trace_records[0]["meta"]["spans"] == len(spans)
        assert (report.session_dir / trace_records[0]["path"]).exists()

    def test_session_span_is_the_single_root(self, clean_app):
        report = clean_app.run_query("top 3 halos at timestep 624 in simulation 0")
        roots = [s for s in report.trace_spans if s["parent_id"] is None]
        assert [r["name"] for r in roots] == ["session"]


class TestTimedEvents:
    def _timed_graph(self, clock):
        g = StateGraph([Channel("log", append_reducer, default=[])])

        def slow(state):
            clock.advance(1.5)
            return {"log": "slow"}

        g.add_node("slow", slow)
        g.set_entry_point("slow")
        g.add_edge("slow", END)
        return g

    def test_events_carry_start_and_duration(self):
        # a node execution is recorded once, as its graph.node.* span
        clock = SimulatedClock()
        tracer = Tracer(clock=clock)
        self._timed_graph(clock).compile(tracer=tracer).invoke(thread_id="t")
        (span,) = tracer.span_dicts()
        assert span["name"] == "graph.node.slow"
        assert span["attributes"] == {"thread": "t", "seq": 0}
        assert span["start"] is not None
        assert span["duration"] == pytest.approx(1.5)


@pytest.fixture(scope="module")
def parity(ensemble, tmp_path_factory):
    """One sequential and one 2-worker run of the same small grid."""
    questions = QUESTION_SUITE[:2]
    root = tmp_path_factory.mktemp("obs_parity")

    def run(workers, name):
        harness = EvaluationHarness(
            ensemble,
            root / name,
            HarnessConfig(runs_per_question=1, workers=workers, error_model=NO_ERRORS),
        )
        return harness.run_suite(questions=questions)

    return run(1, "seq"), run(2, "par")


class TestHarnessTraceParity:
    def test_parallel_merges_into_single_trace(self, parity):
        _, par = parity
        assert len({s["trace_id"] for s in par.spans}) == 1
        assert par.spans[0]["name"] == "harness.run_suite"

    def test_span_counts_equal_across_modes(self, parity):
        seq, par = parity
        assert len(seq.spans) == len(par.spans)

    def test_span_trees_equal_modulo_timing(self, parity):
        seq, par = parity
        assert canonical_tree(seq.spans) == canonical_tree(par.spans)

    def test_obs_counters_equal_across_modes(self, parity):
        seq, par = parity
        # the query-embedding memo is per process, and the forked workers
        # inherit the one the sequential run warmed: how its lookups split
        # into hits and misses depends on what ran first in this
        # interpreter, while the number of lookups does not
        memo = ("rag.memo.hit", "rag.memo.miss")
        seq_counters, par_counters = (
            dict(r.perf.obs_metrics["counters"]) for r in (seq, par)
        )
        assert sum(seq_counters.pop(n, 0) for n in memo) == sum(
            par_counters.pop(n, 0) for n in memo
        )
        assert seq_counters == par_counters
        assert QueryCacheStats.from_counters(seq_counters).requests > 0

    def test_trace_written_to_workdir(self, parity):
        seq, par = parity
        for result in (seq, par):
            assert result.trace_path.exists()
            lines = result.trace_path.read_text().splitlines()
            assert len(lines) == len(result.spans)

    def test_perf_carries_span_rollups(self, parity):
        seq, _ = parity
        rollups = seq.perf.span_rollups
        assert rollups == phase_rollups(seq.spans)
        assert {"harness", "session", "llm"} <= set(rollups)
        doc = seq.perf.as_dict()
        assert "span_rollups" in doc and "obs_metrics" in doc
