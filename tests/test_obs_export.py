"""Trace exporters: JSONL, Chrome trace format (golden), rollups, trees."""

import json
from pathlib import Path

import pytest

from repro.obs.export import (
    canonical_tree,
    chrome_trace_json,
    find_trace_file,
    phase_of,
    phase_rollups,
    read_spans,
    render_tree,
    sql_cache_counts,
    summarize,
    token_totals,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.tracer import TraceContext, Tracer
from repro.util.timing import SimulatedClock

GOLDEN = Path(__file__).parent / "golden" / "chrome_trace.json"


def build_reference_trace() -> list[dict]:
    """A fully deterministic little trace: simulated clock, fixed ids."""
    clock = SimulatedClock()
    tracer = Tracer(clock=clock, context=TraceContext("trace-golden"), id_prefix="aa00")
    with tracer.span("session", session_id="q1"):
        clock.advance(0.001)
        with tracer.span("step.sql", step=0) as sp:
            clock.advance(0.010)
            sp.set(rows=5)
        with tracer.span("llm.chat", skill="qa") as sp:
            clock.advance(0.002)
            sp.set(prompt_tokens=100, completion_tokens=20, latency_s=0.0)
        try:
            with tracer.span("sandbox.execute"):
                clock.advance(0.005)
                raise RuntimeError("exec failed")
        except RuntimeError:
            pass
    return tracer.span_dicts()


class TestChromeExport:
    def test_matches_golden_file(self):
        assert chrome_trace_json(build_reference_trace()) == GOLDEN.read_text()

    def test_event_shape(self):
        doc = json.loads(chrome_trace_json(build_reference_trace()))
        events = doc["traceEvents"]
        assert len(events) == 4
        assert all(e["ph"] == "X" for e in events)
        sql = next(e for e in events if e["name"] == "step.sql")
        assert sql["dur"] == pytest.approx(10_000)          # 10 ms in µs
        failed = next(e for e in events if e["name"] == "sandbox.execute")
        assert "RuntimeError" in failed["args"]["error"]

    def test_write_chrome_trace(self, tmp_path):
        out = tmp_path / "chrome.json"
        nbytes = write_chrome_trace(build_reference_trace(), out)
        assert out.stat().st_size == nbytes
        json.loads(out.read_text())


class TestJsonl:
    def test_round_trip(self, tmp_path):
        spans = build_reference_trace()
        path = tmp_path / "trace.jsonl"
        write_jsonl(spans, path)
        assert read_spans(path) == spans

    def test_find_trace_file_in_directory(self, tmp_path):
        # provenance names traces NNN_trace.jsonl; the latest seq wins
        write_jsonl(build_reference_trace()[:1], tmp_path / "003_trace.jsonl")
        write_jsonl(build_reference_trace(), tmp_path / "019_trace.jsonl")
        assert find_trace_file(tmp_path).name == "019_trace.jsonl"

    def test_find_trace_file_one_directory_down(self, tmp_path):
        # a `repro query` workdir: traces live in the session directories,
        # beside caches that hold none; the latest session wins
        for session, seq in (("query_001_first", 31), ("query_002_second", 19)):
            (tmp_path / session).mkdir()
            write_jsonl(build_reference_trace(), tmp_path / session / f"{seq:03d}_trace.jsonl")
        (tmp_path / ".query_cache").mkdir()
        found = find_trace_file(tmp_path)
        assert found == tmp_path / "query_002_second" / "019_trace.jsonl"
        # a trace at the top level (an eval workdir) still wins
        write_jsonl(build_reference_trace(), tmp_path / "trace.jsonl")
        assert find_trace_file(tmp_path) == tmp_path / "trace.jsonl"

    def test_missing_trace_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            find_trace_file(tmp_path / "nope")
        with pytest.raises(FileNotFoundError):
            find_trace_file(tmp_path)


class TestRollups:
    def test_phase_of_uses_dot_prefix(self):
        assert phase_of("sql.execute") == "sql"
        assert phase_of("session") == "session"

    def test_phase_rollups(self):
        rollups = phase_rollups(build_reference_trace())
        assert rollups["step"]["spans"] == 1
        assert rollups["step"]["total_s"] == pytest.approx(0.010)
        assert rollups["sandbox"]["errors"] == 1

    def test_token_totals_from_llm_spans(self):
        totals = token_totals(build_reference_trace())
        assert totals == {
            "calls": 1,
            "prompt_tokens": 100,
            "completion_tokens": 20,
            "total_tokens": 120,
            "cost_usd": 0.0,
        }


class TestTreeViews:
    def test_render_tree_indents_children(self):
        text = render_tree(build_reference_trace())
        lines = text.splitlines()
        assert lines[0].startswith("session")
        assert lines[1].startswith("  step.sql")
        assert "[error]" in text

    def test_summarize_mentions_phases_and_tokens(self):
        text = summarize(build_reference_trace())
        assert "4 spans" in text
        assert "sandbox" in text
        assert "prompt=100" in text

    def test_canonical_tree_ignores_timing(self):
        a, b = build_reference_trace(), build_reference_trace()
        for span in b:                       # perturb everything timing-shaped
            span["start"] += 5.0
            span["end"] += 5.0
            span["duration"] *= 3.0
            span["attributes"].pop("latency_s", None)
            span["span_id"] = "zz" + span["span_id"]
            if span["parent_id"]:
                span["parent_id"] = "zz" + span["parent_id"]
        assert canonical_tree(a) == canonical_tree(b)

    def test_canonical_tree_drops_an_excluded_span_and_keeps_its_children(self):
        """A wrapper (the CLI's process root, a profiler capture) is not
        work: the tree under it must read as if it were not there."""
        plain = build_reference_trace()
        wrapped = build_reference_trace()
        wrapped[0]["parent_id"] = "cc00-0001"
        wrapped.append({
            "trace_id": "trace-golden", "span_id": "cc00-0001", "parent_id": None,
            "name": "cli.process", "start": -0.4, "end": 0.1, "duration": 0.5,
            "status": "ok", "attributes": {"command": "query", "import_s": 0.4},
        })
        assert canonical_tree(wrapped) == canonical_tree(plain)
        assert "startup: 0.400 s of imports before `repro query`" in summarize(wrapped)
        # an excluded leaf goes, and nothing else with it
        with_leaf = build_reference_trace()
        with_leaf.append(dict(wrapped[-1], name="profile.capture", span_id="cc00-0002",
                              parent_id=with_leaf[0]["span_id"]))
        assert canonical_tree(with_leaf) == canonical_tree(plain)

    def test_canonical_tree_detects_structural_change(self):
        a, b = build_reference_trace(), build_reference_trace()
        b[1]["name"] = "step.python"
        assert canonical_tree(a) != canonical_tree(b)

    def test_canonical_tree_detects_status_change(self):
        a, b = build_reference_trace(), build_reference_trace()
        b[-1]["status"] = "ok"
        assert canonical_tree(a) != canonical_tree(b)


def build_cached_trace() -> list[dict]:
    """sql.execute spans in every cache tier plus an uncached miss."""
    clock = SimulatedClock()
    tracer = Tracer(clock=clock, context=TraceContext("trace-cache"), id_prefix="bb00")
    with tracer.span("session", session_id="q1"):
        for tier in ("memory", "disk", "incremental"):
            with tracer.span("sql.execute", cache=tier, rows=5):
                clock.advance(0.001)
        with tracer.span("sql.execute", cache="miss", rows=5):
            clock.advance(0.010)
        with tracer.span("sql.execute", rows=5):   # legacy span, no attr
            clock.advance(0.010)
    return tracer.span_dicts()


class TestSqlCacheViews:
    def test_sql_cache_counts(self):
        counts = sql_cache_counts(build_cached_trace())
        assert counts == {
            "memory": 1, "disk": 1, "incremental": 1, "miss": 2, "queries": 5,
        }

    def test_summarize_reports_cache_tiers(self):
        text = summarize(build_cached_trace())
        assert "sql cache:" in text
        assert "memory=1" in text and "incremental=1" in text
        assert "over 5 queries" in text

    def test_summarize_omits_line_without_queries(self):
        assert "sql cache" not in summarize(build_reference_trace())

    def test_canonical_tree_ignores_cache_tier(self):
        """Sequential and parallel runs may serve the same query from
        different tiers; that must not read as a structural difference."""
        a, b = build_cached_trace(), build_cached_trace()
        for span in b:
            if span["attributes"].get("cache") == "disk":
                span["attributes"]["cache"] = "memory"
            elif span["attributes"].get("cache") == "miss":
                span["attributes"]["cache"] = "incremental"
                span["attributes"]["residual_conjuncts"] = 1
        assert canonical_tree(a) == canonical_tree(b)
