"""Tracer spans, exception capture, and cross-process context propagation."""

import json
import pickle
import threading

import pytest

from repro.obs.tracer import (
    NULL_TRACER,
    TraceContext,
    Tracer,
    current_context,
    get_tracer,
    use_tracer,
)
from repro.util.timing import SimulatedClock


class TestSpanLifecycle:
    def test_nesting_records_parent_ids(self):
        tracer = Tracer(clock=SimulatedClock())
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert outer.trace_id == inner.trace_id

    def test_durations_come_from_injected_clock(self):
        clock = SimulatedClock()
        tracer = Tracer(clock=clock)
        with tracer.span("work") as sp:
            clock.advance(2.5)
        assert sp.duration == 2.5
        assert sp.status == "ok"

    def test_attributes_at_open_and_via_set(self):
        tracer = Tracer(clock=SimulatedClock())
        with tracer.span("sql.execute", step=3) as sp:
            sp.set(rows=17)
        assert sp.attributes == {"step": 3, "rows": 17}

    def test_exception_capture_and_reraise(self):
        tracer = Tracer(clock=SimulatedClock())
        with pytest.raises(ValueError, match="boom"):
            with tracer.span("fragile"):
                raise ValueError("boom")
        (span,) = tracer.spans
        assert span.status == "error"
        assert span.error_type == "ValueError"
        assert span.error_message == "boom"
        assert span.end is not None

    def test_sibling_spans_share_parent(self):
        tracer = Tracer(clock=SimulatedClock())
        with tracer.span("parent") as parent:
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        a, b = tracer.spans[1], tracer.spans[2]
        assert a.parent_id == parent.span_id
        assert b.parent_id == parent.span_id

    def test_span_ids_unique_within_tracer(self):
        tracer = Tracer(clock=SimulatedClock())
        for _ in range(10):
            with tracer.span("x"):
                pass
        ids = [s.span_id for s in tracer.spans]
        assert len(set(ids)) == len(ids)

    def test_explicit_parent_for_worker_threads(self):
        # pool threads have no span stack; an explicit parent stitches
        # their spans into the tree (the parallel-viz batch pattern)
        tracer = Tracer(clock=SimulatedClock())
        with tracer.span("batch") as batch:
            done = threading.Event()

            def work():
                with tracer.span("task", parent=batch):
                    pass
                done.set()

            t = threading.Thread(target=work)
            t.start()
            t.join()
            assert done.is_set()
        task = next(s for s in tracer.spans if s.name == "task")
        assert task.parent_id == batch.span_id


class TestTraceContext:
    def test_context_pickles(self):
        ctx = TraceContext("abc123", "def-0001")
        assert pickle.loads(pickle.dumps(ctx)) == ctx

    def test_child_tracer_joins_parent_trace(self):
        parent = Tracer(clock=SimulatedClock())
        with parent.span("root"):
            ctx = parent.context()
            # simulate shipping the context to a worker process
            ctx = pickle.loads(pickle.dumps(ctx))
            child = Tracer(clock=SimulatedClock(), context=ctx)
            with child.span("remote"):
                pass
        merged = parent.span_dicts() + child.span_dicts()
        root = next(s for s in merged if s["name"] == "root")
        remote = next(s for s in merged if s["name"] == "remote")
        assert remote["trace_id"] == root["trace_id"]
        assert remote["parent_id"] == root["span_id"]

    def test_two_child_tracers_never_collide(self):
        parent = Tracer(clock=SimulatedClock())
        with parent.span("root"):
            ctx = parent.context()
        kids = [Tracer(clock=SimulatedClock(), context=ctx) for _ in range(2)]
        for child in kids:
            with child.span("work"):
                pass
        ids = [s["span_id"] for t in kids for s in t.span_dicts()]
        assert len(set(ids)) == len(ids)

    def test_round_trip_via_dict(self):
        ctx = TraceContext("t1", "s1")
        assert TraceContext(**ctx.as_dict()) == ctx


class TestAmbientTracer:
    def test_default_is_null_tracer(self):
        assert get_tracer() is NULL_TRACER
        assert current_context() is None

    def test_null_tracer_records_nothing(self):
        with NULL_TRACER.span("anything", step=1) as sp:
            sp.set(rows=2)
        assert NULL_TRACER.span_dicts() == []

    def test_use_tracer_scopes_activation(self):
        tracer = Tracer(clock=SimulatedClock())
        with use_tracer(tracer):
            assert get_tracer() is tracer
            with tracer.span("op"):
                ctx = current_context()
                assert ctx is not None and ctx.trace_id == tracer.trace_id
        assert get_tracer() is NULL_TRACER

    def test_nested_activation_restores_outer(self):
        outer, inner = Tracer(clock=SimulatedClock()), Tracer(clock=SimulatedClock())
        with use_tracer(outer):
            with use_tracer(inner):
                assert get_tracer() is inner
            assert get_tracer() is outer


class TestSpanSerialization:
    def test_as_dict_round_trip(self):
        tracer = Tracer(clock=SimulatedClock())
        with tracer.span("op", step=1):
            pass
        (doc,) = tracer.span_dicts()
        assert json.loads(json.dumps(doc)) == doc
        assert doc["name"] == "op"
        assert doc["attributes"] == {"step": 1}
        assert doc["status"] == "ok"
