"""The span bus: each finished span's dict reaches every subscriber once,
in end order, one callback at a time — in-process and replayed from the
harness process pool — and nothing else ever rides on it."""

import json
import os
import sys
import threading
import time
from collections import Counter

import numpy as np
import pytest

from repro.core import InferA, InferAConfig
from repro.db import Database
from repro.eval.harness import EvaluationHarness, HarnessConfig
from repro.eval.questions import QUESTION_SUITE
from repro.faults import FaultProfile
from repro.frame import Frame
from repro.llm.errors import NO_ERRORS
from repro.obs.events import (
    NULL_BUS,
    EventBus,
    LiveRenderer,
    get_bus,
    replay_spans,
    subscribe,
    use_bus,
)
from repro.obs.export import canonical_tree, read_spans
from repro.obs.metrics import get_registry
from repro.obs.names import OBS_BUS_SUBSCRIBER_ERRORS, SQL_EXECUTE_SPAN
from repro.obs.tracer import Tracer, use_tracer
from repro.serve.streaming import EventStreamer
from repro.serve.worker import answer_payload
from repro.util.timing import SimulatedClock

SPAN_KEYS = {
    "trace_id", "span_id", "parent_id", "name", "start", "end", "duration",
    "status", "attributes", "error_type", "error_message",
}


def _doc(name, trace_id="t1", span_id="s1"):
    return {"name": name, "trace_id": trace_id, "span_id": span_id,
            "duration": 0.01, "status": "ok", "attributes": {}}


def _subscriber_errors() -> float:
    return get_registry().snapshot()["counters"].get(OBS_BUS_SUBSCRIBER_ERRORS, 0)


def _assert_each_span_once_with_parents(delivered, spans):
    """``delivered`` holds every span of ``spans`` exactly once, and every
    parent a delivered span names was delivered too (roots excepted)."""
    counts = Counter(d["span_id"] for d in delivered)
    assert set(counts.values()) == {1}, "a span reached a subscriber twice"
    assert set(counts) == {d["span_id"] for d in spans}
    roots = {d["parent_id"] for d in spans} - set(counts)
    assert len(roots) <= 1, f"spans parented on undelivered spans: {roots}"


class TestEventBusCore:
    def test_dispatch_preserves_publication_order(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        for i in range(10):
            bus.publish(_doc(f"s{i}"))
        assert [d["name"] for d in seen] == [f"s{i}" for i in range(10)]

    def test_subscriber_exceptions_are_counted_not_raised(self):
        bus = EventBus()
        healthy = []

        def broken(doc):
            raise RuntimeError("observer bug")

        bus.subscribe(broken)
        bus.subscribe(healthy.append)
        before = _subscriber_errors()
        bus.publish(_doc("x"))
        assert _subscriber_errors() - before == 1
        assert len(healthy) == 1  # later subscribers still served

    def test_subscriber_publishing_reentrantly_does_not_deadlock(self):
        bus = EventBus()
        seen = []

        def echo_once(doc):
            if doc["name"] == "ping":
                bus.publish(_doc("pong"))

        bus.subscribe(echo_once)
        bus.subscribe(seen.append)
        bus.publish(_doc("ping"))
        # served inline on the publishing thread: the echo lands first
        assert [d["name"] for d in seen] == ["pong", "ping"]

    def test_callbacks_never_run_at_once(self):
        bus = EventBus()
        inside = []
        overlaps = []
        seen = []

        def slow(doc):
            if inside:
                overlaps.append(doc["name"])
            inside.append(doc)
            time.sleep(0.001)
            seen.append(doc["name"])
            inside.pop()

        bus.subscribe(slow)

        def publisher(t):
            for i in range(20):
                bus.publish(_doc(f"t{t}-{i}"))

        # more publishers than cores, switching threads as often as possible
        threads = [threading.Thread(target=publisher, args=(t,)) for t in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert overlaps == []
        assert len(seen) == 80

    def test_use_bus_nests_and_restores(self):
        assert get_bus() is NULL_BUS
        outer, inner = EventBus(), EventBus()
        with use_bus(outer):
            assert get_bus() is outer
            with use_bus(inner):
                assert get_bus() is inner
            assert get_bus() is outer
        assert get_bus() is NULL_BUS

    def test_unsubscribe(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        bus.publish(_doc("a"))
        bus.unsubscribe(seen.append)
        bus.publish(_doc("b"))
        assert [d["name"] for d in seen] == ["a"]
        assert bus.subscribers == ()


class TestTracerPublishing:
    def test_span_end_publishes_the_finished_span_dict(self):
        clock = SimulatedClock()
        tracer = Tracer(clock=clock)
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        with use_bus(bus):
            with tracer.span("outer"):
                clock.advance(1.0)
                with tracer.span("inner"):
                    clock.advance(0.5)
                    assert seen == []  # nothing until a span ends
        assert [d["name"] for d in seen] == ["inner", "outer"]
        inner, outer = seen
        assert inner["duration"] == pytest.approx(0.5)
        assert inner["parent_id"] == outer["span_id"]
        # the very dict the trace file holds
        assert sorted(seen, key=lambda d: d["start"]) == tracer.span_dicts()

    def test_each_span_reaches_every_subscriber_once(self):
        tracer = Tracer(clock=SimulatedClock())
        bus = EventBus()
        first, second = [], []
        bus.subscribe(first.append)
        bus.subscribe(second.append)
        with use_bus(bus), use_tracer(tracer), tracer.span("root"):
            for i in range(3):
                with tracer.span("step", step=i), tracer.span("leaf"):
                    pass
        spans = tracer.span_dicts()
        assert first == second
        _assert_each_span_once_with_parents(first, spans)

    def test_no_bus_publishes_nothing(self):
        tracer = Tracer(clock=SimulatedClock())
        with tracer.span("quiet"):
            pass
        assert get_bus() is NULL_BUS  # and nothing raised


class TestReplay:
    def _spans(self):
        clock = SimulatedClock()
        tracer = Tracer(clock=clock)
        with tracer.span("a"):
            clock.advance(1)
            with tracer.span("b"):
                clock.advance(1)
            clock.advance(1)  # distinct end times: b at t=2, a at t=3
        return tracer.span_dicts()

    def test_replay_spans_in_end_order(self):
        docs = self._spans()
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        assert replay_spans(bus, docs) == 2
        assert [d["name"] for d in seen] == ["b", "a"]

    def test_replay_matches_live_canonical_structure(self):
        docs = self._spans()
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        replay_spans(bus, docs)
        assert canonical_tree(seen) == canonical_tree(docs)

    def test_replay_on_null_bus_is_free(self):
        assert replay_spans(NULL_BUS, self._spans()) == 0


class TestLiveRenderer:
    def test_renders_interesting_spans_only(self, tmp_path):
        out = (tmp_path / "live.txt").open("w")
        renderer = LiveRenderer(stream=out)
        renderer({"name": "session", "duration": 1.0, "status": "ok",
                  "attributes": {"session_id": "q1"}})
        renderer({"name": "sql.execute", "duration": 0.1, "attributes": {}})
        out.close()
        text = (tmp_path / "live.txt").read_text()
        assert "[live] session" in text and "session_id=q1" in text
        assert "sql.execute" not in text
        assert renderer.lines == 1

    def test_verbose_renders_everything(self, tmp_path):
        out = (tmp_path / "live.txt").open("w")
        renderer = LiveRenderer(stream=out, verbose=True)
        renderer({"name": "sql.execute", "duration": 0.1, "attributes": {}})
        out.close()
        assert "sql.execute" in (tmp_path / "live.txt").read_text()


class TestOnlySpansOnTheBus:
    @pytest.fixture()
    def db(self, tmp_path):
        rng = np.random.default_rng(11)
        n = 3000
        frame = Frame({
            "step": np.repeat([0, 624], n // 2),
            "mass": rng.lognormal(3, 1, n),
        })
        db = Database(tmp_path / "p.db")
        # small row groups so the scan runs several morsels
        db.create_table("halos", frame, row_group_size=512)
        return db

    def test_counters_and_scans_deliver_only_span_dicts(self, db):
        tracer = Tracer(clock=SimulatedClock())
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        with use_bus(bus), use_tracer(tracer):
            get_registry().counter("test.bus.quiet").inc(3)
            assert seen == []  # a counter increment publishes nothing
            db.query("SELECT step, SUM(mass) FROM halos GROUP BY step")
        assert seen, "the scan's span never reached the bus"
        assert all(set(d) == SPAN_KEYS and d["status"] != "open" for d in seen)
        (sql,) = [d for d in seen if d["name"] == SQL_EXECUTE_SPAN]
        assert sql["attributes"]["morsels"] > 1  # a multi-row-group scan
        _assert_each_span_once_with_parents(seen, tracer.span_dicts())


@pytest.fixture(scope="module")
def bus_suite(ensemble, tmp_path_factory):
    """One 2-worker harness run with the bus active."""
    bus = EventBus()
    seen = []
    bus.subscribe(seen.append)
    harness = EvaluationHarness(
        ensemble,
        tmp_path_factory.mktemp("bus_suite") / "wd",
        HarnessConfig(runs_per_question=1, workers=2, error_model=NO_ERRORS),
    )
    with use_bus(bus):
        result = harness.run_suite(questions=QUESTION_SUITE[:2])
    return result, seen


@pytest.fixture(scope="module")
def plain_suite(ensemble, tmp_path_factory):
    """The same grid, sequential, with no bus."""
    harness = EvaluationHarness(
        ensemble,
        tmp_path_factory.mktemp("plain_suite") / "wd",
        HarnessConfig(runs_per_question=1, workers=1, error_model=NO_ERRORS),
    )
    return harness.run_suite(questions=QUESTION_SUITE[:2])


class TestProcessPoolPropagation:
    def test_trace_file_equal_with_and_without_bus(self, bus_suite, plain_suite):
        result, _ = bus_suite
        observed = read_spans(result.trace_path)
        plain = read_spans(plain_suite.trace_path)
        assert len(observed) == len(plain) == len(result.spans)
        assert canonical_tree(observed) == canonical_tree(plain)

    def test_worker_spans_replayed_with_parenting(self, bus_suite):
        _, seen = bus_suite
        names = {d["name"] for d in seen}
        assert {"harness.run_suite", "harness.cell", "session", "llm.chat"} <= names
        by_id = {d["span_id"]: d for d in seen}
        sessions = [d for d in seen if d["name"] == "session"]
        assert sessions, "no worker session spans reached the parent bus"
        for doc in sessions:
            assert by_id[doc["parent_id"]]["name"] == "harness.cell"

    def test_bus_counts_are_consistent(self, bus_suite):
        result, seen = bus_suite
        # every span of the merged trace, worker-replayed or parent-live,
        # reached the subscriber exactly once
        _assert_each_span_once_with_parents(seen, result.spans)

    def test_matches_busless_sequential_run(self, bus_suite, plain_suite):
        result, _ = bus_suite
        assert canonical_tree(plain_suite.spans) == canonical_tree(result.spans)


class TestBusDoesNotPerturbRuns:
    def _run(self, ensemble, workdir, question, subscribers=(), **config):
        app = InferA(
            ensemble, workdir,
            InferAConfig(error_model=NO_ERRORS, llm_latency_s=0.0, **config),
        )
        if not subscribers:
            return app.run_query(question)
        bus = EventBus()
        for fn in subscribers:
            bus.subscribe(fn)
        with use_bus(bus):
            return app.run_query(question)

    def test_chaos_query_identical_with_bus_enabled(self, ensemble, tmp_path):
        """Observability must be read-only: the same chaos-profile query
        run with and without the bus produces identical results."""
        question = "Plot the halo mass distribution for run 1"
        chaos = FaultProfile.named("light", seed=5)
        plain = self._run(ensemble, tmp_path / "plain", question, fault_profile=chaos)
        observed = self._run(
            ensemble, tmp_path / "observed", question, [[].append], fault_profile=chaos
        )
        assert plain.completed == observed.completed
        assert plain.tokens == observed.tokens
        # figures byte-identical, trace structurally identical
        assert plain.figures == observed.figures
        assert canonical_tree(plain.trace_spans) == canonical_tree(observed.trace_spans)

    def test_raising_subscriber_is_counted_and_answers_unchanged(self, ensemble, tmp_path):
        question = "How many halos are in run 0?"

        def broken(doc):
            raise RuntimeError("observer bug")

        plain = self._run(ensemble, tmp_path / "plain", question)
        before = _subscriber_errors()
        published = []
        observed = self._run(
            ensemble, tmp_path / "observed", question, [broken, published.append]
        )
        # one error per finished span, and the run never saw any of them
        assert len(published) >= len(observed.trace_spans) > 0
        assert _subscriber_errors() - before == len(published)
        assert json.dumps(answer_payload(observed), sort_keys=True) == json.dumps(
            answer_payload(plain), sort_keys=True
        )


class TestForkReset:
    @pytest.mark.skipif(not hasattr(os, "register_at_fork"), reason="no fork hooks")
    def test_child_process_sees_null_bus(self):
        bus = EventBus()
        with use_bus(bus):
            pid = os.fork()
            if pid == 0:  # child
                ok = get_bus() is NULL_BUS
                os._exit(0 if ok else 1)
            _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0


class TestSubscribeAPI:
    """The documented public hook: filtering and detachment."""

    def test_subscribe_requires_an_active_bus(self):
        assert get_bus() is NULL_BUS
        with pytest.raises(RuntimeError, match="no active event bus"):
            subscribe(lambda doc: None)

    def test_trace_filtering(self):
        bus = EventBus()
        got = []
        sub = subscribe(got.append, bus=bus, trace_id="mine")
        bus.publish(_doc("b", trace_id="mine"))
        bus.publish(_doc("c", trace_id="other"))
        assert [d["name"] for d in got] == ["b"]
        sub.close()
        bus.publish(_doc("d", trace_id="mine"))
        assert [d["name"] for d in got] == ["b"]  # detached
        assert bus.subscribers == ()

    def test_live_session_events_filterable_by_trace(self, ensemble, tmp_path):
        """End to end: one bus, two sessions, per-trace subscriptions see
        only their own session's spans (the per-request SSE contract)."""
        app = InferA(
            ensemble, tmp_path / "w",
            InferAConfig(error_model=NO_ERRORS, llm_latency_s=0.0),
        )
        bus = EventBus()
        everything = []
        bus.subscribe(everything.append)
        with use_bus(bus):
            r1 = app.run_query("How many halos are in run 0?")
            r2 = app.run_query("What is the average halo mass at timestep 624?")
        t1 = r1.trace_spans[0]["trace_id"]
        t2 = r2.trace_spans[0]["trace_id"]
        assert t1 != t2
        mine = []
        replayed = EventBus()
        subscribe(mine.append, bus=replayed, trace_id=t1)
        for doc in everything:
            replayed.publish(doc)
        assert {d["trace_id"] for d in mine} == {t1}
        names = {d["name"] for d in mine}
        assert "session" in names and "plan.generate" in names
        assert len(mine) == len(r1.trace_spans)



class TestEventStreamer:
    """A served request's progress lines: its spans are formatted on the
    publishing thread into the request's own bounded queue, which a
    stalled client can fill but never block."""

    @staticmethod
    def _stream(n, capacity=4096, name="llm.chat"):
        bus = EventBus()
        with use_bus(bus):
            streamer = EventStreamer("t1", capacity=capacity)
        start = time.perf_counter()
        for i in range(n):
            doc = _doc(name, span_id=f"s{i}")
            doc["attributes"] = {"step": i}
            bus.publish(doc)
            bus.publish(_doc("sql.execute", span_id=f"x{i}"))  # no progress line
            bus.publish(_doc(name, trace_id="other"))  # another request's span
        publish_wall = time.perf_counter() - start
        done = threading.Event()
        done.set()
        lines = [
            json.loads(frame.decode().split("data: ", 1)[1])["line"]
            for frame in streamer.frames(done, poll_s=0.01)
        ]
        streamer.close()
        assert bus.subscribers == ()
        return streamer, lines, publish_wall

    def test_a_stalled_client_never_slows_publishing(self):
        # nobody reads while 2 000 spans are published into a 4-line queue
        streamer, lines, publish_wall = self._stream(2000, capacity=4)
        assert publish_wall < 1.0, f"publishers stalled {publish_wall:.2f}s"
        assert len(lines) == 4 and streamer.dropped == 1996

    def test_delivered_plus_dropped_lines_equal_lines_published(self):
        streamer, lines, _ = self._stream(20, capacity=7)
        assert streamer.dropped > 0
        assert len(lines) + streamer.dropped == 20

    def test_order_is_kept(self):
        streamer, lines, _ = self._stream(100)
        assert streamer.dropped == 0
        assert [line.split("step=")[1] for line in lines] == [str(i) for i in range(100)]
