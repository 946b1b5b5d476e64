"""A trace's listener: each finished span's dict reaches it once, in end
order, one call at a time — in-process and replayed from the harness
process pool — it never runs in another process, and nothing but spans
ever reaches it."""

import json
import os
import pickle
import sys
import threading
import time
import uuid
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest

from repro.core import InferA, InferAConfig
from repro.db import Database
from repro.eval.harness import EvaluationHarness, HarnessConfig
from repro.eval.questions import QUESTION_SUITE
from repro.faults import FaultProfile
from repro.frame import Frame
from repro.llm.errors import NO_ERRORS
from repro.obs.events import LiveRenderer, replay_spans
from repro.obs.export import canonical_tree, read_spans
from repro.obs.metrics import get_registry
from repro.obs.names import OBS_BUS_SUBSCRIBER_ERRORS, SQL_EXECUTE_SPAN
from repro.obs.tracer import TraceContext, Tracer, use_tracer
from repro.serve.streaming import EventStreamer
from repro.serve.request import answer_payload
from repro.util.timing import SimulatedClock

SPAN_KEYS = {
    "trace_id", "span_id", "parent_id", "name", "start", "end", "duration",
    "status", "attributes", "error_type", "error_message",
}


def _doc(name, span_id="s1"):
    return {"name": name, "trace_id": "t1", "span_id": span_id,
            "duration": 0.01, "status": "ok", "attributes": {}}


def _subscriber_errors() -> float:
    return get_registry().snapshot()["counters"].get(OBS_BUS_SUBSCRIBER_ERRORS, 0)


def _heard_by(listener, clock=None) -> Tracer:
    """A tracer whose spans, and its children's, reach ``listener``."""
    return Tracer(clock=clock, context=TraceContext(uuid.uuid4().hex, None, listener))


@contextmanager
def _listening(listener):
    """Library work in the block (a session, a suite) reaches ``listener``:
    it builds its tracer from the active one's context."""
    with use_tracer(_heard_by(listener)):
        yield


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
        seen = []
        tracer = _heard_by(seen.append)
        for i in range(10):
            with tracer.span(f"s{i}"):
                pass
        assert [d["name"] for d in seen] == [f"s{i}" for i in range(10)]

    def test_subscriber_exceptions_are_counted_not_raised(self):
        healthy = []

        def broken_once(doc):
            if doc["name"] == "x":
                raise RuntimeError("observer bug")
            healthy.append(doc)

        tracer = _heard_by(broken_once)
        before = _subscriber_errors()
        with tracer.span("x"):
            pass
        with tracer.span("y"):
            pass
        assert _subscriber_errors() - before == 1
        assert [d["name"] for d in healthy] == ["y"]  # later spans still served

    def test_subscriber_publishing_reentrantly_does_not_deadlock(self):
        seen = []

        def echo_once(doc):
            if doc["name"] == "ping":
                with tracer.span("pong"):
                    pass
            seen.append(doc)

        tracer = _heard_by(echo_once)
        with tracer.span("ping"):
            pass
        # served inline on the ending thread: the echo lands first
        assert [d["name"] for d in seen] == ["pong", "ping"]

    def test_callbacks_never_run_at_once(self):
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

        tracer = _heard_by(slow)

        def ender(t):
            for i in range(20):
                with tracer.span(f"t{t}-{i}"):
                    pass

        # more threads than cores ending spans on one tracer (as the
        # parallel-viz batch does), switching threads as often as possible
        threads = [threading.Thread(target=ender, args=(t,)) for t in range(4)]
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


class TestTracerPublishing:
    def test_span_end_publishes_the_finished_span_dict(self):
        clock = SimulatedClock()
        seen = []
        tracer = _heard_by(seen.append, clock=clock)
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
        seen = []
        parent = _heard_by(seen.append, clock=SimulatedClock())
        with use_tracer(parent), parent.span("root"):
            # a child tracer built from the parent's context, as a session's is
            child = Tracer(clock=parent.clock, context=parent.context())
            for i in range(3):
                with child.span("step", step=i), child.span("leaf"):
                    pass
        spans = parent.span_dicts() + child.span_dicts()
        _assert_each_span_once_with_parents(seen, spans)

    def test_no_bus_publishes_nothing(self):
        tracer = Tracer(clock=SimulatedClock())
        assert tracer.listener is None and tracer.context().listener is None
        with tracer.span("quiet"):
            pass  # and nothing raised


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
        seen = []
        assert replay_spans(seen.append, docs) == 2
        assert [d["name"] for d in seen] == ["b", "a"]

    def test_replay_matches_live_canonical_structure(self):
        docs = self._spans()
        seen = []
        replay_spans(seen.append, docs)
        assert canonical_tree(seen) == canonical_tree(docs)

    def test_replay_on_null_bus_is_free(self):
        assert replay_spans(None, self._spans()) == 0


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
        seen = []
        tracer = _heard_by(seen.append, clock=SimulatedClock())
        with use_tracer(tracer):
            get_registry().counter("test.bus.quiet").inc(3)
            assert seen == []  # a counter increment delivers nothing
            db.query("SELECT step, SUM(mass) FROM halos GROUP BY step")
        assert seen, "the scan's span never reached the listener"
        assert all(set(d) == SPAN_KEYS and d["status"] != "open" for d in seen)
        (sql,) = [d for d in seen if d["name"] == SQL_EXECUTE_SPAN]
        assert sql["attributes"]["morsels"] > 1  # a multi-row-group scan
        _assert_each_span_once_with_parents(seen, tracer.span_dicts())


@pytest.fixture(scope="module")
def bus_suite(ensemble, tmp_path_factory):
    """One 2-worker harness run with a listener on its trace."""
    seen = []
    harness = EvaluationHarness(
        ensemble,
        tmp_path_factory.mktemp("bus_suite") / "wd",
        HarnessConfig(runs_per_question=1, workers=2, error_model=NO_ERRORS),
    )
    with _listening(seen.append):
        result = harness.run_suite(questions=QUESTION_SUITE[:2])
    return result, seen


@pytest.fixture(scope="module")
def plain_suite(ensemble, tmp_path_factory):
    """The same grid, sequential, with no listener."""
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
        assert sessions, "no worker session spans reached the parent's listener"
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
    def _run(self, ensemble, workdir, question, listener=None, **config):
        app = InferA(
            ensemble, workdir,
            InferAConfig(error_model=NO_ERRORS, llm_latency_s=0.0, **config),
        )
        if listener is None:
            return app.run_query(question)
        with _listening(listener):
            return app.run_query(question)

    def test_chaos_query_identical_with_bus_enabled(self, ensemble, tmp_path):
        """Observability must be read-only: the same chaos-profile query
        run with and without a listener produces identical results."""
        question = "Plot the halo mass distribution for run 1"
        chaos = FaultProfile.named("light", seed=5)
        plain = self._run(ensemble, tmp_path / "plain", question, fault_profile=chaos)
        observed = self._run(
            ensemble, tmp_path / "observed", question, [].append, fault_profile=chaos
        )
        assert plain.completed == observed.completed
        assert plain.tokens == observed.tokens
        # figures byte-identical, trace structurally identical
        assert plain.figures == observed.figures
        assert canonical_tree(plain.trace_spans) == canonical_tree(observed.trace_spans)

    def test_raising_subscriber_is_counted_and_answers_unchanged(self, ensemble, tmp_path):
        question = "How many halos are in run 0?"
        published = []

        def broken(doc):
            published.append(doc)
            raise RuntimeError("observer bug")

        plain = self._run(ensemble, tmp_path / "plain", question)
        before = _subscriber_errors()
        observed = self._run(ensemble, tmp_path / "observed", question, broken)
        # one error per finished span, and the run never saw any of them
        assert len(published) >= len(observed.trace_spans) > 0
        assert _subscriber_errors() - before == len(published)
        assert json.dumps(answer_payload(observed), sort_keys=True) == json.dumps(
            answer_payload(plain), sort_keys=True
        )


class TestForkReset:
    def test_a_pickled_context_carries_no_listener(self):
        ctx = TraceContext("t1", "s1", [].append)
        copy = pickle.loads(pickle.dumps(ctx))
        assert (copy.trace_id, copy.span_id, copy.listener) == ("t1", "s1", None)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork")
    def test_a_forked_child_does_not_call_the_parents_listener(self):
        read_fd, write_fd = os.pipe()
        tracer = _heard_by(lambda doc: os.write(write_fd, doc["name"].encode() + b"\n"))
        with tracer.span("parent"):
            pass
        pid = os.fork()
        if pid == 0:  # child: ends a span on its inherited tracer
            try:
                with tracer.span("child"):
                    pass
            finally:
                os._exit(0)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        os.close(write_fd)
        with os.fdopen(read_fd) as pipe:
            assert pipe.read().split() == ["parent"]


class TestPerTraceListeners:
    def test_two_concurrent_sessions_each_hear_only_their_own_spans(self, ensemble, tmp_path):
        """Two sessions run at once on two threads, each with its own
        listener: each listener hears exactly its session's spans (the
        per-request SSE contract)."""
        questions = ("How many halos are in run 0?",
                     "What is the average halo mass at timestep 624?")
        heard = ([], [])
        reports = [None, None]

        def session(i):
            app = InferA(
                ensemble, tmp_path / f"w{i}",
                InferAConfig(error_model=NO_ERRORS, llm_latency_s=0.0),
            )
            with _listening(heard[i].append):
                reports[i] = app.run_query(questions[i])

        threads = [threading.Thread(target=session, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        trace_ids = [r.trace_spans[0]["trace_id"] for r in reports]
        assert trace_ids[0] != trace_ids[1]
        for mine, report, trace_id in zip(heard, reports, trace_ids):
            assert {d["trace_id"] for d in mine} == {trace_id}
            names = {d["name"] for d in mine}
            assert "session" in names and "plan.generate" in names
            assert len(mine) == len(report.trace_spans)


class TestEventStreamer:
    """A served request's progress lines: each span's line is one SSE
    frame written to the request's socket by the thread that ended the
    span, and a client that is gone stops the writing, not the request."""

    class _Socket:
        def __init__(self, fail_after=None):
            self.frames: list[bytes] = []
            self.fail_after = fail_after
            self.writes = 0

        def write(self, frame):
            self.writes += 1
            if self.fail_after is not None and len(self.frames) >= self.fail_after:
                raise BrokenPipeError("client went away")
            self.frames.append(frame)

        def flush(self):
            pass

    @staticmethod
    def _publish(streamer, n):
        for i in range(n):
            doc = _doc("llm.chat", span_id=f"s{i}")
            doc["attributes"] = {"step": i}
            streamer.on_span(doc)
            streamer.on_span(_doc("sql.execute", span_id=f"x{i}"))  # no progress line

    def test_each_line_is_one_frame_in_order(self):
        sock = self._Socket()
        self._publish(EventStreamer(sock), 100)
        lines = [json.loads(f.decode().split("data: ", 1)[1])["line"] for f in sock.frames]
        assert all(f.startswith(b"event: progress\n") for f in sock.frames)
        assert [line.split("step=")[1] for line in lines] == [str(i) for i in range(100)]

    def test_a_failed_write_ends_the_stream_without_raising(self):
        sock = self._Socket(fail_after=3)
        streamer = EventStreamer(sock)
        self._publish(streamer, 20)
        streamer.send("result", {"status": "ok"})
        # the one write that failed was the last one tried
        assert streamer.broken and len(sock.frames) == 3 and sock.writes == 4
