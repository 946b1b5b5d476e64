"""The serving layer end to end: HTTP API, determinism, backpressure,
streaming, and graceful shutdown."""

from __future__ import annotations

import dataclasses
import json
import os
import socket
import statistics
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

import repro
from repro.core import InferA, InferAConfig
from repro.db.cache import QueryCacheStats
from repro.llm import MockLLM
from repro.llm.errors import NO_ERRORS
from repro.obs.tracer import Tracer
from repro.rag.cache import CacheStats
from repro.serve import ReproServer
from repro.serve.request import answer_payload
from tests.test_sandbox_server import KeepAliveSocket, fake_handler, two_write_reply


def make_server(ensemble, workdir, **kwargs) -> ReproServer:
    config = kwargs.pop(
        "config", InferAConfig(seed=5, error_model=NO_ERRORS, llm_latency_s=0.0)
    )
    kwargs.setdefault("app_workers", 2)
    kwargs.setdefault("queue_depth", 8)
    server = ReproServer(ensemble, workdir, config, **kwargs)
    server.start()
    return server


def post_query(url: str, question: str, session: str, timeout_s: float = 60.0):
    body = json.dumps({"question": question, "session": session}).encode()
    req = urllib.request.Request(
        f"{url}/v1/query", data=body, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(req, timeout=timeout_s) as resp:
        return resp.status, json.loads(resp.read())


def get_json(url: str):
    with urllib.request.urlopen(url, timeout=10.0) as resp:
        return resp.status, json.loads(resp.read())


def post_stream(url: str, question: str, session: str) -> tuple[list[str], dict]:
    """A ``"stream": true`` query: its progress lines and its result frame."""
    body = json.dumps({"question": question, "session": session, "stream": True}).encode()
    req = urllib.request.Request(
        f"{url}/v1/query", data=body, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(req, timeout=60.0) as resp:
        assert resp.headers["Content-Type"] == "text/event-stream"
        raw = resp.read().decode()
    frames = [f for f in raw.split("\n\n") if f.strip()]
    assert frames[-1].startswith("event: result")
    progress = [
        json.loads(f.split("data: ", 1)[1])["line"]
        for f in frames if f.startswith("event: progress")
    ]
    return progress, json.loads(frames[-1].split("data: ", 1)[1])


@pytest.fixture(scope="module")
def server(ensemble, tmp_path_factory):
    srv = make_server(ensemble, tmp_path_factory.mktemp("serve"))
    yield srv
    srv.shutdown()


# ----------------------------------------------------------------------
# servers in one process share nothing a shutdown can take away (first
# in the module, so the shared server below is not yet running)
# ----------------------------------------------------------------------
def test_a_server_shutting_down_leaves_another_servers_streams_alone(ensemble, tmp_path):
    a = make_server(ensemble, tmp_path / "a")
    b = make_server(ensemble, tmp_path / "b")
    try:
        a.shutdown()
        progress, doc = post_stream(b.url, "How many halos are in run 0?", "after-a")
        assert progress and all(line.startswith("[live] ") for line in progress)
        assert doc["status"] == "ok" and doc["result"]["completed"] is True
    finally:
        b.shutdown()
    # and neither left a listener behind for later work in the process
    assert Tracer().listener is None


# ----------------------------------------------------------------------
# basic API
# ----------------------------------------------------------------------
def test_healthz(server):
    status, doc = get_json(f"{server.url}/healthz")
    assert status == 200
    assert doc["status"] == "ok" and doc["warmed"] is True
    assert doc["workers"] == 2  # execution slots, not the executed count


def test_query_roundtrip(server):
    status, doc = post_query(
        server.url, "How many halos are there in run 0 at the final timestep?", "rt"
    )
    assert status == 200
    assert doc["status"] == "ok"
    assert doc["session"] == "rt"
    assert doc["run_id"].startswith("r0001_")
    assert doc["trace_id"]
    assert doc["result"]["completed"] is True
    assert doc["result"]["tables"]
    assert doc["timing"]["exec_s"] > 0
    assert doc["timing"]["queue_wait_s"] >= 0


def test_stats_endpoint(server):
    status, doc = get_json(f"{server.url}/stats")
    assert status == 200
    assert doc["queue"]["depth"] == 8
    assert doc["workers"]["alive"] == 2
    assert doc["workers"]["executed"] >= 1
    assert doc["sessions"]["sessions"] >= 1
    assert doc["breaker"]["state"] == "closed"
    assert doc["warmup"]["total_s"] > 0
    assert "hit_ratio" in doc["query_cache"]
    assert "bus" not in doc  # a stream's listener rides on its request's trace


def test_stats_counter_sections_are_registry_deltas(server):
    """The cache sections of ``/stats`` are registry reads: across two
    requests they move by exactly what the registry counted."""
    views = {"query_cache": QueryCacheStats, "retrieval_cache": CacheStats}
    before = get_json(f"{server.url}/stats")[1]
    registry_before = {section: view.read() for section, view in views.items()}
    for question in ("How many halos are in run 0?", "What is the average halo mass in run 1?"):
        assert post_query(server.url, question, "deltas")[1]["status"] == "ok"
    after = get_json(f"{server.url}/stats")[1]
    for section, view in views.items():
        moved = {k: after[section][k] - before[section][k] for k in view().as_dict()}
        assert moved == view.read().delta(registry_before[section]).as_dict(), section
        assert sum(moved.values()) > 0, section  # the requests reached this cache


def test_bad_requests(server):
    for body, expect in (
        (b"", 400),
        (b"not json", 400),
        (json.dumps({"question": ""}).encode(), 400),
        (json.dumps({"question": "hi", "session": "../escape"}).encode(), 400),
    ):
        req = urllib.request.Request(
            f"{server.url}/v1/query",
            data=body,
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(req, timeout=10.0)
        assert exc.value.code == expect

    with pytest.raises(urllib.error.HTTPError) as exc:
        urllib.request.urlopen(f"{server.url}/nope", timeout=10.0)
    assert exc.value.code == 404


@pytest.mark.parametrize("path", ["/v1/query", "/v1/ingest"])
@pytest.mark.parametrize(
    "content_length, status, error, detail",
    [
        ("abc", 400, "bad-request", "non-integer Content-Length"),
        ("-5", 400, "bad-request", "negative Content-Length"),
        ("999999999999", 413, "payload-too-large", "999999999999 bytes exceeds"),
    ],
    ids=["non-integer", "negative", "huge"],
)
def test_bogus_content_length_gets_a_json_error(
    server, capfd, path, content_length, status, error, detail
):
    host, port = server.url.removeprefix("http://").split(":")
    with socket.create_connection((host, int(port)), timeout=10.0) as sock:
        sock.sendall(
            f"POST {path} HTTP/1.1\r\nHost: x\r\nContent-Length: {content_length}\r\n\r\n{{}}".encode()
        )
        reply = b""
        while chunk := sock.recv(65536):  # the server closes: the body is unread
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.startswith(f"HTTP/1.1 {status} ".encode())
    doc = json.loads(body)
    assert doc["error"] == error and detail in doc["detail"]
    assert get_json(f"{server.url}/healthz")[0] == 200
    assert capfd.readouterr().err == ""  # no handler traceback


# ----------------------------------------------------------------------
# determinism: served sessions == sequential one-shot runs
# ----------------------------------------------------------------------
def test_concurrent_sessions_byte_identical_to_one_shot(ensemble, tmp_path):
    _assert_served_concurrently_equals_one_shot(ensemble, tmp_path, sandbox_workers=None)


def test_concurrent_sessions_over_a_sandbox_fleet_byte_identical_to_one_shot(
    ensemble, tmp_path
):
    # the served side executes on a 2-worker fleet, the one-shot reference
    # in-process: where a snippet runs must not change a byte, and no
    # request may fail with tenants racing for the fleet
    _assert_served_concurrently_equals_one_shot(ensemble, tmp_path, sandbox_workers=2)


def _assert_served_concurrently_equals_one_shot(ensemble, tmp_path, sandbox_workers):
    questions = [
        "How many halos are there in run 0 at the final timestep?",
        "What is the average halo mass at the final timestep?",
    ]
    sessions = ["alice", "bob", "carol"]
    config = InferAConfig(seed=5, error_model=NO_ERRORS, llm_latency_s=0.0)

    # reference: each session as a sequential one-shot app of its own
    reference = {}
    for name in sessions:
        app = InferA(ensemble, tmp_path / "oneshot" / name, config)
        reference[name] = [
            json.dumps(answer_payload(app.run_query(q)), sort_keys=True)
            for q in questions
        ]

    server = make_server(
        ensemble, tmp_path / "serve", app_workers=3,
        config=dataclasses.replace(config, sandbox_workers=sandbox_workers),
    )
    try:
        served: dict[str, list[str]] = {}
        errors: list[Exception] = []

        def client(name: str) -> None:
            try:
                answers = []
                for q in questions:
                    _, doc = post_query(server.url, q, name)
                    answers.append(json.dumps(doc["result"], sort_keys=True))
                served[name] = answers
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(n,)) for n in sessions]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120.0)
        assert not errors
    finally:
        server.shutdown()

    # interleaved execution across 3 workers must not perturb a byte
    for name in sessions:
        assert served[name] == reference[name], f"session {name} diverged"


# ----------------------------------------------------------------------
# backpressure and drain
# ----------------------------------------------------------------------
class GatedLLM:
    """Blocks every chat until ``gate`` is set: holds an execution slot."""

    def __init__(self, inner: MockLLM, gate: threading.Event):
        self._inner, self._gate = inner, gate

    def chat(self, messages, role="agent"):
        self._gate.wait(30.0)
        return self._inner.chat(messages, role)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def gated(gate: threading.Event):
    return lambda seed: GatedLLM(MockLLM(seed=seed, error_model=NO_ERRORS), gate)


def test_backpressure_structured_429_and_drain_503(ensemble, tmp_path):
    gate = threading.Event()
    server = make_server(
        ensemble,
        tmp_path / "serve",
        app_workers=1,
        queue_depth=1,
        llm_factory=gated(gate),
    )
    try:
        results = []
        threads = [
            threading.Thread(
                target=lambda: results.append(
                    post_query(server.url, "How many halos are in run 0?", "t1")
                )
            )
            for _ in range(2)
        ]
        threads[0].start()  # occupies the single slot (gated)
        while server.queue.stats()["admitted"] < 1:
            time.sleep(0.005)
        threads[1].start()  # sits in the depth-1 queue
        while server.queue.stats()["admitted"] < 2:
            time.sleep(0.005)
        while len(server.queue) < 1:  # #1 holds the slot, #2 waits
            time.sleep(0.005)

        # third request: queue full -> structured 429 with retry-after
        with pytest.raises(urllib.error.HTTPError) as exc:
            post_query(server.url, "How many halos are in run 0?", "t1")
        assert exc.value.code == 429
        assert float(exc.value.headers["Retry-After"]) > 0
        doc = json.loads(exc.value.read())
        assert doc["error"] == "queue-full"
        assert doc["retry_after_s"] > 0
        assert doc["queue_depth"] == 1

        # draining: new work is refused with 503 ...
        server.queue.close()
        with pytest.raises(urllib.error.HTTPError) as exc:
            post_query(server.url, "How many halos are in run 0?", "t1")
        assert exc.value.code == 503
        assert json.loads(exc.value.read())["error"] == "draining"

        # ... while already-admitted requests still complete
        gate.set()
        for t in threads:
            t.join(timeout=60.0)
        assert len(results) == 2
        assert all(doc["status"] == "ok" for _, doc in results)
    finally:
        gate.set()
        server.shutdown()


# ----------------------------------------------------------------------
# the request path: a query runs on the thread that read it, in a slot
# ----------------------------------------------------------------------
def recording_build_app(server, monkeypatch) -> list[str]:
    """The sessions whose requests started executing, in start order."""
    started: list[str] = []
    build_app = server.state.build_app

    def recording(session_workdir, *args, **kwargs):
        started.append(session_workdir.name)
        return build_app(session_workdir, *args, **kwargs)

    monkeypatch.setattr(server.state, "build_app", recording)
    return started


def test_the_only_server_thread_besides_connections_is_the_listener(ensemble, tmp_path):
    gate = threading.Event()
    before = set(threading.enumerate())
    server = make_server(ensemble, tmp_path / "serve", llm_factory=gated(gate))
    try:
        def started_threads() -> set[str]:
            return {t.name for t in threading.enumerate() if t not in before}

        assert started_threads() == {"repro-serve-http"}
        client = threading.Thread(
            target=post_query, args=(server.url, "How many halos are in run 0?", "threads")
        )
        client.start()
        while server.queue.stats()["admitted"] < 1:
            time.sleep(0.005)
        # mid-request: the listener and the connection's handler thread,
        # which is executing the query itself
        during = started_threads() - {client.name}
        assert len(during) == 2 and "repro-serve-http" in during
        assert all("worker" not in name for name in during)
        gate.set()
        client.join(timeout=60.0)
        deadline = time.monotonic() + 5.0
        while started_threads() != {"repro-serve-http"} and time.monotonic() < deadline:
            time.sleep(0.01)
        assert started_threads() == {"repro-serve-http"}
    finally:
        gate.set()
        server.shutdown()


def test_a_request_whose_deadline_expires_waiting_for_a_slot_never_executes(
    ensemble, tmp_path, monkeypatch
):
    gate = threading.Event()
    server = make_server(
        ensemble, tmp_path / "serve", app_workers=1, request_timeout_s=0.3,
        llm_factory=gated(gate),
    )
    started = recording_build_app(server, monkeypatch)
    try:
        holder = threading.Thread(
            target=post_query, args=(server.url, "How many halos are in run 0?", "holder")
        )
        holder.start()
        while started != ["holder"]:
            time.sleep(0.005)
        with pytest.raises(urllib.error.HTTPError) as exc:
            post_query(server.url, "How many halos are in run 0?", "late")
        assert exc.value.code == 500
        doc = json.loads(exc.value.read())
        assert doc["status"] == "rejected" and doc["result"] is None
        assert doc["error"].startswith("deadline-exceeded: ")
        assert doc["timing"]["queue_wait_s"] >= 0.3 and doc["timing"]["exec_s"] == 0
        assert len(server.queue) == 0  # it left the line
        gate.set()
        holder.join(timeout=60.0)
    finally:
        gate.set()
        server.shutdown()
    assert started == ["holder"]
    assert not (tmp_path / "serve" / "sessions" / "late" / doc["run_id"]).exists()


def test_waiting_requests_start_in_arrival_order(ensemble, tmp_path, monkeypatch):
    gate = threading.Event()
    server = make_server(
        ensemble, tmp_path / "serve", app_workers=1, llm_factory=gated(gate)
    )
    started = recording_build_app(server, monkeypatch)
    sessions = ["first", "second", "third", "fourth"]
    clients = [
        threading.Thread(target=post_query, args=(server.url, "How many halos are in run 0?", s))
        for s in sessions
    ]
    try:
        for i, client in enumerate(clients, start=1):
            client.start()
            while server.queue.stats()["admitted"] < i:
                time.sleep(0.005)
        assert started == ["first"] and len(server.queue) == 3
        gate.set()
        for client in clients:
            client.join(timeout=60.0)
    finally:
        gate.set()
        server.shutdown()
    assert started == sessions


# ----------------------------------------------------------------------
# streaming
# ----------------------------------------------------------------------
def test_sse_stream_progress_then_result(server):
    progress, doc = post_stream(
        server.url, "How many halos are there in run 0 at the final timestep?", "sse"
    )
    assert progress, "no live progress frames streamed"
    # progress frames carry LiveRenderer-formatted lines
    assert progress[0].startswith("[live] ")
    # the terminal frame is the result
    assert doc["status"] == "ok"
    assert doc["result"]["completed"] is True
    # the request's lines go straight to the socket: none can be dropped
    assert "stream_dropped_events" not in doc


def test_a_streamed_request_starts_no_drain_thread(server):
    """The request's progress lines go straight to its socket; no
    per-request thread moves them there."""
    body = json.dumps(
        {"question": "How many halos are in run 0?", "session": "sse-threads", "stream": True}
    ).encode()
    req = urllib.request.Request(
        f"{server.url}/v1/query", data=body, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(req, timeout=60.0) as resp:
        first = resp.readline()
        names = {t.name for t in threading.enumerate()}
        rest = resp.read().decode()
    assert first.startswith(b"event: progress")
    assert "repro-buffered-subscriber" not in names
    assert rest.split("\n\n")[-2].startswith("event: result")


def test_a_stream_client_that_leaves_after_one_frame_does_not_fail_its_request(server):
    host, port = server.url.removeprefix("http://").split(":")
    body = json.dumps(
        {"question": "How many halos are in run 0?", "session": "sse-gone", "stream": True}
    ).encode()
    with socket.create_connection((host, int(port)), timeout=60.0) as sock:
        sock.sendall(
            b"POST /v1/query HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode() + body
        )
        received = b""
        while b"event: progress" not in received or not received.endswith(b"\n\n"):
            received += sock.recv(1)
    session = server.registry.get_or_create("sse-gone")
    deadline = time.monotonic() + 60.0
    while session.completed + session.failed < 1 and time.monotonic() < deadline:
        time.sleep(0.01)
    # the request ran to completion without its client ...
    assert (session.completed, session.failed) == (1, 0)
    # ... the lost writes charged nothing ...
    assert server.executor.breaker.state == "closed"
    assert server.executor.breaker.consecutive_failures == 0
    # ... and the next request on a new connection is served as usual
    status, doc = post_query(server.url, "How many halos are in run 0?", "sse-gone")
    assert status == 200 and doc["status"] == "ok" and doc["run_id"].startswith("r0002_")


def test_sse_stream_does_not_wait_out_a_poll_after_the_worker_is_done(server):
    overheads = []
    for _ in range(5):
        body = json.dumps(
            {"question": "How many halos are in run 0?", "session": "sse-wake", "stream": True}
        ).encode()
        req = urllib.request.Request(
            f"{server.url}/v1/query", data=body, headers={"Content-Type": "application/json"}
        )
        t0 = time.perf_counter()
        with urllib.request.urlopen(req, timeout=60.0) as resp:
            raw = resp.read().decode()
        total = time.perf_counter() - t0
        frames = [f for f in raw.split("\n\n") if f.strip()]
        timing = json.loads(frames[-1].split("data: ", 1)[1])["timing"]
        overheads.append(total - timing["exec_s"] - timing["queue_wait_s"])
    # the streamer used to notice completion only when a 50 ms poll ran out
    assert statistics.median(overheads) < 0.015, overheads


# ----------------------------------------------------------------------
# transport: one write per reply, a read timeout on every connection
# ----------------------------------------------------------------------
def test_sequential_keep_alive_requests_do_not_stall_on_the_reply(server):
    client = KeepAliveSocket(server.url)
    try:
        overheads = []
        for _ in range(10):
            total, doc = client.post(
                "/v1/query", {"question": "How many halos are in run 0?", "session": "stall"}
            )
            assert doc["status"] == "ok"
            overheads.append(total - doc["timing"]["exec_s"] - doc["timing"]["queue_wait_s"])
    finally:
        client.close()
    # headers and body as two segments cost one delayed ACK (~40 ms) each
    assert statistics.median(overheads) < 0.015, overheads


@pytest.mark.parametrize(
    "status, doc, headers",
    [
        (200, {"status": "ok", "b": 1, "a": [1, 2]}, None),
        (429, {"error": "queue-full", "retry_after_s": 0.5}, {"Retry-After": "0.500"}),
    ],
    ids=["200", "429-retry-after"],
)
def test_front_door_reply_is_one_write_of_the_same_bytes(
    server, monkeypatch, status, doc, headers
):
    from repro.serve.server import _make_handler

    handler_class = _make_handler(server)
    monkeypatch.setattr(
        handler_class, "date_time_string", lambda self: "Thu, 01 Jan 2026 00:00:00 GMT"
    )
    sent, reference = fake_handler(handler_class), fake_handler(handler_class)
    sent._send_json(status, doc, headers=headers)
    two_write_reply(reference, status, json.dumps(doc, sort_keys=True).encode(), headers)
    assert len(reference.wfile.writes) == 2
    assert len(sent.wfile.writes) == 1
    assert sent.wfile.writes[0] == b"".join(reference.wfile.writes)


def test_stalled_and_idle_connections_release_their_threads(ensemble, tmp_path):
    class SlowLLM(MockLLM):
        """The first chat outlasts the socket timeout."""

        def chat(self, messages, role="agent"):
            if self._calls == 0:
                time.sleep(0.4)
            return super().chat(messages, role)

    server = make_server(
        ensemble,
        tmp_path / "serve",
        request_timeout_s=0.3,
        llm_factory=lambda seed: SlowLLM(seed=seed, error_model=NO_ERRORS),
    )
    host, port = server.url.removeprefix("http://").split(":")
    socks = []
    try:
        before = threading.active_count()
        for _ in range(6):  # a body that never arrives
            sock = socket.create_connection((host, int(port)), timeout=10.0)
            sock.sendall(b"POST /v1/query HTTP/1.1\r\nHost: x\r\nContent-Length: 100\r\n\r\n{")
            socks.append(sock)
        idle = socket.create_connection((host, int(port)), timeout=10.0)  # never speaks
        socks.append(idle)
        deadline = time.monotonic() + 5.0
        while threading.active_count() > before and time.monotonic() < deadline:
            time.sleep(0.02)
        assert threading.active_count() <= before
        assert idle.recv(1) == b""  # closed by the server, not by this test
        # the timeout is on the socket, not on the worker: a request that
        # runs past it still gets its reply
        status, doc = post_query(server.url, "How many halos are in run 0?", "slow")
        assert status == 200 and doc["status"] == "ok"
        assert doc["timing"]["exec_s"] > 0.3
    finally:
        for sock in socks:
            sock.close()
        server.shutdown()


# ----------------------------------------------------------------------
# graceful shutdown
# ----------------------------------------------------------------------
def test_graceful_shutdown_drains_and_checkpoints(ensemble, tmp_path):
    workdir = tmp_path / "serve"
    server = make_server(ensemble, workdir, app_workers=2)
    results = []

    def client(name: str) -> None:
        results.append(
            post_query(server.url, "How many halos are in run 0?", name)
        )

    threads = [threading.Thread(target=client, args=(n,)) for n in ("s1", "s2")]
    for t in threads:
        t.start()
    while server.queue.stats()["admitted"] < 2:
        time.sleep(0.005)
    manifest = server.shutdown()  # drain: both requests must complete
    for t in threads:
        t.join(timeout=30.0)

    assert len(results) == 2
    assert all(doc["status"] == "ok" for _, doc in results)

    # sessions.json summarizes every session: its spend is what the
    # requests' own traces carried, and no ledger file is written
    doc = json.loads(manifest.read_text())
    assert set(doc) == {"sessions"}
    assert {s["session_id"] for s in doc["sessions"]} == {"s1", "s2"}
    replied = {reply["session"]: reply["result"]["tokens"] for _, reply in results}
    assert {s["session_id"]: s["total_tokens"] for s in doc["sessions"]} == replied
    assert all(tokens > 0 for tokens in replied.values())
    assert all(s["cost_usd"] > 0 for s in doc["sessions"])
    assert not list(workdir.rglob("cost_ledger.json"))
    # each session's record is written once, to sessions.json
    assert {(s["requests"], s["completed"]) for s in doc["sessions"]} == {(1, 1)}
    assert not (workdir / "server_checkpoints").exists()
    # what the registry counted while the server ran, as a snapshot
    metrics = json.loads((workdir / "metrics.json").read_text())
    assert set(metrics) == {"counters"}
    assert QueryCacheStats.from_counters(metrics["counters"]).requests > 0


def test_a_restarted_server_never_reuses_a_run_id(ensemble, tmp_path):
    workdir = tmp_path / "serve"
    run_ids = []
    for _life in range(2):
        server = make_server(ensemble, workdir)
        try:
            status, doc = post_query(server.url, "How many halos are there?", "tenant")
            assert status == 200 and doc["status"] == "ok"
            run_ids.append(doc["run_id"])
        finally:
            server.shutdown()
        # the next index is read from the run directories, not from the
        # registry summary a killed server would never have written
        (workdir / "sessions.json").unlink()
    assert run_ids == ["r0001_how_many_halos_are_there", "r0002_how_many_halos_are_there"]
    for run_id in run_ids:
        trail = workdir / "sessions" / "tenant" / run_id / "trail.jsonl"
        kinds = [json.loads(line)["kind"] for line in trail.read_text().splitlines()]
        assert kinds.count("query") == 1, run_id


def test_sandbox_stats_reports_the_routes_of_a_drained_fleet_server(ensemble, tmp_path):
    workdir = tmp_path / "serve"
    config = InferAConfig(seed=5, error_model=NO_ERRORS, llm_latency_s=0.0, sandbox_workers=2)
    server = make_server(ensemble, workdir, config=config)
    try:
        status, doc = post_query(server.url, "How many halos are in run 0?", "fleet")
        assert status == 200 and doc["status"] == "ok"
        live = get_json(f"{server.url}/stats")[1]["sandbox_fleet"]
        assert live["workers"] == 2 and live["lifetime"]["routes"] > 0
    finally:
        server.shutdown()
    assert not (workdir / "sandbox_fleet.json").exists()
    routes = json.loads((workdir / "metrics.json").read_text())["counters"]["sandbox.fleet.routes"]
    done = subprocess.run(
        [sys.executable, "-m", "repro", "sandbox", "stats", "--workdir", str(workdir)],
        env=dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1])),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert routes > 0 and f"routes={routes} " in done.stdout
