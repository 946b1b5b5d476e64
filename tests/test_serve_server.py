"""The serving layer end to end: HTTP API, determinism, backpressure,
streaming, and graceful shutdown."""

from __future__ import annotations

import dataclasses
import json
import socket
import statistics
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core import InferA, InferAConfig
from repro.graph.checkpoint import DurableCheckpointer
from repro.llm import MockLLM
from repro.llm.errors import NO_ERRORS
from repro.serve import ReproServer
from repro.serve.worker import answer_payload
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


@pytest.fixture(scope="module")
def server(ensemble, tmp_path_factory):
    srv = make_server(ensemble, tmp_path_factory.mktemp("serve"))
    yield srv
    srv.shutdown()


# ----------------------------------------------------------------------
# basic API
# ----------------------------------------------------------------------
def test_healthz(server):
    status, doc = get_json(f"{server.url}/healthz")
    assert status == 200
    assert doc["status"] == "ok" and doc["warmed"] is True
    assert doc["workers"] == 2  # alive worker threads, not executed count


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
    assert "published" in doc["bus"]


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
def test_backpressure_structured_429_and_drain_503(ensemble, tmp_path):
    gate = threading.Event()

    class GatedLLM:
        """Blocks the first chat until released: holds a worker busy."""

        def __init__(self, inner: MockLLM):
            self._inner = inner

        def chat(self, messages, role="agent"):
            gate.wait(30.0)
            return self._inner.chat(messages, role)

        def __getattr__(self, name):
            return getattr(self._inner, name)

    server = make_server(
        ensemble,
        tmp_path / "serve",
        app_workers=1,
        queue_depth=1,
        llm_factory=lambda seed: GatedLLM(MockLLM(seed=seed, error_model=NO_ERRORS)),
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
        threads[0].start()  # occupies the single worker (gated)
        while server.queue.stats()["admitted"] < 1:
            time.sleep(0.005)
        threads[1].start()  # sits in the depth-1 queue
        while server.queue.stats()["admitted"] < 2:
            time.sleep(0.005)
        while len(server.queue) < 1:  # worker holds #1, #2 is queued
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
# streaming
# ----------------------------------------------------------------------
def test_sse_stream_progress_then_result(server):
    body = json.dumps(
        {
            "question": "How many halos are there in run 0 at the final timestep?",
            "session": "sse",
            "stream": True,
        }
    ).encode()
    req = urllib.request.Request(
        f"{server.url}/v1/query", data=body, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(req, timeout=60.0) as resp:
        assert resp.headers["Content-Type"] == "text/event-stream"
        raw = resp.read().decode()
    frames = [f for f in raw.split("\n\n") if f.strip()]
    progress = [f for f in frames if f.startswith("event: progress")]
    assert progress, "no live progress frames streamed"
    # progress frames carry LiveRenderer-formatted lines
    first = json.loads(progress[0].split("data: ", 1)[1])
    assert first["line"].startswith("[live] ")
    # the terminal frame is the result
    assert frames[-1].startswith("event: result")
    doc = json.loads(frames[-1].split("data: ", 1)[1])
    assert doc["status"] == "ok"
    assert doc["result"]["completed"] is True
    assert doc["stream_dropped_events"] == 0


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

    # sessions.json summarizes every session plus the aggregate ledger
    doc = json.loads(manifest.read_text())
    assert {s["session_id"] for s in doc["sessions"]} == {"s1", "s2"}
    assert doc["aggregate"]["totals"]["calls"] > 0
    # per-session ledgers landed in each session workdir
    for name in ("s1", "s2"):
        ledger = json.loads(
            (workdir / "sessions" / name / "cost_ledger.json").read_text()
        )
        assert ledger["totals"]["total_tokens"] > 0
        # ledger entries are attributed to this session's run ids only
        assert all(e["session"].startswith("r") for e in ledger["entries"])
    # durable checkpoints survive into a fresh process-level store
    store = DurableCheckpointer(workdir / "server_checkpoints")
    for name in ("s1", "s2"):
        cp = store.latest(name)
        assert cp is not None
        assert cp.state["requests"] == 1
        assert cp.state["completed"] == 1
