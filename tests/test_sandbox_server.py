"""HTTP gateway round-trips (the Uvicorn/FastAPI substitute)."""

import json
import socket
import statistics
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.frame import Frame
from repro.sandbox import SandboxClient, SandboxExecutor, SandboxServer
from repro.sandbox.serialize import frame_from_json, frame_to_json


def post_raw(url, data, headers=None):
    """POST raw bytes to /execute, returning (status, parsed body)."""
    req = urllib.request.Request(
        f"{url}/execute", data=data, method="POST", headers=headers or {}
    )
    try:
        with urllib.request.urlopen(req, timeout=10) as resp:
            return resp.status, json.loads(resp.read().decode())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode())


class KeepAliveSocket:
    """A raw HTTP/1.1 client that sends each request in one ``sendall``,
    so the server is the only party that can split a message."""

    def __init__(self, url: str):
        host, port = url.removeprefix("http://").split(":")
        self.sock = socket.create_connection((host, int(port)), timeout=30.0)
        self.rfile = self.sock.makefile("rb")

    def post(self, path: str, doc: dict) -> tuple[float, dict]:
        """(seconds from send to the last body byte, parsed reply)."""
        body = json.dumps(doc).encode()
        head = f"POST {path} HTTP/1.1\r\nHost: x\r\nContent-Length: {len(body)}\r\n\r\n"
        t0 = time.perf_counter()
        self.sock.sendall(head.encode() + body)
        length = 0
        while (line := self.rfile.readline().strip()):
            name, _, value = line.partition(b":")
            if name.lower() == b"content-length":
                length = int(value)
        reply = json.loads(self.rfile.read(length))
        return time.perf_counter() - t0, reply

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()


class RecordingWriter:
    def __init__(self):
        self.writes: list[bytes] = []

    def write(self, data: bytes) -> int:
        self.writes.append(bytes(data))
        return len(data)

    def flush(self) -> None:
        pass


def fake_handler(handler_class):
    """A handler of ``handler_class`` with no socket: replies land in
    ``handler.wfile.writes``."""
    handler = handler_class.__new__(handler_class)
    handler.request_version = "HTTP/1.1"
    handler.requestline = "POST / HTTP/1.1"
    handler.close_connection = False
    handler.wfile = RecordingWriter()
    return handler


def two_write_reply(handler, status: int, body: bytes, headers: dict | None = None) -> None:
    """How both servers replied before: the header block, then the body."""
    handler.send_response(status)
    handler.send_header("Content-Type", "application/json")
    handler.send_header("Content-Length", str(len(body)))
    for key, value in (headers or {}).items():
        handler.send_header(key, value)
    handler.end_headers()
    handler.wfile.write(body)


@pytest.fixture(scope="module")
def server():
    with SandboxServer() as srv:
        yield srv


@pytest.fixture()
def client(server):
    return SandboxClient(server.url)


class TestSerialization:
    def test_frame_json_round_trip(self):
        f = Frame(
            {
                "i": np.asarray([1, 2], dtype=np.int64),
                "x": np.asarray([0.5, np.nan]),
                "s": np.asarray(["a", "b"], dtype=object),
            }
        )
        g = frame_from_json(frame_to_json(f))
        assert g["i"].dtype == np.int64
        assert np.isnan(g["x"][1])
        assert list(g["s"]) == ["a", "b"]


class TestGateway:
    def test_health(self, client):
        assert client.health()

    def test_execute_round_trip(self, client):
        tables = {"work": Frame({"a": np.asarray([1.0, 2.0, 3.0])})}
        result = client.execute(
            "result = tables['work'].filter(tables['work']['a'] > 1.5)", tables
        )
        assert result.ok
        assert result.result.num_rows == 2

    def test_error_propagated(self, client):
        result = client.execute("x = tables['work']['nope']", {"work": Frame({"a": [1]})})
        assert not result.ok
        assert "nope" in result.error_message

    def test_figure_returned_as_svg(self, client):
        code = (
            "figure = Figure()\n"
            "figure.axes(0).plot([0, 1], [0, 1])\n"
            "result = tables['work']"
        )
        result = client.execute(code, {"work": Frame({"a": [1.0]})})
        assert result.ok
        assert result.meta["figure_svg"].startswith("<svg")

    def test_server_survives_bad_payload(self, client, server):
        req = urllib.request.Request(
            f"{server.url}/execute", data=b"not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError):
            urllib.request.urlopen(req, timeout=10)
        assert client.health()  # still alive

    def test_unknown_path_404(self, server):
        with pytest.raises(urllib.error.HTTPError):
            urllib.request.urlopen(f"{server.url}/nope", timeout=10)


class TestStructuredErrors:
    """Defensive posture: every rejection carries a machine-readable
    ``{"error": {"type", "message"}}`` body, never a traceback page."""

    def test_malformed_json_is_400_with_body(self, server):
        status, body = post_raw(server.url, b"{not json at all")
        assert status == 400
        assert body["error"]["type"] == "BadRequest"
        assert "JSON" in body["error"]["message"]

    def test_non_object_payload_is_400(self, server):
        status, body = post_raw(server.url, b"[1, 2, 3]")
        assert status == 400
        assert "JSON object" in body["error"]["message"]

    def test_missing_code_field_is_400(self, server):
        status, body = post_raw(server.url, json.dumps({"tables": {}}).encode())
        assert status == 400
        assert "'code'" in body["error"]["message"]

    def test_non_dict_tables_is_400(self, server):
        payload = json.dumps({"code": "result = 1", "tables": [1]}).encode()
        status, body = post_raw(server.url, payload)
        assert status == 400
        assert "'tables'" in body["error"]["message"]

    def test_bogus_content_length_is_400(self, server):
        status, body = post_raw(
            server.url, b"{}", headers={"Content-Length": "banana"}
        )
        assert status == 400
        assert "Content-Length" in body["error"]["message"]

    def test_oversized_body_is_413(self):
        with SandboxServer(max_body_bytes=64) as small:
            payload = json.dumps({"code": "x" * 1000, "tables": {}}).encode()
            status, body = post_raw(small.url, payload)
            assert status == 413
            assert body["error"]["type"] == "PayloadTooLarge"
            assert "64" in body["error"]["message"]
            # a small request still goes through: the cap is per-body
            ok, _ = post_raw(
                small.url, json.dumps({"code": "result = 1"}).encode()
            )
            assert ok == 200

    def test_404_body_is_structured_too(self, server):
        try:
            urllib.request.urlopen(f"{server.url}/nope", timeout=10)
        except urllib.error.HTTPError as exc:
            doc = json.loads(exc.read().decode())
            assert doc["error"]["type"] == "NotFound"


class TestHealthClassification:
    def test_live_server_is_ok(self, client):
        status = client.health()
        assert status.ok and status.detail == "ok"

    def test_connection_refused_classified(self):
        # bind-then-close guarantees nothing listens on the port
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        status = SandboxClient(f"http://127.0.0.1:{port}", timeout_s=2.0).health()
        assert not status.ok
        assert status.detail == "refused"

    def test_http_error_classified(self, server):
        # /health only answers GET on the right path; a server that 404s
        # the probe is live-but-wrong, distinct from refused/timeout
        status = SandboxClient(f"{server.url}/bogus-prefix").health()
        assert not status.ok
        assert status.detail == "http-404"


class TestTransport:
    def test_sequential_keep_alive_executes_do_not_stall_on_the_reply(self):
        class TimedExecutor(SandboxExecutor):
            spent: list[float] = []

            def execute(self, code, tables):
                t0 = time.perf_counter()
                try:
                    return super().execute(code, tables)
                finally:
                    self.spent.append(time.perf_counter() - t0)

        frame = Frame({"a": np.arange(2000, dtype=np.float64)})
        payload = {"code": "result = tables['work']", "tables": {"work": frame_to_json(frame)}}
        with SandboxServer(executor=TimedExecutor()) as srv:
            client = KeepAliveSocket(srv.url)
            try:
                totals = []
                for _ in range(10):
                    total, doc = client.post("/execute", payload)
                    assert doc["ok"] and doc["result_rows"] == 2000
                    totals.append(total)
            finally:
                client.close()
        # what is left is JSON both ways; headers and body as two segments
        # used to add one delayed ACK (~40 ms) to every reply
        overheads = [total - spent for total, spent in zip(totals, TimedExecutor.spent)]
        assert statistics.median(overheads) < 0.015, overheads

    def test_gateway_413_is_one_write_of_the_same_bytes(self, server, monkeypatch):
        handler_class = server._make_handler()
        monkeypatch.setattr(
            handler_class, "date_time_string", lambda self: "Thu, 01 Jan 2026 00:00:00 GMT"
        )
        sent, reference = fake_handler(handler_class), fake_handler(handler_class)
        sent._error(413, "PayloadTooLarge", "body of 9 bytes exceeds the 8-byte limit")
        doc = {
            "error": {
                "type": "PayloadTooLarge",
                "message": "body of 9 bytes exceeds the 8-byte limit",
            }
        }
        two_write_reply(reference, 413, json.dumps(doc).encode("utf-8"))
        assert sent.close_connection is True
        assert len(reference.wfile.writes) == 2
        assert len(sent.wfile.writes) == 1
        assert sent.wfile.writes[0] == b"".join(reference.wfile.writes)
