"""HTTP JSON execution gateway (Uvicorn/FastAPI substitute).

One endpoint, ``POST /execute``, accepting::

    {"code": "...", "tables": {"work": {<frame json>}, ...}}

and returning the execution summary plus the result frame, published
tables, and the figure serialized as SVG when one was produced.  Runs on
a stdlib ``ThreadingHTTPServer`` so the sandbox really is a separate
serving process boundary, as in the paper, without external dependencies.
A ``GET /health`` endpoint reports liveness.

Defensive posture: malformed JSON and schema violations answer **400**,
oversized bodies **413** (bounded by ``max_body_bytes``), unexpected
executor failures **500** — always with a structured
``{"error": {"type", "message"}}`` body, so clients can classify without
scraping tracebacks.  Each connection gets a socket read timeout
(``read_timeout_s``), so a client that stalls mid-request cannot pin a
server thread forever.

Connections speak **HTTP/1.1 keep-alive**: every reply carries an exact
``Content-Length``, so clients can pipeline many executions over one
socket instead of paying TCP setup per request.  An idle keep-alive
connection is closed by the same ``read_timeout_s`` socket timeout; a
client reusing a connection the server already closed sees a reset and
reconnects (classified retryable on the client side).

One execution runs at a time *inside this server*: one sandbox worker
models one isolated interpreter that runs one job at a time, which is
the unit the fleet multiplies.  HTTP threads still accept/parse
concurrently — only the execute step serializes.

Run ``python -m repro.sandbox`` to start a standalone worker process
(:func:`main`; the package's ``__main__`` calls it); it prints one
``SANDBOX_URL=<url>`` line on stdout when ready (how
:class:`~repro.sandbox.fleet.ProcessSpawner` learns the bound port).

``http.server`` is imported where a server is built: the package imports
this module for every process, and one without a gateway never listens.
"""

from __future__ import annotations

import json
import threading
from typing import TYPE_CHECKING, Any

from repro.sandbox.executor import SandboxExecutor
from repro.sandbox.serialize import frame_from_json, frame_to_json
from repro.viz import Figure, Scene3D

if TYPE_CHECKING:
    from http.server import BaseHTTPRequestHandler

DEFAULT_MAX_BODY_BYTES = 64 * 1024 * 1024
DEFAULT_READ_TIMEOUT_S = 30.0


class BadRequest(ValueError):
    """Client-side payload problem → 400 with a structured body."""


class PayloadTooLarge(BadRequest):
    """Body exceeds the handler's byte limit → 413."""


def read_json_object(handler: BaseHTTPRequestHandler, max_bytes: int) -> dict[str, Any]:
    """Read one request body as a JSON object, or say why not.

    The length is checked before a byte is read, so a bogus or huge
    ``Content-Length`` costs nothing; no body at all reads as ``{}``.
    Shared by this gateway and the ``repro serve`` front door.
    """
    try:
        length = int(handler.headers.get("Content-Length") or 0)
    except ValueError:
        raise BadRequest("non-integer Content-Length") from None
    if length < 0:
        raise BadRequest("negative Content-Length")
    if length > max_bytes:
        raise PayloadTooLarge(f"body of {length} bytes exceeds the {max_bytes}-byte limit")
    if length == 0:
        return {}
    try:
        payload = json.loads(handler.rfile.read(length).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise BadRequest(f"body is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise BadRequest("payload must be a JSON object")
    return payload


def send_json_reply(
    handler: BaseHTTPRequestHandler,
    status: int,
    body: bytes,
    headers: dict[str, str] | None = None,
) -> None:
    """Send one JSON reply — status line, headers and body — in one write.

    ``send_response … end_headers`` followed by ``wfile.write(body)`` puts
    two segments on an unbuffered socket; Nagle holds the second until the
    first is ACKed and the client delays that ACK ~40 ms.  Same bytes as
    that pair, one segment.  Shared with the ``repro serve`` front door.
    """
    handler.log_request(status)
    head = [
        f"{handler.protocol_version} {status} {handler.responses.get(status, ('',))[0]}",
        f"Server: {handler.version_string()}",
        f"Date: {handler.date_time_string()}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        *(f"{key}: {value}" for key, value in (headers or {}).items()),
        "\r\n",
    ]
    if handler.request_version == "HTTP/0.9":  # has no status line or headers
        head = []
    handler.wfile.write("\r\n".join(head).encode("latin-1") + body)


class SandboxServer:
    """Owns the HTTP server lifecycle; use as a context manager in tests."""

    def __init__(
        self,
        executor: SandboxExecutor | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
        read_timeout_s: float = DEFAULT_READ_TIMEOUT_S,
    ):
        from http.server import ThreadingHTTPServer

        self.executor = executor or SandboxExecutor()
        self.max_body_bytes = int(max_body_bytes)
        self.read_timeout_s = float(read_timeout_s)
        # one worker = one isolated interpreter: executions serialize here
        # (HTTP accept/parse stays concurrent)
        self._exec_gate = threading.Lock()
        self._httpd = ThreadingHTTPServer((host, port), self._make_handler())
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        return self._httpd.server_address[:2]  # type: ignore[return-value]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def _make_handler(self):
        from http.server import BaseHTTPRequestHandler

        executor = self.executor
        max_body = self.max_body_bytes
        read_timeout = self.read_timeout_s
        exec_gate = self._exec_gate

        class Handler(BaseHTTPRequestHandler):
            # keep-alive: persistent clients reuse one socket across many
            # executions (every _reply carries an exact Content-Length)
            protocol_version = "HTTP/1.1"
            # socket read timeout (applied in StreamRequestHandler.setup):
            # a stalled client raises TimeoutError in rfile.read /
            # request parsing instead of pinning the thread forever; the
            # same timeout reaps idle keep-alive connections
            timeout = read_timeout

            def log_message(self, *args: Any) -> None:  # silence request logs
                pass

            def do_GET(self) -> None:
                if self.path == "/health":
                    self._reply(200, {"status": "ok"})
                else:
                    self._error(404, "NotFound", f"no route {self.path!r}")

            def do_POST(self) -> None:
                if self.path != "/execute":
                    self._error(404, "NotFound", f"no route {self.path!r}")
                    return
                try:
                    payload = self._read_payload()
                    tables = {
                        name: frame_from_json(doc)
                        for name, doc in payload.get("tables", {}).items()
                    }
                    with exec_gate:
                        result = executor.execute(payload["code"], tables)
                    doc: dict[str, Any] = result.summary()
                    if result.result is not None:
                        doc["result"] = frame_to_json(result.result)
                    doc["tables"] = {
                        name: frame_to_json(frame) for name, frame in result.tables.items()
                    }
                    if isinstance(result.figure, (Figure, Scene3D)):
                        doc["figure_svg"] = result.figure.to_svg()
                    self._reply(200, doc)
                except PayloadTooLarge as exc:
                    self._error(413, "PayloadTooLarge", str(exc))
                except BadRequest as exc:
                    self._error(400, "BadRequest", str(exc))
                except TimeoutError:
                    # stalled client: close without a reply; the connection
                    # is already unusable
                    self.close_connection = True
                except Exception as exc:  # defensive: gateway must not die
                    self._error(500, type(exc).__name__, str(exc))

            def _read_payload(self) -> dict[str, Any]:
                payload = read_json_object(self, max_body)
                if not isinstance(payload.get("code"), str):
                    raise BadRequest("payload must carry a string 'code' field")
                if not isinstance(payload.get("tables", {}), dict):
                    raise BadRequest("'tables' must be an object")
                return payload

            def _error(self, status: int, err_type: str, message: str) -> None:
                # on errors the request body may be partially unread (e.g.
                # 413 refuses before reading); a keep-alive reuse would
                # misparse the leftover bytes as a new request — close instead
                self.close_connection = True
                self._reply(status, {"error": {"type": err_type, "message": message}})

            def _reply(self, status: int, doc: dict) -> None:
                try:
                    send_json_reply(self, status, json.dumps(doc).encode("utf-8"))
                except (BrokenPipeError, ConnectionResetError, TimeoutError):
                    self.close_connection = True

        return Handler

    def start(self) -> "SandboxServer":
        self._thread = threading.Thread(target=self._httpd.serve_forever, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)

    def __enter__(self) -> "SandboxServer":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()


def main(argv: list[str] | None = None) -> int:
    """Standalone worker entry: ``python -m repro.sandbox``.

    Binds (port 0 → ephemeral), prints ``SANDBOX_URL=<url>`` on stdout
    so a spawning parent (:class:`~repro.sandbox.fleet.ProcessSpawner`)
    can read the address, then serves until terminated.
    """
    import argparse

    parser = argparse.ArgumentParser(description="Run one sandbox worker process")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0, help="0 = ephemeral")
    parser.add_argument(
        "--read-timeout", type=float, default=DEFAULT_READ_TIMEOUT_S,
        help="socket read / keep-alive idle timeout in seconds",
    )
    args = parser.parse_args(argv)

    # deferred: agents.tools pulls in the agent/sim/viz stack, which this
    # module must not import at module load (fleet imports server)
    from repro.agents.tools import default_toolset

    server = SandboxServer(
        executor=SandboxExecutor(tools=default_toolset()),
        host=args.host,
        port=args.port,
        read_timeout_s=args.read_timeout,
    )
    print(f"SANDBOX_URL={server.url}", flush=True)
    try:
        server._httpd.serve_forever(poll_interval=0.1)
    except KeyboardInterrupt:
        pass
    finally:
        server._httpd.server_close()
    return 0
