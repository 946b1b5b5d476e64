"""``serve_mixed``: two tenants over HTTP against an in-process server."""

from __future__ import annotations

import hashlib
import http.client
import json
import socket
import threading
import time
import urllib.request
from pathlib import Path

import numpy as np

from repro.agents.tools import default_toolset
from repro.core.config import InferAConfig
from repro.frame import Frame
from repro.llm.errors import ErrorModel
from repro.obs.metrics import get_registry
from repro.sandbox import InProcessClient, SandboxExecutor, SandboxFleet
from repro.serve import ReproServer
from repro.sim import EnsembleSpec, generate_ensemble

from .measure import Calibrator, ClientLog, probe_p50
from .workload import CheckResult, Workload

TENANTS = ("tenant-a", "tenant-b")
# the server's LLM seed base.  A request's seed is this plus its index in
# its session, so with the request order fixed per session, which requests
# hit redo loops is the same for every --seed; the seed varies the data.
SERVER_SEED = 11
REQUEST_TIMEOUT_S = 120.0

HOT = "How many halos are there in run 0 at the final timestep?"
HEAVY = (
    "Across all the simulations, what is the average size (fof_halo_count) "
    "of halos at each time step?"
)
REDO_PRONE = (
    "Compute the mean mass of the largest 50 halos at the final timestep "
    "in run 0 and plot the distribution."
)
STEPS = (0, 249, 498, 624)
# both are FOF catalog columns, so every unique question costs the same;
# 2 metrics x 2 runs x 4 steps = 16 distinct questions, 7 per tenant
UNIQUE_METRICS = ("fof_halo_mass", "fof_halo_count")
# requests per tenant at scale 1.0.  By latency there are two classes:
# "heavy" (the cross-run aggregate) and everything else, so with a
# quarter heavy the p90 index sits inside heavy and the p50 index well
# inside the rest.
DEFAULT_PER_TENANT = {"hot": 2, "unique": 7, "heavy": 4, "redo": 3}

def build_plans(seed: int, scale: float) -> list[list[tuple[str, str]]]:
    """Per tenant, the ``(class, question)`` sequence of one pass."""
    rng = np.random.default_rng([seed, 5])
    counts = {cls: max(1, round(n * scale)) for cls, n in DEFAULT_PER_TENANT.items()}
    combos = [(m, r, s) for m in UNIQUE_METRICS for r in (0, 1) for s in STEPS]
    picks = rng.permutation(len(combos))
    plans = []
    for t in range(len(TENANTS)):
        mine = [combos[int(i)] for i in picks[t::len(TENANTS)]][: counts["unique"]]
        plan = [("hot", HOT)] * counts["hot"] + [("heavy", HEAVY)] * counts["heavy"]
        plan += [("redo", REDO_PRONE)] * counts["redo"]
        plan += [
            ("unique", f"What is the average {m} of halos in run {r} at timestep {s}?")
            for m, r, s in mine
        ]
        plans.append([plan[int(i)] for i in rng.permutation(len(plan))])
    return plans


def answer_tables_digest(doc: dict) -> str:
    tables = (doc.get("result") or {}).get("tables")
    return hashlib.sha256(json.dumps(tables, sort_keys=True).encode()).hexdigest()


class _Tenant:
    """One closed-loop client: a session and a keep-alive connection."""

    def __init__(self, session: str, host: str, port: int):
        self.session = session
        self.host, self.port = host, port
        self.conn: http.client.HTTPConnection | None = None

    def _connect(self) -> http.client.HTTPConnection:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=REQUEST_TIMEOUT_S)
        conn.connect()
        # http.client sends headers and body in two writes; without this
        # the second waits ~40 ms for the server's delayed ACK, which is
        # the client library's doing, not the server's
        conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return conn

    def post(self, question: str) -> tuple[int, dict]:
        if self.conn is None:
            self.conn = self._connect()
        body = json.dumps({"question": question, "session": self.session}).encode()
        try:
            self.conn.request("POST", "/v1/query", body=body,
                              headers={"Content-Type": "application/json"})
            response = self.conn.getresponse()
            return response.status, json.loads(response.read())
        except (OSError, http.client.HTTPException):
            self.close()   # a broken connection must not poison the next op
            raise

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


class ServeMixed(Workload):
    name = "serve_mixed"

    def __init__(self, seed: int, scale: float, tiny: bool = False, memo: dict | None = None):
        super().__init__(seed, scale, tiny, memo)
        self.plans = build_plans(seed, scale)
        self.spec = EnsembleSpec(n_runs=2, timesteps=STEPS, n_particles=600,
                                 write_particles=False, seed=30_000 + seed)
        self.server: ReproServer | None = None

    # -- lifecycle ------------------------------------------------------
    def setup(self, pass_dir: Path, cal: Calibrator, traced: bool) -> None:
        t0 = time.perf_counter()
        ensemble = generate_ensemble(pass_dir / "ensemble", self.spec)
        self.generate_wall_s = time.perf_counter() - t0
        cal.maybe()
        self.server = ReproServer(
            ensemble, pass_dir / "serve",
            InferAConfig(seed=SERVER_SEED, error_model=ErrorModel()),
            app_workers=2,
        )
        report = self.server.start()
        self.warmup_s = report.total_s
        cal.maybe()
        self.tenants = [_Tenant(name, self.server.host, self.server.port) for name in TENANTS]
        for tenant in self.tenants:   # warm pass, untimed
            for question in (HOT, "What is the average fof_halo_mass of halos in run 0 at timestep 0?"):
                status, doc = tenant.post(question)
                if status != 200:
                    raise RuntimeError(f"warm request failed: HTTP {status} {doc}")
                cal.maybe()

    def finish(self) -> None:
        for tenant in getattr(self, "tenants", []):
            tenant.close()
        if self.server is not None:
            self.server.shutdown()
            self.server = None

    def _stats(self) -> dict:
        with urllib.request.urlopen(f"{self.server.url}/stats", timeout=30) as response:
            return json.loads(response.read())

    # -- timed phase ----------------------------------------------------
    def run(self) -> list[ClientLog]:
        stats_before = self._stats()
        fallbacks_before = get_registry().counter("resilience.fallbacks.sandbox").value
        logs = [ClientLog(t.session, cal=Calibrator(threaded=True)) for t in self.tenants]
        self.replies: list[list[tuple[int, dict] | Exception]] = [[] for _ in self.tenants]

        def client(i: int) -> None:
            tenant, log = self.tenants[i], logs[i]
            for cls, question in self.plans[i]:
                self.replies[i].append(log.run(cls, lambda: tenant.post(question)))
            log.close()

        threads = [threading.Thread(target=client, args=(i,), name=f"e2e-{t.session}")
                   for i, t in enumerate(self.tenants)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        self.stats_delta = _delta(self._stats(), stats_before)
        self.fallbacks = get_registry().counter("resilience.fallbacks.sandbox").value - fallbacks_before
        self.logs = logs
        return logs

    # -- answers and layer values ----------------------------------------
    def check(self, clients: list[ClientLog]) -> CheckResult:
        return check_serve(self.plans, clients, self.replies, answers=self.memo)

    def op_walls(self, clients: list[ClientLog]) -> dict[str, float]:
        # spans on the worker threads are keyed "<tenant>/<run id>"
        walls = {}
        for log, replies in zip(clients, self.replies):
            for op, reply in zip(log.ops, replies):
                if op.ok and isinstance(reply[1].get("run_id"), str):
                    walls[f"{reply[1]['session']}/{reply[1]['run_id']}"] = op.t1 - op.t0
        return walls

    def layer_values(self) -> dict[str, float]:
        served = [(op, r[1]) for log, replies in zip(self.logs, self.replies)
                  for op, r in zip(log.ops, replies) if op.ok and r[0] == 200]
        docs = [doc for _op, doc in served]
        n = max(len(docs), 1)
        in_server = sum(d["timing"]["queue_wait_s"] + d["timing"]["exec_s"] for d in docs)
        results = [d["result"] for d in docs if d.get("result")]
        cache, memo = self.stats_delta["query_cache"], self.stats_delta["retrieval_cache"]
        cache_requests = sum(cache[k] for k in ("memory_hits", "disk_hits", "incremental_hits", "misses"))
        memo_requests = memo["query_memo_hits"] + memo["query_memo_misses"]
        return {
            "serve.queue_wait_s": sum(d["timing"]["queue_wait_s"] for d in docs) / n,
            "serve.exec_s": sum(d["timing"]["exec_s"] for d in docs) / n,
            "serve.http_overhead_s": (sum(op.t1 - op.t0 for op, _doc in served) - in_server) / n,
            "serve.rejected_429": float(sum(
                1 for replies in self.replies for r in replies
                if not isinstance(r, Exception) and r[0] == 429)),
            "serve.warmup_s": self.warmup_s,
            "serve.query_cache_hit_share": (cache_requests - cache["misses"]) / max(cache_requests, 1),
            "serve.retrieval_memo_hit_share": memo["query_memo_hits"] / max(memo_requests, 1),
            "sandbox.fallbacks": float(self.fallbacks),
            "agents.redo_iterations": sum(r["redo_iterations"] for r in results) / max(len(results), 1),
            "agents.completed_share": sum(bool(r["completed"]) for r in results) / max(len(results), 1),
            "llm.tokens": sum(r["tokens"] for r in results) / max(len(results), 1),
            "sim.generate_s": self.generate_wall_s,
        }

    def probes(self, cal: Calibrator) -> dict[str, float | str]:
        """One small execution through a 2-member thread-mode sandbox fleet."""
        fallback = InProcessClient(SandboxExecutor(tools=default_toolset()))
        tables = {"t": Frame({"a": np.arange(2000), "b": np.arange(2000) * 0.5})}
        code = "result = tables['t'][tables['t']['a'] > 1000]"
        with SandboxFleet.spawn_local(2, mode="thread", fallback=fallback) as fleet:
            fleet.warm()

            def execute() -> None:
                outcome = fleet.execute(code, tables)
                if not outcome.ok:
                    raise RuntimeError(f"fleet probe execution failed: {outcome.error_message}")

            return {"sandbox.fleet_execute_s": probe_p50(cal, execute, 15)}


def _delta(after: dict, before: dict) -> dict:
    return {
        section: {k: after[section][k] - before[section][k]
                  for k in after[section] if isinstance(after[section][k], int)}
        for section in ("query_cache", "retrieval_cache")
    }


def check_serve(plans, clients: list[ClientLog], replies,
                answers: dict[tuple[str, int], str]) -> CheckResult:
    """HTTP 200, a status that is not an error, and the same answer tables
    for the same request in every pass.

    A request's LLM seed is the server seed plus its index in its session,
    so request ``i`` of a tenant must answer identically whatever the other
    tenant, the worker pool and the shared caches were doing at the time;
    ``answers`` carries each request's first answer from pass to pass.
    (Two repeats of the hot question *within* a pass need not agree: the
    calibrated error model makes some of them pick the wrong metric, by
    design.)
    """
    failed, notes, attempted = 0, [], 0
    for plan, log, got in zip(plans, clients, replies):
        for (cls, question), op, reply in zip(plan, log.ops, got):
            attempted += 1
            if not op.ok:
                failed += 1
                notes.append(f"{log.name} {cls}: raised {op.error.strip().splitlines()[-1]}")
                continue
            status, doc = reply
            if status != 200 or doc.get("status") not in ("ok", "failed"):
                failed += 1
                notes.append(f"{log.name} {cls}: HTTP {status}, status {doc.get('status')!r}, "
                             f"error {doc.get('error')!r}")
                continue
            digest = answer_tables_digest(doc)
            if answers.setdefault((log.name, op.index), digest) != digest:
                failed += 1
                notes.append(f"{log.name} {cls} #{op.index}: answer differs from an earlier pass")
    return CheckResult(attempted, failed, notes)
