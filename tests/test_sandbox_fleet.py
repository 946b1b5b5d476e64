"""Sandbox fleet: least-loaded routing, breaker-skip, half-open recovery,
reap/respawn accounting, tiered degradation, persistent connections.

Routing tests run on scripted stub clients over a :class:`SimulatedClock`
so every route choice is a deterministic function of the load state —
no sleeps, no real sockets.  The transport tests at the bottom cross a
real HTTP boundary.
"""

from __future__ import annotations

import itertools
import os
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.frame import Frame
from repro.obs.metrics import get_registry
from repro.obs.names import is_canonical_excluded_attr
from repro.obs.tracer import Tracer, use_tracer
from repro.resilience import OPEN, CircuitBreaker, ServiceEWMA
from repro.sandbox import (
    ExecutionResult,
    InProcessClient,
    SandboxClient,
    SandboxExecutor,
    SandboxFleet,
    SandboxServer,
    SandboxUnavailable,
    resolve_sandbox_workers,
)
from repro.sandbox.fleet import ProcessSpawner, WorkerHandle
from repro.util.timing import SimulatedClock


# ----------------------------------------------------------------------
# scripted stubs
# ----------------------------------------------------------------------
class StubClient:
    """Client whose execute advances the shared clock by a scripted
    latency, succeeds or raises classified-unavailable, and drives its
    breaker the way the real client ladder does."""

    def __init__(self, index, clock, latencies=(0.1,), threshold=1, reset_s=5.0):
        self.index = index
        self.url = f"stub://{index}"
        self.clock = clock
        self.fail = False
        self.calls = 0
        self._latencies = itertools.cycle(latencies)
        self.breaker = CircuitBreaker(
            failure_threshold=threshold,
            reset_timeout_s=reset_s,
            clock=clock,
            name=f"stub-{index}",
        )

    def execute(self, code, tables):
        self.calls += 1
        if self.fail:
            self.breaker.record_failure()
            raise SandboxUnavailable(f"stub {self.index} is down")
        self.clock.advance(next(self._latencies))
        self.breaker.record_success()
        return ExecutionResult(ok=True)


class FakeSpawner:
    mode = "fake"

    def __init__(self):
        self.spawned: list[int] = []
        self.killed: list[str] = []

    def spawn(self, index: int) -> WorkerHandle:
        self.spawned.append(index)
        url = f"stub://respawned-{index}-{len(self.spawned)}"
        return WorkerHandle(url=url, _kill=lambda: self.killed.append(url))


def make_fleet(clock, stubs, **kwargs):
    return SandboxFleet(clients=stubs, clock=clock, **kwargs)


# ----------------------------------------------------------------------
# sizing knob
# ----------------------------------------------------------------------
class TestResolveWorkers:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANDBOX_WORKERS", raising=False)
        assert resolve_sandbox_workers(None) is None

    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANDBOX_WORKERS", "7")
        assert resolve_sandbox_workers(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANDBOX_WORKERS", "5")
        assert resolve_sandbox_workers(None) == 5

    def test_zero_means_per_core(self, monkeypatch):
        import os

        monkeypatch.delenv("REPRO_SANDBOX_WORKERS", raising=False)
        assert resolve_sandbox_workers(0) == max(1, os.cpu_count() or 1)

    def test_negative_and_garbage_disable(self, monkeypatch):
        assert resolve_sandbox_workers(-1) is None
        monkeypatch.setenv("REPRO_SANDBOX_WORKERS", "banana")
        assert resolve_sandbox_workers(None) is None


def test_ewma_first_sample_replaces_zero():
    ewma = ServiceEWMA(alpha=0.5)
    assert ewma.value == 0.0
    ewma.observe(1.0)
    assert ewma.value == 1.0
    ewma.observe(2.0)
    assert ewma.value == pytest.approx(1.5)
    ewma.reset()
    assert ewma.value == 0.0 and ewma.samples == 0


# ----------------------------------------------------------------------
# routing policy
# ----------------------------------------------------------------------
class TestRouting:
    def test_least_loaded_then_ewma_then_index(self):
        clock = SimulatedClock()
        stubs = [
            StubClient(0, clock, latencies=(0.3,)),
            StubClient(1, clock, latencies=(0.1,)),
            StubClient(2, clock, latencies=(0.2,)),
        ]
        fleet = make_fleet(clock, stubs)
        for _ in range(5):
            assert fleet.execute("code", {}).ok
        # sequential load: first pass visits 0,1,2 by index (all EWMAs
        # zero), after which the fastest member (1) wins every tie
        assert [s.calls for s in stubs] == [1, 3, 1]
        assert [m.routes for m in fleet.members] == [1, 3, 1]
        assert fleet.routes_total == 5

    def test_in_flight_dominates_ewma(self):
        clock = SimulatedClock()
        stubs = [
            StubClient(0, clock, latencies=(0.01,)),
            StubClient(1, clock, latencies=(0.5,)),
        ]
        fleet = make_fleet(clock, stubs)
        fleet.execute("code", {})          # member 0 becomes the fast one
        fleet.members[0].in_flight = 3     # ...but it is busy now
        fleet.execute("code", {})
        assert stubs[1].calls == 1

    def test_routing_is_deterministic(self):
        def run():
            clock = SimulatedClock()
            stubs = [StubClient(i, clock, latencies=(0.1 * (i + 1),)) for i in range(4)]
            fleet = make_fleet(clock, stubs)
            for _ in range(12):
                fleet.execute("code", {})
            return [s.calls for s in stubs]

        assert run() == run()


# ----------------------------------------------------------------------
# breaker integration, half-open recovery, respawn
# ----------------------------------------------------------------------
class TestDegradation:
    def test_tripped_member_is_skipped_without_attempts(self):
        clock = SimulatedClock()
        stubs = [StubClient(0, clock), StubClient(1, clock)]
        stubs[0].fail = True
        fleet = make_fleet(clock, stubs)
        assert fleet.execute("code", {}).ok    # 0 trips, rerouted to 1
        assert stubs[0].calls == 1 and stubs[0].breaker.state == OPEN
        for _ in range(3):
            assert fleet.execute("code", {}).ok
        # the open breaker keeps member 0 out of the candidate set
        assert stubs[0].calls == 1
        assert fleet.trips_total == 1
        assert fleet.members[0].trips == 1

    def test_half_open_probe_recovers_member(self):
        clock = SimulatedClock()
        stubs = [StubClient(0, clock, latencies=(0.01,), reset_s=5.0),
                 StubClient(1, clock, latencies=(9.0,))]
        stubs[0].fail = True
        fleet = make_fleet(clock, stubs)
        fleet.execute("code", {})              # trip 0, serve on 1
        stubs[0].fail = False                  # the worker comes back
        clock.advance(6.0)                     # past the reset timeout
        assert fleet.execute("code", {}).ok
        # allow() half-opened the breaker, the routed request was the
        # probe, and its success closed the breaker again
        assert stubs[0].calls == 2
        assert stubs[0].breaker.state == "closed"
        assert "half_open" in stubs[0].breaker.transitions

    def test_repeated_failure_reaps_and_respawns(self):
        clock = SimulatedClock()
        stubs = [StubClient(0, clock, reset_s=5.0), StubClient(1, clock)]
        stubs[0].fail = True
        spawner = FakeSpawner()
        replacement = StubClient(0, clock, latencies=(0.01,))
        fleet = SandboxFleet(
            clients=stubs,
            spawner=spawner,
            client_factory=lambda index, url: replacement,
            clock=clock,
            respawn_after=2,
        )
        fleet.execute("code", {})              # consecutive_unavailable=1
        clock.advance(6.0)
        fleet.execute("code", {})              # half-open probe fails -> 2 -> respawn
        assert spawner.spawned == [0]
        member = fleet.members[0]
        assert member.respawns == 1 and fleet.respawns_total == 1
        assert member.client is replacement
        assert member.consecutive_unavailable == 0
        assert member.ewma.samples == 0
        # the fresh worker serves traffic again
        before = replacement.calls
        fleet.execute("code", {})
        assert replacement.calls == before + 1

    def test_all_dead_degrades_to_fallback(self):
        clock = SimulatedClock()
        stubs = [StubClient(0, clock), StubClient(1, clock)]
        for s in stubs:
            s.fail = True

        class Fallback:
            calls = 0

            def execute(self, code, tables):
                Fallback.calls += 1
                return ExecutionResult(ok=True, error_type="", meta={"via": "fallback"})

        fleet = make_fleet(clock, stubs, fallback=Fallback())
        result = fleet.execute("code", {})
        assert result.ok and result.meta == {"via": "fallback"}
        assert fleet.fallbacks_total == 1
        assert fleet.trips_total == 2

    def test_all_dead_without_fallback_is_classified(self):
        clock = SimulatedClock()
        stubs = [StubClient(0, clock)]
        stubs[0].fail = True
        fleet = make_fleet(clock, stubs)
        with pytest.raises(SandboxUnavailable) as err:
            fleet.execute("code", {})
        assert err.value.classification == "sandbox-unavailable"


# ----------------------------------------------------------------------
# observability
# ----------------------------------------------------------------------
class TestObservability:
    def test_span_attrs_and_canonical_exclusion(self):
        clock = SimulatedClock()
        stubs = [StubClient(0, clock), StubClient(1, clock)]
        stubs[0].fail = True
        fleet = make_fleet(clock, stubs)
        tracer = Tracer(clock=clock)
        with use_tracer(tracer), tracer.span("outer") as sp:
            fleet.execute("code", {})
        assert sp.attributes["fleet_routes"] == 1
        assert sp.attributes["fleet_trips"] == 1
        assert sp.attributes["fleet_worker"] == 1
        assert sp.attributes["fleet_tier"] == "degraded"
        for key in sp.attributes:
            if key.startswith("fleet_"):
                assert is_canonical_excluded_attr(key)

    def test_counters_accumulate(self):
        registry = get_registry()
        routes0 = registry.counter("sandbox.fleet.routes").value
        trips0 = registry.counter("sandbox.fleet.trips").value
        clock = SimulatedClock()
        stubs = [StubClient(0, clock), StubClient(1, clock)]
        stubs[0].fail = True
        fleet = make_fleet(clock, stubs)
        fleet.execute("code", {})
        assert registry.counter("sandbox.fleet.routes").value == routes0 + 1
        assert registry.counter("sandbox.fleet.trips").value == trips0 + 1

    def test_stats_snapshot_written(self, tmp_path):
        clock = SimulatedClock()
        stubs = [StubClient(0, clock)]
        path = tmp_path / "sandbox_fleet.json"
        fleet = make_fleet(clock, stubs, stats_path=path, checkpoint_every=1)
        fleet.execute("code", {})
        import json

        doc = json.loads(path.read_text())
        assert doc["workers"] == 1
        assert doc["lifetime"]["routes"] == 1
        assert doc["members"][0]["breaker"] == "closed"
        fleet.close()

    def test_concurrent_checkpoints_never_tear_the_snapshot(self, tmp_path, monkeypatch):
        """``_checkpoint`` runs outside the fleet lock on every routing
        thread: a reader of ``sandbox_fleet.json`` must see a whole
        snapshot every time, no publish may fail, no temp file may stay."""
        import json
        import sys
        import threading

        from repro.sandbox import fleet as fleet_mod

        swallowed: list[tuple] = []
        monkeypatch.setattr(fleet_mod.log, "debug", lambda *args, **kw: swallowed.append(args))
        clock = SimulatedClock()
        path = tmp_path / "sandbox_fleet.json"
        fleet = make_fleet(clock, [StubClient(i, clock) for i in range(4)], stats_path=path)
        fleet._checkpoint()
        done = threading.Event()
        published = itertools.count()

        def publish():
            while not done.is_set():
                fleet._checkpoint()
                next(published)

        writers = [threading.Thread(target=publish) for _ in range(4)]
        torn = 0
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in writers:
                thread.start()
            for _ in range(1000):
                try:
                    assert json.loads(path.read_text())["workers"] == 4
                except ValueError:
                    torn += 1
                time.sleep(0)  # hand the interpreter to a publisher
        finally:
            done.set()
            for thread in writers:
                thread.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in writers)
        assert next(published) > 100  # the reader really had company
        assert (torn, swallowed) == (0, [])
        assert list(tmp_path.glob("*.tmp")) == []

    def test_warm_probes_every_member(self):
        with SandboxServer(executor=SandboxExecutor()) as server:
            fleet = SandboxFleet(clients=[SandboxClient(server.url)])
            probe = fleet.warm()
        assert probe["workers"] == 1
        assert probe["healthy"] == 1
        assert probe["probes"][0]["detail"] == "ok"


# ----------------------------------------------------------------------
# real transport: keep-alive reuse, stale reconnect, spawners
# ----------------------------------------------------------------------
CODE = "result = Frame({'y': tables['work'].column('x') * 2.0})"


def _tables():
    return {"work": Frame({"x": np.arange(16.0)})}


class TestPersistentConnections:
    def test_keep_alive_reuses_sockets(self):
        registry = get_registry()
        dials0 = registry.counter("sandbox.conn.dials").value
        reuses0 = registry.counter("sandbox.conn.reuses").value
        with SandboxServer(executor=SandboxExecutor()) as server:
            client = SandboxClient(server.url)
            for _ in range(4):
                assert client.execute(CODE, _tables()).ok
            client.close()
        assert registry.counter("sandbox.conn.dials").value == dials0 + 1
        assert registry.counter("sandbox.conn.reuses").value == reuses0 + 3

    def test_stale_pooled_socket_reconnects(self):
        # the server reaps idle keep-alive connections after its read
        # timeout; the client's next attempt on the stale socket must be
        # classified retryable and transparently redial
        with SandboxServer(executor=SandboxExecutor(), read_timeout_s=0.3) as server:
            client = SandboxClient(server.url)
            assert client.execute(CODE, _tables()).ok
            time.sleep(0.8)  # let the server close the idle connection
            assert client.execute(CODE, _tables()).ok
            client.close()

    def test_fleet_members_survive_member_kill(self):
        fleet = SandboxFleet.spawn_local(
            2,
            mode="thread",
            executor_factory=SandboxExecutor,
            fallback=InProcessClient(),
        )
        try:
            assert fleet.execute(CODE, _tables()).ok
            fleet.members[0].handle.kill()
            # force the dead member into the route by making it idle-best
            fleet.members[0].ewma.reset()
            fleet.members[1].in_flight = 2
            result = fleet.execute(CODE, _tables())
            assert result.ok
        finally:
            fleet.close()

    def test_concurrent_clients_byte_identical_to_in_process(self):
        """Eight closed-loop callers over a 2-worker fleet: routing decides
        *where* a snippet runs, never *what* it returns, so every response
        equals the in-process reference with no failure and no fallback."""
        codes = [
            "result = tables['work'].filter(tables['work']['x'] > 4.0)",
            "result = Frame({'s': np.asarray([float(np.sum(tables['work'].column('x')))])})",
            "result = Frame({'top': np.sort(tables['work'].column('x'))[::-1][:3].copy()})",
            CODE,
        ]
        reference = InProcessClient(SandboxExecutor())
        expected = [reference.execute(code, _tables()) for code in codes]
        assert all(e.ok for e in expected)
        fleet = SandboxFleet.spawn_local(
            2, mode="thread", executor_factory=SandboxExecutor,
            fallback=InProcessClient(SandboxExecutor()),
        )
        clients, per_client = 8, 4
        mismatches, failures = [], []

        def client(cid: int) -> None:
            for i in range(per_client):
                k = (cid * per_client + i) % len(codes)
                try:
                    got = fleet.execute(codes[k], _tables())
                except Exception as exc:
                    failures.append(exc)
                    continue
                same = got.ok and got.result.columns == expected[k].result.columns and all(
                    np.asarray(got.result[n]).tobytes()
                    == np.asarray(expected[k].result[n]).tobytes()
                    for n in expected[k].result.columns
                )
                if not same:
                    mismatches.append((cid, i))

        try:
            assert fleet.warm()["healthy"] == 2
            threads = [threading.Thread(target=client, args=(c,)) for c in range(clients)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
            assert not any(t.is_alive() for t in threads)
            assert not failures and not mismatches
            assert fleet.routes_total == clients * per_client
            assert fleet.fallbacks_total == 0
            assert all(m.routes > 0 for m in fleet.members)
        finally:
            fleet.close()

    def test_process_spawner_worker_roundtrip(self):
        fleet = SandboxFleet.spawn_local(1, mode="process")
        try:
            probe = fleet.warm()
            assert probe["healthy"] == 1
            result = fleet.execute(CODE, _tables())
            assert result.ok
            expected = np.arange(16.0) * 2.0
            assert result.result.column("y").tobytes() == expected.tobytes()
        finally:
            fleet.close()


# ----------------------------------------------------------------------
# process members that never come up
# ----------------------------------------------------------------------
class StubChildSpawner(ProcessSpawner):
    """Spawns ``python -c <script>`` in place of the sandbox member."""

    def __init__(self, script: str, spawn_timeout_s: float):
        super().__init__(spawn_timeout_s=spawn_timeout_s)
        self.script = script

    def _command(self) -> list[str]:
        return [sys.executable, "-c", self.script]


def _children_of_this_process() -> set[int]:
    return {
        int(task.name)
        for task in Path("/proc").iterdir()
        if task.name.isdigit()
        and (task / "stat").exists()
        and (task / "stat").read_text().rsplit(")", 1)[-1].split()[1] == str(os.getpid())
    }


class TestProcessSpawnerStartFailures:
    def test_a_member_that_hangs_before_its_url_is_killed_within_the_timeout(self):
        before = _children_of_this_process()
        spawner = StubChildSpawner(
            "import sys, time; print('warming', file=sys.stderr, flush=True); time.sleep(60)",
            spawn_timeout_s=0.5,
        )
        t0 = time.monotonic()
        with pytest.raises(SandboxUnavailable) as caught:
            spawner.spawn(0)
        assert time.monotonic() - t0 < 10.0
        assert caught.value.classification == "sandbox-unavailable"
        assert "no SANDBOX_URL within 0.5 s" in str(caught.value)
        assert "warming" in str(caught.value)        # the child's stderr
        assert _children_of_this_process() == before  # killed and reaped

    def test_a_member_that_exits_reports_its_code_and_stderr(self):
        before = _children_of_this_process()
        spawner = StubChildSpawner(
            "import sys; print('no toolset on this host', file=sys.stderr); sys.exit(3)",
            spawn_timeout_s=30.0,
        )
        with pytest.raises(SandboxUnavailable) as caught:
            spawner.spawn(7)
        message = str(caught.value)
        assert "worker 7" in message and "exited 3" in message
        assert "no toolset on this host" in message
        assert _children_of_this_process() == before

    def test_a_member_boots_clean_under_runtime_warnings_as_errors(self):
        """``python -m repro.sandbox.server`` ran the module twice (the
        package imports it, then runpy executes it as ``__main__``) and
        said so in a RuntimeWarning nobody saw.  The member's entry is
        one its package does not import."""

        class Strict(ProcessSpawner):
            def _command(self) -> list[str]:
                cmd = super()._command()
                return [cmd[0], "-W", "error::RuntimeWarning", *cmd[1:]]

        handle = Strict(spawn_timeout_s=60.0).spawn(0)
        try:
            assert SandboxClient(handle.url).health().ok
        finally:
            handle.kill()
