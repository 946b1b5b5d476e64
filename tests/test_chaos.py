"""Chaos suite: injected infrastructure faults must be absorbed.

The acceptance bar for the whole resilience layer: a run under a fault
profile produces the byte-identical final answer a fault-free run does —
retries, fallbacks, quarantines, and recomputation are invisible in the
result — or, when recovery is impossible by construction (no fallback
configured), it fails with a *classified* error, never a raw transport
traceback.
"""

import numpy as np
import pytest

from repro.agents.tools import default_toolset
from repro.core import InferA, InferAConfig
from repro.faults import (
    INGEST_KILL_POINTS,
    NO_FAULTS,
    FaultInjector,
    FaultProfile,
    use_faults,
)
from repro.frame import Frame
from repro.llm.errors import NO_ERRORS
from repro.sandbox import (
    FleetStats,
    InProcessClient,
    SandboxClient,
    SandboxExecutor,
    SandboxFleet,
    SandboxServer,
    SandboxUnavailable,
)
from repro.util.timing import SimulatedClock

QUESTION = (
    "Can you find me the top 10 largest friends-of-friends halos from "
    "timestep 624 in simulation 0?"
)

STORAGE_CHAOS = FaultProfile(
    seed=13,
    storage_torn_write=0.5,
    storage_bit_flip=0.5,
    checkpoint_corrupt=0.5,
)


def run_app(ensemble, workdir, profile, question=QUESTION, **cfg):
    app = InferA(
        ensemble,
        workdir,
        InferAConfig(
            error_model=NO_ERRORS,
            llm_latency_s=0.0,
            fault_profile=profile,
            **cfg,
        ),
    )
    return app.run_query(question)


def assert_same_answer(a, b):
    assert a.completed == b.completed
    wa, wb = a.tables.get("work"), b.tables.get("work")
    assert (wa is None) == (wb is None)
    if wa is not None:
        assert wa.columns == wb.columns
        for name in wa.columns:
            x, y = np.asarray(wa[name]), np.asarray(wb[name])
            assert x.dtype == y.dtype
            assert x.tobytes() == y.tobytes()


class TestStorageChaos:
    def test_heavy_storage_faults_byte_identical(self, ensemble, tmp_path):
        baseline = run_app(ensemble, tmp_path / "clean", NO_FAULTS)
        chaotic = run_app(ensemble, tmp_path / "chaos", STORAGE_CHAOS)
        assert_same_answer(baseline, chaotic)

    def test_chaos_run_is_repeatable(self, ensemble, tmp_path):
        """Same seed + profile => identical fault schedule and answer."""
        one = run_app(ensemble, tmp_path / "one", STORAGE_CHAOS)
        two = run_app(ensemble, tmp_path / "two", STORAGE_CHAOS)
        assert_same_answer(one, two)

    def test_checkpoint_chaos_with_durable_checkpointer(self, ensemble, tmp_path):
        baseline = run_app(
            ensemble, tmp_path / "clean", NO_FAULTS, use_checkpointer=True
        )
        chaotic = run_app(
            ensemble,
            tmp_path / "chaos",
            NO_FAULTS.with_rates(checkpoint_corrupt=1.0),
            use_checkpointer=True,
        )
        # every durable blob was corrupted, yet the live run is untouched
        assert_same_answer(baseline, chaotic)


class TestLightChaos:
    def test_light_faults_byte_identical(self, ensemble, tmp_path):
        """The light fault profile (the chaos CI job's ambient one) must
        produce the byte-identical answer of a clean run end to end."""
        baseline = run_app(ensemble, tmp_path / "clean", NO_FAULTS)
        chaotic = run_app(ensemble, tmp_path / "chaos", FaultProfile.named("light"))
        assert_same_answer(baseline, chaotic)


class TestSandboxChaos:
    @pytest.fixture(scope="class")
    def gateway(self):
        with SandboxServer(SandboxExecutor(tools=default_toolset())) as server:
            yield server

    def test_transport_faults_retried_transparently(self, gateway):
        """Drop/5xx/garbage faults under the retry budget: same result,
        no fallback needed."""
        profile = FaultProfile(seed=3, sandbox_drop=0.4, sandbox_5xx=0.3,
                               sandbox_garbage=0.2)
        tables = {"work": Frame({"a": np.asarray([1.0, 2.0, 3.0])})}
        code = "result = tables['work'].filter(tables['work']['a'] > 1.5)"
        clean = SandboxClient(gateway.url).execute(code, tables)
        with use_faults(FaultInjector(profile)):
            chaotic = SandboxClient(
                gateway.url,
                retry_policy=None,  # default: 3 attempts
            ).execute(code, tables)
        assert chaotic.ok and clean.ok
        assert np.asarray(chaotic.result["a"]).tobytes() == \
            np.asarray(clean.result["a"]).tobytes()

    def test_certain_faults_degrade_to_fallback(self, gateway):
        """Every attempt faulted: retries exhaust, the client degrades to
        the in-process executor and still answers correctly."""
        profile = FaultProfile(seed=3, sandbox_drop=1.0)
        tables = {"work": Frame({"a": np.asarray([1.0, 2.0, 3.0])})}
        code = "result = tables['work'].filter(tables['work']['a'] > 1.5)"
        clock = SimulatedClock()
        with use_faults(FaultInjector(profile)):
            client = SandboxClient(
                gateway.url,
                clock=clock,
                fallback=InProcessClient(SandboxExecutor()),
            )
            result = client.execute(code, tables)
        assert result.ok
        assert result.result.num_rows == 2
        assert client.breaker.consecutive_failures > 0

    def test_no_fallback_fails_classified(self, gateway):
        profile = FaultProfile(seed=3, sandbox_drop=1.0)
        clock = SimulatedClock()
        with use_faults(FaultInjector(profile)):
            client = SandboxClient(gateway.url, clock=clock)
            with pytest.raises(SandboxUnavailable) as exc:
                client.execute("result = tables['work']",
                               {"work": Frame({"a": [1]})})
        assert exc.value.classification == "sandbox-unavailable"
        # the cause chain carries the classified retry failure, not a
        # raw urllib traceback at the top
        assert "retries-exhausted" in str(exc.value.__cause__.classification)

    def test_dead_gateway_trips_breaker_and_degrades(self):
        """No server at all: after the breaker trips, later calls skip the
        transport entirely (circuit-open) and run in-process."""
        clock = SimulatedClock()
        client = SandboxClient(
            "http://127.0.0.1:9",   # discard port: connection refused
            timeout_s=0.2,
            clock=clock,
            fallback=InProcessClient(SandboxExecutor()),
        )
        tables = {"work": Frame({"a": np.asarray([1.0, 2.0])})}
        first = client.execute("result = tables['work']", tables)
        assert first.ok
        assert client.breaker.state == "open"
        second = client.execute("result = tables['work']", tables)
        assert second.ok  # served by fallback without re-dialling

    def test_half_open_probe_recovers(self, gateway):
        """After the reset timeout the health probe closes the breaker and
        real traffic resumes against the live gateway."""
        clock = SimulatedClock()
        client = SandboxClient(gateway.url, clock=clock,
                               fallback=InProcessClient(SandboxExecutor()))
        # force the breaker open without any real failures
        for _ in range(3):
            client.breaker.record_failure()
        assert client.breaker.state == "open"
        clock.advance(10.0)
        result = client.execute("result = tables['work']",
                                {"work": Frame({"a": [1.0]})})
        assert result.ok
        assert client.breaker.state == "closed"

    def test_e2e_app_over_chaotic_gateway(self, gateway, ensemble, tmp_path):
        """Full InferA run with heavy sandbox chaos equals the clean run."""
        baseline = run_app(ensemble, tmp_path / "clean", NO_FAULTS,
                           sandbox_url=gateway.url)
        profile = FaultProfile(seed=5, sandbox_drop=0.3, sandbox_5xx=0.3,
                               sandbox_garbage=0.2)
        chaotic = run_app(ensemble, tmp_path / "chaos", profile,
                          sandbox_url=gateway.url)
        assert_same_answer(baseline, chaotic)


class TestFleetChaos:
    """Kill individual fleet members mid-run: answers stay byte-identical
    (routing only ever decides *where* an execution runs), or — with the
    whole fleet down and no fallback — the failure is classified."""

    CODES = [
        "result = tables['work'].filter(tables['work']['a'] > 1.5)",
        "result = Frame({'s': np.asarray([float(np.sum(tables['work'].column('a')))])})",
        "result = Frame({'top': np.sort(tables['work'].column('a'))[::-1][:2].copy()})",
    ]

    def _tables(self):
        return {"work": Frame({"a": np.asarray([1.0, 2.0, 3.0, 4.0])})}

    def _reference(self):
        ref = InProcessClient(SandboxExecutor())
        return [ref.execute(code, self._tables()) for code in self.CODES * 4]

    @staticmethod
    def _hard_kill(member):
        """Emulate a process death for a thread-mode worker.

        ``server.stop()`` only closes the *listening* socket; established
        keep-alive connections stay alive in their daemon handler threads,
        so a member with a pooled connection would keep answering.  A real
        process kill severs those too — drop the client's pool as well.
        """
        member.handle.kill()
        member.client.close()
        member.ewma.reset()   # make the dead member route-preferred

    def _assert_results_match(self, expected, got):
        assert len(expected) == len(got)
        for e, g in zip(expected, got):
            assert e.ok and g.ok
            assert e.result.columns == g.result.columns
            for name in e.result.columns:
                assert (np.asarray(e.result[name]).tobytes()
                        == np.asarray(g.result[name]).tobytes())

    def test_member_killed_mid_run_byte_identical(self):
        expected = self._reference()
        fleet = SandboxFleet.spawn_local(
            3, mode="thread", executor_factory=SandboxExecutor,
            fallback=InProcessClient(SandboxExecutor()),
        )
        before = FleetStats.read()
        try:
            got = []
            for i, code in enumerate(self.CODES * 4):
                if i == 4:
                    # kill one worker mid-run, route-preferred so the dead
                    # member is really exercised (trip + reroute), not just
                    # avoided by load
                    self._hard_kill(fleet.members[1])
                got.append(fleet.execute(code, self._tables()))
            self._assert_results_match(expected, got)
            delta = FleetStats.read().delta(before)
            assert delta.trips >= 1 and delta.fallbacks == 0
        finally:
            fleet.close()

    def test_fleet_absorbs_injected_transport_faults(self):
        """Seeded drop/5xx/garbage faults hit individual members; retries
        and rerouting keep every answer byte-identical."""
        expected = self._reference()
        profile = FaultProfile(seed=11, sandbox_drop=0.3, sandbox_5xx=0.2,
                               sandbox_garbage=0.2)
        fleet = SandboxFleet.spawn_local(
            2, mode="thread", executor_factory=SandboxExecutor,
            fallback=InProcessClient(SandboxExecutor()),
        )
        try:
            with use_faults(FaultInjector(profile)):
                got = [fleet.execute(code, self._tables())
                       for code in self.CODES * 4]
            self._assert_results_match(expected, got)
        finally:
            fleet.close()

    def test_whole_fleet_dead_degrades_to_fallback(self):
        expected = self._reference()[:3]
        fleet = SandboxFleet.spawn_local(
            2, mode="thread", executor_factory=SandboxExecutor,
            fallback=InProcessClient(SandboxExecutor()),
        )
        before = FleetStats.read()
        try:
            for member in fleet.members:
                member.handle.kill()
            got = [fleet.execute(code, self._tables()) for code in self.CODES]
            self._assert_results_match(expected, got)
            assert FleetStats.read().delta(before).fallbacks >= 1
        finally:
            fleet.close()

    def test_whole_fleet_dead_without_fallback_is_classified(self):
        fleet = SandboxFleet.spawn_local(
            2, mode="thread", executor_factory=SandboxExecutor,
        )
        try:
            for member in fleet.members:
                member.handle.kill()
            with pytest.raises(SandboxUnavailable) as exc:
                fleet.execute(self.CODES[0], self._tables())
            assert exc.value.classification == "sandbox-unavailable"
        finally:
            fleet.close()

    def test_e2e_app_with_fleet_and_mid_run_member_kill(self, ensemble, tmp_path):
        """Two queries through a fleet-backed app — one member killed
        between them — equal the same two queries over the in-process
        baseline, byte for byte."""
        base_app = InferA(
            ensemble, tmp_path / "clean",
            InferAConfig(error_model=NO_ERRORS, llm_latency_s=0.0,
                         fault_profile=NO_FAULTS),
        )
        b1 = base_app.run_query(QUESTION)
        b2 = base_app.run_query(QUESTION)
        fleet_app = InferA(
            ensemble, tmp_path / "fleet",
            InferAConfig(error_model=NO_ERRORS, llm_latency_s=0.0,
                         fault_profile=NO_FAULTS, sandbox_workers=2),
        )
        try:
            f1 = fleet_app.run_query(QUESTION)
            before = FleetStats.read()
            self._hard_kill(fleet_app.sandbox.members[0])
            f2 = fleet_app.run_query(QUESTION)
        finally:
            fleet_app.close()
        assert_same_answer(b1, f1)
        assert_same_answer(b2, f2)
        assert FleetStats.read().delta(before).trips >= 1


class TestLiveIngestChaos:
    """Serve sessions query while a chaotic ingester appends snapshots and
    is killed/restarted mid-protocol (``REPRO_FAULT_PROFILE`` governs the
    chaos, defaulting to heavy): every answer must be byte-identical to a
    fault-free one-shot run over the quiescent twin generated up front at
    the snapshot version the request was pinned to."""

    BASE_STEPS = (0, 124, 249)
    LIVE_STEPS = (274, 299)
    LIVE_QUESTION = "How many halos are there in run 0 at the final timestep?"

    def _spec(self, steps):
        from repro.sim import EnsembleSpec

        return EnsembleSpec(
            n_runs=2, n_particles=450, timesteps=tuple(steps), seed=97
        )

    def _profile(self) -> FaultProfile:
        import os

        name = (os.environ.get("REPRO_FAULT_PROFILE") or "").strip() or "heavy"
        try:
            return FaultProfile.named(name, seed=31)
        except ValueError:  # a JSON rate map in the env var
            return FaultProfile.from_env(seed=31)

    def test_queries_racing_chaotic_ingest_match_pinned_twins(self, tmp_path):
        import json
        import threading
        import urllib.request

        from repro.serve import ReproServer
        from repro.serve.worker import answer_payload
        from repro.sim import generate_ensemble
        from repro.sim.ensemble import Ensemble

        profile = self._profile()
        live = generate_ensemble(tmp_path / "live", self._spec(self.BASE_STEPS))
        server = ReproServer(
            Ensemble(live.root),
            tmp_path / "serve",
            InferAConfig(seed=5, error_model=NO_ERRORS, llm_latency_s=0.0,
                         fault_profile=profile),
            app_workers=2,
            queue_depth=8,
        )
        server.start()
        answers, errors, kills = [], [], 0
        try:
            def ask(session: str) -> None:
                try:
                    body = json.dumps(
                        {"question": self.LIVE_QUESTION, "session": session}
                    ).encode()
                    request = urllib.request.Request(
                        f"{server.url}/v1/query", data=body,
                        headers={"Content-Type": "application/json"},
                    )
                    with urllib.request.urlopen(request, timeout=180.0) as resp:
                        doc = json.loads(resp.read())
                    assert doc["status"] == "ok", doc
                    answers.append(
                        (session, doc["snapshot"]["ensemble_version"], doc["result"])
                    )
                except Exception as exc:  # pragma: no cover - surfaced below
                    errors.append(exc)

            # one query genuinely racing the ingest commits, then one
            # pinned firmly after every snapshot landed
            racer = threading.Thread(target=ask, args=("s0",))
            racer.start()
            for step in self.LIVE_STEPS:
                report = server.run_ingest(step)
                kills += report["kills"]
            racer.join(timeout=180.0)
            ask("s1")
        finally:
            server.shutdown()
        assert not errors
        assert len(answers) == 2
        assert Ensemble(live.root).version == 1 + len(self.LIVE_STEPS)
        if any(profile.rate(p) > 0 for p in INGEST_KILL_POINTS):
            assert kills >= 1, "chaos profile armed but no ingester death fired"

        # replay each answer against a fault-free one-shot app over an
        # ensemble *generated up front* at the pinned version — the
        # strictest form of the snapshot-isolation claim
        twins = {}
        for _, version, _ in answers:
            if version not in twins:
                steps = self.BASE_STEPS + self.LIVE_STEPS[: version - 1]
                twins[version] = generate_ensemble(
                    tmp_path / f"quiet_v{version}", self._spec(steps)
                )
        clean = InferAConfig(seed=5, error_model=NO_ERRORS, llm_latency_s=0.0)
        for session, version, result in answers:
            app = InferA(
                twins[version], tmp_path / "oneshot" / f"{session}_v{version}", clean
            )
            expected = answer_payload(app.run_query(self.LIVE_QUESTION))
            assert json.dumps(result, sort_keys=True) == \
                json.dumps(expected, sort_keys=True), (session, version)


class TestLoaderKillChaos:
    """The data loader's one-commit-per-entity write under the heavy
    profile with the ingest kill points armed: a 24-file load is shot at
    whichever protocol stage the seeded schedule picks, recovered and
    retried until it lands.  After every death the table is absent or
    holds all 24 files' rows -- never a prefix -- and the load that
    finally lands wrote the bytes a fault-free one does."""

    def test_heavy_kills_leave_loads_absent_or_whole(self, tmp_path):
        from repro.agents import DataLoadingAgent
        from repro.db import Database
        from repro.db.errors import IngestKilled
        from repro.faults import arm_ingest_kills
        from repro.frame import concat
        from tests.test_loader_commit import (
            HALO_LOAD,
            assert_absent_or_whole,
            generate_wide_ensemble,
            make_context,
            report_frames,
            table_bytes,
        )

        ensemble = generate_wide_ensemble(tmp_path / "ens")
        twin = Database(tmp_path / "twin" / "a.db")
        twin_agent = DataLoadingAgent(make_context(tmp_path / "twin", twin), ensemble)
        report = twin_agent.load(HALO_LOAD, question="q")
        assert report.files_read == 24
        whole = concat(report_frames(ensemble, report, "halos"))

        db = Database(tmp_path / "chaos" / "a.db")
        agent = DataLoadingAgent(make_context(tmp_path / "chaos", db), ensemble)
        # one injector across attempts, so the seeded schedule advances;
        # recovery runs under it too: its checkpoint publish may be torn
        # three times over, and the log still holds every commit
        injector = FaultInjector(FaultProfile.named("heavy", seed=31))
        stages, loads = [], 0
        for _ in range(64):
            try:
                with use_faults(injector), arm_ingest_kills():
                    agent.load(HALO_LOAD, question="q")
            except IngestKilled as exc:
                stages.append(exc.stage)
                with use_faults(injector):
                    db.recover()
                assert_absent_or_whole(Database(db.path), "halos", whole)
                continue
            loads += 1
            assert assert_absent_or_whole(Database(db.path), "halos", whole)
            if loads == 4:  # several redo-style reloads, each shot at anew
                break
        assert loads == 4
        assert len(set(stages)) >= 2, f"heavy profile armed but killed at {stages}"
        assert db.table_version("halos") == 1
        assert table_bytes(db, "halos") == table_bytes(twin, "halos")
