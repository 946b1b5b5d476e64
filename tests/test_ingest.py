"""Live ensemble ingestion: determinism, resilience, serving, CLI.

The load-bearing claims: appending a snapshot is byte-identical to having
generated it up front (so every live database has an exact quiescent
twin), the kill/recover/retry loop commits exactly once under heavy
chaos, and the serving layer exposes ingestion behind admission control
with snapshot receipts on every answer.
"""

import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro import faults
from repro.cli import main as cli_main
from repro.db.database import Database
from repro.sim.ingest import StreamingIngester
from repro.sim import EnsembleSpec, generate_ensemble
from repro.sim.ensemble import Ensemble, append_snapshot

BASE_STEPS = (0, 124, 249)
LIVE_STEPS = (274, 299)


def small_spec(steps, particles=True) -> EnsembleSpec:
    return EnsembleSpec(
        n_runs=2,
        n_particles=450,
        timesteps=tuple(steps),
        write_particles=particles,
        seed=4321,
    )


def assert_frames_equal(a, b):
    assert a.columns == b.columns
    for name in a.columns:
        x, y = np.asarray(a.column(name)), np.asarray(b.column(name))
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


def signatures(db: Database) -> dict[str, str]:
    return {name: db.store(name).content_signature() for name in db.list_tables()}


# ----------------------------------------------------------------------
# deterministic snapshot appends
# ----------------------------------------------------------------------
class TestAppendSnapshot:
    def test_append_matches_upfront_generation(self, tmp_path):
        live = generate_ensemble(tmp_path / "live", small_spec(BASE_STEPS))
        append_snapshot(live.root, 274)
        live = live.reload()
        quiet = generate_ensemble(
            tmp_path / "quiet", small_spec(BASE_STEPS + (274,))
        )
        assert list(live.timesteps) == list(quiet.timesteps)
        assert live.version == 2 and quiet.version == 1
        for run in range(live.n_runs):
            for step in live.timesteps:
                for kind in ("halos", "galaxies", "particles"):
                    assert_frames_equal(
                        live.read(run, int(step), kind),
                        quiet.read(run, int(step), kind),
                    )

    def test_append_validates_step(self, tmp_path):
        ens = generate_ensemble(tmp_path / "ens", small_spec(BASE_STEPS, particles=False))
        with pytest.raises(ValueError, match="already present"):
            append_snapshot(ens.root, 249)
        with pytest.raises(ValueError, match="must follow"):
            append_snapshot(ens.root, 100)
        with pytest.raises(ValueError):
            append_snapshot(ens.root, 10_000)  # beyond the cosmology grid

    def test_append_rejects_pre_generator_manifest(self, tmp_path):
        ens = generate_ensemble(tmp_path / "ens", small_spec(BASE_STEPS, particles=False))
        manifest = json.loads((ens.root / "manifest.json").read_text())
        del manifest["generator"]
        (ens.root / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="older version"):
            append_snapshot(ens.root, 274)


# ----------------------------------------------------------------------
# the streaming ingester
# ----------------------------------------------------------------------
class TestStreamingIngester:
    def _quiescent_twin(self, tmp_path) -> dict[str, str]:
        quiet = generate_ensemble(
            tmp_path / "quiet", small_spec(BASE_STEPS + LIVE_STEPS, particles=False)
        )
        twin = StreamingIngester(quiet.root, db_path=tmp_path / "twin.db")
        twin.bootstrap()
        return signatures(twin.db)

    def test_bootstrap_plus_live_ingest_equals_twin(self, tmp_path):
        live = generate_ensemble(tmp_path / "live", small_spec(BASE_STEPS, particles=False))
        ingester = StreamingIngester(live.root, db_path=tmp_path / "live.db")
        ingester.bootstrap()
        for step in LIVE_STEPS:
            report = ingester.ingest_step(step)
            assert report.step == step and sum(report.rows.values()) > 0
        assert signatures(ingester.db) == self._quiescent_twin(tmp_path)
        assert ingester.ensemble.version == 1 + len(LIVE_STEPS)

    def test_next_step_follows_grid_spacing(self, tmp_path):
        live = generate_ensemble(tmp_path / "live", small_spec(BASE_STEPS, particles=False))
        ingester = StreamingIngester(live.root, db_path=tmp_path / "live.db")
        assert ingester.next_step() == 274
        ingester.ingest_step()
        assert ingester.next_step() == 299

    def test_next_step_refuses_exhausted_grid(self, tmp_path):
        live = generate_ensemble(
            tmp_path / "live", small_spec((0, 624), particles=False)
        )
        ingester = StreamingIngester(live.root, db_path=tmp_path / "live.db")
        with pytest.raises(ValueError, match="grid exhausted"):
            ingester.next_step()

    def test_reingesting_a_committed_step_is_idempotent(self, tmp_path):
        live = generate_ensemble(tmp_path / "live", small_spec(BASE_STEPS, particles=False))
        ingester = StreamingIngester(live.root, db_path=tmp_path / "live.db")
        ingester.bootstrap()
        ingester.ingest_step(274)
        before = signatures(ingester.db)
        versions = {k: ingester.db.table_version(k) for k in ingester.tables}
        ingester.ingest_step(274)  # the retry a crashed supervisor would issue
        assert signatures(ingester.db) == before
        assert {k: ingester.db.table_version(k) for k in ingester.tables} == versions

    def test_resilient_ingest_under_heavy_chaos_is_exact(self, tmp_path):
        """Heavy chaos kills the ingester mid-protocol repeatedly; the
        kill/recover/retry loop must land the database byte-identical to
        the quiescent twin, with every death accounted for."""
        live = generate_ensemble(tmp_path / "live", small_spec(BASE_STEPS, particles=False))
        ingester = StreamingIngester(
            live.root, db_path=tmp_path / "live.db", arm_faults=True
        )
        injector = faults.FaultInjector(faults.FaultProfile.named("heavy", seed=20))
        kills = 0
        with faults.use_faults(injector):
            ingester.recover()
            ingester.bootstrap()
            for step in LIVE_STEPS:
                report = ingester.ingest_step_resilient(step)
                kills += report.kills
                assert report.recoveries == report.kills
        assert kills >= 1, "heavy profile fired no ingest kills; weak test"
        assert signatures(ingester.db) == self._quiescent_twin(tmp_path)

    def test_stats_schema(self, tmp_path):
        live = generate_ensemble(tmp_path / "live", small_spec(BASE_STEPS, particles=False))
        ingester = StreamingIngester(live.root, db_path=tmp_path / "live.db")
        ingester.bootstrap()
        doc = ingester.stats()
        assert doc["schema"] == 1
        assert doc["ensemble_version"] == 1
        assert set(doc["tables"]) == {"halos", "galaxies"}
        assert all(t["rows"] > 0 for t in doc["tables"].values())


# ----------------------------------------------------------------------
# the serving layer: POST /v1/ingest + snapshot receipts
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def live_server(tmp_path_factory):
    from repro.core import InferAConfig
    from repro.llm.errors import NO_ERRORS
    from repro.serve import ReproServer

    root = tmp_path_factory.mktemp("live_ens")
    generate_ensemble(root, small_spec(BASE_STEPS))
    server = ReproServer(
        Ensemble(root),
        tmp_path_factory.mktemp("live_serve"),
        InferAConfig(seed=5, error_model=NO_ERRORS, llm_latency_s=0.0),
        app_workers=2,
        queue_depth=8,
    )
    server.start()
    yield server
    server.shutdown()


def post_json(url: str, body: dict, timeout_s: float = 120.0):
    request = urllib.request.Request(
        url, data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=timeout_s) as response:
        return response.status, json.loads(response.read())


class TestServeIngest:
    def test_ingest_endpoint_commits_and_reports(self, live_server):
        status, doc = post_json(f"{live_server.url}/v1/ingest", {})
        assert status == 200 and doc["status"] == "committed"
        report = doc["report"]
        assert report["step"] == 274
        assert report["ensemble_version"] == 2
        assert sum(report["rows"].values()) > 0

        with urllib.request.urlopen(f"{live_server.url}/stats", timeout=10.0) as r:
            stats = json.loads(r.read())
        ingest = stats["ingest"]
        assert ingest["ensemble_version"] == 2
        assert ingest["timesteps"] == len(BASE_STEPS) + 1
        assert ingest["wal"]["commits"] >= 2  # halos + galaxies
        assert ingest["live"]["last_report"]["step"] == 274

    def test_queries_carry_snapshot_receipt(self, live_server):
        status, doc = post_json(
            f"{live_server.url}/v1/query",
            {"question": "How many halos are there in run 0 at the final timestep?",
             "session": "receipt"},
        )
        assert status == 200 and doc["status"] == "ok"
        assert doc["snapshot"]["ensemble_version"] == 2
        assert doc["result"]["completed"] is True

    def test_bad_step_is_rejected(self, live_server):
        for body in ({"step": "soon"}, {"step": 7}, {"step": 10_000}):
            with pytest.raises(urllib.error.HTTPError) as exc:
                post_json(f"{live_server.url}/v1/ingest", body)
            assert exc.value.code == 400
            error = json.loads(exc.value.read())["error"]
            assert error in ("bad-request", "bad-step")

    def test_concurrent_ingest_refused_409(self, live_server):
        assert live_server._ingest_lock.acquire(blocking=False)
        try:
            with pytest.raises(urllib.error.HTTPError) as exc:
                post_json(f"{live_server.url}/v1/ingest", {})
            assert exc.value.code == 409
            assert json.loads(exc.value.read())["error"] == "ingest-busy"
        finally:
            live_server._ingest_lock.release()

    def test_draining_refuses_ingest_503(self, live_server):
        live_server._draining = True
        try:
            with pytest.raises(urllib.error.HTTPError) as exc:
                post_json(f"{live_server.url}/v1/ingest", {})
            assert exc.value.code == 503
            assert json.loads(exc.value.read())["error"] == "draining"
        finally:
            live_server._draining = False


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestIngestCli:
    def test_local_ingest_roundtrip(self, tmp_path, capsys):
        root = tmp_path / "ens"
        generate_ensemble(root, small_spec(BASE_STEPS, particles=False))
        code = cli_main([
            "-q", "ingest", "--ensemble", str(root),
            "--db", str(tmp_path / "live.db"), "--bootstrap", "--count", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "bootstrapped live tables" in out
        assert "committed step 274" in out and "committed step 299" in out
        assert "live database:" in out
        assert Ensemble(root).version == 3

    def test_exhausted_grid_refused_without_traceback(self, tmp_path, capsys):
        root = tmp_path / "ens"
        generate_ensemble(root, small_spec((0, 624), particles=False))
        code = cli_main([
            "-q", "ingest", "--ensemble", str(root),
            "--db", str(tmp_path / "live.db"), "--bootstrap",
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "ingest refused: ensemble grid exhausted" in out

    def test_count_past_grid_end_keeps_committed_steps(self, tmp_path, capsys):
        root = tmp_path / "ens"
        generate_ensemble(root, small_spec((0, 575), particles=False))
        code = cli_main([
            "-q", "ingest", "--ensemble", str(root),
            "--db", str(tmp_path / "live.db"), "--bootstrap", "--count", "5",
        ])
        assert code == 0  # 600 and 624... only 600 fits; partial progress is kept
        out = capsys.readouterr().out
        assert "committed step 600" in out
        assert "ingest refused: ensemble grid exhausted" in out
        assert Ensemble(root).version == 2

    def test_chaotic_ingest_equals_clean_twin(self, tmp_path, capsys):
        clean_root, chaos_root = tmp_path / "clean", tmp_path / "chaos"
        for root in (clean_root, chaos_root):
            generate_ensemble(root, small_spec(BASE_STEPS, particles=False))
        for root, chaos in ((clean_root, "off"), (chaos_root, "heavy")):
            code = cli_main([
                "-q", "ingest", "--ensemble", str(root),
                "--db", str(root / "live.db"), "--bootstrap", "--count", "2",
                "--chaos", chaos, "--seed", "20",
            ])
            assert code == 0
        clean = Database(clean_root / "live.db", result_cache=False)
        chaotic = Database(chaos_root / "live.db", result_cache=False)
        assert signatures(clean) == signatures(chaotic)
