"""The storage seam: one atomic publish, one record framing, both in
``repro/durable.py`` (DESIGN.md §8).

Three kinds of check: a source lint in the style of
``test_no_direct_time.py`` (nobody else renames a temp file into place or
does header arithmetic), unit tests of the seam itself, and pins on the
bytes other layers rely on (the ``RWAL1`` header, the JSON key order of
``catalog.json``) so a refactor of the seam cannot move
``eval.rows_digest`` or the bytes-on-disk metrics unnoticed.
"""

import hashlib
import json
import pickle
import re
import subprocess
import sys
import urllib.request
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro import faults
from repro.core import InferA, InferAConfig
from repro.db import Database, DBError
from repro.sim.ingest import StreamingIngester
from repro.db.wal import WriteAheadLog, make_append_record
from repro.durable import PUBLISH_ATTEMPTS, PublishError, atomic_publish, frame, scan_frames
from repro.faults import NO_FAULTS, FaultInjector, use_faults
from repro.frame import Frame
from repro.graph import DurableCheckpointer
from repro.llm.errors import NO_ERRORS
from repro.obs.metrics import get_registry
from repro.serve import ReproServer
from repro.sim import EnsembleSpec, generate_ensemble

SRC = Path(__file__).parent.parent / "src" / "repro"

PUBLISH_CALLS = re.compile(
    r'os\.replace\(|os\.rename\(|tempfile\.mkstemp\(|tempfile\.mkdtemp\(|\.tmp"'
)
ALLOWED = {
    SRC / "durable.py": "the seam itself",
    # a cache entry is a *directory* of column files + sidecar, renamed into
    # place whole, and a corrupt one is moved to .quarantine/ whole: folding
    # either into atomic_publish would make it branch on its caller
    SRC / "db" / "cache.py": "directory publish and quarantine move",
}
HEADER_ARITHMETIC = re.compile(r"to_bytes\(|from_bytes\(")


def _offenders(pattern: re.Pattern, paths) -> list[str]:
    return [
        f"{path.relative_to(SRC)}:{lineno}: {line.strip()}"
        for path in paths
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        if pattern.search(line)
    ]


# ----------------------------------------------------------------------
# lint
# ----------------------------------------------------------------------
def test_only_the_seam_publishes_files():
    offenders = _offenders(
        PUBLISH_CALLS, (p for p in sorted(SRC.rglob("*.py")) if p not in ALLOWED)
    )
    assert not offenders, (
        "temp-file publish outside repro/durable.py (call atomic_publish):\n"
        + "\n".join(offenders)
    )


def test_framing_users_do_no_header_arithmetic():
    users = [SRC / "db" / "wal.py", SRC / "graph" / "checkpoint.py"]
    assert not _offenders(HEADER_ARITHMETIC, users)
    for path in users:
        assert "repro.durable import" in path.read_text()


def test_the_old_publisher_and_the_package_cycle_are_gone():
    for path in SRC.rglob("*.py"):
        assert "publish_json_verified" not in path.read_text(), path
    for path in (SRC / "sim").rglob("*.py"):
        assert "repro.db.storage" not in path.read_text(), path


def test_durable_imports_neither_the_database_nor_the_simulator():
    probe = (
        "import sys, repro.durable\n"
        "heavy = ('repro.db', 'repro.sim', 'scipy', 'networkx')\n"
        "print(sorted(m for m in sys.modules if m.startswith(heavy)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={"PYTHONPATH": str(SRC.parent)},
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stdout.strip() == "[]"


# ----------------------------------------------------------------------
# atomic_publish
# ----------------------------------------------------------------------
def _retries() -> float:
    return get_registry().counter("storage.write_verify_retry").value


class TestAtomicPublish:
    def test_bytes_and_writer_land_whole_with_no_temp(self, tmp_path):
        atomic_publish(tmp_path / "deep" / "a.json", b'{"a": 1}')
        matrix = np.arange(12.0).reshape(3, 4)
        atomic_publish(tmp_path / "deep" / "m.npy", lambda fh: np.save(fh, matrix))
        assert (tmp_path / "deep" / "a.json").read_bytes() == b'{"a": 1}'
        assert np.array_equal(np.load(tmp_path / "deep" / "m.npy"), matrix)
        assert sorted(p.name for p in (tmp_path / "deep").iterdir()) == ["a.json", "m.npy"]

    def test_verified_publish_rewrites_a_torn_attempt(self, tmp_path):
        # at this seed the first attempt tears and the second lands
        injector = FaultInjector(faults.FaultProfile(seed=9, storage_torn_write=0.5))
        before = _retries()
        with use_faults(injector):
            atomic_publish(
                tmp_path / "c.json", b"x" * 64, verify=True,
                fault_point=faults.STORAGE_TORN_WRITE,
            )
        assert (tmp_path / "c.json").read_bytes() == b"x" * 64
        assert injector.schedule() == {faults.STORAGE_TORN_WRITE: 1}
        assert _retries() == before + 1

    def test_verified_publish_gives_up_classified(self, tmp_path):
        (tmp_path / "c.json").write_bytes(b"old")
        injector = FaultInjector(NO_FAULTS.with_rates(storage_torn_write=1.0))
        before = _retries()
        with use_faults(injector), pytest.raises(DBError, match="intact the catalog after 3"):
            atomic_publish(
                tmp_path / "c.json", b"new bytes", verify=True,
                fault_point=faults.STORAGE_TORN_WRITE, what="the catalog", error=DBError,
            )
        # one draw per attempt, the old bytes still visible, no temp left
        assert injector.schedule() == {faults.STORAGE_TORN_WRITE: PUBLISH_ATTEMPTS}
        assert _retries() == before + PUBLISH_ATTEMPTS
        assert (tmp_path / "c.json").read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]
        with use_faults(injector), pytest.raises(PublishError):
            atomic_publish(
                tmp_path / "c.json", b"new", verify=True,
                fault_point=faults.STORAGE_TORN_WRITE,
            )

    def test_no_fault_point_draws_nothing(self, tmp_path):
        injector = FaultInjector(NO_FAULTS.with_rates(
            storage_torn_write=1.0, storage_bit_flip=1.0, checkpoint_corrupt=1.0
        ))
        with use_faults(injector):
            atomic_publish(tmp_path / "s.json", b"{}")
            atomic_publish(tmp_path / "v.json", b"{}", verify=True)
        assert injector.schedule() == {}

    def test_failed_rename_removes_the_temp_and_raises(self, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise OSError("read-only filesystem")

        monkeypatch.setattr("repro.durable.os.replace", refuse)
        with pytest.raises(OSError):
            atomic_publish(tmp_path / "a.json", b"{}")
        assert list(tmp_path.iterdir()) == []


# ----------------------------------------------------------------------
# pinned bytes
# ----------------------------------------------------------------------
def test_frame_layout_is_magic_len8_crc4_payload():
    assert frame(b"RWAL1\n", b"abc") == (
        b"RWAL1\n" b"\x03\x00\x00\x00\x00\x00\x00\x00" b"\xc2\x41\x24\x35" b"abc"
    )
    scan = scan_frames(b"RWAL1\n", frame(b"RWAL1\n", pickle.dumps({"k": 1})), pickle.loads)
    assert scan.records == [{"k": 1}] and not scan.dropped_bytes


def test_wal_record_and_json_documents_keep_their_bytes(tmp_path):
    """``storage_bytes`` and ``eval.rows_digest`` hash the analysis-DB
    directory: the WAL record and ``catalog.json`` (the database's one
    metadata file) must not gain a field, reorder a key or change their
    whitespace."""
    record = make_append_record("t", "append", 1, 16, {"a": np.arange(3)})
    wal = WriteAheadLog(tmp_path / "wal.log", fsync=False)
    wal.append(record)
    assert wal.path.read_bytes() == frame(
        b"RWAL1\n", pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
    )

    db = Database(tmp_path / "p.db")
    db.create_table("t", Frame({"a": np.arange(5)}), row_group_size=4)
    db.create_table("empty")
    text = (db.path / "catalog.json").read_text()
    assert text.startswith(
        '{"t": {"row_group_size": 4, "version": 1, "columns": {"a": "<i8"}, '
        '"row_groups": [4, 1], "zone_maps": [{"a": [0.0, 3.0]}, {"a": [4.0, 4.0]}], '
        '"blooms": [{"a": {"m": 4096, "k": 4, "bits": "'
    )
    assert text.endswith(
        '"checksums": [{"a": 2432700938}, {"a": 3781742995}]}, '
        '"empty": {"row_group_size": 65536, "version": 1, "columns": {}, '
        '"row_groups": [], "zone_maps": [], "blooms": [], "checksums": []}}'
    )
    assert text == json.dumps(json.loads(text))
    assert (len(text), hashlib.sha256(text.encode()).hexdigest()) == (
        2466, "7f0f48132cd99dd1c601427b0da295cb6798159250bfb06a13d1fb1da8949f3c"
    )
    assert not list(db.path.rglob("meta.json"))
    assert db.path.joinpath("wal.log").read_bytes() == b""


def test_length_less_checkpoint_blob_reads_as_a_corrupt_tail(tmp_path):
    """Checkpoint blobs took the WAL's layout under a new magic; a blob in
    the old ``RCKP1 | crc | payload`` layout is dropped and counted by the
    tolerant resume, like any other bad tail."""
    saver = DurableCheckpointer(tmp_path / "ckpt")
    saver.save("t", 1, "a", "b", {"x": 1})
    saver.save("t", 2, "b", None, {"x": 2})
    last = sorted((tmp_path / "ckpt").rglob("ckpt_*.bin"))[-1]
    payload = pickle.dumps({"checkpoint_id": "t:2"})
    last.write_bytes(b"RCKP1\n" + zlib.crc32(payload).to_bytes(4, "little") + payload)

    revived = DurableCheckpointer(tmp_path / "ckpt")
    assert revived.latest("t").seq == 1
    assert revived.dropped_corrupt == 1


# ----------------------------------------------------------------------
# end to end: nothing leaves a temp file behind
# ----------------------------------------------------------------------
def test_query_serve_and_ingest_leave_no_temp_files(ensemble, tmp_path):
    config = InferAConfig(
        seed=5, error_model=NO_ERRORS, llm_latency_s=0.0,
        use_checkpointer=True, sandbox_workers=2,
    )
    report = InferA(ensemble, tmp_path / "oneshot", config).run_query(
        "top 5 halos at timestep 624 in simulation 0"
    )
    assert report.completed

    server = ReproServer(ensemble, tmp_path / "serve", config, app_workers=1, queue_depth=2)
    server.start()
    try:
        body = json.dumps({"question": "How many halos are in run 0?", "session": "s"})
        request = urllib.request.Request(f"{server.url}/v1/query", data=body.encode())
        with urllib.request.urlopen(request, timeout=60.0) as response:
            assert json.loads(response.read())["status"] == "ok"
    finally:
        server.shutdown()
    for artifact in ("sessions.json", "sandbox_fleet.json", "sessions/s/cost_ledger.json"):
        assert (tmp_path / "serve" / artifact).is_file(), artifact

    live = generate_ensemble(
        tmp_path / "live",
        EnsembleSpec(n_runs=2, n_particles=450, timesteps=(0, 124), write_particles=False, seed=9),
    )
    ingester = StreamingIngester(live.root, db_path=tmp_path / "live.db")
    ingester.bootstrap()
    assert ingester.ingest_step().step == 149

    assert list(tmp_path.rglob("*.tmp")) == []
    assert list(tmp_path.rglob("*.bin")), "durable checkpoints were written"
