"""The storage seam: one atomic publish, one record framing, both in
``repro/durable.py`` (DESIGN.md §8).

Three kinds of check: a source lint in the style of
``test_no_direct_time.py`` (nobody else renames a temp file into place or
does header arithmetic), unit tests of the seam itself, and pins on the
bytes other layers rely on (the ``RCAT1`` commit record, the JSON key
order of ``catalog.json``) so a refactor of the seam cannot move
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
from repro.db.wal import MAGIC as CATALOG_MAGIC
from repro.durable import PUBLISH_ATTEMPTS, PublishError, atomic_publish, frame, scan_frames
from repro.faults import NO_FAULTS, FaultInjector, use_faults
from repro.frame import Frame
from repro.gio.format import GIOFile
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
    # a corrupt cache entry is moved to .quarantine/, not published: its
    # bytes are already on disk and must not be rewritten
    SRC / "db" / "cache.py": "quarantine move",
}
HEADER_ARITHMETIC = re.compile(r"to_bytes\(|from_bytes\(")
# how columns become bytes is repro/gio/format.py's alone
NUMPY_FILE_IO = re.compile(r"np\.(save|savez|load|memmap|fromfile)\(")


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


def test_only_the_gio_format_turns_columns_into_files():
    offenders = _offenders(
        NUMPY_FILE_IO, (p for p in sorted(SRC.rglob("*.py")) if p != SRC / "gio" / "format.py")
    )
    assert not offenders, (
        "NumPy file I/O outside repro/gio/format.py (use encode_gio / map_gio / "
        "read_gio_verified):\n" + "\n".join(offenders)
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
# files per write
# ----------------------------------------------------------------------
def _files_created(root: Path, monkeypatch, action) -> int:
    """Files ``action`` creates under ``root``: new paths, plus one per
    temp file renamed into place (a publish over an existing file is a
    new file too)."""
    import repro.durable as durable_mod

    renamed: list[Path] = []
    real_replace = durable_mod.os.replace

    def spy(src, dst):
        renamed.append(Path(dst))
        return real_replace(src, dst)

    def files() -> set[Path]:
        return {p for p in root.rglob("*") if p.is_file()}

    before = files()
    with monkeypatch.context() as patched:
        patched.setattr(durable_mod.os, "replace", spy)
        action()
    return len(files() - before - set(renamed)) + len(renamed)


def test_each_write_creates_one_file_per_unit(tmp_path, monkeypatch):
    """A row group, a result-cache entry and a retrieval matrix are one
    file each: a 56-row, 11-column create writes its row group and the
    catalog log (13 files with one segment file per column), a
    cached result one entry, a retrieval build one matrix."""
    from repro.llm import HashedEmbedder
    from repro.rag import RetrievalArtifactCache
    from repro.rag.cache import clear_memory_cache as clear_rag_memory
    from repro.db.cache import clear_memory_cache as clear_query_memory

    db = Database(tmp_path / "a.db", cache_dir=tmp_path / "qc")
    frame = Frame({f"c{i}": np.arange(56) * (i + 1) for i in range(11)})
    assert _files_created(tmp_path, monkeypatch, lambda: db.create_table("t", frame)) <= 3

    clear_query_memory()
    sql = "SELECT c0, c3 FROM t WHERE c1 > 20"
    assert _files_created(tmp_path / "qc", monkeypatch, lambda: db.query(sql)) == 1
    clear_query_memory()

    clear_rag_memory()
    cache = RetrievalArtifactCache(tmp_path / "rc")
    build = lambda: cache.matrix_for(["halo mass", "stellar mass"], HashedEmbedder(16))  # noqa: E731
    assert _files_created(tmp_path, monkeypatch, build) == 1
    clear_rag_memory()


# ----------------------------------------------------------------------
# pinned bytes
# ----------------------------------------------------------------------
def test_frame_layout_is_magic_len8_crc4_payload():
    assert frame(b"RCAT1\n", b"abc") == (
        b"RCAT1\n" b"\x03\x00\x00\x00\x00\x00\x00\x00" b"\xc2\x41\x24\x35" b"abc"
    )
    scan = scan_frames(b"RCAT1\n", frame(b"RCAT1\n", pickle.dumps({"k": 1})), pickle.loads)
    assert scan.records == [{"k": 1}] and not scan.dropped_bytes


def test_wal_record_and_json_documents_keep_their_bytes(tmp_path):
    """``storage_bytes`` and ``eval.rows_digest`` hash the analysis-DB
    directory: the commit records of the catalog log and the
    ``catalog.json`` checkpoint recovery folds them into must not gain a
    field, reorder a key or change their whitespace.  The one random part,
    each create's generation name, has a fixed width."""
    db = Database(tmp_path / "p.db")
    db.create_table("t", Frame({"a": np.arange(5)}), row_group_size=4)
    db.create_table("empty")
    generation = re.compile(r'"generation": ?"g[0-9a-f]{12}"')
    log = db.path / "catalog.0.log"
    data = log.read_bytes()
    payloads = scan_frames(CATALOG_MAGIC, data, bytes).records
    assert data == b"".join(frame(CATALOG_MAGIC, p) for p in payloads)
    assert [generation.sub('"generation":"g0"', p.decode()) for p in payloads] == [
        '{"seq":1,"table":"t","kind":"create","version":1,"generation":"g0",'
        '"row_group_size":4,"columns":{"a":"<i8"},"row_groups":[4,1],'
        '"zone_maps":[{"a":[0.0,3.0]},{"a":[4.0,4.0]}],'
        '"checksums":[{"a":2432700938},{"a":3781742995}]}',
        '{"seq":2,"table":"empty","kind":"create","version":1,"generation":"g0",'
        '"row_group_size":65536,"columns":{},"row_groups":[],"zone_maps":[],"checksums":[]}',
    ]

    db.recover()  # folds the log into catalog.json and starts an empty log
    assert sorted(p.name for p in db.path.glob("catalog*")) == ["catalog.2.log", "catalog.json"]
    assert (db.path / "catalog.2.log").read_bytes() == b""
    text = (db.path / "catalog.json").read_text()
    assert len(generation.findall(text)) == 2
    text = generation.sub('"generation": "g000000000000"', text)
    assert text == (
        '{"seq": 2, "tables": '
        '{"t": {"row_group_size": 4, "version": 1, "generation": "g000000000000", '
        '"columns": {"a": "<i8"}, '
        '"row_groups": [4, 1], "zone_maps": [{"a": [0.0, 3.0]}, {"a": [4.0, 4.0]}], '
        '"checksums": [{"a": 2432700938}, {"a": 3781742995}]}, '
        '"empty": {"row_group_size": 65536, "version": 1, "generation": "g000000000000", '
        '"columns": {}, '
        '"row_groups": [], "zone_maps": [], "checksums": []}}}'
    )
    assert text == json.dumps(json.loads(text))
    # a row group's bloom filters sit in its own header, naming their hash
    (doc,) = GIOFile(db.store("t").path / "rg00000").attrs["blooms"].values()
    assert {key: doc[key] for key in ("hash", "kind", "m", "k")} == {
        "hash": "f64bits-utf32poly-mix64", "kind": "number", "m": 4096, "k": 4,
    }
    assert hashlib.sha256(doc["bits"].encode()).hexdigest() == (
        "e41b543f92d153036171df29edd3f165c8c95d70eb05b9da6e2412f7bd07a8d8"
    )
    assert not list(db.path.rglob("meta.json"))


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


def test_checkpoint_blob_with_events_reads_as_a_corrupt_tail(tmp_path):
    """An ``RCKP2`` blob carried an ``events`` list that ``Checkpoint`` no
    longer has a field for: it hydrates as a dropped, counted tail instead
    of raising ``TypeError`` from ``Checkpoint(**record)``."""
    saver = DurableCheckpointer(tmp_path / "ckpt")
    saver.save("t", 1, "a", "b", {"x": 1})
    saver.save("t", 2, "b", None, {"x": 2})
    last = sorted((tmp_path / "ckpt").rglob("ckpt_*.bin"))[-1]
    record = {"checkpoint_id": "t:2", "thread_id": "t", "seq": 2, "node": "b",
              "next_node": None, "state": {"x": 2}, "events": []}
    last.write_bytes(frame(b"RCKP2\n", pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)))

    counter = get_registry().counter("checkpoint.corrupt_dropped")
    before = counter.value
    revived = DurableCheckpointer(tmp_path / "ckpt")
    assert revived.latest("t").seq == 1
    assert counter.value == before + 1


# ----------------------------------------------------------------------
# end to end: nothing leaves a temp file behind
# ----------------------------------------------------------------------
def test_query_serve_and_ingest_leave_no_temp_files(ensemble, tmp_path):
    config = InferAConfig(
        seed=5, error_model=NO_ERRORS, llm_latency_s=0.0,
        use_checkpointer=True, sandbox_workers=2,
    )
    app = InferA(ensemble, tmp_path / "oneshot", config)
    try:
        report = app.run_query("top 5 halos at timestep 624 in simulation 0")
    finally:
        app.close()
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
    for artifact in ("sessions.json", "metrics.json"):
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
