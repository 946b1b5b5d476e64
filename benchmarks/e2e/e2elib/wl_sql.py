"""The two db-layer workloads: ``sql_read`` and ``ingest_live``."""

from __future__ import annotations

import os
import threading
import time
import zlib
from pathlib import Path

import numpy as np

from repro.db import Database
from repro.db import cache as query_cache
from repro.db.storage import DEFAULT_ROW_GROUP_SIZE
from repro.frame import Frame
from repro.obs.metrics import get_registry

from . import spec, sqlmix
from .measure import Calibrator, ClientLog, class_table, percentile, probe_p50
from .workload import CheckResult, Workload


def _frame_bytes(columns: dict[str, np.ndarray]) -> int:
    return int(sum(a.nbytes for a in columns.values()))


def _digest(columns: list[np.ndarray]) -> int:
    crc = 0
    for col in columns:
        data = col.astype(str) if col.dtype.kind in "USO" else col
        crc = zlib.crc32(np.ascontiguousarray(data).tobytes(), crc)
    return crc


class _ScanTotals:
    """Sums ``Database.last_scan_stats`` over the ops of a pass."""

    def __init__(self) -> None:
        self.total = self.zone = self.bloom = self.morsels = 0

    def add(self, stats) -> None:
        self.total += stats.row_groups_total
        self.zone += stats.row_groups_skipped_zone
        self.bloom += stats.row_groups_skipped_bloom
        self.morsels += stats.morsels_executed

    def as_exact(self) -> dict[str, int]:
        return {
            "row_groups_total": self.total,
            "row_groups_skipped_zone": self.zone,
            "row_groups_skipped_bloom": self.bloom,
            "morsels": self.morsels,
        }


def _cache_shares(delta) -> dict[str, float]:
    requests = max(delta.requests, 1)
    return {
        "db.cache_memory_hit_share": delta.memory_hits / requests,
        "db.cache_disk_hit_share": delta.disk_hits / requests,
        "db.cache_narrowed_share": delta.incremental_hits / requests,
        "db.cache_miss_share": delta.misses / requests,
    }


def _skip_shares(scans: _ScanTotals) -> dict[str, float]:
    total = max(scans.total, 1)
    return {
        "db.row_groups_skipped_zone_share": scans.zone / total,
        "db.row_groups_skipped_bloom_share": scans.bloom / total,
        "db.morsels": float(scans.morsels),
    }


class SqlRead(Workload):
    name = "sql_read"
    root_layer = "db.query"

    def __init__(self, seed: int, scale: float, tiny: bool = False, memo: dict | None = None):
        super().__init__(seed, scale, tiny, memo)
        self.n_halos, self.n_gals = (80_000, 20_000) if tiny else (800_000, 200_000)

    def setup(self, pass_dir: Path, cal: Calibrator, traced: bool) -> None:
        self.tables = sqlmix.make_tables(self.seed, self.n_halos, self.n_gals, DEFAULT_ROW_GROUP_SIZE)
        cal.maybe()
        # the memory tier and its counters are process-global: every pass
        # starts from the same empty state
        query_cache.clear_memory_cache()
        self.db_path = pass_dir / "analysis.db"
        self.db = Database(self.db_path, cache_dir=pass_dir / "query_cache")
        for name in ("halos", "gals"):
            self.db.create_table(name, Frame(self.tables[name]))
            cal.maybe()
        self.mix = sqlmix.build_mix(self.tables, self.seed, self.scale, query_cache.memory_capacity())
        # warm pass: fill the memory tier past capacity, then the hot set
        for stmt in self.mix.fillers + self.mix.hot:
            self.db.query(stmt.sql)
            cal.maybe()

    def run(self) -> list[ClientLog]:
        log = ClientLog("reader")
        self.results: list = []
        self.scans = _ScanTotals()
        before = query_cache.stats_snapshot()
        db = self.db
        for stmt in self.mix.ops:
            self.results.append(log.run(stmt.cls, lambda: db.query(stmt.sql)))
            self.scans.add(db.last_scan_stats)
        log.close()
        self.cache_delta = query_cache.stats_snapshot().delta(before)
        return [log]

    def check(self, clients: list[ClientLog]) -> CheckResult:
        return check_sql_results(
            self.mix.ops, clients[0], self.results, self.tables,
            exact={**self.cache_delta.as_dict(), **self.scans.as_exact()},
            verified=self.memo,
        )

    def layer_values(self) -> dict[str, float]:
        user_bytes = _frame_bytes(self.tables["halos"]) + _frame_bytes(self.tables["gals"])
        return {
            **_cache_shares(self.cache_delta),
            **_skip_shares(self.scans),
            "db.bytes_on_disk_per_user_byte": self.db.nbytes() / user_bytes,
        }

    def run_values(self, traced: list, untraced: list) -> dict[str, float]:
        classes = class_table(untraced)
        return {f"db.sql.{cls}_p50_s": classes[cls]["p50_s"] for cls in spec.SQL_CLASSES if cls in classes}

    def probes(self, cal: Calibrator) -> dict[str, float | str]:
        """The scan and aggregate statements at ``num_threads=2``, cache
        off, on the last pass's database (probe only)."""
        if (os.cpu_count() or 1) < 2:
            return dict.fromkeys(
                ("db.sql.scan_threads2_p50_s", "db.sql.agg_threads2_p50_s"), "insufficient cores")
        db2 = Database(self.db_path, result_cache=False, num_threads=2)
        out: dict[str, float | str] = {}
        one_cpu = os.sched_getaffinity(0)
        os.sched_setaffinity(0, range(os.cpu_count()))   # the run is kept on one vCPU; this probe needs two
        try:
            for cls in ("scan", "agg"):
                statements = [s.sql for s in self.mix.ops if s.cls == cls][:7]
                pending = iter(statements)
                out[f"db.sql.{cls}_threads2_p50_s"] = probe_p50(
                    cal, lambda: db2.query(next(pending)), len(statements))
        finally:
            os.sched_setaffinity(0, one_cpu)
        return out


def check_sql_results(ops, log: ClientLog, results: list, tables: dict, exact: dict,
                      verified: dict[str, int] | None = None) -> CheckResult:
    """Every result against the numpy oracle.  ``verified`` maps statement
    text to the digest of a result the oracle has already confirmed; the
    passes of one run share it (same seed, same tables, same statements),
    so each distinct statement is evaluated by the oracle once."""
    verified = {} if verified is None else verified
    failed, notes, crc = 0, [], 0
    for stmt, op, frame in zip(ops, log.ops, results):
        if not op.ok:
            failed += 1
            notes.append(f"{stmt.cls} raised: {op.error.strip().splitlines()[-1]} :: {stmt.sql}")
            continue
        got = sqlmix.result_columns(frame)
        digest = _digest(got)
        if verified.get(stmt.sql) != digest:
            want = sqlmix.expected(stmt, tables["halos"], tables["gals"])
            if sqlmix.matches(stmt, got, want):
                verified[stmt.sql] = digest
            else:
                failed += 1
                notes.append(f"{stmt.cls} differs from the oracle "
                             f"({len(got[0]) if got else 0} rows, expected {len(want[0])}) :: {stmt.sql}")
        crc = zlib.crc32(digest.to_bytes(4, "little"), crc)
    return CheckResult(len(ops), failed, notes, exact={**exact, "answers_crc": crc})


class IngestLive(Workload):
    name = "ingest_live"
    APPENDS_PER_PASS = 120      # at scale 1.0
    FRAME_ROWS = 4096
    root_layer = "db.write"

    def __init__(self, seed: int, scale: float, tiny: bool = False, memo: dict | None = None):
        super().__init__(seed, scale, tiny, memo)
        self.n_halos, self.n_gals = (40_000, 10_000) if tiny else (200_000, 50_000)
        self.n_frames = max(4, round(self.APPENDS_PER_PASS * scale))

    def setup(self, pass_dir: Path, cal: Calibrator, traced: bool) -> None:
        self.tables = sqlmix.make_tables(self.seed, self.n_halos, self.n_gals, DEFAULT_ROW_GROUP_SIZE)
        self.frames = sqlmix.make_append_frames(self.seed, self.n_halos, self.n_frames, self.FRAME_ROWS)
        cal.maybe()
        query_cache.clear_memory_cache()
        self.db_path = pass_dir / "live.db"
        self.cache_dir = pass_dir / "query_cache"
        self.db = Database(self.db_path, cache_dir=self.cache_dir)   # WAL and fsync as Database() chooses
        for name in ("halos", "gals"):
            self.db.create_table(name, Frame(self.tables[name]))
            cal.maybe()
        # the reader cycles through the sql_read mix at half size, minus
        # its three slowest classes: it gets through a few dozen statements
        # per pass, and whether a half-second join happened to be among them
        # would decide the pass's CPU and peak RSS
        self.mix = sqlmix.build_mix(self.tables, self.seed, 0.5, query_cache.memory_capacity(),
                                    without=("bloom", "topk", "join"))
        for stmt in self.mix.hot:   # warm pass
            self.db.query(stmt.sql)
            cal.maybe()

    def run(self) -> list[ClientLog]:
        writer = ClientLog("writer", cal=Calibrator(threaded=True))
        reader = ClientLog("reader", cal=Calibrator(threaded=True))
        db = self.db
        self.acked = 0
        self.reads: list[tuple] = []      # (stmt, frame, acked before, acked after)
        self.scans = _ScanTotals()
        done = threading.Event()
        cache_before = query_cache.stats_snapshot()
        wal_before = get_registry().counter("wal.commits").value

        def write() -> None:
            try:
                for columns in self.frames:
                    out = writer.run("append", lambda: db.append("halos", Frame(columns)))
                    if not isinstance(out, Exception):
                        self.acked += 1     # single writer: a plain increment is safe
            finally:
                writer.close()
                done.set()

        def read() -> None:
            i = 0
            while not done.is_set():
                stmt = self.mix.ops[i % len(self.mix.ops)]
                i += 1
                lo = self.acked
                frame = reader.run(stmt.cls, lambda: db.query(stmt.sql))
                self.reads.append((stmt, frame, lo, self.acked))
                self.scans.add(db.last_scan_stats)
            reader.close()

        threads = [threading.Thread(target=write, name="e2e-writer"),
                   threading.Thread(target=read, name="e2e-reader")]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        self.writer_log, self.reader_log = writer, reader
        self.cache_delta = query_cache.stats_snapshot().delta(cache_before)
        self.wal_commits = get_registry().counter("wal.commits").value - wal_before
        # the ingester is the client here: its appends are the ops
        return [writer]

    def timed_logs(self, clients: list[ClientLog]) -> list[ClientLog]:
        return [self.writer_log, self.reader_log]

    def check(self, clients: list[ClientLog]) -> CheckResult:
        return check_ingest(self)

    def layer_values(self) -> dict[str, float]:
        ops = self.writer_log.ops
        writer_wall = ops[-1].t1 - ops[0].t0
        reads = [op.t1 - op.t0 for op in self.reader_log.ops if op.ok]
        user_bytes = (
            _frame_bytes(self.tables["halos"]) + _frame_bytes(self.tables["gals"])
            + sum(_frame_bytes(f) for f in self.frames[: self.acked])
        )
        return {
            **_cache_shares(self.cache_delta),
            **_skip_shares(self.scans),
            "db.wal_commits": float(self.wal_commits),
            "db.write_rows_per_s": self.acked * self.FRAME_ROWS / writer_wall,
            "db.read_p50_s": percentile(reads, 0.5) if reads else 0.0,
            "db.reads_per_s": len(reads) / writer_wall,
            "db.reopen_s": self.reopen_wall_s,
            "db.bytes_on_disk_per_user_byte": self.db.nbytes() / user_bytes,
        }


def check_ingest(wl: IngestLive, lose_append: bool = False) -> CheckResult:
    """Reads against the oracle at some committed prefix, then durability:
    a fresh handle holds exactly bootstrap + acknowledged rows.

    ``lose_append`` makes the durability check expect one frame fewer
    than were acknowledged (the selfcheck uses it to see the check fail).
    """
    halos = sqlmix.halos_with_appends(wl.tables, wl.frames)
    gals = wl.tables["gals"]
    rows = wl.FRAME_ROWS
    failed, notes = 0, []
    for op in wl.writer_log.ops:
        if not op.ok:
            failed += 1
            notes.append(f"append raised: {op.error.strip().splitlines()[-1]}")
    for (stmt, frame, lo, hi), op in zip(wl.reads, wl.reader_log.ops):
        if not op.ok:
            failed += 1
            notes.append(f"read raised: {op.error.strip().splitlines()[-1]} :: {stmt.sql}")
            continue
        got = sqlmix.result_columns(frame)
        # a commit is visible before append() returns, so one more frame
        # than was acknowledged when the read ended may be in its snapshot
        prefixes = range(lo, min(hi + 1, wl.n_frames) + 1)
        if not any(
            sqlmix.matches(stmt, got, sqlmix.expected(stmt, halos, gals, wl.n_halos + k * rows))
            for k in prefixes
        ):
            failed += 1
            notes.append(f"read matches no committed prefix in {list(prefixes)} :: {stmt.sql}")
    # durability: a fresh handle sees only what is on disk
    t0 = time.perf_counter()
    table = Database(wl.db_path, cache_dir=wl.cache_dir).table_frame("halos")
    wl.reopen_wall_s = time.perf_counter() - t0
    want_rows = wl.n_halos + (wl.acked - (1 if lose_append else 0)) * rows
    if table.num_rows != want_rows:
        failed += 1
        notes.append(f"reopened halos has {table.num_rows} rows, acknowledged {want_rows}")
    else:
        for col in sqlmix.HALO_COLUMNS:
            if _digest([np.asarray(table.column(col))]) != _digest([halos[col][:want_rows]]):
                failed += 1
                notes.append(f"reopened column {col!r} differs from the acknowledged rows")
    exact = {"acked_frames": wl.acked, "wal_commits": wl.wal_commits}
    return CheckResult(len(wl.writer_log.ops) + len(wl.reads) + 1, failed, notes, exact=exact)
