"""Crash-safe write-ahead log for live table appends.

Every mutation that flows through :meth:`repro.db.database.Database.append`
(or a populated ``create_table``) is made durable here *before* any table
bytes move, as one :func:`repro.durable.frame` record under the magic
``RWAL1\\n`` with a pickle payload.

The commit protocol (driven by the database, not this module):

1. frame + fsync the WAL record — the intent is durable;
2. stage the new row-group files (no metadata publish);
3. publish ``catalog.json`` with the table's new entry (bumped version,
   row groups, zone maps, blooms, checksums) — **this single atomic
   rename is the commit point**;
4. truncate the WAL.

A kill at any byte offset therefore leaves one of exactly two observable
tables: the pre-append state (catalog untouched; recovery replays or drops
the WAL record) or the post-append state (catalog published; recovery
skips the already-committed record).  Readers never see a hybrid because
a store reads exactly the row groups its catalog entry lists (see
:class:`repro.db.storage.TableStore`).

Recovery scans the log with :func:`repro.durable.scan_frames` and stops
at the first frame that is short (torn tail — counted as
``wal.torn_tail_dropped``) or fails its CRC (counted as
``wal.corrupt_record_dropped``); everything before the bad frame replays,
everything from it on is truncated away.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass
from pathlib import Path

from repro import faults
from repro.db.errors import DBError, IngestKilled
from repro.durable import FrameScan, frame, scan_frames
from repro.obs import names as obs_names
from repro.obs.logsetup import get_logger
from repro.obs.metrics import CounterView, counter_field, get_registry

log = get_logger("db.wal")

_MAGIC = b"RWAL1\n"


@dataclass
class WalStats(CounterView):
    """The WAL's commit and recovery counters (plus the ingester's
    absorbed kills), read as ints: the serve ``/stats`` ``wal`` block."""

    commits: int = counter_field(obs_names.WAL_COMMITS)
    replayed: int = counter_field(obs_names.WAL_REPLAYED)
    torn_tails: int = counter_field(obs_names.WAL_TORN_TAIL_DROPPED)
    corrupt_records: int = counter_field(obs_names.WAL_CORRUPT_DROPPED)
    kills: int = counter_field(obs_names.INGEST_KILLS)


class WriteAheadLog:
    """Append-only redo log for one database directory.

    ``fsync`` discipline: every appended record is flushed and fsynced
    before :meth:`append` returns, so a record's presence in the log is a
    durable promise.  ``fsync=False`` is for tests that rewrite a log at
    every byte offset; ``Database`` always fsyncs.
    """

    def __init__(self, path: str | Path, fsync: bool = True):
        self.path = Path(path)
        self.fsync = fsync

    # ------------------------------------------------------------------
    def exists_nonempty(self) -> bool:
        try:
            return self.path.stat().st_size > 0
        except OSError:
            return False

    def size_bytes(self) -> int:
        try:
            return self.path.stat().st_size
        except OSError:
            return 0

    # ------------------------------------------------------------------
    def append(self, record: dict) -> None:
        """Frame, append and fsync one record; the armed ``wal_torn_tail``
        fault dies mid-write, leaving a durable-but-torn tail behind."""
        payload = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
        framed = frame(_MAGIC, payload)
        torn = None
        if faults.fire_ingest_kill(faults.WAL_TORN_TAIL):
            injector = faults.get_injector()
            torn = injector.truncate(faults.WAL_TORN_TAIL, framed)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "ab") as fh:
            fh.write(framed if torn is None else torn)
            fh.flush()
            if self.fsync:
                os.fsync(fh.fileno())
        if torn is not None:
            raise IngestKilled("wal-append", f"torn tail at {len(torn)}/{len(framed)} bytes")

    # ------------------------------------------------------------------
    def scan(self) -> FrameScan:
        """Sequential validity scan; classifies why the scan stopped."""
        try:
            data = self.path.read_bytes()
        except OSError:
            return FrameScan()
        return scan_frames(_MAGIC, data, decode=pickle.loads)

    def truncate_to(self, size: int) -> None:
        """Cut the log at ``size`` bytes (drop a torn/corrupt tail)."""
        with open(self.path, "ab") as fh:
            fh.truncate(size)
            fh.flush()
            if self.fsync:
                os.fsync(fh.fileno())

    def clear(self) -> None:
        """Empty the log after a successful commit (or recovery pass)."""
        if self.path.exists():
            self.truncate_to(0)

    # ------------------------------------------------------------------
    def pending(self) -> tuple[list[dict], FrameScan]:
        """Scan, count classified drops, and truncate any bad tail.

        Returns the complete records (in append order) plus the scan
        verdict.  After this call the log on disk contains exactly the
        returned records.
        """
        result = self.scan()
        registry = get_registry()
        if result.torn_tail:
            registry.counter(obs_names.WAL_TORN_TAIL_DROPPED).inc()
            log.warning(
                "WAL torn tail: dropping %d bytes after offset %d of %s",
                result.dropped_bytes, result.good_bytes, self.path,
            )
        if result.corrupt_record:
            registry.counter(obs_names.WAL_CORRUPT_DROPPED).inc()
            log.warning(
                "WAL corrupt record: dropping %d bytes after offset %d of %s",
                result.dropped_bytes, result.good_bytes, self.path,
            )
        if result.dropped_bytes:
            self.truncate_to(result.good_bytes)
        return result.records, result


def make_append_record(
    table: str, kind: str, base_version: int, row_group_size: int, columns: dict
) -> dict:
    """The WAL payload for one create/append; arrays are pickled verbatim."""
    if kind not in ("create", "append"):
        raise DBError(f"unknown WAL record kind {kind!r}")
    return {
        "kind": kind,
        "table": table,
        "base_version": int(base_version),
        "row_group_size": int(row_group_size),
        "columns": columns,
    }
