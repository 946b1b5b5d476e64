"""The catalog log: a commit is one appended record.

A database directory's metadata is a checkpoint, ``catalog.json``
(``{"seq": S, "tables": {name: entry}}``), plus ``catalog.<S>.log``: one
:func:`repro.durable.frame` (magic ``RCAT1\\n``, JSON payload) per commit
after commit ``S``, holding only that commit's delta to one table.  A
create carries its whole entry, an append its version, its new groups'
row counts, zone maps and checksums and any widened columns, a drop its
name.  The commit protocol (driven by :class:`repro.db.database.Database`):

1. stage the new row-group files; fsync them and their directory;
2. append the record and fsync it — **the commit point**: a write is
   acknowledged once its frame is durable, so it survives a kill or a
   power loss, and a death before that leaves no entry listing the
   staged groups (a store reads exactly the groups its entry lists);
3. every :data:`CHECKPOINT_EVERY` commits and at every recovery, publish
   the catalog as a new fsynced ``catalog.json`` and continue in a new,
   empty log.

A handle parses only the log bytes past its last offset.  A scan stops at
the first short frame (a torn tail) or bad one (a corrupt record);
readers leave those bytes alone and recovery cuts them off.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro import faults
from repro.db.errors import DBError, IngestKilled
from repro.db.storage import GROUP_KEYS, TABLE_META_KEYS, fold_groups
from repro.durable import FrameScan, atomic_publish, frame, fsync_dir, scan_frames
from repro.obs import names as obs_names
from repro.obs.metrics import CounterView, counter_field

MAGIC = b"RCAT1\n"
# a reopen parses a checkpoint plus at most this many frames; one commit
# in this many also rewrites the whole catalog
CHECKPOINT_EVERY = 32
CHECKPOINT = "catalog.json"
# a catalog entry's keys, in its order in catalog.json
ENTRY_KEYS = ("row_group_size", "version", "generation", *TABLE_META_KEYS)


@dataclass
class WalStats(CounterView):
    """The commit and recovery counters (plus the ingester's absorbed
    kills), read as ints: the serve ``/stats`` ``wal`` block."""

    commits: int = counter_field(obs_names.WAL_COMMITS)
    torn_tails: int = counter_field(obs_names.WAL_TORN_TAIL_DROPPED)
    corrupt_records: int = counter_field(obs_names.WAL_CORRUPT_DROPPED)
    kills: int = counter_field(obs_names.INGEST_KILLS)


@dataclass(frozen=True)
class CatalogState:
    """One committed catalog: a checkpoint plus the log frames after it.
    Never mutated: a commit makes a new state sharing what it does not
    change, and rolls its table's :func:`~repro.db.storage.fold_groups`."""

    tables: dict = field(default_factory=dict)   # name -> catalog entry
    folds: dict = field(default_factory=dict)    # name -> fold of its row groups
    seq: int = 0                                 # the last commit applied
    base: int = 0                                # the checkpoint's seq: names the log
    checkpoint: tuple | None = None              # identity of the catalog.json read
    offset: int = 0                              # whole frames of the log applied

    def apply(self, record: dict) -> "CatalogState":
        """The state after one commit record (``offset`` is the caller's)."""
        name, kind = record["table"], record["kind"]
        tables, folds = dict(self.tables), dict(self.folds)
        if kind == "drop":
            del tables[name]
            folds.pop(name, None)
        elif kind == "create":
            tables[name] = {key: record[key] for key in ENTRY_KEYS}
            folds[name] = fold_groups(b"", record["row_groups"], record["checksums"])
        else:
            old = tables[name]
            tables[name] = {
                **old,
                "version": record["version"],
                "columns": record.get("columns", old["columns"]),
                **{key: old[key] + record[key] for key in GROUP_KEYS},
            }
            folds[name] = fold_groups(folds[name], record["row_groups"], record["checksums"])
        return replace(self, tables=tables, folds=folds, seq=record["seq"])


def _identity(st: os.stat_result) -> tuple:
    return (st.st_ino, st.st_mtime_ns, st.st_size)


class CatalogLog:
    """The checkpoint and log files of one database directory."""

    def __init__(self, path: Path):
        self.path = Path(path)
        self.checkpoint_path = self.path / CHECKPOINT

    def log_path(self, state: CatalogState) -> Path:
        return self.path / f"catalog.{state.base}.log"

    def _checkpoint_identity(self) -> tuple | None:
        try:
            return _identity(os.stat(self.checkpoint_path))
        except FileNotFoundError:
            return None

    def _log_size(self, state: CatalogState) -> int:
        """The log's size, -1 if it does not exist."""
        try:
            return os.stat(self.log_path(state)).st_size
        except FileNotFoundError:
            return -1

    def load(self) -> tuple[CatalogState, FrameScan]:
        """Parse the checkpoint and its whole log; also return the log's
        scan, which says whether (and why) it stopped short of the end."""
        for _ in range(8):
            try:
                with open(self.checkpoint_path, "rb") as fh:
                    identity, data = _identity(os.fstat(fh.fileno())), fh.read()
            except FileNotFoundError:
                state = CatalogState()
            except OSError as exc:
                raise DBError(f"unreadable catalog at {self.checkpoint_path}: {exc}") from exc
            else:
                state = self._parse_checkpoint(data, identity)
            try:
                return self.scan_tail(state)
            except FileNotFoundError:
                # no commit since the checkpoint, or the log was rotated
                # away between the two reads: then read the new checkpoint
                if self._checkpoint_identity() == state.checkpoint:
                    return state, FrameScan()
        raise DBError(f"catalog at {self.path} kept moving while it was read")

    def _parse_checkpoint(self, data: bytes, identity: tuple) -> CatalogState:
        try:
            doc = json.loads(data)
        except ValueError as exc:
            raise DBError(f"corrupt catalog at {self.checkpoint_path}: {exc}") from exc
        if not (isinstance(doc, dict) and doc.keys() == {"seq", "tables"}):
            raise DBError(
                f"catalog at {self.checkpoint_path} is in a format this version no longer "
                f"reads (no commit sequence); regenerate the workdir"
            )
        seq, tables = int(doc["seq"]), doc["tables"]
        folds = {
            name: fold_groups(b"", entry.get("row_groups", []), entry.get("checksums", []))
            for name, entry in tables.items()
        }
        return CatalogState(tables, folds, seq, seq, identity)

    def scan_tail(self, state: CatalogState) -> tuple[CatalogState, FrameScan]:
        """Apply the whole frames past ``state.offset``."""
        with open(self.log_path(state), "rb") as fh:
            fh.seek(state.offset)
            scan = scan_frames(MAGIC, fh.read(), json.loads)
        for record in scan.records:
            state = state.apply(record)
        return replace(state, offset=state.offset + scan.good_bytes), scan

    def refresh(self, state: CatalogState) -> CatalogState:
        """``state`` itself if no commit landed since, else the latest."""
        if self._checkpoint_identity() != state.checkpoint:
            return self.load()[0]
        size = self._log_size(state)
        if size == state.offset or (size < 0 and state.checkpoint is None):
            return state  # (a fresh database has no log before its first commit)
        try:
            if size > state.offset:
                fresh, scan = self.scan_tail(state)
                return fresh if scan.records else state
        except FileNotFoundError:
            pass
        return self.load()[0]  # the log was rotated away by a checkpoint

    # -- writing (under the database's write lock) -------------------------
    def append(self, state: CatalogState, record: dict) -> CatalogState:
        """Frame, append and fsync one commit record: the commit point.
        The armed ``wal_torn_tail`` fault dies mid-write, leaving a
        durable-but-torn frame behind."""
        record = {"seq": state.seq + 1, **record}
        data = frame(MAGIC, json.dumps(record, separators=(",", ":")).encode())
        torn = None
        if faults.fire_ingest_kill(faults.WAL_TORN_TAIL):
            torn = faults.get_injector().truncate(faults.WAL_TORN_TAIL, data)
        path = self.log_path(state)
        with open(path, "ab") as fh:
            fh.write(data if torn is None else torn)
            fh.flush()
            os.fsync(fh.fileno())
        if state.offset == 0:
            fsync_dir(self.path)  # the log may be new: make its name durable
        if torn is not None:
            raise IngestKilled("commit-frame", f"torn tail at {len(torn)}/{len(data)} bytes")
        return replace(state.apply(record), offset=state.offset + len(data))

    def has_tail(self, state: CatalogState) -> bool:
        """Whether the log holds bytes past ``state``'s whole frames (what
        a writer that died mid-frame left behind)."""
        return self._log_size(state) > state.offset

    def truncate(self, state: CatalogState) -> None:
        """Cut the log back to ``state``'s whole frames."""
        if self.has_tail(state):
            with open(self.log_path(state), "r+b") as fh:
                fh.truncate(state.offset)
                os.fsync(fh.fileno())

    def checkpoint(self, state: CatalogState) -> CatalogState:
        """Publish ``state`` as the new ``catalog.json`` and continue in an
        empty log; the old log goes once the checkpoint is durable."""
        data = json.dumps({"seq": state.seq, "tables": state.tables}).encode()
        new = replace(state, base=state.seq, offset=0)
        log_path = self.log_path(new)
        log_path.touch()  # before the publish: a reader that finds no log re-reads the checkpoint
        atomic_publish(self.checkpoint_path, data, verify=True, fsync=True,
                       fault_point=faults.STORAGE_TORN_WRITE, what=CHECKPOINT, error=DBError)
        new = replace(new, checkpoint=self._checkpoint_identity())
        for old in self.path.glob("catalog.*.log"):
            if old != log_path:
                old.unlink(missing_ok=True)
        return new
