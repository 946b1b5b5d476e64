"""State checkpointing and branch-from-checkpoint.

§4.2.1: "by capturing and preserving the exact computational state from
each analysis agent, the system enables efficient workflow branching ...
analysts can load from specific checkpoints and alter follow-up steps."

Checkpoints snapshot the full state dict after every node.  Snapshots are
deep copies, so later mutation cannot corrupt history; branching copies a
checkpoint chain onto a new thread id and execution resumes from there.

:class:`DurableCheckpointer` additionally persists every checkpoint as a
framed blob under a workdir directory — one file per checkpoint, one
:func:`repro.durable.frame` record per file, published with
:func:`repro.durable.atomic_publish`, hydrated lazily per thread on first
access.  Resume is *tolerant*: a truncated or bit-flipped
tail (a process killed mid-write, media corruption, or the chaos suite's
``checkpoint.corrupt`` fault) is quarantined and counted, and the thread
restarts from the last checkpoint that verifies — never a raw unpickling
traceback.
"""

from __future__ import annotations

import copy
import pickle
import re
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro import faults
from repro.durable import atomic_publish, frame, scan_frames
from repro.obs.logsetup import get_logger
from repro.obs.metrics import get_registry

log = get_logger("graph.checkpoint")

# RCKP1 blobs (magic | crc | payload, no length) read as a corrupt tail
_MAGIC = b"RCKP2\n"


@dataclass
class Checkpoint:
    checkpoint_id: str
    thread_id: str
    seq: int
    node: str
    next_node: str | None
    state: dict[str, Any]
    # serialized ExecutionEvent dicts up to this point; restored on resume
    # so event history (including timing fields) survives the round-trip
    events: list[dict[str, Any]] = field(default_factory=list)


@dataclass
class Checkpointer:
    """In-memory checkpoint store keyed by thread id."""

    _threads: dict[str, list[Checkpoint]] = field(default_factory=dict)

    def save(
        self,
        thread_id: str,
        seq: int,
        node: str,
        next_node: str | None,
        state: dict[str, Any],
        events: list[dict[str, Any]] | None = None,
    ) -> Checkpoint:
        cp = Checkpoint(
            checkpoint_id=f"{thread_id}:{seq}",
            thread_id=thread_id,
            seq=seq,
            node=node,
            next_node=next_node,
            state=copy.deepcopy(state),
            events=copy.deepcopy(events or []),
        )
        self._threads.setdefault(thread_id, []).append(cp)
        return cp

    def history(self, thread_id: str) -> list[Checkpoint]:
        return list(self._threads.get(thread_id, []))

    def latest(self, thread_id: str) -> Checkpoint | None:
        chain = self._threads.get(thread_id)
        return chain[-1] if chain else None

    def get(self, checkpoint_id: str) -> Checkpoint:
        thread_id = checkpoint_id.rsplit(":", 1)[0]
        for cp in self._threads.get(thread_id, []):
            if cp.checkpoint_id == checkpoint_id:
                return cp
        raise KeyError(f"no checkpoint {checkpoint_id!r}")

    def branch(self, checkpoint_id: str, new_thread_id: str) -> Checkpoint:
        """Copy history up to ``checkpoint_id`` onto a fresh thread.

        The returned checkpoint is the new thread's head; resuming a graph
        with this thread id continues from the branched state without
        re-running any earlier step (the paper's cost-saving exploration).
        """
        source = self.get(checkpoint_id)
        if new_thread_id in self._threads:
            raise ValueError(f"thread {new_thread_id!r} already exists")
        chain = []
        for cp in self._threads[source.thread_id]:
            if cp.seq > source.seq:
                break
            chain.append(
                Checkpoint(
                    checkpoint_id=f"{new_thread_id}:{cp.seq}",
                    thread_id=new_thread_id,
                    seq=cp.seq,
                    node=cp.node,
                    next_node=cp.next_node,
                    state=copy.deepcopy(cp.state),
                    events=copy.deepcopy(cp.events),
                )
            )
        self._threads[new_thread_id] = chain
        return chain[-1]

    def threads(self) -> list[str]:
        return sorted(self._threads)


# ----------------------------------------------------------------------
# durable store
# ----------------------------------------------------------------------
def _encode_checkpoint(cp: Checkpoint) -> bytes:
    payload = pickle.dumps(
        {
            "checkpoint_id": cp.checkpoint_id,
            "thread_id": cp.thread_id,
            "seq": cp.seq,
            "node": cp.node,
            "next_node": cp.next_node,
            "state": cp.state,
            "events": cp.events,
        },
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    return frame(_MAGIC, payload)


def _decode_checkpoint(blob: bytes) -> Checkpoint:
    """Decode a one-frame blob; raises ``ValueError`` on any corruption."""
    scan = scan_frames(_MAGIC, blob, decode=pickle.loads)
    if scan.dropped_bytes or len(scan.records) != 1:
        raise ValueError("torn checkpoint blob" if scan.torn_tail else "corrupt checkpoint blob")
    return Checkpoint(**scan.records[0])


def _thread_dirname(thread_id: str) -> str:
    """Filesystem-safe, collision-resistant directory name for a thread."""
    safe = re.sub(r"[^A-Za-z0-9._-]", "_", thread_id)[:80]
    return f"{safe}-{zlib.crc32(thread_id.encode('utf-8')) & 0xFFFFFFFF:08x}"


class DurableCheckpointer(Checkpointer):
    """On-disk checkpoint store: survives process restarts.

    ``root`` holds one directory per thread (``thread.txt`` records the
    raw thread id; ``ckpt_<seq>.bin`` files hold the framed blobs).  The
    in-memory chain remains authoritative within a process — faults that
    corrupt the on-disk copy never perturb a live run, only what a
    *restarted* process can recover.
    """

    def __init__(self, root: str | Path):
        super().__init__()
        self.root = Path(root)
        self.dropped_corrupt = 0       # corrupt/truncated tail blobs skipped
        self._hydrated: set[str] = set()

    # -- persistence ----------------------------------------------------
    def _thread_dir(self, thread_id: str) -> Path:
        return self.root / _thread_dirname(thread_id)

    def _persist(self, cp: Checkpoint) -> None:
        blob = _encode_checkpoint(cp)
        injector = faults.get_injector()
        if injector.fire(faults.CHECKPOINT_CORRUPT):
            # media corruption on the durable copy only: the in-memory run
            # continues untouched, but a restarted process must exercise
            # tolerant resume (CRC catches the flip, tail is dropped)
            blob = injector.flip_bit(faults.CHECKPOINT_CORRUPT, blob)
        tdir = self._thread_dir(cp.thread_id)
        try:
            tdir.mkdir(parents=True, exist_ok=True)
            marker = tdir / "thread.txt"
            if not marker.exists():
                marker.write_text(cp.thread_id)
            atomic_publish(tdir / f"ckpt_{cp.seq:06d}.bin", blob)
        except OSError as exc:
            # a read-only workdir degrades to in-memory checkpointing
            log.warning("checkpoint persist failed for %s: %s", cp.checkpoint_id, exc)

    def _hydrate(self, thread_id: str) -> None:
        """Load a thread's chain from disk, dropping the corrupt tail."""
        if thread_id in self._hydrated:
            return
        self._hydrated.add(thread_id)
        if thread_id in self._threads:
            return  # live in-memory chain wins over its own disk copy
        tdir = self._thread_dir(thread_id)
        if not tdir.is_dir():
            return
        chain: list[Checkpoint] = []
        for path in sorted(tdir.glob("ckpt_*.bin")):
            try:
                chain.append(_decode_checkpoint(path.read_bytes()))
            except (OSError, ValueError) as exc:
                # tolerant tail: everything from the first bad blob on is
                # unrecoverable — resume from the last checkpoint that
                # verified, and say so
                self.dropped_corrupt += 1
                get_registry().counter("checkpoint.corrupt_dropped").inc()
                log.warning(
                    "dropping corrupt checkpoint tail of thread %r at %s: %s",
                    thread_id, path.name, exc,
                )
                break
        if chain:
            self._threads[thread_id] = chain

    def _hydrate_all(self) -> None:
        if not self.root.is_dir():
            return
        for tdir in sorted(p for p in self.root.iterdir() if p.is_dir()):
            marker = tdir / "thread.txt"
            if marker.is_file():
                self._hydrate(marker.read_text())

    # -- overridden accessors -------------------------------------------
    def save(
        self,
        thread_id: str,
        seq: int,
        node: str,
        next_node: str | None,
        state: dict[str, Any],
        events: list[dict[str, Any]] | None = None,
    ) -> Checkpoint:
        cp = super().save(thread_id, seq, node, next_node, state, events)
        self._persist(cp)
        return cp

    def history(self, thread_id: str) -> list[Checkpoint]:
        self._hydrate(thread_id)
        return super().history(thread_id)

    def latest(self, thread_id: str) -> Checkpoint | None:
        self._hydrate(thread_id)
        return super().latest(thread_id)

    def get(self, checkpoint_id: str) -> Checkpoint:
        self._hydrate(checkpoint_id.rsplit(":", 1)[0])
        return super().get(checkpoint_id)

    def branch(self, checkpoint_id: str, new_thread_id: str) -> Checkpoint:
        self._hydrate(checkpoint_id.rsplit(":", 1)[0])
        self._hydrate(new_thread_id)
        head = super().branch(checkpoint_id, new_thread_id)
        for cp in self._threads[new_thread_id]:
            self._persist(cp)
        return head

    def threads(self) -> list[str]:
        self._hydrate_all()
        return super().threads()
