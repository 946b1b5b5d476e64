"""The storage seam: how bytes become visible, how a record is framed.

Every file this repo publishes for another process (or a restarted one)
to read goes through :func:`atomic_publish`; every record that has to
survive a crash mid-write is wrapped by :func:`frame` and judged by
:func:`scan_frames`.  DESIGN.md §8 ("Storage seam") lists each on-disk
artifact with what it uses of this module and who heals it.

**Publish.**  Unique temp file in the target directory, write, optional
read-back-and-compare (retried), ``os.replace``.  A reader sees the old
bytes or the new bytes, never a prefix, and concurrent publishers of one
path cannot tear each other because no two share a temp name.  ``verify``
is for artifacts nothing downstream can heal — the catalog (which holds
the table metadata) and the ensemble manifest are re-read by fresh
objects that trust them — while
caches (CRC-checked and recomputed on read) and advisory snapshots skip
the read-back.

**Frame.**  ``magic | payload_len (8 bytes LE) | crc32 (4 bytes LE) |
payload``.  The length is what lets a scan tell a *torn tail* (the write
ran short: fewer bytes than the header promised) from a *corrupt record*
(all the bytes are there and they are wrong).
"""

from __future__ import annotations

import contextlib
import os
import tempfile
import zlib
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, BinaryIO

from repro import faults
from repro.obs.logsetup import get_logger
from repro.obs.metrics import get_registry

log = get_logger("durable")

PUBLISH_ATTEMPTS = 3
_LEN_BYTES = 8
_CRC_BYTES = 4


class PublishError(RuntimeError):
    """A verified publish could not land intact bytes."""


def atomic_publish(
    path: str | Path,
    data: bytes | Callable[[BinaryIO], Any],
    *,
    verify: bool = False,
    fault_point: str | None = None,
    what: str | None = None,
    error: type[Exception] = PublishError,
) -> None:
    """Make ``data`` the contents of ``path``, all or nothing.

    ``data`` is the bytes themselves or a writer called with the open
    temp file (so an array can be saved without a second in-memory copy).

    ``verify`` reads the temp file back and compares it with ``data``
    (bytes only) before the rename; a mismatch — the ``fault_point``
    tearing the write, or a genuinely short one — is counted as
    ``storage.write_verify_retry`` and rewritten, and after
    ``PUBLISH_ATTEMPTS`` failures ``error`` is raised instead of
    shipping garbage.  ``fault_point`` is drawn once per attempt; without
    ``verify`` a torn write is published and the read side must catch it.

    The temp file is gone on every exit.  ``OSError`` propagates: callers
    whose artifact is advisory catch it, the others let it fail the write.
    """
    path = Path(path)
    what = what or path.name
    path.parent.mkdir(parents=True, exist_ok=True)
    injector = faults.get_injector()
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    tmp = Path(tmp_name)
    try:
        for attempt in range(1, PUBLISH_ATTEMPTS + 1):
            with (os.fdopen(fd, "wb") if attempt == 1 else open(tmp, "wb")) as fh:
                if callable(data):
                    data(fh)
                elif fault_point is not None and injector.fire(fault_point):
                    fh.write(injector.truncate(fault_point, data))
                else:
                    fh.write(data)
            if not verify or tmp.read_bytes() == data:
                os.replace(tmp, path)
                return
            get_registry().counter("storage.write_verify_retry").inc()
            log.warning(
                "torn write publishing %s (attempt %d/%d); rewriting",
                what, attempt, PUBLISH_ATTEMPTS,
            )
        raise error(f"could not publish intact {what} after {PUBLISH_ATTEMPTS} attempts")
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise


def frame(magic: bytes, payload: bytes) -> bytes:
    """Wrap ``payload`` as one self-checking record."""
    return (
        magic
        + len(payload).to_bytes(_LEN_BYTES, "little")
        + zlib.crc32(payload).to_bytes(_CRC_BYTES, "little")
        + payload
    )


@dataclass
class FrameScan:
    """Outcome of one sequential scan over framed records."""

    records: list = field(default_factory=list)
    good_bytes: int = 0           # offset of the first bad byte (valid up to here)
    torn_tail: bool = False       # trailing frame shorter than its header promised
    corrupt_record: bool = False  # complete frame with bad magic, CRC or payload
    dropped_bytes: int = 0        # bytes after good_bytes


def scan_frames(magic: bytes, data: bytes, decode: Callable[[bytes], Any]) -> FrameScan:
    """Read frames until the data ends or one is bad, and say which.

    Every payload before the first bad frame is returned through
    ``decode`` (one that passed its CRC and still fails to decode is a
    corrupt record, since the frame was complete); everything from the bad
    frame on is ``dropped_bytes``, classified as exactly one of
    ``torn_tail`` and ``corrupt_record``.
    """
    result = FrameScan()
    header_bytes = len(magic) + _LEN_BYTES + _CRC_BYTES
    offset = 0
    while offset < len(data):
        header = data[offset : offset + header_bytes]
        if len(header) < header_bytes:
            result.torn_tail = True
            break
        if not header.startswith(magic):
            # a full-length header with bad magic is corruption (e.g. a
            # flipped bit), not an in-flight write that ran short
            result.corrupt_record = True
            break
        length = int.from_bytes(header[len(magic) : -_CRC_BYTES], "little")
        start = offset + header_bytes
        payload = data[start : start + length]
        if len(payload) < length:
            result.torn_tail = True
            break
        if zlib.crc32(payload) != int.from_bytes(header[-_CRC_BYTES:], "little"):
            result.corrupt_record = True
            break
        try:
            record = decode(payload)
        except Exception:  # corrupt pickles raise many exception types
            result.corrupt_record = True
            break
        result.records.append(record)
        offset = start + length
    result.good_bytes = offset
    result.dropped_bytes = len(data) - offset
    return result
