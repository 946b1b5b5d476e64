"""On-disk layout and reader/writer for the mini-GenericIO format.

Layout::

    offset 0   : magic b"MGIO1\\n"
    offset 6   : header length as 8-byte little-endian unsigned
    offset 14  : UTF-8 JSON header, space-padded to a 64-byte boundary
    thereafter : column blobs, each contiguous and 64-byte aligned, in
                 header order; the file ends where the last one does

The JSON header carries ``num_rows``, free-form ``attrs`` (run id,
timestep, sub-grid parameters, a cache key, ...), and per-column entries
with ``name``, ``dtype`` (NumPy dtype string), ``offset`` (absolute file
offset), ``nbytes`` and ``crc32``.  The ensemble, the database's row
groups and both caches' entries are all this format, and this module is
the only one that turns columns into bytes and back: :class:`GIOFile`
seeks and copies (CRC-checked), :func:`map_gio` views columns of one
``np.memmap`` (no copy, no check), :func:`read_gio_verified` maps and
checks every column.  Every violation of the layout is a
:class:`GIOFormatError`.
"""

from __future__ import annotations

import json
import os
import zlib
from collections.abc import Mapping, Sequence
from pathlib import Path
from typing import BinaryIO

import numpy as np

from repro import faults
from repro.frame import Frame

GIO_MAGIC = b"MGIO1\n"
_HEADER_LEN_BYTES = 8
_PREFIX = len(GIO_MAGIC) + _HEADER_LEN_BYTES
ALIGNMENT = 64


class GIOFormatError(RuntimeError):
    """Raised on magic/CRC/structure violations."""


def _aligned(offset: int) -> int:
    return -(-offset // ALIGNMENT) * ALIGNMENT


def encode_gio(
    columns: Mapping[str, np.ndarray], attrs: Mapping[str, object] | None = None
) -> tuple[list, dict[str, int]]:
    """The file holding ``columns`` as a list of buffers (header, padding
    and each column's own array, uncopied), and each column's CRC32.
    ``fh.writelines`` them, or ``b"".join`` them for one bytes object.

    All columns must share one length.  dtypes are preserved exactly;
    object/string columns are stored as fixed-width UTF-32 (``<U``) blobs.
    """
    arrays: dict[str, np.ndarray] = {}
    for name, values in columns.items():
        arr = np.ascontiguousarray(values)
        if arr.ndim != 1:
            raise GIOFormatError(f"column {name!r} must be 1-D")
        arrays[name] = arr.astype(str) if arr.dtype == object else arr
    num_rows = len(next(iter(arrays.values()), ()))
    if any(len(arr) != num_rows for arr in arrays.values()):
        raise GIOFormatError(f"ragged columns: {[len(arr) for arr in arrays.values()]} rows")
    entries = [
        {"name": name, "dtype": arr.dtype.str, "nbytes": arr.nbytes, "crc32": zlib.crc32(arr)}
        for name, arr in arrays.items()
    ]
    doc = {"num_rows": num_rows, "attrs": dict(attrs or {}), "columns": entries}
    # the offsets sit inside the header, so its length depends on their
    # digit counts: grow the data start until the header fits before it
    data_start = 0
    while True:
        cursor = data_start
        for entry in entries:
            entry["offset"] = cursor = _aligned(cursor)
            cursor += entry["nbytes"]
        header = json.dumps(doc, sort_keys=True).encode("utf-8")
        if _PREFIX + len(header) <= data_start:
            break
        data_start = _aligned(_PREFIX + len(header))
    header_len = data_start - _PREFIX
    parts: list = [GIO_MAGIC, header_len.to_bytes(_HEADER_LEN_BYTES, "little")]
    parts.append(header.ljust(header_len))  # trailing JSON whitespace
    end = data_start
    for entry, arr in zip(entries, arrays.values()):
        parts += [bytes(entry["offset"] - end), arr]
        end = entry["offset"] + entry["nbytes"]
    return parts, {entry["name"]: entry["crc32"] for entry in entries}


def write_gio(
    path: str | Path,
    columns: Mapping[str, np.ndarray],
    attrs: Mapping[str, object] | None = None,
) -> int:
    """Write columns to ``path`` (see :func:`encode_gio`); returns total
    bytes written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    data = b"".join(encode_gio(columns, attrs)[0])
    path.write_bytes(data)
    return len(data)


def _read_header(fh: BinaryIO, path: Path) -> tuple[int, dict, dict[str, dict]]:
    """``(num_rows, attrs, entries by name)``, every field type-checked."""
    magic = fh.read(len(GIO_MAGIC))
    if magic != GIO_MAGIC:
        raise GIOFormatError(f"{path}: bad magic {magic!r}")
    header_len = int.from_bytes(fh.read(_HEADER_LEN_BYTES), "little")
    if header_len > os.fstat(fh.fileno()).st_size - _PREFIX:
        raise GIOFormatError(f"{path}: truncated header")
    try:
        doc = json.loads(fh.read(header_len))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise GIOFormatError(f"{path}: corrupt header: {exc}") from None
    try:
        num_rows, attrs, entries = doc["num_rows"], doc["attrs"], {}
        if type(num_rows) is not int or num_rows < 0 or not isinstance(attrs, dict):
            raise ValueError("num_rows or attrs")
        for entry in doc["columns"]:
            name, dtype = entry["name"], np.dtype(entry["dtype"])
            counts = [entry[key] for key in ("offset", "nbytes", "crc32")]
            if not (isinstance(name, str) and isinstance(entry["dtype"], str)
                    and not dtype.hasobject and all(type(n) is int and n >= 0 for n in counts)
                    and entry["nbytes"] == num_rows * dtype.itemsize):
                raise ValueError(f"column entry {entry!r}")
            entries[name] = entry
    except (KeyError, TypeError, ValueError) as exc:
        raise GIOFormatError(f"{path}: malformed header: {exc!r}") from None
    return num_rows, attrs, entries


def _entry(entries: dict[str, dict], name: str, path: Path) -> dict:
    try:
        return entries[name]
    except KeyError:
        raise GIOFormatError(f"{path}: no column {name!r}; available: {list(entries)}") from None


def _map(path: Path, names: Sequence[str] | None) -> tuple[dict, dict[str, dict], dict]:
    """``(attrs, entries, views)``: the named columns' views of one map."""
    with path.open("rb") as fh:
        _, attrs, entries = _read_header(fh, path)
        mapped = np.memmap(fh, dtype=np.uint8, mode="r")
    views: dict[str, np.ndarray] = {}
    for name in entries if names is None else names:
        entry = _entry(entries, name, path)
        start, end = entry["offset"], entry["offset"] + entry["nbytes"]
        if end > len(mapped):
            raise GIOFormatError(f"{path}: truncated column {name!r}")
        views[name] = mapped[start:end].view(np.dtype(entry["dtype"]))
    return attrs, entries, views


def map_gio(path: str | Path, columns: Sequence[str] | None = None) -> dict[str, np.ndarray]:
    """Read-only views of ``columns`` (default: all) over one ``np.memmap``
    of the file: no copy and no CRC check, so only the pages a caller
    touches are read."""
    return _map(Path(path), columns)[2]


def read_gio_verified(
    path: str | Path, fault_point: str | None = None
) -> tuple[dict, dict[str, np.ndarray]]:
    """``(attrs, columns)``: every column mapped as by :func:`map_gio`,
    and checked against its CRC.  ``fault_point`` (a :mod:`repro.faults`
    point) is drawn once per column; when it fires, one bit of what the
    check sees is flipped."""
    attrs, entries, views = _map(Path(path), None)
    injector = faults.get_injector()
    for name, view in views.items():
        checked = view
        if fault_point is not None and injector.fire(fault_point):
            checked = injector.flip_bit(fault_point, view.tobytes())
        if zlib.crc32(checked) != entries[name]["crc32"]:
            raise GIOFormatError(f"{path}: CRC mismatch in column {name!r}")
    return attrs, views


class GIOFile:
    """Read handle over a mini-GenericIO file.

    Only the header is parsed at open time; column payloads are read
    lazily and selectively, so opening a large ensemble costs kilobytes.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        with self.path.open("rb") as fh:
            self.num_rows, self.attrs, self._entries = _read_header(fh, self.path)

    @property
    def columns(self) -> list[str]:
        return list(self._entries)

    def column_nbytes(self, name: str) -> int:
        return int(self._entry(name)["nbytes"])

    def total_data_nbytes(self) -> int:
        """Bytes of column payload (the 'dataset size' used in storage ratios)."""
        return sum(int(e["nbytes"]) for e in self._entries.values())

    def _entry(self, name: str) -> dict:
        return _entry(self._entries, name, self.path)

    def read_column(self, name: str, verify: bool = True) -> np.ndarray:
        """Read a single column, seeking directly to its blob."""
        entry = self._entry(name)
        with self.path.open("rb") as fh:
            fh.seek(entry["offset"])
            blob = fh.read(entry["nbytes"])
        if len(blob) != entry["nbytes"]:
            raise GIOFormatError(f"{self.path}: truncated column {name!r}")
        if verify and zlib.crc32(blob) != entry["crc32"]:
            raise GIOFormatError(f"{self.path}: CRC mismatch in column {name!r}")
        return np.frombuffer(blob, dtype=np.dtype(entry["dtype"])).copy()

    def read(self, columns: Sequence[str] | None = None, verify: bool = True) -> Frame:
        """Read the selected columns (default: all) into a Frame."""
        names = list(columns) if columns is not None else self.columns
        return Frame({n: self.read_column(n, verify=verify) for n in names})

    def bytes_for(self, columns: Sequence[str]) -> int:
        """Payload bytes a selective read of ``columns`` would touch."""
        return sum(self.column_nbytes(n) for n in columns)
