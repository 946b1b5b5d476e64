"""Row-group columnar storage.

A table's rows live in a generation directory of their own, one per
create::

    <db>/<table>/<generation>/
      rg00000                   # one repro.gio file per row group

and its metadata (generation, dtypes, row-group row counts, zone maps
and per-segment checksums) in the table's entry of the database's
``catalog.json`` (:mod:`repro.db.database`); each group's bloom filters
(:mod:`repro.db.bloom`) sit in its file's header ``attrs``.  A
:class:`TableStore` is built from that entry and reads no metadata file:
it sees exactly the row groups the entry lists, whatever a concurrent
writer has staged on disk.  A re-created table gets a new generation, so
a store built from an entry of the dropped one reads that entry's bytes or
fails with a :class:`~repro.db.errors.DBError`, never the new table's.

Row groups bound executor memory: a scan yields one group at a time, so a
filter over a table of any size peaks at ``row_group_size`` rows — the
"on disk rather than in memory" property the paper gets from DuckDB.  A
row-group file holds every column back to back, each aligned to 64 bytes,
with the offsets in the file's own header (not the catalog: a group
written before a string-widening append keeps its narrower dtype, so only
the file knows its byte layout).  A read maps the file once and views the
requested columns (:func:`repro.gio.format.map_gio`): zero-copy and
selective, and the other columns' pages are never touched.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from collections.abc import Iterator, Sequence
from contextlib import suppress
from pathlib import Path

import numpy as np

from repro import faults
from repro.db.bloom import BloomFilter
from repro.db.errors import DBError, IngestKilled, UnknownColumnError
from repro.durable import fsync_dir
from repro.frame import Frame
from repro.gio.format import GIOFile, GIOFormatError, encode_gio, map_gio

DEFAULT_ROW_GROUP_SIZE = 65536
# the table metadata every catalog entry carries; all but ``columns`` are
# per-row-group lists, one entry per group
TABLE_META_KEYS = ("columns", "row_groups", "zone_maps", "checksums")
GROUP_KEYS = TABLE_META_KEYS[1:]
BloomCache = dict[str, dict[str, BloomFilter]]  # row-group path -> filters


def empty_table_meta() -> dict:
    """The metadata of a table that has no columns and no rows yet."""
    return {"columns": {}, "row_groups": [], "zone_maps": [], "checksums": []}


def fold_groups(fold: bytes, row_groups: Sequence[int], checksums: Sequence[dict]) -> bytes:
    """Roll ``fold`` (``b""`` before any group) over more row groups'
    (rows, checksums), in order: a commit rolls it over its new groups."""
    for rows, sums in zip(row_groups, checksums):
        token = f"{rows}:{json.dumps(sums, sort_keys=True)}".encode()
        fold = hashlib.blake2b(fold + token, digest_size=16).digest()
    return fold


class TableStore:
    """On-disk storage of one table, as one catalog entry describes it.

    ``meta`` is never mutated: a write stages a new metadata doc
    (:meth:`stage_append`) and the database commits it as a new catalog
    entry.  Committed row-group files are immutable (appends only ever
    add higher-numbered groups), so a store built from an older entry keeps
    reading exactly that entry's rows.  A store is shared by every
    statement and thread (served requests read concurrently) reading through
    the same catalog snapshot.  ``bloom_cache`` (row-group path → parsed
    filters) is the database handle's (:class:`repro.db.Database`); racing
    fills parse equal filters.
    """

    def __init__(self, path: Path, meta: dict, bloom_cache: BloomCache | None = None,
                 fold: bytes | None = None):
        self.path = Path(path)
        self._meta = meta
        self._bloom_cache: BloomCache = {} if bloom_cache is None else bloom_cache
        self._fold = fold  # fold_groups over meta's row groups, if the caller has it

    # ------------------------------------------------------------------
    @property
    def columns(self) -> list[str]:
        return list(self._meta["columns"])

    @property
    def num_rows(self) -> int:
        return int(sum(self._meta["row_groups"]))

    @property
    def num_row_groups(self) -> int:
        return len(self._meta["row_groups"])

    def content_signature(self) -> str:
        """Content hash over the schema and the fold of every row group's
        (rows, checksums).  Equal across databases holding the same bytes,
        however commits split them, so the query-result cache it keys is
        shareable (harness worker processes share one on disk)."""
        if self._fold is None:
            self._fold = fold_groups(b"", self._meta["row_groups"], self._meta["checksums"])
        doc = json.dumps(self._meta["columns"], sort_keys=True).encode()
        return hashlib.blake2b(doc + self._fold, digest_size=16).hexdigest()

    def dtype_of(self, name: str) -> np.dtype:
        try:
            return np.dtype(self._meta["columns"][name])
        except KeyError:
            raise UnknownColumnError(name, self.columns) from None

    def nbytes(self) -> int:
        """Bytes on disk across the row groups this store lists (storage-
        overhead metric): staged files no commit names are not the table's."""
        return sum(
            (self.path / f"rg{i:05d}").stat().st_size for i in range(self.num_row_groups)
        )

    # ------------------------------------------------------------------
    def stage_append(
        self, frame: Frame, row_group_size: int = DEFAULT_ROW_GROUP_SIZE
    ) -> dict:
        """Write the frame's rows as new, fsynced row-group files; return,
        *without committing it*, the table's columns (wider where the
        frame's strings are) and the new groups' rows, zone maps and
        checksums.  Until the database commits that doc no store reads
        the staged groups; a crash mid-stage leaves orphan files, which
        recovery discards.  The caller has checked the frame's columns."""
        # object columns are stored as fixed-width strings, converted once
        # over the whole frame so that every group a create writes and the
        # dtype its catalog entry records are the same
        arrays: dict[str, np.ndarray] = {}
        for name in self._meta["columns"] or frame.columns:
            col = np.asarray(frame.column(name))
            arrays[name] = col.astype(str) if col.dtype == object else col
        columns = self._meta["columns"] or {n: a.dtype.str for n, a in arrays.items()}
        # an append of wider strings widens the recorded dtype (its
        # segments keep every character), so schema and zero-row results
        # are as wide as the widest stored value
        wider = {
            n: a.dtype.str
            for n, a in arrays.items()
            if a.dtype.kind in "US"
            and a.dtype.kind == np.dtype(columns[n]).kind
            and a.dtype.itemsize > np.dtype(columns[n]).itemsize
        }
        if wider:
            columns = {**columns, **wider}
        staged = {"columns": columns, "row_groups": [], "zone_maps": [], "checksums": []}
        if not frame.num_rows:
            return staged
        new_dir = not self.path.is_dir()
        self.path.mkdir(parents=True, exist_ok=True)
        for start in range(0, frame.num_rows, row_group_size):
            stop = start + row_group_size
            rg_index = self.num_row_groups + len(staged["row_groups"])
            group = {name: full[start:stop] for name, full in arrays.items()}
            zone_map: dict[str, list[float]] = {}
            blooms: dict[str, dict] = {}
            for name, col in group.items():
                if np.issubdtype(col.dtype, np.number) and len(col):
                    # a zone map is only sound when it bounds EVERY row:
                    # NaN/inf escape [min(finite), max(finite)], so groups
                    # holding any non-finite value publish no stats and
                    # are never pruned (see repro.db.sql.pruning)
                    as_float = col.astype(np.float64)
                    if np.isfinite(as_float).all():
                        zone_map[name] = [float(as_float.min()), float(as_float.max())]
                # equality-pruning bloom filter, kept in the group's own
                # header; saturated (high-cardinality) columns persist none
                bloom = BloomFilter.build(col)
                if bloom is not None:
                    blooms[name] = bloom.to_meta()
            parts, checksums = encode_gio(group, {"blooms": blooms})
            rg_path = self.path / f"rg{rg_index:05d}"
            with rg_path.open("wb") as fh:
                fh.writelines(parts)
                if group and faults.fire_ingest_kill(faults.INGEST_PARTIAL_ROW_GROUP):
                    # die mid-segment: the row-group file survives as a torn
                    # prefix, an orphan the commit never covers
                    fh.truncate(len(faults.get_injector().truncate(
                        faults.INGEST_PARTIAL_ROW_GROUP, b"".join(parts)
                    )))
                    raise IngestKilled("stage-row-group", f"torn segment rg{rg_index:05d}")
                fh.flush()
                os.fsync(fh.fileno())
            staged["row_groups"].append(min(stop, frame.num_rows) - start)
            staged["zone_maps"].append(zone_map)
            staged["checksums"].append(checksums)
        # the files' names are durable too, and a new generation's own
        for directory in (self.path, *(self.path.parents[:2] if new_dir else ())):
            fsync_dir(directory)
        return staged

    def discard_uncommitted(self) -> int:
        """Drop row-group files past this store's row groups: what a crash
        or a failed statement staged and never committed.  Returns the
        number of files removed."""
        dropped = 0
        for rg_path in self.path.glob("rg*"):
            try:
                index = int(rg_path.name[2:])
            except ValueError:
                continue
            if index >= self.num_row_groups:
                rg_path.unlink()
                dropped += 1
        return dropped

    # ------------------------------------------------------------------
    def read_row_group(
        self, index: int, columns: Sequence[str] | None = None, mmap: bool = True
    ) -> Frame:
        """Read one row group; columns not requested are never touched."""
        if not (0 <= index < self.num_row_groups):
            raise DBError(f"row group {index} out of range [0, {self.num_row_groups})")
        names = list(columns) if columns is not None else self.columns
        for n in names:
            self.dtype_of(n)  # validate with a helpful error
        try:
            arrays = map_gio(self.path / f"rg{index:05d}", names)
        except FileNotFoundError:
            raise DBError(
                f"row group {index} at {self.path} is gone: the table was dropped "
                f"or re-created after this snapshot was taken"
            ) from None
        except GIOFormatError as exc:
            raise DBError(f"row group {index} is corrupt: {exc}") from None
        if not mmap:
            arrays = {n: np.array(col) for n, col in arrays.items()}
        return Frame(arrays)

    def zone_map(self, index: int) -> dict[str, tuple[float, float]]:
        """Per-column (min, max) of one row group."""
        return {k: (v[0], v[1]) for k, v in self._meta["zone_maps"][index].items()}

    def blooms(self, index: int) -> dict[str, BloomFilter]:
        """Per-column bloom filters of one committed row group, parsed from its
        header once per path; none (uncached) if the file is gone or corrupt."""
        if not (0 <= index < self.num_row_groups):
            raise DBError(f"row group {index} out of range [0, {self.num_row_groups})")
        path = str(self.path / f"rg{index:05d}")
        cached = self._bloom_cache.get(path)
        if cached is None:
            try:
                docs = GIOFile(path).attrs.get("blooms", {})
            except (OSError, GIOFormatError):
                return {}
            parsed = {name: BloomFilter.from_meta(doc) for name, doc in docs.items()}
            cached = self._bloom_cache[path] = {n: b for n, b in parsed.items() if b is not None}
        return cached

    def scan(self, columns: Sequence[str] | None = None) -> Iterator[Frame]:
        """Stream the table one row group at a time."""
        for i in range(self.num_row_groups):
            yield self.read_row_group(i, columns)

    def read_all(self, columns: Sequence[str] | None = None) -> Frame:
        """Materialize the whole table (only for result-sized tables)."""
        from repro.frame import concat

        groups = list(self.scan(columns))
        if not groups:
            return Frame()
        return concat([Frame({n: np.asarray(g.column(n)) for n in g.columns}) for g in groups])

    def drop(self) -> None:
        """Remove this generation's segments, and the table directory once
        no generation is left in it."""
        if self.path.exists():
            shutil.rmtree(self.path)
        with suppress(OSError):
            self.path.parent.rmdir()
