"""Row-group columnar storage.

A table's rows live in its own directory::

    <db>/<table>/
      rg00000/<column>.npy      # one contiguous array per column per group

and its metadata (dtypes, row-group row counts, zone maps, blooms and
per-segment checksums) in the table's entry of the database's
``catalog.json`` (:mod:`repro.db.database`).  A :class:`TableStore` is
built from that entry and reads no metadata file: it sees exactly the row
groups the entry lists, whatever a concurrent writer has staged on disk.

Row groups bound executor memory: a scan yields one group at a time, so a
filter over a table of any size peaks at ``row_group_size`` rows — the
"on disk rather than in memory" property the paper gets from DuckDB.
``.npy`` is used as the segment container because NumPy memory-maps it for
free, giving zero-copy selective column reads.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import zlib
from collections.abc import Iterator, Sequence
from pathlib import Path

import numpy as np

from repro import faults
from repro.db.bloom import BloomFilter
from repro.db.errors import DBError, IngestKilled, UnknownColumnError
from repro.frame import Frame

DEFAULT_ROW_GROUP_SIZE = 65536
# the table metadata every catalog entry carries; all but ``columns`` are
# per-row-group lists, one entry per group
TABLE_META_KEYS = ("columns", "row_groups", "zone_maps", "blooms", "checksums")


def empty_table_meta() -> dict:
    """The metadata of a table that has no columns and no rows yet."""
    return {"columns": {}, "row_groups": [], "zone_maps": [], "blooms": [], "checksums": []}


class TableStore:
    """On-disk storage of one table, as one catalog entry describes it.

    ``meta`` is never mutated: a write stages a new metadata doc
    (:meth:`stage_append`) and the database commits it as a new catalog
    entry.  Committed segment directories are immutable (appends only ever
    add higher-numbered groups), so a store built from an older entry keeps
    reading exactly that entry's rows.  A store is shared by every
    statement and morsel thread reading through the same catalog snapshot;
    its only mutable state is the bloom cache, whose racing fills build
    equal filters.
    """

    def __init__(self, path: Path, meta: dict):
        self.path = Path(path)
        self._meta = meta
        self._bloom_cache: dict[int, dict[str, BloomFilter]] = {}

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
        """Content hash over schema + per-segment checksums.

        The query-result cache keys cached frames on this signature, which
        makes results shareable across databases (and across harness
        worker processes) that hold byte-identical tables.
        """
        doc = json.dumps(
            [self._meta["columns"], self._meta["row_groups"], self._meta["checksums"]],
            sort_keys=True,
        )
        return hashlib.blake2b(doc.encode(), digest_size=16).hexdigest()

    def dtype_of(self, name: str) -> np.dtype:
        try:
            return np.dtype(self._meta["columns"][name])
        except KeyError:
            raise UnknownColumnError(name, self.columns) from None

    def nbytes(self) -> int:
        """Bytes on disk across all segments (storage-overhead metric)."""
        return sum(f.stat().st_size for f in self.path.rglob("*.npy"))

    # ------------------------------------------------------------------
    def stage_append(
        self, frame: Frame, row_group_size: int = DEFAULT_ROW_GROUP_SIZE
    ) -> dict:
        """Write the frame's rows as new row-group segments; return the
        table metadata with them added, *without committing it*.

        Until the database publishes the returned doc in ``catalog.json``
        the staged groups are invisible: every store reads only the groups
        its catalog entry lists.  A crash mid-stage leaves only orphan
        segment directories, which recovery discards or overwrites.  The
        caller has already checked the frame's columns against the table's.
        """
        columns = self._meta["columns"] or {
            n: np.asarray(frame.column(n)).dtype.str for n in frame.columns
        }
        # per-row-group docs are never mutated once appended, so the staged
        # doc shares them with ``self._meta`` and copies only the lists this
        # append grows
        staged = {"columns": columns}
        staged.update((key, list(self._meta[key])) for key in TABLE_META_KEYS[1:])
        self.path.mkdir(parents=True, exist_ok=True)
        for start in range(0, frame.num_rows, row_group_size):
            chunk = frame[start : start + row_group_size]
            rg_index = len(staged["row_groups"])
            rg_dir = self.path / f"rg{rg_index:05d}"
            rg_dir.mkdir(parents=True, exist_ok=True)
            zone_map: dict[str, list[float]] = {}
            blooms: dict[str, dict] = {}
            checksums: dict[str, int] = {}
            last_path: Path | None = None
            for name in columns:
                col = np.asarray(chunk.column(name))
                if col.dtype == object:
                    col = col.astype(str)
                elif np.issubdtype(col.dtype, np.number) and len(col):
                    # a zone map is only sound when it bounds EVERY row:
                    # NaN/inf escape [min(finite), max(finite)], so groups
                    # holding any non-finite value publish no stats and
                    # are never pruned (see repro.db.sql.pruning)
                    as_float = col.astype(np.float64)
                    if np.isfinite(as_float).all():
                        zone_map[name] = [float(as_float.min()), float(as_float.max())]
                # equality-pruning bloom filter over the group's distinct
                # values; saturated (high-cardinality) columns persist none
                bloom = BloomFilter.build(col)
                if bloom is not None:
                    blooms[name] = bloom.to_meta()
                checksums[name] = zlib.crc32(np.ascontiguousarray(col).tobytes())
                last_path = rg_dir / f"{name}.npy"
                np.save(last_path, col, allow_pickle=False)
            if last_path is not None and faults.fire_ingest_kill(
                faults.INGEST_PARTIAL_ROW_GROUP
            ):
                # die mid-segment: the last column file survives as a torn
                # prefix, an orphan the commit never covers
                injector = faults.get_injector()
                data = last_path.read_bytes()
                last_path.write_bytes(
                    injector.truncate(faults.INGEST_PARTIAL_ROW_GROUP, data)
                )
                raise IngestKilled(
                    "stage-row-group", f"torn segment {last_path.name} in rg{rg_index:05d}"
                )
            staged["row_groups"].append(chunk.num_rows)
            staged["zone_maps"].append(zone_map)
            staged["blooms"].append(blooms)
            staged["checksums"].append(checksums)
        return staged

    def discard_uncommitted(self) -> int:
        """Drop segment directories past this store's row groups: what a
        crash or a failed statement staged and never committed.  Returns
        the number of directories removed."""
        dropped = 0
        for rg_dir in self.path.glob("rg*"):
            try:
                index = int(rg_dir.name[2:])
            except ValueError:
                continue
            if index >= self.num_row_groups and rg_dir.is_dir():
                shutil.rmtree(rg_dir)
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
        rg_dir = self.path / f"rg{index:05d}"
        mode = "r" if mmap else None
        return Frame(
            {n: np.load(rg_dir / f"{n}.npy", mmap_mode=mode, allow_pickle=False) for n in names}
        )

    def zone_map(self, index: int) -> dict[str, tuple[float, float]]:
        """Per-column (min, max) of one row group."""
        return {k: (v[0], v[1]) for k, v in self._meta["zone_maps"][index].items()}

    def blooms(self, index: int) -> dict[str, BloomFilter]:
        """Per-column equality bloom filters of one row group.

        Empty for columns whose cardinality saturated the bitset at
        append time.
        """
        cached = self._bloom_cache.get(index)
        if cached is None:
            cached = {}
            for name, doc in self._meta["blooms"][index].items():
                bloom = BloomFilter.from_meta(doc)
                if bloom is not None:
                    cached[name] = bloom
            self._bloom_cache[index] = cached
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
        if self.path.exists():
            shutil.rmtree(self.path)
