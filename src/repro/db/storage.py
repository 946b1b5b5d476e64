"""Row-group columnar storage.

A table lives in its own directory::

    <db>/<table>/
      meta.json                 # columns, dtypes, row-group row counts
      rg00000/<column>.npy      # one contiguous array per column per group

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
from repro.durable import atomic_publish
from repro.frame import Frame

DEFAULT_ROW_GROUP_SIZE = 65536
# the per-row-group lists every ``meta.json`` carries, one entry per group
_ROW_GROUP_LISTS = ("row_groups", "zone_maps", "blooms", "checksums")


class TableStore:
    """On-disk storage of one table.

    ``clamp_row_groups`` bounds the *visible* row-group prefix: a snapshot
    reader constructed with the catalog's ``committed_row_groups`` sees
    exactly the committed prefix — scans, zone maps, blooms, row counts
    and the content signature all stop there — even while a concurrent
    writer stages further groups on disk.  Committed segment directories
    are immutable (appends only ever add higher-numbered groups), which is
    what makes a clamped prefix a consistent snapshot rather than a racy
    window.  ``None`` (the default, and the writer's view) clamps nothing.
    """

    def __init__(self, path: Path, clamp_row_groups: int | None = None):
        self.path = Path(path)
        self._meta: dict = {"columns": {}, "row_groups": []}
        self._bloom_cache: dict[int, dict[str, BloomFilter]] = {}
        self._clamp = clamp_row_groups
        meta_path = self.path / "meta.json"
        if meta_path.exists():
            try:
                self._meta = json.loads(meta_path.read_text())
            except (OSError, json.JSONDecodeError) as exc:
                raise DBError(
                    f"corrupt table metadata at {meta_path}: {exc}"
                ) from exc
            missing = [key for key in _ROW_GROUP_LISTS if key not in self._meta]
            if missing:
                raise DBError(
                    f"table {self.path.name!r} at {self.path} is in a format this "
                    f"version no longer reads (meta.json has no {', '.join(missing)}); "
                    f"regenerate the workdir"
                )

    # ------------------------------------------------------------------
    @property
    def columns(self) -> list[str]:
        return list(self._meta["columns"])

    @property
    def num_rows(self) -> int:
        return int(sum(self._meta["row_groups"][: self.num_row_groups]))

    @property
    def num_row_groups(self) -> int:
        n = len(self._meta["row_groups"])
        if self._clamp is not None:
            n = min(n, self._clamp)
        return n

    @property
    def version(self) -> int:
        """Monotonic content version; bumped on every append."""
        return int(self._meta.get("version", 0))

    def content_signature(self) -> str:
        """Content hash over schema + per-segment checksums.

        The query-result cache keys cached frames on this signature, which
        makes results shareable across databases (and across harness
        worker processes) that hold byte-identical tables.

        Computed over the *visible* (clamped) prefix, so a snapshot's
        signature never changes while a writer stages new groups.
        """
        n = self.num_row_groups
        doc = json.dumps(
            [
                self._meta["columns"],
                self._meta["row_groups"][:n],
                self._meta.get("checksums", [])[:n],
            ],
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
    def append(self, frame: Frame, row_group_size: int = DEFAULT_ROW_GROUP_SIZE) -> None:
        """Append a frame, splitting into row groups.

        Stage + publish in one step — the standalone path for callers
        without a catalog.  :class:`repro.db.database.Database` instead
        drives :meth:`stage_append` / :meth:`publish_staged` separately so
        its WAL commit protocol controls exactly when the new groups
        become durable metadata.
        """
        staged = self.stage_append(frame, row_group_size)
        if staged is not None:
            self.publish_staged(staged)

    def stage_append(
        self, frame: Frame, row_group_size: int = DEFAULT_ROW_GROUP_SIZE
    ) -> dict | None:
        """Write the new row-group segments; return the updated metadata
        doc *without publishing it*.

        Until :meth:`publish_staged` (and, above it, the catalog commit)
        runs, the staged groups are invisible: readers clamp to the
        catalog's committed prefix and the on-disk ``meta.json`` is
        untouched.  A crash mid-stage leaves only orphan segment
        directories, which recovery discards or overwrites.
        """
        if frame.num_columns == 0:
            return None
        # per-row-group docs are never mutated once appended, so the staged
        # doc shares them with ``self._meta`` and copies only the containers
        # this append grows
        staged = dict(self._meta)
        for key in _ROW_GROUP_LISTS:
            staged[key] = list(staged.get(key, ()))
        if not staged["columns"]:
            staged["columns"] = {
                n: np.asarray(frame.column(n)).dtype.str for n in frame.columns
            }
        else:
            expected = set(staged["columns"])
            got = set(frame.columns)
            if expected != got:
                raise DBError(
                    f"append schema mismatch: table has {sorted(expected)}, "
                    f"frame has {sorted(got)}"
                )
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
            for name in staged["columns"]:
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

    def publish_staged(self, staged: dict) -> None:
        """Atomically publish a staged metadata doc with a version bump."""
        staged["version"] = self.version + 1
        self._meta = staged
        self._bloom_cache.clear()
        self._flush_meta()

    def discard_uncommitted(self, committed_groups: int) -> int:
        """Drop row groups beyond the catalog's committed prefix.

        Used by WAL recovery when a crash left ``meta.json`` (or orphan
        segment directories) running ahead of the catalog commit point.
        Returns the number of orphan segment directories removed.
        """
        raw_groups = self._meta.get("row_groups", [])
        if committed_groups < len(raw_groups):
            for key in _ROW_GROUP_LISTS:
                del self._meta[key][committed_groups:]
            self._bloom_cache.clear()
            self._flush_meta()
        dropped = 0
        for rg_dir in self.path.glob("rg*"):
            try:
                index = int(rg_dir.name[2:])
            except ValueError:
                continue
            if index >= committed_groups and rg_dir.is_dir():
                shutil.rmtree(rg_dir)
                dropped += 1
        return dropped

    def _flush_meta(self) -> None:
        """Verified publish: a process dying mid-write must never leave a
        truncated meta.json behind — that would corrupt the whole table,
        not just the append (or the version bump) in flight, and fresh
        ``TableStore`` objects re-read it on every statement."""
        atomic_publish(
            self.path / "meta.json",
            json.dumps(self._meta).encode("utf-8"),
            verify=True,
            fault_point=faults.STORAGE_TORN_WRITE,
            what=f"meta.json of {self.path.name!r}",
            error=DBError,
        )

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
