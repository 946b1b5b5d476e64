"""Shared retrieval-artifact cache.

The column-description corpus is fixed per ensemble manifest and the
:class:`~repro.llm.embeddings.HashedEmbedder` is deterministic, so the
``VectorIndex`` embedding matrix is a pure function of (corpus text,
embedder geometry).  Re-embedding it for every query — as every
evaluation run used to do — is redundant work on the hottest end-to-end
path in the repo.

This module builds the matrix once per (corpus-content-hash, embedder
key), persists it as ``<key>.npy`` plus a JSON sidecar under a cache
directory, and serves it back memory-mapped so that concurrent harness
worker processes share one on-disk copy instead of each materializing
hundreds of column embeddings.  Three tiers:

1. in-process memo (dict, exact same object back);
2. on-disk ``.npy`` opened with ``mmap_mode='r'`` (validated against the
   sidecar's fingerprint and shape; matrices up to
   ``MATERIALIZE_MAX_BYTES`` are then copied into memory, because MMR's
   per-row indexed dot products are ~4x slower over a memmap);
3. cold build via ``embedder.embed_batch`` followed by a
   :func:`repro.durable.atomic_publish` of matrix then sidecar, so racing
   processes never observe a half-written artifact.

All tiers are counted in process-local :class:`CacheStats`; the
evaluation harness snapshots them around each run and merges the deltas
into its result, which is how the hit/miss counters in
``HarnessResult.perf`` are produced.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.durable import atomic_publish
from repro.llm.embeddings import HashedEmbedder
from repro.util.stats import MergeableCounters

SIDECAR_SUFFIX = ".json"
MATRIX_SUFFIX = ".npy"
QUERY_MEMO_MAX = 1024
# below this size a disk-loaded matrix is copied into memory: MMR does
# thousands of per-row indexed dot products per retrieval, which run
# ~4x slower over a memmap subclass than over a plain ndarray.  Large
# corpora stay memory-mapped so workers still share one on-disk copy.
MATERIALIZE_MAX_BYTES = 32 << 20


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
@dataclass
class CacheStats(MergeableCounters):
    """Process-local counters for every cache tier (mergeable)."""

    memory_hits: int = 0
    disk_hits: int = 0
    builds: int = 0                  # cold misses: full corpus re-embeds
    query_memo_hits: int = 0
    query_memo_misses: int = 0
    query_memo_evictions: int = 0

    @property
    def matrix_hits(self) -> int:
        return self.memory_hits + self.disk_hits

    @property
    def matrix_requests(self) -> int:
        return self.memory_hits + self.disk_hits + self.builds


GLOBAL_STATS = CacheStats()

# in-process matrix memo: key -> ndarray (tier 1)
_MATRIX_MEMO: dict[str, np.ndarray] = {}

# shared query-embedding memo: (embedder key, query text) -> vector.
# Bounded LRU shared by every VectorIndex in the process — the agents
# re-embed the same handful of prompts across retrieve calls, redo
# attempts, and harness runs, so one memo beats one per index instance.
_QUERY_MEMO: OrderedDict[tuple[str, str], np.ndarray] = OrderedDict()
_QUERY_MEMO_CAPACITY = QUERY_MEMO_MAX


def stats_snapshot() -> CacheStats:
    """Copy of the process-wide counters (subtract later with ``delta``)."""
    return GLOBAL_STATS.copy()


def clear_memory_cache() -> None:
    """Drop the in-process memos (tests use this to force disk reads)."""
    _MATRIX_MEMO.clear()
    _QUERY_MEMO.clear()


def query_memo_capacity() -> int:
    return _QUERY_MEMO_CAPACITY


def set_query_memo_capacity(entries: int) -> None:
    """Resize the shared query-embedding LRU (evicting down if needed)."""
    global _QUERY_MEMO_CAPACITY
    _QUERY_MEMO_CAPACITY = max(0, int(entries))
    while len(_QUERY_MEMO) > _QUERY_MEMO_CAPACITY:
        _QUERY_MEMO.popitem(last=False)
        GLOBAL_STATS.query_memo_evictions += 1


def query_memo_size() -> int:
    return len(_QUERY_MEMO)


def memoized_query_embedding(embedder: HashedEmbedder, query: str) -> np.ndarray:
    """Embed ``query``, served from the shared bounded LRU when possible."""
    key = (embedder.cache_key(), query)
    vec = _QUERY_MEMO.get(key)
    if vec is not None:
        GLOBAL_STATS.query_memo_hits += 1
        _QUERY_MEMO.move_to_end(key)
        return vec
    GLOBAL_STATS.query_memo_misses += 1
    vec = embedder.embed(query)
    _QUERY_MEMO[key] = vec
    while len(_QUERY_MEMO) > _QUERY_MEMO_CAPACITY:
        _QUERY_MEMO.popitem(last=False)
        GLOBAL_STATS.query_memo_evictions += 1
    return vec


# ----------------------------------------------------------------------
# keys
# ----------------------------------------------------------------------
def corpus_key(texts: list[str], embedder_key: str) -> str:
    """Content hash of the ordered corpus texts under one embedder geometry.

    Equivalent to hashing the manifest's metadata dictionaries (the corpus
    is built deterministically from them) but robust to any upstream
    change in document construction.
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(embedder_key.encode())
    for text in texts:
        h.update(b"\x00")
        h.update(text.encode())
    return h.hexdigest()


# ----------------------------------------------------------------------
# the cache
# ----------------------------------------------------------------------
class RetrievalArtifactCache:
    """Builds/loads the corpus embedding matrix once per content key.

    ``matrix_for`` returns a read-only array: either the in-process memo,
    a memory-mapped view of the persisted ``.npy`` (shared across worker
    processes), or a freshly built matrix that is then published for
    everyone else.
    """

    def __init__(self, cache_dir: str | Path):
        self.cache_dir = Path(cache_dir)

    # -- paths ---------------------------------------------------------
    def matrix_path(self, key: str) -> Path:
        return self.cache_dir / f"retrieval_{key}{MATRIX_SUFFIX}"

    def sidecar_path(self, key: str) -> Path:
        return self.cache_dir / f"retrieval_{key}{SIDECAR_SUFFIX}"

    # -- api -----------------------------------------------------------
    def matrix_for(self, texts: list[str], embedder: HashedEmbedder) -> np.ndarray:
        key = corpus_key(texts, embedder.cache_key())

        cached = _MATRIX_MEMO.get(key)
        if cached is not None:
            GLOBAL_STATS.memory_hits += 1
            return cached

        loaded = self._load(key, n_documents=len(texts), dim=embedder.dim)
        if loaded is not None:
            GLOBAL_STATS.disk_hits += 1
            _MATRIX_MEMO[key] = loaded
            return loaded

        GLOBAL_STATS.builds += 1
        matrix = embedder.embed_batch(texts)
        self._publish(key, matrix, embedder)
        _MATRIX_MEMO[key] = matrix
        return matrix

    # -- disk tier -----------------------------------------------------
    def _load(self, key: str, n_documents: int, dim: int) -> np.ndarray | None:
        matrix_path = self.matrix_path(key)
        sidecar_path = self.sidecar_path(key)
        if not (matrix_path.exists() and sidecar_path.exists()):
            return None
        try:
            meta = json.loads(sidecar_path.read_text())
            if meta.get("key") != key:
                return None
            matrix = np.load(matrix_path, mmap_mode="r")
        except (OSError, ValueError, json.JSONDecodeError):
            return None
        if matrix.shape != (n_documents, dim):
            return None
        if matrix.nbytes <= MATERIALIZE_MAX_BYTES:
            return np.ascontiguousarray(matrix)
        return matrix

    def _publish(self, key: str, matrix: np.ndarray, embedder: HashedEmbedder) -> None:
        """Matrix first, sidecar last: ``_load`` needs both, so a reader
        never pairs a new sidecar with a missing matrix."""
        sidecar = {
            "key": key,
            "embedder": embedder.cache_key(),
            "n_documents": int(matrix.shape[0]),
            "dim": int(matrix.shape[1]),
            "dtype": str(matrix.dtype),
        }
        try:
            atomic_publish(self.matrix_path(key), lambda fh: np.save(fh, matrix))
            atomic_publish(self.sidecar_path(key), json.dumps(sidecar, indent=1).encode())
        except OSError:
            # a read-only workdir degrades to in-process caching only
            pass
