"""Shared retrieval-artifact cache.

The column-description corpus is fixed per ensemble manifest and the
:class:`~repro.llm.embeddings.HashedEmbedder` is deterministic, so the
``VectorIndex`` embedding matrix is a pure function of (corpus text,
embedder geometry).  Re-embedding it for every query — as every
evaluation run used to do — is redundant work on the hottest end-to-end
path in the repo.

This module builds the matrix once per (corpus-content-hash, embedder
key) and keeps it in a :class:`repro.gio.store.TieredStore`, the result
cache's store too: a bounded memo (the same object back) over one
``retrieval_<key>.gio`` file (the flattened matrix is its one column;
key, embedder and shape are header ``attrs``), so concurrent worker
processes share one on-disk copy.  A file that fails its CRC or whose
shape is not the corpus's is quarantined and rebuilt.  Matrices up to
``MATERIALIZE_MAX_BYTES`` come back from disk as plain ndarrays.

Every tier outcome increments one ``rag.cache.*`` / ``rag.memo.*``
counter of the :mod:`repro.obs.metrics` registry (names declared in
:mod:`repro.obs.names`); :class:`CacheStats` is a typed read of them, so a
harness run's ``metrics.json``, ``HarnessResult.perf.cache`` and
``/stats`` all report the same counts.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.gio.store import LRU, TieredStore
from repro.llm.embeddings import HashedEmbedder
from repro.obs import names as obs_names
from repro.obs.metrics import CounterView, counter_field, get_registry

MATRIX_COLUMN = "matrix"
QUERY_MEMO_MAX = 1024
MATRIX_MEMO_MAX = 16
# below this size a disk-loaded matrix is copied into memory: MMR does
# thousands of per-row indexed dot products per retrieval, which run
# ~4x slower over a memmap subclass than over a plain ndarray.  Large
# corpora stay memory-mapped so workers still share one on-disk copy.
MATERIALIZE_MAX_BYTES = 32 << 20


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
@dataclass
class CacheStats(CounterView):
    """Every retrieval-cache tier's registry counter, read as ints."""

    memory_hits: int = counter_field(obs_names.RAG_CACHE_HIT_MEMORY)
    disk_hits: int = counter_field(obs_names.RAG_CACHE_HIT_DISK)
    # cold misses: full corpus re-embeds
    builds: int = counter_field(obs_names.RAG_CACHE_BUILD)
    query_memo_hits: int = counter_field(obs_names.RAG_MEMO_HIT)
    query_memo_misses: int = counter_field(obs_names.RAG_MEMO_MISS)
    query_memo_evictions: int = counter_field(obs_names.RAG_MEMO_EVICTION)

    @property
    def matrix_hits(self) -> int:
        return self.memory_hits + self.disk_hits

    @property
    def matrix_requests(self) -> int:
        return self.memory_hits + self.disk_hits + self.builds


# the counter each matrix tier increments
_HIT_COUNTERS = {
    "memory": obs_names.RAG_CACHE_HIT_MEMORY,
    "disk": obs_names.RAG_CACHE_HIT_DISK,
}

# the store's memory tier: corpus key -> matrix
_MATRIX_MEMO: LRU[str, np.ndarray] = LRU(MATRIX_MEMO_MAX)

# shared query-embedding memo: (embedder key, query text) -> vector.
# Shared by every VectorIndex in the process — the agents re-embed the
# same handful of prompts across retrieve calls, redo attempts, and
# harness runs, so one memo beats one per index instance.
_QUERY_MEMO: LRU[tuple[str, str], np.ndarray] = LRU(
    QUERY_MEMO_MAX,
    evicted=lambda n: get_registry().counter(obs_names.RAG_MEMO_EVICTION).inc(n),
)


def stats_snapshot() -> CacheStats:
    """The process-wide counters now (subtract later with ``delta``)."""
    return CacheStats.read()


def clear_memory_cache() -> None:
    """Drop the in-process memos (tests use this to force disk reads)."""
    _MATRIX_MEMO.clear()
    _QUERY_MEMO.clear()


def query_memo_capacity() -> int:
    return _QUERY_MEMO.capacity


def set_query_memo_capacity(entries: int) -> None:
    """Resize the shared query-embedding LRU (evicting down if needed)."""
    _QUERY_MEMO.resize(entries)


def memoized_query_embedding(embedder: HashedEmbedder, query: str) -> np.ndarray:
    """Embed ``query``, served from the shared bounded LRU when possible."""
    key = (embedder.cache_key(), query)
    vec = _QUERY_MEMO.get(key)
    if vec is not None:
        get_registry().counter(obs_names.RAG_MEMO_HIT).inc()
        return vec
    get_registry().counter(obs_names.RAG_MEMO_MISS).inc()
    # two threads missing on one key both embed it, and the second put
    # replaces an equal vector
    vec = embedder.embed(query)
    _QUERY_MEMO.put(key, vec)
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
def _decode_matrix(attrs: dict, columns: dict[str, np.ndarray]) -> np.ndarray | None:
    """The matrix of a verified entry whose header carries the corpus's
    shape (``matrix_for`` expects it), or None if the column disagrees."""
    flat = columns.get(MATRIX_COLUMN)
    shape = (attrs["n_documents"], attrs["dim"])
    if flat is None or len(flat) != shape[0] * shape[1]:
        return None
    matrix = flat.reshape(shape)
    if matrix.nbytes <= MATERIALIZE_MAX_BYTES:
        return np.ascontiguousarray(matrix)
    return matrix


class RetrievalArtifactCache:
    """Builds/loads the corpus embedding matrix once per content key.

    ``matrix_for`` returns a read-only array: either the in-process memo,
    a memory-mapped view of the persisted file (shared across worker
    processes), or a freshly built matrix that is then published for
    everyone else.
    """

    def __init__(self, cache_dir: str | Path):
        self.store = TieredStore(cache_dir, "retrieval_", _MATRIX_MEMO, decode=_decode_matrix)

    def matrix_for(self, texts: list[str], embedder: HashedEmbedder) -> np.ndarray:
        key = corpus_key(texts, embedder.cache_key())
        hit = self.store.get(key, expect={"n_documents": len(texts), "dim": embedder.dim})
        if hit is not None:
            tier, matrix = hit
            get_registry().counter(_HIT_COUNTERS[tier]).inc()
            return matrix

        get_registry().counter(obs_names.RAG_CACHE_BUILD).inc()
        matrix = embedder.embed_batch(texts)
        attrs = {"embedder": embedder.cache_key(), "n_documents": len(texts), "dim": embedder.dim}
        self.store.put(key, matrix, {MATRIX_COLUMN: np.ravel(matrix)}, attrs)
        return matrix
