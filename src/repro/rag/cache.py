"""Shared retrieval-artifact cache.

The column-description corpus is fixed per ensemble manifest and the
:class:`~repro.llm.embeddings.HashedEmbedder` is deterministic, so the
``VectorIndex`` embedding matrix is a pure function of (corpus text,
embedder geometry).  Re-embedding it for every query — as every
evaluation run used to do — is redundant work on the hottest end-to-end
path in the repo.

This module builds the matrix once per (corpus-content-hash, embedder
key), persists it under a cache directory as one :mod:`repro.gio` file
(``retrieval_<key>.gio``: the flattened matrix is its one column; key,
embedder and shape are header ``attrs``), and serves it back
memory-mapped so that concurrent harness worker processes share one
on-disk copy instead of each materializing hundreds of column embeddings.
Three tiers:

1. in-process memo (dict, exact same object back);
2. the on-disk file, mapped and CRC-checked
   (:func:`repro.gio.format.read_gio_verified`), then validated against
   its header's key and shape; matrices up to ``MATERIALIZE_MAX_BYTES``
   are then returned as plain ndarrays, because MMR's per-row indexed
   dot products are ~4x slower over a memmap subclass;
3. cold build via ``embedder.embed_batch`` followed by one
   :func:`repro.durable.atomic_publish` of the file, so racing processes
   never observe a half-written artifact.

Every tier outcome increments one ``rag.cache.*`` / ``rag.memo.*``
counter of the :mod:`repro.obs.metrics` registry (names declared in
:mod:`repro.obs.names`); :class:`CacheStats` is a typed read of them, so a
harness run's ``metrics.json``, ``HarnessResult.perf.cache`` and
``/stats`` all report the same counts.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.durable import atomic_publish
from repro.gio.format import GIOFormatError, encode_gio, read_gio_verified
from repro.llm.embeddings import HashedEmbedder
from repro.obs import names as obs_names
from repro.obs.metrics import CounterView, counter_field, get_registry

MATRIX_COLUMN = "matrix"
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


# in-process matrix memo: key -> ndarray (tier 1)
_MATRIX_MEMO: dict[str, np.ndarray] = {}

# shared query-embedding memo: (embedder key, query text) -> vector.
# Bounded LRU shared by every VectorIndex in the process — the agents
# re-embed the same handful of prompts across retrieve calls, redo
# attempts, and harness runs, so one memo beats one per index instance.
_QUERY_MEMO: OrderedDict[tuple[str, str], np.ndarray] = OrderedDict()
_QUERY_MEMO_CAPACITY = QUERY_MEMO_MAX
# every lookup, reorder, insert and eviction of the memo holds this: a
# concurrent eviction between a hit's get and its reorder raised KeyError
_QUERY_MEMO_LOCK = threading.Lock()


def stats_snapshot() -> CacheStats:
    """The process-wide counters now (subtract later with ``delta``)."""
    return CacheStats.read()


def clear_memory_cache() -> None:
    """Drop the in-process memos (tests use this to force disk reads)."""
    _MATRIX_MEMO.clear()
    with _QUERY_MEMO_LOCK:
        _QUERY_MEMO.clear()


def query_memo_capacity() -> int:
    return _QUERY_MEMO_CAPACITY


def set_query_memo_capacity(entries: int) -> None:
    """Resize the shared query-embedding LRU (evicting down if needed)."""
    global _QUERY_MEMO_CAPACITY
    with _QUERY_MEMO_LOCK:
        _QUERY_MEMO_CAPACITY = max(0, int(entries))
        _evict_query_memo()


def query_memo_size() -> int:
    return len(_QUERY_MEMO)


def _evict_query_memo() -> None:
    """Drop least-recently-used entries down to capacity (lock held)."""
    while len(_QUERY_MEMO) > _QUERY_MEMO_CAPACITY:
        _QUERY_MEMO.popitem(last=False)
        get_registry().counter(obs_names.RAG_MEMO_EVICTION).inc()


def memoized_query_embedding(embedder: HashedEmbedder, query: str) -> np.ndarray:
    """Embed ``query``, served from the shared bounded LRU when possible."""
    key = (embedder.cache_key(), query)
    with _QUERY_MEMO_LOCK:
        vec = _QUERY_MEMO.get(key)
        if vec is not None:
            _QUERY_MEMO.move_to_end(key)
    if vec is not None:
        get_registry().counter(obs_names.RAG_MEMO_HIT).inc()
        return vec
    get_registry().counter(obs_names.RAG_MEMO_MISS).inc()
    # outside the lock: two threads missing on one key both embed it, and
    # the second insert replaces an equal vector
    vec = embedder.embed(query)
    with _QUERY_MEMO_LOCK:
        _QUERY_MEMO[key] = vec
        _evict_query_memo()
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
    a memory-mapped view of the persisted file (shared across worker
    processes), or a freshly built matrix that is then published for
    everyone else.
    """

    def __init__(self, cache_dir: str | Path):
        self.cache_dir = Path(cache_dir)

    # -- paths ---------------------------------------------------------
    def matrix_path(self, key: str) -> Path:
        return self.cache_dir / f"retrieval_{key}.gio"

    # -- api -----------------------------------------------------------
    def matrix_for(self, texts: list[str], embedder: HashedEmbedder) -> np.ndarray:
        key = corpus_key(texts, embedder.cache_key())

        cached = _MATRIX_MEMO.get(key)
        if cached is not None:
            get_registry().counter(obs_names.RAG_CACHE_HIT_MEMORY).inc()
            return cached

        loaded = self._load(key, n_documents=len(texts), dim=embedder.dim)
        if loaded is not None:
            get_registry().counter(obs_names.RAG_CACHE_HIT_DISK).inc()
            _MATRIX_MEMO[key] = loaded
            return loaded

        get_registry().counter(obs_names.RAG_CACHE_BUILD).inc()
        matrix = embedder.embed_batch(texts)
        self._publish(key, matrix, embedder)
        _MATRIX_MEMO[key] = matrix
        return matrix

    # -- disk tier -----------------------------------------------------
    def _load(self, key: str, n_documents: int, dim: int) -> np.ndarray | None:
        try:
            attrs, columns = read_gio_verified(self.matrix_path(key))
        except (OSError, GIOFormatError):
            return None
        flat = columns.get(MATRIX_COLUMN)
        if attrs.get("key") != key or flat is None or len(flat) != n_documents * dim:
            return None
        matrix = flat.reshape(n_documents, dim)
        if matrix.nbytes <= MATERIALIZE_MAX_BYTES:
            return np.ascontiguousarray(matrix)
        return matrix

    def _publish(self, key: str, matrix: np.ndarray, embedder: HashedEmbedder) -> None:
        attrs = {
            "key": key,
            "embedder": embedder.cache_key(),
            "n_documents": int(matrix.shape[0]),
            "dim": int(matrix.shape[1]),
        }
        parts, _ = encode_gio({MATRIX_COLUMN: np.ravel(matrix)}, attrs)
        try:
            atomic_publish(self.matrix_path(key), lambda fh: fh.writelines(parts))
        except OSError:
            # a read-only workdir degrades to in-process caching only
            pass
