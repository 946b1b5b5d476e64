"""RAG layer: chunking, MMR, multi-prompt retrieval, artifact cache."""

import numpy as np
import pytest

from repro.gio import GIOFile, write_gio
from repro.llm import HashedEmbedder
from repro.rag import (
    ColumnRetriever,
    RetrievalArtifactCache,
    VectorIndex,
    build_documents,
    chunk_text,
    corpus_key,
    mmr_select,
)
from repro.rag.cache import clear_memory_cache, stats_snapshot
from repro.rag.documents import MAX_DOC_TOKENS
from repro.sim.schema import (
    COLUMN_DESCRIPTIONS,
    FILE_STRUCTURE_DESCRIPTIONS,
    IMPORTANT_COLUMNS,
)


class TestFineGrainedChunking:
    def test_one_doc_per_column(self):
        docs = build_documents(COLUMN_DESCRIPTIONS)
        expected = sum(len(cols) for cols in COLUMN_DESCRIPTIONS.values())
        assert len(docs) == expected

    def test_token_limit_respected(self):
        docs = build_documents(COLUMN_DESCRIPTIONS, FILE_STRUCTURE_DESCRIPTIONS)
        assert all(d.token_count() <= MAX_DOC_TOKENS for d in docs)

    def test_doc_ids_unique(self):
        docs = build_documents(COLUMN_DESCRIPTIONS)
        assert len({d.doc_id for d in docs}) == len(docs)

    def test_important_flag(self):
        docs = build_documents(COLUMN_DESCRIPTIONS, important=IMPORTANT_COLUMNS)
        flagged = {d.column for d in docs if d.important}
        assert flagged == IMPORTANT_COLUMNS

    def test_structure_docs_included(self):
        docs = build_documents(COLUMN_DESCRIPTIONS, FILE_STRUCTURE_DESCRIPTIONS)
        assert any(d.entity == "structure" for d in docs)

    def test_long_description_truncated(self):
        long = {"e": {"col": "word " * 500}}
        docs = build_documents(long)
        assert docs[0].token_count() <= MAX_DOC_TOKENS


class TestSizeBasedChunking:
    def test_chunks_merge_columns(self):
        """The failure mode the paper avoids: unrelated columns share chunks."""
        docs = chunk_text(COLUMN_DESCRIPTIONS, chunk_tokens=80)
        merged = [d for d in docs if ";" in d.column]
        assert merged  # at least one chunk spans several columns

    def test_chunks_respect_token_budget(self):
        docs = chunk_text(COLUMN_DESCRIPTIONS, chunk_tokens=60)
        from repro.util.tokens import count_tokens

        assert all(count_tokens(d.text) <= 75 for d in docs)  # small slack for word boundaries

    def test_fewer_chunks_than_columns(self):
        fine = build_documents(COLUMN_DESCRIPTIONS)
        coarse = chunk_text(COLUMN_DESCRIPTIONS, chunk_tokens=160)
        assert len(coarse) < len(fine)


class TestMMR:
    def test_k_results(self):
        sims = np.asarray([0.9, 0.8, 0.7, 0.1])
        matrix = np.eye(4)
        assert len(mmr_select(sims, matrix, 2)) == 2

    def test_pure_relevance_at_lambda_one(self):
        sims = np.asarray([0.1, 0.9, 0.5])
        matrix = np.eye(3)
        assert mmr_select(sims, matrix, 2, lambda_mult=1.0) == [1, 2]

    def test_redundancy_penalized(self):
        # doc 1 duplicates doc 0; doc 2 is distinct with lower relevance
        matrix = np.asarray([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        sims = np.asarray([0.9, 0.89, 0.5])
        chosen = mmr_select(sims, matrix, 2, lambda_mult=0.5)
        assert chosen == [0, 2]  # skips the near-duplicate

    def test_empty(self):
        assert mmr_select(np.zeros(0), np.zeros((0, 3)), 5) == []

    def test_k_larger_than_n(self):
        sims = np.asarray([0.5, 0.4])
        assert len(mmr_select(sims, np.eye(2), 10)) == 2

    def test_bad_lambda_rejected(self):
        with pytest.raises(ValueError):
            mmr_select(np.asarray([0.5]), np.eye(1), 1, lambda_mult=2.0)


class TestVectorIndex:
    def test_search_ranks_relevant_first(self):
        docs = build_documents(COLUMN_DESCRIPTIONS)
        index = VectorIndex(docs)
        hits = index.search("gas mass enclosed in spherical overdensity", k=5)
        names = [d.column for d, _ in hits]
        assert "sod_halo_MGas500c" in names

    def test_empty_index(self):
        index = VectorIndex([])
        assert index.similarities("x").shape == (0,)


class TestRetrievalArtifactCache:
    def _fresh(self, tmp_path):
        clear_memory_cache()
        return RetrievalArtifactCache(tmp_path / "cache")

    def test_cold_build_persists_one_file(self, tmp_path):
        cache = self._fresh(tmp_path)
        embedder = HashedEmbedder(64)
        texts = ["halo mass", "galaxy stellar mass", "velocity dispersion"]
        before = stats_snapshot()
        matrix = cache.matrix_for(texts, embedder)
        delta = stats_snapshot().delta(before)
        assert delta.builds == 1 and delta.matrix_hits == 0
        key = corpus_key(texts, embedder.cache_key())
        assert [p.name for p in (tmp_path / "cache").iterdir()] == [cache.store.path(key).name]
        assert GIOFile(cache.store.path(key)).attrs == {
            "key": key, "embedder": embedder.cache_key(), "n_documents": 3, "dim": 64,
        }
        assert matrix.shape == (3, 64)

    def test_memory_hit_returns_same_object(self, tmp_path):
        cache = self._fresh(tmp_path)
        embedder = HashedEmbedder(64)
        texts = ["a b c", "d e f"]
        first = cache.matrix_for(texts, embedder)
        before = stats_snapshot()
        second = cache.matrix_for(texts, embedder)
        delta = stats_snapshot().delta(before)
        assert second is first
        assert delta.memory_hits == 1 and delta.builds == 0

    def test_disk_hit_materialized_and_identical(self, tmp_path):
        """Small matrices are copied into memory on disk load (MMR's
        per-row dot products are ~4x slower over a memmap subclass)."""
        embedder = HashedEmbedder(64)
        texts = ["halo mass", "galaxy stellar mass"]
        cache = self._fresh(tmp_path)
        built = np.asarray(cache.matrix_for(texts, embedder))
        clear_memory_cache()  # simulate a fresh worker process
        before = stats_snapshot()
        loaded = cache.matrix_for(texts, embedder)
        delta = stats_snapshot().delta(before)
        assert delta.disk_hits == 1 and delta.builds == 0
        assert isinstance(loaded, np.ndarray) and not isinstance(loaded, np.memmap)
        np.testing.assert_array_equal(np.asarray(loaded), built)

    def test_disk_hit_above_threshold_stays_mmapped(self, tmp_path, monkeypatch):
        from repro.rag import cache as rag_cache_module

        monkeypatch.setattr(rag_cache_module, "MATERIALIZE_MAX_BYTES", 0)
        embedder = HashedEmbedder(64)
        texts = ["halo mass", "galaxy stellar mass"]
        cache = self._fresh(tmp_path)
        built = np.asarray(cache.matrix_for(texts, embedder))
        clear_memory_cache()
        loaded = cache.matrix_for(texts, embedder)
        assert isinstance(loaded, np.memmap)
        np.testing.assert_array_equal(np.asarray(loaded), built)

    def test_key_depends_on_corpus_and_embedder(self):
        k = corpus_key(["a", "b"], "hashed-ngram-v1:dim=64")
        assert k == corpus_key(["a", "b"], "hashed-ngram-v1:dim=64")
        assert k != corpus_key(["a", "c"], "hashed-ngram-v1:dim=64")
        assert k != corpus_key(["a", "b"], "hashed-ngram-v1:dim=128")
        # concatenation boundaries matter
        assert corpus_key(["ab", "c"], "e") != corpus_key(["a", "bc"], "e")

    def test_stale_artifact_rebuilt_on_shape_mismatch(self, tmp_path):
        cache = self._fresh(tmp_path)
        embedder = HashedEmbedder(64)
        texts = ["one", "two"]
        cache.matrix_for(texts, embedder)
        key = corpus_key(texts, embedder.cache_key())
        # a well-formed file under the right key holding a 5x5 matrix
        write_gio(cache.store.path(key), {"matrix": np.zeros(25)},
                  {"key": key, "n_documents": 5, "dim": 5})
        clear_memory_cache()
        before = stats_snapshot()
        matrix = cache.matrix_for(texts, embedder)
        delta = stats_snapshot().delta(before)
        assert delta.builds == 1
        assert matrix.shape == (2, 64)
        # the stale file was moved aside and a good one published
        assert [p.name for p in cache.store.quarantined()] == [cache.store.path(key).name]
        clear_memory_cache()
        before = stats_snapshot()
        np.testing.assert_array_equal(cache.matrix_for(texts, embedder), matrix)
        assert stats_snapshot().delta(before).disk_hits == 1

    def test_corrupt_matrix_quarantined_and_rebuilt(self, tmp_path):
        """A byte flipped mid-file fails the matrix column's CRC: the file
        moves to ``.quarantine/`` and the rebuilt matrix is the same."""
        cache = self._fresh(tmp_path)
        embedder = HashedEmbedder(64)
        texts = ["halo mass", "galaxy stellar mass", "velocity dispersion"]
        built = np.array(cache.matrix_for(texts, embedder))
        path = cache.store.path(corpus_key(texts, embedder.cache_key()))
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        clear_memory_cache()
        before = stats_snapshot()
        np.testing.assert_array_equal(cache.matrix_for(texts, embedder), built)
        delta = stats_snapshot().delta(before)
        assert (delta.disk_hits, delta.builds) == (0, 1)
        assert [p.name for p in cache.store.quarantined()] == [path.name]
        assert path.read_bytes() != bytes(raw)

    def test_cold_vs_warm_retriever_results_identical(self, tmp_path):
        """The parity the harness relies on: a retriever built from the
        warm (mmapped) cache retrieves exactly what a cold one does."""
        clear_memory_cache()
        cache = RetrievalArtifactCache(tmp_path / "cache")

        def build():
            return ColumnRetriever(
                COLUMN_DESCRIPTIONS,
                FILE_STRUCTURE_DESCRIPTIONS,
                important=IMPORTANT_COLUMNS,
                embedder=HashedEmbedder(128),
                cache=cache,
            )

        cold = build()
        clear_memory_cache()  # force the disk tier for the second build
        before = stats_snapshot()
        warm = build()
        delta = stats_snapshot().delta(before)
        assert delta.disk_hits == 1 and delta.builds == 0

        for query in ("top 20 largest halos", "galaxy stellar mass evolution"):
            a = cold.retrieve(query, task="load", plan="1. load")
            b = warm.retrieve(query, task="load", plan="1. load")
            assert [d.doc_id for d in a.documents] == [d.doc_id for d in b.documents]
            assert a.per_prompt == b.per_prompt

    def test_uncached_retriever_unchanged(self):
        """No cache argument -> the legacy embed-every-time path."""
        r = ColumnRetriever(COLUMN_DESCRIPTIONS)
        assert r.index.embedding_matrix().shape[0] == len(r.documents)


class TestQueryMemo:
    def test_repeated_query_embeds_once(self):
        clear_memory_cache()
        docs = build_documents(COLUMN_DESCRIPTIONS)
        index = VectorIndex(docs)
        before = stats_snapshot()
        s1 = index.similarities("halo mass")
        s2 = index.similarities("halo mass")
        delta = stats_snapshot().delta(before)
        assert delta.query_memo_misses == 1 and delta.query_memo_hits == 1
        np.testing.assert_array_equal(s1, s2)

    def test_memo_shared_across_indexes(self):
        clear_memory_cache()
        docs = build_documents({"e": {"c": "desc"}})
        VectorIndex(docs).similarities("shared prompt")
        before = stats_snapshot()
        VectorIndex(docs).similarities("shared prompt")
        delta = stats_snapshot().delta(before)
        assert delta.query_memo_hits == 1 and delta.query_memo_misses == 0

    def test_memo_bounded_lru(self):
        from repro.rag import cache

        clear_memory_cache()
        index = VectorIndex(build_documents({"e": {"c": "desc"}}))
        old_cap = cache.query_memo_capacity()
        before = stats_snapshot()
        try:
            cache.set_query_memo_capacity(8)
            for i in range(20):
                index.similarities(f"query {i}")
            assert len(cache._QUERY_MEMO) <= 8
            delta = stats_snapshot().delta(before)
            assert delta.query_memo_evictions == 20 - 8
            # LRU: the most recent query is still memoized
            before = stats_snapshot()
            index.similarities("query 19")
            assert stats_snapshot().delta(before).query_memo_hits == 1
        finally:
            cache.set_query_memo_capacity(old_cap)

    def test_eviction_between_a_hits_lookup_and_reorder(self):
        """Another thread evicts while a hit is between its lookup and its
        reorder: the evictor waits for the hit to finish, where with no
        lock it removed the key and made ``move_to_end`` raise KeyError."""
        import threading
        from collections import OrderedDict

        from repro.gio.store import LRU

        memo: LRU[str, int] = LRU(1)
        evictor: list[threading.Thread] = []

        class EvictedMidHit(OrderedDict):
            def move_to_end(self, key, last=True):
                if not evictor:
                    # a put of another key fills the 1-entry memo
                    thread = threading.Thread(target=memo.put, args=("other", 2))
                    evictor.append(thread)
                    thread.start()
                    thread.join(timeout=0.5)  # done here unless the memo is locked
                super().move_to_end(key, last)

        memo._items = EvictedMidHit({"halo mass": 1})
        assert memo.get("halo mass") == 1
        evictor[0].join(timeout=30)
        assert not evictor[0].is_alive()
        assert list(memo._items) == ["other"]

    def test_concurrent_lookups_over_a_tiny_memo(self):
        """Eight threads hit and evict the shared memo, resized to two
        entries, with thread switches forced every microsecond: no call
        raises, and every call counts as exactly one hit or one miss."""
        import sys
        import threading

        from repro.rag import cache

        embedder = HashedEmbedder()
        errors: list[BaseException] = []

        def lookups(worker: int) -> None:
            try:
                for i in range(200):
                    cache.memoized_query_embedding(embedder, f"q{(worker + i) % 3}")
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        clear_memory_cache()
        capacity = cache.query_memo_capacity()
        before = stats_snapshot()
        interval = sys.getswitchinterval()
        cache.set_query_memo_capacity(2)
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=lookups, args=(w,)) for w in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            size = len(cache._QUERY_MEMO)
            cache.set_query_memo_capacity(capacity)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        delta = stats_snapshot().delta(before)
        assert delta.query_memo_hits + delta.query_memo_misses == 8 * 200
        assert size <= 2


class TestColumnRetriever:
    @pytest.fixture(scope="class")
    def retriever(self):
        return ColumnRetriever(
            COLUMN_DESCRIPTIONS, FILE_STRUCTURE_DESCRIPTIONS, important=IMPORTANT_COLUMNS
        )

    def test_retrieves_explicit_column(self, retriever):
        result = retriever.retrieve("average fof_halo_count per timestep")
        assert "fof_halo_count" in result.column_names

    def test_semantic_phrase_resolution(self, retriever):
        result = retriever.retrieve("velocity dispersion of the largest halos")
        assert "fof_halo_vel_disp" in result.column_names

    def test_respects_max_total(self, retriever):
        result = retriever.retrieve("halos", task="t", plan="p", max_total=10)
        assert len(result.documents) <= 10

    def test_important_columns_boosted(self, retriever):
        result = retriever.retrieve("anything vague about the data")
        important_found = set(result.column_names) & IMPORTANT_COLUMNS
        assert important_found  # the [IMPORTANT] prompt pulls these in

    def test_per_prompt_bookkeeping(self, retriever):
        result = retriever.retrieve("halo mass", task="load mass", plan="1. load")
        assert set(result.per_prompt) == {"query", "task", "plan", "important"}
        assert all(len(v) <= 20 for v in result.per_prompt.values())

    def test_entity_filter(self, retriever):
        result = retriever.retrieve("galaxy stellar mass")
        gal_cols = result.columns_for_entity("galaxies")
        assert "gal_stellar_mass" in gal_cols

    def test_fine_beats_coarse_chunking(self):
        """The §3.1 ablation: retrieval precision of the two strategies."""
        fine = VectorIndex(build_documents(COLUMN_DESCRIPTIONS))
        coarse = VectorIndex(chunk_text(COLUMN_DESCRIPTIONS, chunk_tokens=80))

        queries = {
            "gas mass enclosed at 500 critical density": "sod_halo_MGas500c",
            "number of particles in the halo": "fof_halo_count",
            "galaxy star formation rate": "gal_sfr",
            "halo velocity dispersion": "fof_halo_vel_disp",
        }

        def precision(index):
            hits = 0
            for q, target in queries.items():
                top = index.search(q, k=3)
                cols = set()
                for d, _ in top:
                    cols.update(d.column.split(";"))
                hits += target in cols
            return hits / len(queries)

        assert precision(fine) >= precision(coarse)
