"""Differential tests: the warm agent loop's closed-form kernels against
the loops they replaced.

``mmr_select`` (running redundancy), ``tokenize`` (one regex pass) and
``BloomFilter.load`` (a popcount) must return exactly what the obvious
loops return; the loops are kept here as the references.
"""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.db.bloom import BloomFilter
from repro.eval.questions import QUESTION_SUITE
from repro.rag import ColumnRetriever, mmr_select
from repro.obs.tracer import Tracer, use_tracer
from repro.rag.cache import (
    clear_memory_cache,
    query_memo_capacity,
    set_query_memo_capacity,
    stats_snapshot,
)
from repro.sim.schema import (
    COLUMN_DESCRIPTIONS,
    FILE_STRUCTURE_DESCRIPTIONS,
    IMPORTANT_COLUMNS,
)
from repro.util.tokens import tokenize

LAMBDAS = (0.0, 0.3, 0.7, 1.0)


# ----------------------------------------------------------------------
# MMR
# ----------------------------------------------------------------------
def mmr_reference(query_sims, doc_matrix, k, lambda_mult=0.7, candidate_pool=None):
    """The greedy loop as first written: every round recomputes, for every
    remaining candidate, its dot with every selected vector."""
    n = len(query_sims)
    if n == 0 or k <= 0:
        return []
    k = min(k, n)
    pool_size = min(candidate_pool or max(4 * k, 32), n)
    pool = list(np.argsort(query_sims)[::-1][:pool_size])

    selected = []
    selected_vecs = []
    remaining = set(pool)
    while len(selected) < k and remaining:
        best_idx = -1
        best_score = -np.inf
        for i in remaining:
            redundancy = 0.0
            if selected_vecs:
                redundancy = max(float(doc_matrix[i] @ v) for v in selected_vecs)
            score = lambda_mult * float(query_sims[i]) - (1.0 - lambda_mult) * redundancy
            if score > best_score:
                best_score, best_idx = score, i
        selected.append(best_idx)
        selected_vecs.append(doc_matrix[best_idx])
        remaining.discard(best_idx)
    return [int(i) for i in selected]


@pytest.fixture(scope="module")
def retriever():
    return ColumnRetriever(
        COLUMN_DESCRIPTIONS, FILE_STRUCTURE_DESCRIPTIONS, important=IMPORTANT_COLUMNS
    )


def _schema_prompts(retriever) -> list[str]:
    words = " ".join(d.text for d in retriever.documents).split()
    rng = np.random.default_rng(15)
    random_prompts = [
        " ".join(rng.choice(words, size=int(rng.integers(1, 30)))) for _ in range(12)
    ]
    return [q.text for q in QUESTION_SUITE] + [retriever._important_prompt] + random_prompts


class TestMMRDifferential:
    def test_schema_corpus(self, retriever):
        matrix = retriever.index.embedding_matrix()
        n = len(matrix)
        for prompt in _schema_prompts(retriever):
            sims = retriever.index.similarities(prompt)
            for lam in LAMBDAS:
                for k in (5, 20, n):
                    got = mmr_select(sims, matrix, k, lam)
                    assert got == mmr_reference(sims, matrix, k, lam), (prompt, lam, k)
                    assert all(type(i) is int for i in got)

    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_duplicates_zero_and_negative_similarities(self, lam):
        base = np.asarray(
            [
                [1.0, 0.0, 0.0],
                [1.0, 0.0, 0.0],   # duplicate of row 0
                [-1.0, 0.0, 0.0],  # negative similarity to rows 0 and 1
                [0.0, 1.0, 0.0],
                [0.0, 1.0, 0.0],   # duplicate of row 3
                [0.0, 0.0, 0.0],   # zero similarity to everything
                [0.0, -0.6, 0.8],
                [0.6, 0.0, -0.8],
            ]
        )
        for sims in (
            np.zeros(len(base)),                   # every score ties
            base @ np.asarray([1.0, 0.0, 0.0]),    # ties between duplicates
            base @ np.asarray([-0.5, -0.5, -0.7]),  # mostly negative
        ):
            for k in (1, 3, len(base)):
                for pool in (None, 2, 5):
                    assert mmr_select(sims, base, k, lam, pool) == mmr_reference(
                        sims, base, k, lam, pool
                    ), (sims, k, pool)

    def test_first_redundancy_may_be_negative(self):
        # a running max seeded with 0 instead of the first similarity
        # would lose row 1's bonus for pointing away from row 0
        matrix = np.asarray([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        sims = np.asarray([0.9, 0.5, 0.6])
        assert mmr_select(sims, matrix, 2, 0.5) == mmr_reference(sims, matrix, 2, 0.5) == [0, 1]

    def test_pool_wider_than_the_hash_table_keeps_tie_order(self):
        # indices above the set's table size wrap around, so the order in
        # which tied candidates are visited is not ascending
        rng = np.random.default_rng(3)
        matrix = rng.normal(size=(600, 4))
        sims = np.zeros(600)
        for k in (3, 40):
            assert mmr_select(sims, matrix, k, 1.0) == mmr_reference(sims, matrix, k, 1.0)


class TestMMRPool:
    def test_zero_pool_rejected(self):
        with pytest.raises(ValueError, match="candidate_pool"):
            mmr_select(np.asarray([0.5, 0.4]), np.eye(2), 1, candidate_pool=0)

    def test_negative_pool_rejected(self):
        with pytest.raises(ValueError, match="candidate_pool"):
            mmr_select(np.asarray([0.5, 0.4]), np.eye(2), 1, candidate_pool=-3)

    def test_pool_restricts_candidates(self):
        sims = np.asarray([0.1, 0.9, 0.5, 0.8])
        assert sorted(mmr_select(sims, np.eye(4), 4, candidate_pool=2)) == [1, 3]


class TestImportantSelectionReuse:
    def test_selected_once_per_retriever(self, monkeypatch):
        import repro.rag.retriever as retriever_module

        calls = []

        def counting(sims, matrix, k, lambda_mult):
            calls.append(k)
            return mmr_select(sims, matrix, k, lambda_mult)

        monkeypatch.setattr(retriever_module, "mmr_select", counting)
        r = ColumnRetriever(COLUMN_DESCRIPTIONS, important=IMPORTANT_COLUMNS)
        first = r.retrieve("halo mass", task="load halos", plan="load, then plot")
        again = r.retrieve("halo mass", task="load halos", plan="load, then plot")
        assert len(calls) == 4
        assert again.per_prompt == first.per_prompt
        assert [d.doc_id for d in again.documents] == [d.doc_id for d in first.documents]
        assert list(first.per_prompt) == ["query", "task", "plan", "important"]

    def test_matches_a_fresh_retriever(self, retriever):
        retriever.retrieve("galaxy stellar mass")
        warm = retriever.retrieve("halo velocity dispersion", task="filter halos")
        fresh = ColumnRetriever(
            COLUMN_DESCRIPTIONS, FILE_STRUCTURE_DESCRIPTIONS, important=IMPORTANT_COLUMNS
        ).retrieve("halo velocity dispersion", task="filter halos")
        assert warm.per_prompt == fresh.per_prompt
        assert [d.doc_id for d in warm.documents] == [d.doc_id for d in fresh.documents]

    def test_each_k_has_its_own_selection(self, retriever):
        small = retriever.retrieve("halo mass", k_per_prompt=3)
        large = retriever.retrieve("halo mass", k_per_prompt=9)
        assert len(small.per_prompt["important"]) == 3
        assert len(large.per_prompt["important"]) == 9
        assert retriever.retrieve("halo mass", k_per_prompt=3).per_prompt == small.per_prompt

    def test_important_prompt_is_not_embedded_again(self, retriever):
        retriever.retrieve("halo mass")
        clear_memory_cache()
        before = stats_snapshot()
        retriever.retrieve("halo mass")
        delta = stats_snapshot().delta(before)
        # a selection the retriever already holds embeds nothing at all
        assert delta.query_memo_misses == 0 and delta.query_memo_hits == 0


class TestSelectionMemo:
    """The selection is a pure function of (prompt, k) for one retriever,
    so a memoised one is the computed one, not close to it."""

    @settings(max_examples=50, deadline=None)
    @given(st.text(alphabet=st.sampled_from(list("halo mas velocty_019 ,.[]")), max_size=80))
    def test_warm_selection_is_the_fresh_one(self, retriever, prompt):
        matrix = retriever.index.embedding_matrix()
        for k in (1, 5, 20):
            retriever._select(prompt, k)
            warm = retriever._select(prompt, k)
            fresh = mmr_select(
                retriever.index.similarities(prompt), matrix, k, retriever.lambda_mult
            )
            assert warm == fresh, (prompt, k)

    def test_bounded_by_the_query_memo_capacity(self):
        r = ColumnRetriever(COLUMN_DESCRIPTIONS, important=IMPORTANT_COLUMNS)
        capacity = query_memo_capacity()
        set_query_memo_capacity(8)
        try:
            for i in range(30):
                r.retrieve(f"halo mass {i}", task=f"load run {i}")
                assert len(r._chosen) <= 8
            # the oldest went first, and what is held is still right
            assert ("halo mass 0", 20) not in r._chosen
            assert ("halo mass 29", 20) in r._chosen
            fresh = ColumnRetriever(COLUMN_DESCRIPTIONS, important=IMPORTANT_COLUMNS)
            assert r.retrieve("halo mass 3").per_prompt == fresh.retrieve("halo mass 3").per_prompt
            set_query_memo_capacity(0)  # the next fill keeps nothing and still answers
            assert r.retrieve("halo mass 4").per_prompt == fresh.retrieve("halo mass 4").per_prompt
            assert not r._chosen
        finally:
            set_query_memo_capacity(capacity)

    def test_a_memo_hit_still_counts_as_a_retrieval(self, retriever):
        first = retriever.retrieve("largest halos by mass", task="load halos")
        tracer = Tracer()
        with use_tracer(tracer):
            again = retriever.retrieve("largest halos by mass", task="load halos")
        (span,) = [s for s in tracer.span_dicts() if s["name"] == "rag.retrieve"]
        assert span["attributes"]["documents"] == len(again.documents)
        assert again.per_prompt == first.per_prompt
        assert [d.doc_id for d in again.documents] == [d.doc_id for d in first.documents]


# ----------------------------------------------------------------------
# tokenize
# ----------------------------------------------------------------------
_WORD_RE = re.compile(r"[A-Za-z_]+|\d+|[^\sA-Za-z\d]")


def tokenize_reference(text: str) -> list[str]:
    """Runs of letters cut into 4-char pieces, runs of digits into
    3-digit pieces, every other non-space character on its own."""
    pieces = []
    for match in _WORD_RE.finditer(text):
        tok = match.group(0)
        if tok.isdigit():
            step = 3
        elif tok[0].isalpha() or tok[0] == "_":
            step = 4
        else:
            pieces.append(tok)
            continue
        for start in range(0, len(tok), step):
            pieces.append(tok[start : start + step])
    return pieces


_TOKEN_ALPHABET = st.sampled_from(
    list("abXYZ_019 \t\n.,;-+(") + ["٣", "४", "²", "½", "é", "ß", "Ω", "漢", "\u00a0", "\u2003"]
)


class TestTokenizeDifferential:
    @given(st.text(alphabet=_TOKEN_ALPHABET, max_size=60))
    @settings(max_examples=300, deadline=None)
    @example("")
    @example("fof_halo_count12345678_x9")
    @example("a" * 9 + "1" * 7 + "__" + "٣" * 4 + "²²")
    def test_mixed_runs(self, text):
        assert tokenize(text) == tokenize_reference(text)

    @given(st.text(max_size=80))
    @settings(max_examples=200, deadline=None)
    def test_any_unicode(self, text):
        assert tokenize(text) == tokenize_reference(text)

    def test_suite_and_schema_text(self, retriever):
        for text in [q.text for q in QUESTION_SUITE] + [d.text for d in retriever.documents]:
            assert tokenize(text) == tokenize_reference(text)


# ----------------------------------------------------------------------
# bloom load
# ----------------------------------------------------------------------
def load_reference(bloom: BloomFilter) -> float:
    return sum(bin(b).count("1") for b in bloom.bits) / bloom.m


class TestBloomLoadDifferential:
    @pytest.mark.parametrize("m", [8, 64, 100, 4096])
    def test_random_bitsets(self, m):
        rng = np.random.default_rng(m)
        nbytes = (m + 7) // 8
        for density in (0.0, 0.02, 0.5, 1.0):
            bits = np.packbits(rng.random(nbytes * 8) < density).tobytes()
            bloom = BloomFilter(m, 4, bits)
            assert bloom.load == load_reference(bloom)

    def test_empty_and_full(self):
        assert BloomFilter().load == 0.0
        full = BloomFilter(4096, 4, b"\xff" * 512)
        assert full.load == load_reference(full) == 1.0

    def test_built_filter(self):
        bloom = BloomFilter.build(np.arange(300))
        assert bloom is not None and 0.0 < bloom.load == load_reference(bloom)
