"""Multi-prompt column retrieval.

§3.1: "our retriever employs maximum marginal relevance to select the top
20 documents for several prompts: the original user query, the specific
task assigned by the planning agent, the complete plan, and an
'[IMPORTANT]' prompt that highlights columns tagged as important,
retrieving up to 80 total documents."
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.gio.store import LRU
from repro.llm.embeddings import HashedEmbedder
from repro.obs.tracer import get_tracer
from repro.rag.cache import RetrievalArtifactCache, query_memo_capacity
from repro.rag.documents import ColumnDocument, build_documents
from repro.rag.index import VectorIndex
from repro.rag.mmr import mmr_select

PER_PROMPT_K = 20
MAX_TOTAL_DOCS = 80


@dataclass
class RetrievalResult:
    documents: list[ColumnDocument]
    per_prompt: dict[str, list[str]] = field(default_factory=dict)

    @property
    def column_names(self) -> list[str]:
        seen: dict[str, None] = {}
        for d in self.documents:
            if d.column:
                seen.setdefault(d.column)
        return list(seen)

    def columns_for_entity(self, entity: str) -> list[str]:
        return [d.column for d in self.documents if d.entity == entity and d.column]


class ColumnRetriever:
    """Retrieves relevant column documents for a task context."""

    def __init__(
        self,
        column_descriptions: dict[str, dict[str, str]],
        structure: dict[str, str] | None = None,
        important: set[str] | None = None,
        embedder: HashedEmbedder | None = None,
        lambda_mult: float = 0.7,
        cache: RetrievalArtifactCache | None = None,
    ):
        self.documents = build_documents(column_descriptions, structure, important)
        embedder = embedder or HashedEmbedder()
        matrix = (
            cache.matrix_for([d.text for d in self.documents], embedder)
            if cache is not None
            else None
        )
        self.index = VectorIndex(self.documents, embedder, matrix=matrix)
        self.lambda_mult = lambda_mult
        self._important_prompt = "[IMPORTANT] " + " ".join(
            d.text for d in self.documents if d.important
        )
        # index, lambda and matrix are fixed for the retriever's life, so the
        # MMR selection is a pure function of (prompt, k): memoised up to
        # query_memo_capacity() entries, least recently used out first;
        # racing fills store equal lists
        self._chosen: LRU[tuple[str, int], list[int]] = LRU(query_memo_capacity())

    def _select(self, prompt: str, k: int) -> list[int]:
        chosen = self._chosen.get((prompt, k))
        if chosen is None:
            sims = self.index.similarities(prompt)
            chosen = mmr_select(sims, self.index.embedding_matrix(), k, self.lambda_mult)
            self._chosen.resize(query_memo_capacity())
            self._chosen.put((prompt, k), chosen)
        return chosen

    def retrieve(
        self,
        query: str,
        task: str = "",
        plan: str = "",
        k_per_prompt: int = PER_PROMPT_K,
        max_total: int = MAX_TOTAL_DOCS,
    ) -> RetrievalResult:
        """Fan out over the four prompts, MMR each, merge up to 80 docs."""
        prompts = {"query": query}
        if task:
            prompts["task"] = task
        if plan:
            prompts["plan"] = plan
        prompts["important"] = self._important_prompt

        with get_tracer().span("rag.retrieve", prompts=len(prompts)) as sp:
            merged: dict[str, ColumnDocument] = {}
            per_prompt: dict[str, list[str]] = {}
            for name, prompt in prompts.items():
                ids = []
                for i in self._select(prompt, k_per_prompt):
                    doc = self.documents[i]
                    ids.append(doc.doc_id)
                    if len(merged) < max_total:
                        merged.setdefault(doc.doc_id, doc)
                per_prompt[name] = ids
            sp.set(documents=len(merged))
        return RetrievalResult(documents=list(merged.values()), per_prompt=per_prompt)
