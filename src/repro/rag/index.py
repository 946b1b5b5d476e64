"""In-memory vector index over documents."""

from __future__ import annotations

import numpy as np

from repro.llm.embeddings import HashedEmbedder
from repro.rag.cache import memoized_query_embedding
from repro.rag.documents import ColumnDocument


class VectorIndex:
    """Embeds documents once; answers cosine-similarity queries.

    ``matrix`` lets callers inject a precomputed (possibly memory-mapped)
    embedding matrix — see :mod:`repro.rag.cache` — instead of paying the
    per-instance ``embed_batch`` over the whole corpus.  Query embeddings
    are memoized per index, so repeated prompts within one run embed once.
    """

    def __init__(
        self,
        documents: list[ColumnDocument],
        embedder: HashedEmbedder | None = None,
        matrix: np.ndarray | None = None,
    ):
        self.documents = list(documents)
        self.embedder = embedder or HashedEmbedder()
        if matrix is not None:
            if matrix.shape != (len(self.documents), self.embedder.dim):
                raise ValueError(
                    f"matrix shape {matrix.shape} does not match "
                    f"({len(self.documents)}, {self.embedder.dim})"
                )
            self._matrix = matrix
        else:
            self._matrix = self.embedder.embed_batch([d.text for d in self.documents])
    def __len__(self) -> int:
        return len(self.documents)

    def embed_query(self, query: str) -> np.ndarray:
        """Memoized query embedding (shared bounded LRU, see repro.rag.cache)."""
        return memoized_query_embedding(self.embedder, query)

    def similarities(self, query: str) -> np.ndarray:
        """Cosine similarity of every document to ``query``."""
        if not self.documents:
            return np.zeros(0)
        q = self.embed_query(query)
        return self._matrix @ q

    def search(self, query: str, k: int = 20) -> list[tuple[ColumnDocument, float]]:
        """Plain top-k by similarity (no diversity re-ranking)."""
        sims = self.similarities(query)
        order = np.argsort(sims)[::-1][:k]
        return [(self.documents[i], float(sims[i])) for i in order]

    def embedding_matrix(self) -> np.ndarray:
        return self._matrix
