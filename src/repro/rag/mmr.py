"""Maximum marginal relevance (Carbonell & Goldstein 1998).

Greedy re-ranking trading query relevance against redundancy:

    MMR = argmax_{d in R\\S} [ lambda * sim(d, q) - (1-lambda) * max_{s in S} sim(d, s) ]

The paper uses MMR to compensate for its very fine-grained documents —
plain top-k over 80-token chunks returns near-duplicates.
"""

from __future__ import annotations

import numpy as np


def mmr_select(
    query_sims: np.ndarray,
    doc_matrix: np.ndarray,
    k: int,
    lambda_mult: float = 0.7,
    candidate_pool: int | None = None,
) -> list[int]:
    """Return indices of the MMR-selected documents.

    ``query_sims`` is sim(doc, query) per document; ``doc_matrix`` the
    (normalized) document embedding matrix for doc-doc similarity.
    ``candidate_pool`` restricts the greedy search to the top-N by query
    similarity (the usual efficiency shortcut).
    """
    n = len(query_sims)
    if n == 0 or k <= 0:
        return []
    if not 0.0 <= lambda_mult <= 1.0:
        raise ValueError("lambda_mult must be in [0, 1]")
    k = min(k, n)
    if candidate_pool is None:
        candidate_pool = max(4 * k, 32)
    elif candidate_pool <= 0:
        raise ValueError("candidate_pool must be positive")
    pool = np.argsort(query_sims)[::-1][: min(candidate_pool, n)].tolist()

    # redundancy[i] is max sim(i, s) over the documents selected so far,
    # folded forward one pick at a time: each pick costs one row-by-row dot
    # per remaining candidate instead of one per (candidate, selected)
    # pair.  The dots stay pairwise: a matrix product differs from them in
    # the last ulp, enough to flip a pick between near-duplicate documents.
    relevance = {i: lambda_mult * float(query_sims[i]) for i in pool}
    rows = {i: doc_matrix[i] for i in pool}
    redundancy = dict.fromkeys(pool, 0.0)
    diversity_weight = 1.0 - lambda_mult
    selected: list[int] = []
    remaining = set(pool)
    while len(selected) < k and remaining:
        best_idx = -1
        best_score = -np.inf
        for i in remaining:
            score = relevance[i] - diversity_weight * redundancy[i]
            if score > best_score:
                best_score, best_idx = score, i
        selected.append(best_idx)
        remaining.discard(best_idx)
        sim_to_picked = doc_matrix[best_idx].dot
        first_pick = len(selected) == 1
        for i in remaining:
            sim = float(sim_to_picked(rows[i]))
            if first_pick or sim > redundancy[i]:
                redundancy[i] = sim
    return selected
