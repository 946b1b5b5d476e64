"""Lightweight UMAP-style 2-D embedding.

One of the paper's evaluation questions asks for "a UMAP plot" of an
interestingness score over halos.  Real UMAP is unavailable offline, so we
implement the same family of algorithm at small scale: a k-nearest-neighbor
graph with locally adaptive Gaussian affinities, symmetrized, embedded by
the spectral layout (eigenvectors of the normalized graph Laplacian) that
UMAP itself uses for initialization, followed by a few attraction/repulsion
refinement sweeps.  For the thousands-of-points workloads in the
evaluation this gives the same qualitative output: nearby records cluster,
outliers separate.
"""

from __future__ import annotations

import numpy as np


def umap_embed(
    data: np.ndarray,
    n_neighbors: int = 12,
    n_epochs: int = 30,
    seed: int = 0,
) -> np.ndarray:
    """Embed ``data`` (n, d) into 2-D; deterministic for a given seed."""
    # scipy costs ~0.3 s to import and nothing else in the package uses it
    from scipy.sparse import coo_matrix
    from scipy.sparse.linalg import eigsh

    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise ValueError("data must be 2-D (n_samples, n_features)")
    n = len(data)
    if n < 3:
        return np.zeros((n, 2))
    k = int(min(n_neighbors, n - 1))

    # standardize features so distance is scale-free
    std = data.std(axis=0)
    std[std == 0] = 1.0
    z = (data - data.mean(axis=0)) / std

    # exact kNN (fine at evaluation scale); chunked to bound memory
    rows, cols, vals = [], [], []
    chunk = 512
    for start in range(0, n, chunk):
        block = z[start : start + chunk]
        d2 = ((block[:, None, :] - z[None, :, :]) ** 2).sum(axis=2)
        idx = np.argpartition(d2, k + 1, axis=1)[:, : k + 1]
        for bi in range(len(block)):
            i = start + bi
            neighbors = idx[bi][idx[bi] != i][:k]
            dists = np.sqrt(d2[bi, neighbors])
            sigma = dists.mean() or 1.0
            w = np.exp(-dists / sigma)
            rows.extend([i] * len(neighbors))
            cols.extend(neighbors.tolist())
            vals.extend(w.tolist())
    w = coo_matrix((vals, (rows, cols)), shape=(n, n))
    w = (w + w.T) * 0.5  # symmetrize (fuzzy union approximation)

    # spectral initialization: bottom non-trivial eigenvectors of L_sym
    deg = np.asarray(w.sum(axis=1)).ravel()
    deg[deg == 0] = 1.0
    dinv = 1.0 / np.sqrt(deg)
    lap = coo_matrix(
        (np.ones(n), (np.arange(n), np.arange(n))), shape=(n, n)
    ) - w.multiply(np.outer(dinv, dinv))
    v0 = np.full(n, 1.0 / np.sqrt(n))  # deterministic ARPACK start vector
    try:
        _, vecs = eigsh(lap.tocsc(), k=3, sigma=0.0, which="LM", v0=v0)
        emb = vecs[:, 1:3].copy()
    except Exception:  # fallback for pathological graphs
        rng = np.random.default_rng(seed)
        emb = rng.normal(size=(n, 2)) * 0.01
    # deterministic sign convention (eigenvectors are sign-ambiguous)
    for j in range(emb.shape[1]):
        pivot = np.argmax(np.abs(emb[:, j]))
        if emb[pivot, j] < 0:
            emb[:, j] = -emb[:, j]
    emb = emb / (np.abs(emb).max() or 1.0) * 10.0

    # gentle refinement: attract graph neighbors, repel random samples;
    # displacements are clipped so the spectral structure is sharpened,
    # never destroyed
    rng = np.random.default_rng(seed)
    w_csr = w.tocsr()
    src, dst = w_csr.nonzero()
    lr0 = 0.15
    for epoch in range(n_epochs):
        lr = lr0 * (1.0 - epoch / n_epochs)
        delta = emb[dst] - emb[src]
        dist2 = (delta**2).sum(axis=1) + 1e-9
        attract = (delta / (1.0 + dist2)[:, None]) * lr
        neg = rng.integers(0, n, size=len(src))
        delta_n = emb[neg] - emb[src]
        dist2_n = (delta_n**2).sum(axis=1) + 1e-2
        repel = -(delta_n / (dist2_n * (1.0 + dist2_n))[:, None]) * lr
        update = attract + repel
        norms = np.linalg.norm(update, axis=1, keepdims=True)
        update *= np.minimum(1.0, 0.3 / np.maximum(norms, 1e-12))
        np.add.at(emb, src, update)
    return emb
