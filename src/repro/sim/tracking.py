"""Particle-overlap halo tracking and merger lineage graphs.

Real HACC analysis tracks halos across snapshots by particle membership:
two halos at consecutive snapshots are linked when they share member
particles.  Because the synthetic ensemble writes a *persistent* particle
population (stable IDs, stable halo affiliation), the same algorithm
works here: :func:`match_halos` computes the shared-particle overlap
matrix between two snapshots, and :func:`halo_lineage_graph` chains the
matches into a ``networkx`` DiGraph — a merger-tree-lite whose paths give
each halo's progenitor line.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.frame import Frame
from repro.sim.ensemble import Ensemble

if TYPE_CHECKING:
    import networkx as nx


def match_halos(
    ids_a: np.ndarray,
    tags_a: np.ndarray,
    ids_b: np.ndarray,
    tags_b: np.ndarray,
    min_shared: int = 3,
) -> Frame:
    """Shared-particle overlaps between two halo memberships.

    Inputs are per-particle (id, halo tag) pairs at two snapshots (tag -1
    = field).  Returns one row per (tag_a, tag_b) pair sharing at least
    ``min_shared`` particles, with the shared count and the match fraction
    relative to the earlier halo's membership.
    """
    a_in = tags_a >= 0
    b_in = tags_b >= 0
    # align the two snapshots on particle id
    order_a = np.argsort(ids_a[a_in])
    order_b = np.argsort(ids_b[b_in])
    ids_a_sorted = ids_a[a_in][order_a]
    tags_a_sorted = tags_a[a_in][order_a]
    ids_b_sorted = ids_b[b_in][order_b]
    tags_b_sorted = tags_b[b_in][order_b]

    common, idx_a, idx_b = np.intersect1d(
        ids_a_sorted, ids_b_sorted, assume_unique=True, return_indices=True
    )
    del common
    pair_a = tags_a_sorted[idx_a]
    pair_b = tags_b_sorted[idx_b]

    if len(pair_a) == 0:
        return Frame(
            {
                "tag_a": np.empty(0, dtype=np.int64),
                "tag_b": np.empty(0, dtype=np.int64),
                "shared": np.empty(0, dtype=np.int64),
                "fraction_of_a": np.empty(0),
            }
        )

    # count occurrences of each (tag_a, tag_b) pair
    pairs = np.stack([pair_a, pair_b], axis=1)
    uniq, counts = np.unique(pairs, axis=0, return_counts=True)
    keep = counts >= min_shared
    uniq, counts = uniq[keep], counts[keep]

    size_a = {int(t): int(c) for t, c in zip(*np.unique(tags_a[a_in], return_counts=True))}
    fraction = np.asarray(
        [c / size_a.get(int(t), 1) for t, c in zip(uniq[:, 0], counts)]
    )
    order = np.argsort(counts, kind="stable")[::-1]
    return Frame(
        {
            "tag_a": uniq[order, 0].astype(np.int64),
            "tag_b": uniq[order, 1].astype(np.int64),
            "shared": counts[order].astype(np.int64),
            "fraction_of_a": fraction[order],
        }
    )


def halo_lineage_graph(
    ensemble: Ensemble, run: int, min_shared: int = 3
) -> nx.DiGraph:
    """Merger-lineage DiGraph for one run.

    Nodes are ``(step, tag)``; an edge ``(s1, t1) -> (s2, t2)`` carries the
    shared particle count between consecutive snapshots.  Requires the
    ensemble to have particle files.
    """
    # networkx costs ~0.1 s to import and only this function builds a graph
    import networkx as nx

    graph = nx.DiGraph()
    steps = ensemble.timesteps
    previous = None
    for step in steps:
        particles = ensemble.read(run, step, "particles", ["id", "fof_halo_tag"])
        tags_present = np.unique(particles["fof_halo_tag"])
        for tag in tags_present[tags_present >= 0]:
            graph.add_node((step, int(tag)))
        if previous is not None:
            prev_step, prev = previous
            matches = match_halos(
                prev["id"], prev["fof_halo_tag"],
                particles["id"], particles["fof_halo_tag"],
                min_shared=min_shared,
            )
            for i in range(matches.num_rows):
                graph.add_edge(
                    (prev_step, int(matches["tag_a"][i])),
                    (step, int(matches["tag_b"][i])),
                    shared=int(matches["shared"][i]),
                    fraction=float(matches["fraction_of_a"][i]),
                )
        previous = (step, particles)
    return graph


def main_progenitor_line(graph: nx.DiGraph, final_node: tuple[int, int]) -> list[tuple[int, int]]:
    """Walk backwards from a halo, always taking the largest-overlap edge."""
    line = [final_node]
    current = final_node
    while True:
        preds = list(graph.predecessors(current))
        if not preds:
            break
        current = max(preds, key=lambda p: graph.edges[p, current]["shared"])
        line.append(current)
    return line[::-1]
