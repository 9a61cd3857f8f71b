"""Offline baselines: greedy matching and exact maximum-weight matching.

The greedy scan is shared by every online algorithm in this package for
building sample prices.  It scans a given edge order, which callers take from
the realization's rank (``Realization.edge_order``), so tie handling is the
one strict total order everywhere and no sort happens here.  The exact
solver is the reference the Monte Carlo harness measures against; it takes
one of three paths by graph kind and size: the assignment solver for
bipartite graphs, subset DP for general graphs of at most 12 vertices, and
Edmonds' blossom algorithm for larger general graphs.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .core import Graph, InputError, Matching

# Subset DP is faster than blossom up to 12 vertices, slower from 14 on (µs per
# call on 2 cores: K12 1,018 vs 1,429, K14 2,673 vs 2,126, K20 128,133 vs
# 8,203); every graph of the certification gate has at most 9 vertices.
DP_VERTEX_CAP = 12


def _as_value_list(graph: Graph, values: Sequence[float]) -> list[float]:
    """The values of a sequence indexed by edge id, as a list."""
    values = list(values)
    if len(values) != graph.num_edges:
        raise InputError(f"need {graph.num_edges} edge values, got {len(values)}")
    return values


def greedy_matching(graph: Graph, order: Sequence[int], values: Sequence[float]) -> Matching:
    """Scan edge ids in ``order``, keeping those with both endpoints free.

    With ``order`` from best to worst value (``Realization.edge_order``) the
    result is a maximal matching and a 2-approximation of the maximum weight
    matching, and its scan order comes only from the values' total order,
    never from the edge list order.  ``values`` only weigh the result.
    """
    vals = _as_value_list(graph, values)
    if sorted(order) != list(range(graph.num_edges)):
        raise InputError("greedy order must be a permutation of the edge ids")
    used: set[int] = set()
    chosen: list[int] = []
    for eid in order:
        u, v = graph.edges[eid]
        if u not in used and v not in used:
            chosen.append(eid)
            used.update((u, v))
    return Matching.from_edges(chosen, vals)


def _assignment_opt(graph: Graph, vals: Sequence[float]) -> Matching:
    """Bipartite exact optimum via the rectangular assignment problem."""
    rows, cols, edge_at = graph.biadjacency
    if edge_at.size == 0:
        return Matching.empty()
    weight = np.zeros(edge_at.shape)
    weight[rows, cols] = vals
    chosen = edge_at[linear_sum_assignment(weight, maximize=True)]
    # zero cells without a real edge (-1) mean "unmatched"
    return Matching.from_edges(chosen[chosen >= 0].tolist(), vals)


@lru_cache(maxsize=256)
def _adjacency(graph: Graph) -> tuple[tuple[tuple[int, int], ...], ...]:
    adj: list[list[tuple[int, int]]] = [[] for _ in range(graph.num_vertices)]
    for eid, (u, v) in enumerate(graph.edges):
        adj[u].append((eid, v))
        adj[v].append((eid, u))
    return tuple(tuple(x) for x in adj)


def _dp_opt(graph: Graph, values: Sequence[float]) -> Matching:
    """Exact optimum by dynamic programming over vertex subsets (general graphs).

    Top-down with memoization: only subsets reachable from the full vertex
    set are evaluated, which keeps sparse graphs far below the 2^n ceiling.
    """
    adj = _adjacency(graph)
    best: dict[int, float] = {0: 0.0}
    pick: dict[int, tuple[int, int] | None] = {}

    def solve(mask: int) -> float:
        known = best.get(mask)
        if known is not None:
            return known
        v = (mask & -mask).bit_length() - 1  # lowest active vertex
        result = solve(mask & (mask - 1))  # v stays unmatched
        choice: tuple[int, int] | None = None
        for eid, w in adj[v]:
            if mask >> w & 1:
                sub = mask & ~(1 << v) & ~(1 << w)
                cand = solve(sub) + values[eid]
                if cand > result:
                    result = cand
                    choice = (eid, sub)
        best[mask] = result
        pick[mask] = choice
        return result

    full = (1 << graph.num_vertices) - 1
    solve(full)
    chosen: list[int] = []
    mask = full
    while mask:
        choice = pick.get(mask)
        if choice is None:
            mask &= mask - 1
        else:
            eid, sub = choice
            chosen.append(eid)
            mask = sub
    return Matching.from_edges(chosen, values)


def _blossom_opt(graph: Graph, vals: Sequence[float]) -> Matching:
    """Exact optimum by Edmonds' primal-dual blossom algorithm (any graph), O(n^3).

    networkx is imported here, not with the module: it costs about 130 ms and
    10 MB at import, and only general graphs above ``DP_VERTEX_CAP`` vertices
    need it.
    """
    import networkx as nx

    nxg = nx.Graph()
    for eid, (u, v) in enumerate(graph.edges):
        nxg.add_edge(u, v, weight=vals[eid], eid=eid)
    chosen = [nxg.edges[pair]["eid"] for pair in nx.max_weight_matching(nxg)]
    return Matching.from_edges(chosen, vals)


def max_weight_matching(graph: Graph, values: Sequence[float]) -> Matching:
    """Exact maximum-weight matching of a graph of any size.

    Bipartite graphs use the assignment solver; general graphs use subset DP
    up to ``DP_VERTEX_CAP`` (12) vertices, where it is the fastest, and
    Edmonds' blossom algorithm above.  Ties in total weight are broken
    arbitrarily; only the weight is contractual.
    """
    vals = _as_value_list(graph, values)
    if graph.kind == "bipartite":
        return _assignment_opt(graph, vals)
    if graph.num_vertices <= DP_VERTEX_CAP:
        return _dp_opt(graph, vals)
    return _blossom_opt(graph, vals)
