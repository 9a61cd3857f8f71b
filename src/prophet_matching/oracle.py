"""Offline baselines: greedy matching and exact maximum-weight matching.

The greedy scan is shared by every online algorithm in this package for
building sample prices, so tie handling is identical everywhere.  The exact
solver is the reference the Monte Carlo harness measures against.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .core import CapabilityError, DrawnValue, Graph, InputError, Matching

ENUMERATION_EDGE_CAP = 24
DP_VERTEX_CAP = 22


def _as_value_list(graph: Graph, values) -> list[DrawnValue]:
    """Normalize a value map/sequence to a list indexed by edge id."""
    m = graph.num_edges
    if isinstance(values, Mapping):
        out = []
        for eid in range(m):
            if eid not in values:
                raise InputError(f"missing value for edge {eid}")
            out.append(values[eid])
        return out
    values = list(values)
    if len(values) != m:
        raise InputError(f"need {m} edge values, got {len(values)}")
    return values


def greedy_matching(graph: Graph, values) -> Matching:
    """Scan edges in decreasing rank order, keeping those with both endpoints free.

    The result is a maximal matching and a 2-approximation of the maximum
    weight matching.  The scan order comes only from the values' total order,
    never from the edge list order.
    """
    vals = _as_value_list(graph, values)
    order = sorted(range(graph.num_edges), key=lambda e: vals[e].sort_key())
    used: set[int] = set()
    chosen: list[int] = []
    for eid in order:
        u, v = graph.edges[eid]
        if u not in used and v not in used:
            chosen.append(eid)
            used.update((u, v))
    return Matching.from_edges(chosen, vals)


def _assignment_opt(graph: Graph, vals: Sequence[DrawnValue]) -> Matching:
    """Bipartite exact optimum via the rectangular assignment problem."""
    buyers, items = graph.buyers, graph.items
    brow = {b: i for i, b in enumerate(buyers)}
    jcol = {j: i for i, j in enumerate(items)}
    weight = np.zeros((len(buyers), len(items)))
    eid_at: dict[tuple[int, int], int] = {}
    for eid in range(graph.num_edges):
        b, j = graph.buyer_item(eid)
        weight[brow[b], jcol[j]] = vals[eid].value
        eid_at[(brow[b], jcol[j])] = eid
    if weight.size == 0:
        return Matching.empty()
    rows, cols = linear_sum_assignment(weight, maximize=True)
    chosen = [
        eid_at[(r, c)]
        for r, c in zip(rows, cols)
        if (r, c) in eid_at  # zero cells without a real edge mean "unmatched"
    ]
    return Matching.from_edges(chosen, vals)


@lru_cache(maxsize=256)
def _adjacency(graph: Graph) -> tuple[tuple[tuple[int, int], ...], ...]:
    adj: list[list[tuple[int, int]]] = [[] for _ in range(graph.num_vertices)]
    for eid, (u, v) in enumerate(graph.edges):
        adj[u].append((eid, v))
        adj[v].append((eid, u))
    return tuple(tuple(x) for x in adj)


def _dp_opt(graph: Graph, vals: Sequence[DrawnValue]) -> Matching:
    """Exact optimum by dynamic programming over vertex subsets (general graphs).

    Top-down with memoization: only subsets reachable from the full vertex
    set are evaluated, which keeps sparse graphs far below the 2^n ceiling.
    """
    adj = _adjacency(graph)
    values = [d.value for d in vals]
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
    return Matching.from_edges(chosen, vals)


def _enumerate_opt(graph: Graph, vals: Sequence[DrawnValue]) -> Matching:
    """Exact optimum by branch-and-bound over edge subsets.

    Edges are scanned in decreasing value order; the remaining-weight bound
    prunes branches that cannot beat the incumbent.
    """
    order = sorted(range(graph.num_edges), key=lambda e: -vals[e].value)
    suffix = [0.0] * (len(order) + 1)
    for i in range(len(order) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + vals[order[i]].value
    best_weight = -1.0
    best_edges: list[int] = []
    current: list[int] = []

    def recurse(i: int, used: int, weight: float):
        nonlocal best_weight, best_edges
        if weight > best_weight:
            best_weight = weight
            best_edges = list(current)
        if i == len(order) or weight + suffix[i] <= best_weight:
            return
        eid = order[i]
        u, v = graph.edges[eid]
        if not (used >> u & 1) and not (used >> v & 1):
            current.append(eid)
            recurse(i + 1, used | 1 << u | 1 << v, weight + vals[eid].value)
            current.pop()
        recurse(i + 1, used, weight)

    recurse(0, 0, 0.0)
    return Matching.from_edges(best_edges, vals)


def max_weight_matching(graph: Graph, values) -> Matching:
    """Exact maximum-weight matching.

    Bipartite graphs use the assignment solver; general graphs use subset DP
    up to 22 vertices, then subset enumeration up to 24 edges.  Beyond both
    caps a :class:`CapabilityError` is raised rather than silently
    approximating.  Ties in total weight are broken arbitrarily; only the
    weight is contractual.
    """
    vals = _as_value_list(graph, values)
    if graph.kind == "bipartite":
        return _assignment_opt(graph, vals)
    if graph.num_vertices <= DP_VERTEX_CAP:
        return _dp_opt(graph, vals)
    if graph.num_edges <= ENUMERATION_EDGE_CAP:
        return _enumerate_opt(graph, vals)
    raise CapabilityError(
        f"no exact solver for a general graph with {graph.num_vertices} vertices "
        f"and {graph.num_edges} edges (caps: {DP_VERTEX_CAP} vertices for DP, "
        f"{ENUMERATION_EDGE_CAP} edges for enumeration)"
    )
