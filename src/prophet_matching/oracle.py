"""Offline baselines: greedy matching and exact maximum-weight matching.

The greedy scan is shared by every online algorithm in this package for
building sample prices.  It scans a given edge order, which callers take from
the realization's rank (``Realization.edge_order``), so tie handling is the
one strict total order everywhere and no sort happens here.  The exact
solver is the reference the Monte Carlo harness measures against; it takes
one of three paths:

- a graph with at most ``MATCHING_TABLE_CAP`` matchings is solved from its
  ``Graph.matching_table``: every matching's weight is summed in edge-id
  order, as ``matching_weight`` sums it, and the largest is the optimum;
- other bipartite graphs go to the assignment solver;
- other general graphs go to Edmonds' blossom algorithm.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .core import Graph, InputError, Matching


def _as_value_list(graph: Graph, values: Sequence[float]) -> list[float]:
    """The values of a sequence indexed by edge id, as a list."""
    values = list(values)
    if len(values) != graph.num_edges:
        raise InputError(f"need {graph.num_edges} edge values, got {len(values)}")
    return values


_NOT_A_PERMUTATION = "greedy order must be a permutation of the edge ids"


def greedy_matching(graph: Graph, order: Sequence[int], values: Sequence[float]) -> Matching:
    """Scan edge ids in ``order``, keeping those with both endpoints free.

    With ``order`` from best to worst value (``Realization.edge_order``) the
    result is a maximal matching and a 2-approximation of the maximum weight
    matching, and its scan order comes only from the values' total order,
    never from the edge list order.  ``values`` only weigh the result.
    """
    vals = _as_value_list(graph, values)
    edges = graph.edges
    if len(order) != len(edges):
        raise InputError(_NOT_A_PERMUTATION)
    # of the right length, the order is a permutation iff no id repeats
    seen = bytearray(len(edges))
    used: set[int] = set()
    chosen: list[int] = []
    try:
        for eid in order:
            if eid < 0 or seen[eid]:  # an id past the last edge raises IndexError
                raise InputError(_NOT_A_PERMUTATION)
            seen[eid] = 1
            u, v = edges[eid]
            if u not in used and v not in used:
                chosen.append(eid)
                used.update((u, v))
    except IndexError:
        raise InputError(_NOT_A_PERMUTATION) from None
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


def _table_weights(table: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The weight of every matching of ``table`` under each row of ``values``.

    Each weight is added up in edge-id order from 0.0, as ``matching_weight``
    does, so the two agree bit for bit; padding adds a 0.0 at the end.
    """
    padded = np.zeros((len(values), values.shape[1] + 1))
    padded[:, :-1] = values
    weights = np.zeros((len(values), len(table)))
    for column in table.T:
        weights += padded[:, column]
    return weights


def _table_opt(graph: Graph, vals: Sequence[float]) -> Matching:
    """Exact optimum as the heaviest row of the graph's matching table."""
    table = graph.matching_table
    row = table[_table_weights(table, np.array([vals]))[0].argmax()]
    return Matching.from_edges(row[row < graph.num_edges].tolist(), vals)


def _blossom_opt(graph: Graph, vals: Sequence[float]) -> Matching:
    """Exact optimum by Edmonds' primal-dual blossom algorithm (any graph), O(n^3).

    networkx is imported here, not with the module: it costs about 130 ms and
    10 MB at import, and only general graphs past ``MATCHING_TABLE_CAP``
    matchings need it.
    """
    import networkx as nx

    nxg = nx.Graph()
    for eid, (u, v) in enumerate(graph.edges):
        nxg.add_edge(u, v, weight=vals[eid], eid=eid)
    chosen = [nxg.edges[pair]["eid"] for pair in nx.max_weight_matching(nxg)]
    return Matching.from_edges(chosen, vals)


def max_weight_matching(graph: Graph, values: Sequence[float]) -> Matching:
    """Exact maximum-weight matching of a graph of any size.

    Graphs with a matching table take its heaviest row; past the table's cap
    bipartite graphs use the assignment solver and general graphs Edmonds'
    blossom algorithm.  Ties in total weight are broken arbitrarily; only the
    weight is contractual.
    """
    vals = _as_value_list(graph, values)
    if graph.matching_table is not None:
        return _table_opt(graph, vals)
    if graph.kind == "bipartite":
        return _assignment_opt(graph, vals)
    return _blossom_opt(graph, vals)
