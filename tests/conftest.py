"""Shared test helpers: independent brute-force references and tiny builders.

The brute-force matcher enumerates every subset of edges, and the reference
order sorts draws by ``(-value, key)`` directly, so neither shares a code path
with what it checks.
"""

from __future__ import annotations

from itertools import combinations

from prophet_matching.core import Graph, Realization


def brute_force_max_weight(graph: Graph, values) -> float:
    """Maximum matching weight of float edge values by exhaustive subset
    enumeration (m <= ~14)."""
    m = graph.num_edges
    vals = [values[e] for e in range(m)]
    best = 0.0
    for size in range(1, m + 1):
        for subset in combinations(range(m), size):
            used = set()
            ok = True
            for eid in subset:
                u, v = graph.edges[eid]
                if u in used or v in used:
                    ok = False
                    break
                used.update((u, v))
            if ok:
                best = max(best, sum(vals[e] for e in subset))
    return best


def reference_order(draws) -> list[int]:
    """Indices of ``draws`` from best to worst: larger value first, then smaller key."""
    return sorted(range(len(draws)), key=lambda d: (-draws[d].value, draws[d].tiebreak))


def general_graph(n: int, edges) -> Graph:
    return Graph(num_vertices=n, edges=tuple(edges))


def bipartite_graph(buyers, items, edges) -> Graph:
    n = len(buyers) + len(items)
    return Graph(
        num_vertices=n,
        edges=tuple(edges),
        kind="bipartite",
        buyers=tuple(buyers),
        items=tuple(items),
    )


def realization(samples, reals) -> Realization:
    """Build a realization from (value, key) pairs: the samples, then the reals."""
    draws = list(samples) + list(reals)
    return Realization(values=[float(v) for v, _ in draws], keys=[k for _, k in draws])
