"""Bipartite matching with one-sided vertex arrivals, online and offline.

Items are fixed; buyers arrive one by one with all their incident real values
revealed at once.  Prices on both sides come from the greedy matching on the
sample values.  An arriving buyer contributes at most one edge to the
feasible set: the highest-ranked incident edge that clears both its buyer
price and its item price.  That edge joins the matching iff its item is free.

The offline twin scans all 2m draws from best to worst, keeping three
pools: buyers still open for a feasible edge, buyers still open on the sample
side, and items still open on the sample side.  Under the coupling coin
convention it reproduces the online run exactly, realization by realization,
so it returns the same ``RunRecord``, which the coupling check compares.
The safe matching is ``build_safe_matching`` of either run's feasible set.
"""

from __future__ import annotations

from typing import Sequence

from .core import (
    CapabilityError,
    Graph,
    Matching,
    PriceTable,
    Realization,
    RunRecord,
    matching_weight,
)
from .distributions import InstanceSpec
from .edge_arrival import _check_order, _drive_arrivals


def _require_bipartite(graph: Graph):
    if graph.kind != "bipartite":
        raise CapabilityError("vertex-arrival algorithms require a bipartite graph")


def run_online_vertex(spec: InstanceSpec, real: Realization, order) -> RunRecord:
    """Run the online one-sided vertex-arrival algorithm.

    ``order`` is a permutation of the buyer ids or a controller object.
    """
    graph = spec.graph
    _require_bipartite(graph)
    adjacent = graph.adjacent

    def chooser(prices):
        price = prices.ranks(graph.num_vertices)
        real_rank = real.rank_array[graph.num_edges :].tolist()

        def choose(i, matched):
            # the least-ranked edge that clears both prices: starting from the
            # buyer's price, one compare tests that price and the best so far
            best, least = None, price[i]
            for e, j in adjacent[i]:
                r = real_rank[e]
                if r < least and r < price[j]:
                    best, least = e, r
            return best, True

        return choose

    return _drive_arrivals(spec, real, order, graph.buyers, "buyer", chooser)


def build_safe_matching(graph: Graph, feasible: Sequence[int], real: Realization) -> Matching:
    """Keep, per item, the highest-ranked edge of a feasible set.

    Buyers appear at most once in the feasible set, so the result is a valid
    matching.  It depends on the feasible set only, not on its order, so the
    online run's feasible set gives the twin's safe matching (they are equal
    under the coupling).
    """
    real_rank = real.rank_array[real.num_edges :]
    best_for_item: dict[int, int] = {}
    for e in feasible:
        _, j = graph.buyer_item(e)
        cur = best_for_item.get(j)
        if cur is None or real_rank[e] < real_rank[cur]:
            best_for_item[j] = e
    return Matching.from_edges(best_for_item.values(), real.real_values)


def run_offline_vertex(spec: InstanceSpec, real: Realization, order) -> RunRecord:
    """Run the offline twin of the vertex-arrival algorithm, coins coupled.

    Scans all 2m draws from best to worst.  A real draw joins the feasible
    set if its buyer has no feasible edge yet, is unmatched on the sample
    side, and its item is still open; its buyer then leaves the
    open-for-feasible pool.  A sample draw joins the sample matching if buyer
    and item are open on the sample side; both then leave their pools.  The
    output matching is extracted from the feasible set in buyer arrival
    order.  Each edge's coin is coupled to the realization (its real draw is
    the real-designated copy), so the twin reproduces the online run exactly.
    """
    graph = spec.graph
    _require_bipartite(graph)
    m = graph.num_edges
    if real.num_edges != m:
        from .core import InputError  # raised only here; keeps the module's names few

        raise InputError("realization does not match the instance graph")
    seq = _check_order(order, graph.buyers, "buyer")

    open_real: set[int] = set(graph.buyers)
    open_sample: set[int] = set(graph.buyers)
    open_items: set[int] = set(graph.items)
    feasible: list[int] = []
    sample_ids: list[int] = []
    for d in real.order:
        e, is_real = d % m, d >= m
        i, j = graph.buyer_item(e)
        if is_real:
            if i in open_real and j in open_items:
                feasible.append(e)
                open_real.remove(i)
        else:
            if i in open_sample and j in open_items:
                sample_ids.append(e)
                open_items.remove(j)
                open_sample.remove(i)
                open_real.discard(i)

    edge_of_buyer: dict[int, int] = {}
    for e in feasible:
        i, _ = graph.buyer_item(e)
        edge_of_buyer[i] = e
    taken: set[int] = set()
    accepted: list[int] = []
    for i in seq:
        e = edge_of_buyer.get(i)
        if e is None:
            continue
        _, j = graph.buyer_item(e)
        if j not in taken:
            accepted.append(e)
            taken.add(j)

    sample_matching = Matching.from_edges(sample_ids, real.sample_values)
    return RunRecord(
        matching=Matching.from_edges(accepted, real.real_values),
        sample_matching=sample_matching,
        feasible=tuple(feasible),
        feasible_weight=matching_weight(feasible, real.real_values),
        prices=PriceTable.from_matching(graph, sample_matching, real),
    )
