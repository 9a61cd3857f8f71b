"""Edge-arrival matching: the online threshold algorithm and its offline twin.

The online algorithm prices every vertex with its incident edge weight in a
greedy matching on the sample values, then accepts an arriving edge iff its
real value outranks both endpoint prices and both endpoints are still free.
Every comparison is one of two integer ranks from ``Realization.rank``: draw
e is edge e's sample and draw m+e its real value, and a price is the draw id
of the sample that set it.  The arrival loop is the one the vertex-arrival
algorithm and the truthful mechanism run too; each model supplies only the
edge an arrival acts on.

The offline twin replays the same outcome as a single greedy-style scan over
all 2m draws (both copies of every edge) in the realization's ``order``,
routing each edge's first considered copy to either the feasible set or the
sample matching by a coin.  With the coupling coin convention (heads exactly
when the first considered copy is the edge's real draw) the two produce
identical feasible sets, sample matchings, and output matchings realization
by realization, which is the strongest correctness check in the test suite.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .core import (
    AlgorithmView,
    ArrivalEvent,
    ContractViolation,
    Graph,
    InputError,
    Matching,
    PriceTable,
    Realization,
    RunRecord,
    matching_weight,
)
from .distributions import InstanceSpec, draw_realization
from .oracle import greedy_matching


def _check_order(order, elements, noun: str) -> list[int]:
    try:
        order = [operator.index(x) for x in order]
    except TypeError:
        raise InputError(f"order must hold integer {noun} ids") from None
    if sorted(order) != sorted(elements):
        raise InputError(f"order must be a permutation of the {noun} ids")
    return order


def _effective_labels(real: Realization, coins: Callable[[int], bool] | None) -> Realization:
    """Relabel which copy of each edge counts as the real draw.

    The offline scan flips an edge's coin when its first (larger) copy is
    considered: heads routes that copy to the feasible set, i.e. declares it
    the real draw.  Fixing all coins up front and swapping labels accordingly
    is equivalent, because the pool of active vertices only shrinks, so a copy
    skipped once can never be considered later.  ``coins=None`` is the
    coupling: heads exactly when the larger copy is already the real draw.
    """
    if coins is None:
        return real
    m, rank = real.num_edges, real.rank
    # swap the edges whose coin disagrees with "the larger copy is real"
    return real.swap_copies(e for e in range(m) if coins(e) != (rank[m + e] < rank[e]))


def _drive_arrivals(spec: InstanceSpec, real: Realization, order, elements, noun: str, choose):
    """The online loop every model shares; returns the run's record.

    Prices every vertex by the greedy matching on the samples, then releases
    ``elements`` (edge or buyer ids) in ``order``: a permutation of them, or
    a controller whose ``next_arrival(view)`` picks each next arrival.  For
    every arrival ``choose(element, prices, matched)`` names the edge acted
    on, or None, and whether its real value outranks both endpoint prices.
    An edge that clears both prices joins the feasible set, and the matching
    too if both endpoints are still free.
    """
    graph = spec.graph
    if real.num_edges != graph.num_edges:
        raise InputError("realization does not match the instance graph")
    controller = order if hasattr(order, "next_arrival") else None
    if controller is None:
        seq = _check_order(order, elements, noun)
    allowed = set(elements)
    sample_matching = greedy_matching(graph, real.edge_order(0), real.sample_values)
    prices = PriceTable.from_matching(graph, sample_matching, real)

    matched: set[int] = set()
    accepted: list[int] = []
    feasible: list[int] = []
    events: list[ArrivalEvent] = []
    arrived: set[int] = set()
    for step in range(len(allowed)):
        if controller is None:
            x = seq[step]
        else:
            view = AlgorithmView(
                prices=prices,
                matched_vertices=frozenset(matched),
                matching_edges=frozenset(accepted),
                feasible=tuple(feasible),
                arrived=frozenset(arrived),
            )
            x = controller.next_arrival(view)
            try:
                x = operator.index(x)
            except TypeError:
                raise ContractViolation(f"controller produced invalid {noun} id {x!r}") from None
            if x not in allowed:
                raise ContractViolation(f"controller produced invalid {noun} id {x!r}")
            if x in arrived:
                raise ContractViolation(f"controller released {noun} {x} twice")
        arrived.add(x)
        e, clears_prices = choose(x, prices, matched)
        if e is None:
            events.append(ArrivalEvent(step=step, element=x, outcome="no_feasible_edge"))
            continue
        u, v = graph.edges[e]
        if not clears_prices:
            outcome = "price_rejected"
        else:
            feasible.append(e)
            if u in matched or v in matched:
                outcome = "conflict_rejected"
            else:
                accepted.append(e)
                matched.update((u, v))
                outcome = "accepted"
        events.append(
            ArrivalEvent(
                step=step,
                element=x,
                outcome=outcome,
                edge=e,
                value=real.real_values[e],
                threshold=max(prices.price(u), prices.price(v)),
            )
        )
    return RunRecord(
        matching=Matching.from_edges(accepted, real.real_values),
        sample_matching=sample_matching,
        feasible=tuple(feasible),
        feasible_weight=matching_weight(feasible, real.real_values),
        prices=prices,
        events=tuple(events),
    )


def run_online_edge(spec: InstanceSpec, real: Realization, order) -> RunRecord:
    """Run the online edge-arrival algorithm.

    ``order`` is either a permutation of edge ids or a controller object with
    a ``next_arrival(view)`` method (see :mod:`prophet_matching.adversary`).
    Acceptance decisions are immediate and irrevocable.
    """
    graph = spec.graph
    m = graph.num_edges

    def choose(e, prices, matched):
        u, v = graph.edges[e]
        return e, prices.beaten_by(m + e, u) and prices.beaten_by(m + e, v)

    return _drive_arrivals(spec, real, order, range(graph.num_edges), "edge", choose)


@dataclass(frozen=True)
class EdgeArrivalTrace:
    """Offline-run trace with the per-vertex bookkeeping the analysis uses.

    ``first_edge`` maps each vertex that ever had an incident edge considered
    to the first such edge; ``safe`` holds the vertices whose first edge
    landed in the feasible set and is shielded from conflicts (it is the only
    feasible edge at the vertex, and its other endpoint has no lower-ranked
    feasible edge).
    """

    record: RunRecord
    realization: Realization  # with labels as the scan used them
    considered: tuple[int, ...]
    considered_vertices: frozenset[int]
    first_edge: Mapping[int, int]
    safe: frozenset[int]
    coin_flips: tuple[tuple[int, bool], ...]


def _compute_safe(
    graph: Graph,
    feasible: frozenset[int],
    considered_vertices: frozenset[int],
    first_edge: Mapping[int, int],
    real_rank: Sequence[int],
) -> frozenset[int]:
    out = []
    for v in considered_vertices:
        e = first_edge[v]
        if e not in feasible:
            continue
        a, b = graph.edges[e]
        u = b if a == v else a
        if any(e2 in feasible and e2 != e for e2 in graph.incident[v]):
            continue
        if any(
            e2 in feasible and e2 != e and real_rank[e] < real_rank[e2]
            for e2 in graph.incident[u]
        ):
            continue
        out.append(v)
    return frozenset(out)


_FREE, _REAL_USED, _SAMPLE_USED = 0, 1, 2


def run_offline_edge(
    spec: InstanceSpec,
    real: Realization,
    order,
    coins: Callable[[int], bool] | None = None,
) -> EdgeArrivalTrace:
    """Run the offline twin: one scan over all 2m draws, from best to worst.

    A draw is considered when its edge is untouched and both endpoints are
    still active.  The edge's coin then routes it: heads declares the draw
    real and adds the edge to the feasible set; tails declares it a sample
    and adds the edge to the sample matching, retiring both endpoints.  The
    later, smaller copy of a feasible edge still joins the sample matching if
    its endpoints remain active.  Finally the output matching is extracted
    from the feasible set in the given arrival order.  ``coins(e)`` forces
    edge ``e``'s coin; None couples the coins to the realization, so that the
    twin reproduces the online run exactly.
    """
    graph = spec.graph
    m = graph.num_edges
    seq = _check_order(order, range(m), "edge")
    eff = _effective_labels(real, coins)

    state = [_FREE] * m
    active = set(range(graph.num_vertices))
    feasible: list[int] = []
    sample_ids: list[int] = []
    considered: list[int] = []
    first_edge: dict[int, int] = {}
    coin_flips: list[tuple[int, bool]] = []
    for d in eff.order:
        e, is_real = d % m, d >= m
        u, v = graph.edges[e]
        if state[e] == _FREE and u in active and v in active:
            coin_flips.append((e, is_real))
            considered.append(e)
            first_edge.setdefault(u, e)
            first_edge.setdefault(v, e)
            if is_real:
                state[e] = _REAL_USED
                feasible.append(e)
            else:
                state[e] = _SAMPLE_USED
                sample_ids.append(e)
                active.difference_update((u, v))
        elif state[e] == _REAL_USED and u in active and v in active:
            # the sample copy of an already-feasible edge
            sample_ids.append(e)
            active.difference_update((u, v))

    feas_set = frozenset(feasible)
    used: set[int] = set()
    accepted: list[int] = []
    for e in seq:
        if e in feas_set:
            u, v = graph.edges[e]
            if u not in used and v not in used:
                accepted.append(e)
                used.update((u, v))

    sample_matching = Matching.from_edges(sample_ids, eff.sample_values)
    record = RunRecord(
        matching=Matching.from_edges(accepted, eff.real_values),
        sample_matching=sample_matching,
        feasible=tuple(feasible),
        feasible_weight=matching_weight(feasible, eff.real_values),
        prices=PriceTable.from_matching(graph, sample_matching, eff),
    )
    considered_vertices = frozenset(first_edge)
    return EdgeArrivalTrace(
        record=record,
        realization=eff,
        considered=tuple(considered),
        considered_vertices=considered_vertices,
        first_edge=first_edge,
        safe=_compute_safe(graph, feas_set, considered_vertices, first_edge, eff.rank[m:]),
        coin_flips=tuple(coin_flips),
    )


def _records_agree(online: RunRecord, offline: RunRecord) -> bool:
    """Same feasible set, sample matching and output matching, as sets and by weight."""
    return (
        set(online.feasible) == set(offline.feasible)
        and online.sample_matching.edges == offline.sample_matching.edges
        and online.matching.edges == offline.matching.edges
        and online.feasible_weight == offline.feasible_weight
        and online.sample_matching.weight == offline.sample_matching.weight
        and online.matching.weight == offline.matching.weight
    )


def coupled_equivalence_check(spec: InstanceSpec, seed: int, order) -> bool:
    """Do the online run and its coupled offline twin agree exactly?

    Draws one realization, runs both procedures with the same arrival order,
    and compares the feasible set, the sample matching, and the output
    matching as sets and by weight.  Any disagreement is a bug.
    """
    real = draw_realization(spec, seed)
    order = _check_order(order, range(spec.graph.num_edges), "edge")
    online = run_online_edge(spec, real, order)
    return _records_agree(online, run_offline_edge(spec, real, order).record)
