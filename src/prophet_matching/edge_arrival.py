"""Edge-arrival matching: the online threshold algorithm and its offline twin.

The online algorithm prices every vertex with its incident edge weight in a
greedy matching on the sample values, then accepts an arriving edge iff its
real value outranks both endpoint prices and both endpoints are still free.
Every comparison is one of two integer ranks from ``Realization.rank``: draw
e is edge e's sample and draw m+e its real value, and a price is the draw id
of the sample that set it.  The arrival loop is the one the vertex-arrival
algorithm and the truthful mechanism run too; each model supplies only the
edge an arrival acts on.

``_static_batch`` runs the same three models over a chunk of trials at once
when every arrival order is fixed in advance: the greedy sample prices, the
feasible set and the conflict pass become lockstep numpy steps over
(trials, m) arrays, and each weight is summed in edge-id order, so every
trial's edge sets and weights are bit-equal to this loop's.  Adaptive
orders, which react to the run, take the loop.

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
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

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
from .distributions import InstanceSpec
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


def _drive_arrivals(spec: InstanceSpec, real: Realization, order, elements, noun: str, chooser):
    """The online loop every model shares; returns the run's record.

    Prices every vertex by the greedy matching on the samples, then releases
    ``elements`` (edge or buyer ids) in ``order``: a permutation of them, or
    a controller whose ``next_arrival(view)`` picks each next arrival.  The
    prices never change after that, so ``chooser(prices)`` builds the
    model's ``choose`` once they are set.  For every arrival
    ``choose(element, matched)`` names the edge acted on, or None, and
    whether its real value outranks both endpoint prices.  An edge that
    clears both prices joins the feasible set, and the matching too if both
    endpoints are still free.
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
    choose = chooser(prices)

    matched: set[int] = set()
    accepted: list[int] = []
    feasible: list[int] = []
    events: list[ArrivalEvent] = []
    arrived: set[int] = set()
    for step in range(len(allowed)):
        if controller is None:
            x = seq[step]
        else:
            x = controller.next_arrival(AlgorithmView(prices, frozenset(matched)))
            try:
                x = operator.index(x)
            except TypeError:
                raise ContractViolation(f"controller produced invalid {noun} id {x!r}") from None
            if x not in allowed:
                raise ContractViolation(f"controller produced invalid {noun} id {x!r}")
            if x in arrived:
                raise ContractViolation(f"controller released {noun} {x} twice")
        arrived.add(x)
        e, clears_prices = choose(x, matched)
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


class StaticRuns(NamedTuple):
    """The online runs of a chunk of trials, row t for trial t.

    Each edge set is a (trials, m) boolean mask, and each weight a (trials,)
    array summed as ``matching_weight`` sums it: from 0.0, in edge-id order.
    ``safe`` is the vertex model's safe matching (``build_safe_matching`` of
    the feasible set), None for the other models.
    """

    matching: np.ndarray
    sample_matching: np.ndarray
    feasible: np.ndarray
    safe: np.ndarray | None
    matching_weight: np.ndarray
    sample_matching_weight: np.ndarray
    feasible_weight: np.ndarray
    safe_weight: np.ndarray | None


def _edge_sums(mask: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Each row's sum of ``values`` over the edges of ``mask``, as ``matching_weight``."""
    total = np.zeros(len(mask))
    if mask.shape[1]:
        # an accumulation adds left to right; adding it to 0.0 then gives the
        # sum from 0.0, which differs only in the sign of a zero
        total += np.where(mask, values, 0.0).cumsum(axis=1)[:, -1]
    return total


def _padded(groups: Sequence[Sequence[int]], m: int) -> np.ndarray:
    """Groups of edge ids as the rows of one array, padded with m (no edge)."""
    out = np.full((len(groups), max([1, *map(len, groups)])), m, dtype=np.intp)
    for g, edges in enumerate(groups):
        out[g, : len(edges)] = edges
    return out


def _least(groups: np.ndarray, edge_rank: np.ndarray) -> np.ndarray:
    """Per trial and row of ``_padded`` groups, the edge of least rank, or m if
    no rank is below 2m.  ``edge_rank`` is (trials, m + 1), 2m in column m."""
    m = edge_rank.shape[1] - 1
    cand = edge_rank[:, groups]
    best = groups[np.arange(len(groups)), cand.argmin(axis=2)]
    return np.where(cand.min(axis=2) < 2 * m, best, m)


def _mask(edges: np.ndarray, m: int) -> np.ndarray:
    """The (trials, m) mask of the edge ids in each row of ``edges``; m is no edge."""
    mask = np.zeros((len(edges), m + 1), dtype=bool)
    mask[np.arange(len(edges))[:, None], edges] = True
    return mask[:, :m]


def _scan(graph: Graph, order: np.ndarray, allowed: np.ndarray) -> np.ndarray:
    """Per trial, the edges taken by scanning its row of ``order``: each edge
    of ``allowed`` whose endpoints are both still free.

    ``order`` is (trials, steps) edge ids, where m is no edge; ``allowed`` is
    a (trials, m) mask.  The steps run in lockstep over all trials, on flat
    indices into the trials' vertex and edge arrays.
    """
    n, m = graph.num_vertices, graph.num_edges
    trials = len(order)
    # edge m joins an extra vertex n to itself and is never allowed
    ends = np.vstack((np.array(graph.edges, dtype=np.intp).reshape(m, 2), (n, n)))
    at = np.arange(trials)[:, None]
    firsts = (at * (n + 1) + ends[order, 0]).T.copy()
    seconds = (at * (n + 1) + ends[order, 1]).T.copy()
    steps = (at * (m + 1) + order).T.copy()
    ok = np.hstack((allowed, np.zeros((trials, 1), dtype=bool))).ravel()
    used = np.zeros(trials * (n + 1), dtype=bool)
    taken = np.zeros(trials * (m + 1), dtype=bool)
    for a, b, e in zip(firsts, seconds, steps):
        used_a, used_b = used[a], used[b]
        take = ok[e] & ~(used_a | used_b)
        taken[e] = take
        used[a] = used_a | take
        used[b] = used_b | take
    return taken.reshape(trials, m + 1)[:, :m]


def _static_batch(
    model: str, graph: Graph, values: np.ndarray, rank: np.ndarray, orders: np.ndarray
) -> StaticRuns:
    """The online runs of a chunk of trials whose arrival orders are fixed.

    Row t of the (trials, 2m) ``values`` and ``rank`` is trial t's
    realization (``Realization.values`` and ``rank``), and row t of
    ``orders`` its arrival order: a permutation of the edge ids, or of the
    buyer ids for the vertex and truthful models.  Each row's run is the one
    ``_drive_arrivals`` makes with the model's ``choose``, its steps taken
    for every trial at once:

    - the greedy sample matching, a ``_scan`` in sample-rank order, prices
      each matched vertex with the rank of its edge's sample, and every
      other vertex with 2m, which every draw outranks;
    - an edge clears the prices when its real draw outranks both endpoint
      prices.  The edge model's feasible set is every such edge, and the
      vertex model's holds each buyer's best-ranked clearing edge;
    - the conflict pass is a ``_scan`` of the feasible edges in arrival
      order.  A truthful buyer instead takes the clearing edge to a free
      item of highest surplus over its price, ties broken by rank, one
      lockstep step per buyer; every edge it takes is accepted, so its
      feasible set is its matching.
    """
    n, m = graph.num_vertices, graph.num_edges
    trials = len(values)
    rows = np.arange(trials)
    u, v = np.array(graph.edges, dtype=np.intp).reshape(m, 2).T
    real_rank = rank[:, m:]

    sample = _scan(graph, rank[:, :m].argsort(axis=1), np.ones((trials, m), dtype=bool))
    price = np.full((trials, n), 2 * m, dtype=rank.dtype)
    price_value = np.zeros((trials, n))
    t, e = np.nonzero(sample)
    for x in (u[e], v[e]):
        price[t, x] = rank[t, e]
        price_value[t, x] = values[t, e]
    clears = (real_rank < price[:, u]) & (real_rank < price[:, v])

    safe = None
    if model == "edge":
        feasible = clears
        matching = _scan(graph, orders, feasible)
    else:
        # column m stands for "no edge": it never clears, ranks 2m, and its
        # item, the extra vertex n, is never free
        no_edge = np.zeros((trials, 1), dtype=bool)
        clears = np.hstack((clears, no_edge))
        real_rank = np.hstack((real_rank, np.full((trials, 1), 2 * m, dtype=rank.dtype)))
        place = np.zeros(n, dtype=np.intp)
        place[list(graph.buyers)] = np.arange(len(graph.buyers))
        by_buyer = _padded([graph.incident[i] for i in graph.buyers], m)
        if model == "vertex":
            best = _least(by_buyer, np.where(clears, real_rank, 2 * m))
            feasible = _mask(best, m)
            matching = _scan(graph, best[rows[:, None], place[orders]], feasible)
            by_item = _padded([graph.incident[j] for j in graph.items], m)
            feasible_rank = np.where(np.hstack((feasible, no_edge)), real_rank, 2 * m)
            safe = _mask(_least(by_item, feasible_rank), m)
        else:
            item = np.append(np.array(graph.buyer_items, dtype=np.intp).reshape(m, 2)[:, 1], n)
            surplus = values[:, m:] - np.maximum(price_value[:, u], price_value[:, v])
            surplus = np.hstack((surplus, np.zeros((trials, 1))))
            taken = np.zeros((trials, n + 1), dtype=bool)
            taken[:, n] = True
            at, chosen = rows[:, None], []
            for i in orders.T:
                cand = by_buyer[place[i]]
                ok = clears[at, cand] & ~taken[at, item[cand]]
                gain = np.where(ok, surplus[at, cand], -np.inf)
                top = ok & (gain == gain.max(axis=1, keepdims=True))
                e = cand[rows, np.where(top, real_rank[at, cand], 2 * m).argmin(axis=1)]
                e = np.where(top.any(axis=1), e, m)
                taken[rows, item[e]] = True
                chosen.append(e)
            matching = feasible = _mask(np.array(chosen, dtype=np.intp).reshape(-1, trials).T, m)

    reals = values[:, m:]
    matching_weight = _edge_sums(matching, reals)
    return StaticRuns(
        matching=matching,
        sample_matching=sample,
        feasible=feasible,
        safe=safe,
        matching_weight=matching_weight,
        sample_matching_weight=_edge_sums(sample, values[:, :m]),
        feasible_weight=matching_weight if feasible is matching else _edge_sums(feasible, reals),
        safe_weight=None if safe is None else _edge_sums(safe, reals),
    )


def run_online_edge(spec: InstanceSpec, real: Realization, order) -> RunRecord:
    """Run the online edge-arrival algorithm.

    ``order`` is either a permutation of edge ids or a controller object with
    a ``next_arrival(view)`` method (see :mod:`prophet_matching.adversary`).
    Acceptance decisions are immediate and irrevocable.
    """
    graph = spec.graph
    m = graph.num_edges

    def chooser(prices):
        def choose(e, matched):
            u, v = graph.edges[e]
            return e, prices.beaten_by(m + e, u) and prices.beaten_by(m + e, v)

        return choose

    return _drive_arrivals(spec, real, order, range(graph.num_edges), "edge", chooser)


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
    considered_vertices: frozenset[int]
    first_edge: Mapping[int, int]
    safe: frozenset[int]


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
    first_edge: dict[int, int] = {}
    for d in eff.order:
        e, is_real = d % m, d >= m
        u, v = graph.edges[e]
        if state[e] == _FREE and u in active and v in active:
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
        considered_vertices=considered_vertices,
        first_edge=first_edge,
        safe=_compute_safe(graph, feas_set, considered_vertices, first_edge, eff.rank[m:]),
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


def _kernel_agrees(
    model: str,
    graph: Graph,
    real: Realization,
    order: Sequence[int],
    record: RunRecord,
    safe: Matching | None = None,
) -> bool:
    """Does ``_static_batch`` give one run's record exactly?

    Runs the kernel on the realization and arrival order alone and compares
    its matching, sample matching and feasible set, and the vertex model's
    safe matching when ``safe`` is given, as edge sets and bit for bit by
    weight.
    """
    orders = np.array([order], dtype=np.intp).reshape(1, -1)
    runs = _static_batch(model, graph, real.values[None], real.rank_array[None], orders)
    pairs = [
        (runs.matching, runs.matching_weight, record.matching.edges, record.matching.weight),
        (runs.sample_matching, runs.sample_matching_weight,
         record.sample_matching.edges, record.sample_matching.weight),
        (runs.feasible, runs.feasible_weight, record.feasible, record.feasible_weight),
    ]
    if safe is not None:
        pairs.append((runs.safe, runs.safe_weight, safe.edges, safe.weight))
    return all(
        set(np.flatnonzero(mask[0]).tolist()) == set(edges) and weight[0].hex() == want.hex()
        for mask, weight, edges, want in pairs
    )

