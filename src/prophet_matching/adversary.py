"""Arrival-order strategies, from fixed permutations to adaptive adversaries.

Adaptive strategies know the full realization (all sample and real values)
and observe the algorithm's public state after every step; they may release
any element that has not arrived yet.  They never see coin futures or any
internal randomness.  A strategy instance is stateful and drives exactly one
run.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .core import AlgorithmView, Graph, InputError, Realization

ADAPTIVE_POLICIES = ("block-best", "starve-items")


@dataclass(frozen=True)
class OrderStrategy:
    """Declarative description of an arrival order.

    kinds: fixed (explicit permutation), random (shuffle seeded by the
    trial), dec / inc (by real value, decreasing / increasing), adaptive
    (named policy reacting to the algorithm's public state).
    """

    kind: str
    order: tuple[int, ...] | None = None
    policy: str | None = None

    def __post_init__(self):
        if self.kind not in ("fixed", "random", "dec", "inc", "adaptive"):
            raise InputError(f"unknown order kind {self.kind!r}")
        if self.order is not None:
            try:
                object.__setattr__(self, "order", tuple(map(operator.index, self.order)))
            except TypeError:
                raise InputError("order ids must be integers") from None
        if self.kind == "fixed" and self.order is None:
            raise InputError("fixed order needs an explicit permutation")
        if self.kind != "fixed" and self.order is not None:
            raise InputError(f"a {self.kind} order takes no explicit permutation")
        if self.kind != "adaptive" and self.policy is not None:
            raise InputError(f"a {self.kind} order takes no adaptive policy")
        if self.kind == "adaptive" and self.policy not in ADAPTIVE_POLICIES:
            raise InputError(
                f"unknown adaptive policy {self.policy!r}; "
                f"available: {', '.join(ADAPTIVE_POLICIES)}"
            )


def parse_order_spec(text: str) -> OrderStrategy:
    """Parse CLI/config order strings.

    Accepted forms: ``fixed:2,0,1`` | ``random`` | ``inc`` | ``dec`` |
    ``adaptive:block-best`` | ``adaptive:starve-items``.
    """
    if text.startswith("fixed:"):
        try:
            ids = tuple(int(x) for x in text[len("fixed:"):].split(","))
        except ValueError:
            raise InputError(f"bad fixed order {text!r}") from None
        return OrderStrategy(kind="fixed", order=ids)
    if text.startswith("adaptive:"):
        return OrderStrategy(kind="adaptive", policy=text[len("adaptive:"):])
    if text in ("random", "inc", "dec"):
        return OrderStrategy(kind=text)
    raise InputError(f"unrecognized order spec {text!r}")


def _elements_for_model(graph: Graph, model: str) -> list[int]:
    if model == "edge":
        return list(range(graph.num_edges))
    if model in ("vertex", "truthful"):
        return list(graph.buyers)
    raise InputError(f"unknown model {model!r}")


def static_order(
    strategy: OrderStrategy, graph: Graph, real: Realization, model: str, seed: int = 0
) -> list[int]:
    """Materialize a non-adaptive strategy into an explicit arrival order.

    For edge arrivals the inc/dec kinds sort edges by the rank of their real
    draw; for buyer arrivals they sort buyers by their best incident real
    draw, and a buyer without edges sorts like a zero value with key 0: after
    every positive draw, before every zero one.  The random kind shuffles
    with ``seed``.
    """
    if strategy.kind == "adaptive":
        raise InputError("adaptive strategies cannot be materialized statically")
    elements = _elements_for_model(graph, model)
    if strategy.kind == "fixed":
        order = list(strategy.order)
        if sorted(order) != sorted(elements):
            raise InputError("fixed order is not a permutation of the arriving elements")
        return order
    if strategy.kind == "random":
        rng = np.random.default_rng(np.random.SeedSequence([seed]))
        return [elements[k] for k in rng.permutation(len(elements))]
    if model == "edge":
        keyed = real.edge_order(1)
    else:
        m, rank, incident = real.num_edges, real.rank, graph.incident
        zero_rank = None
        if not all(incident[i] for i in elements):
            # a buyer without edges ranks like a draw of value 0 with key 0
            zero_rank = int(np.count_nonzero(real.values > 0)) - 0.5
        keyed = sorted(
            elements, key=lambda i: min((rank[m + e] for e in incident[i]), default=zero_rank)
        )
    return keyed if strategy.kind == "dec" else keyed[::-1]


class BlockBestController:
    """Edge-model adversary: release the feasible edge that blocks the most.

    At each step, among unarrived price-feasible edges that the algorithm
    would accept right now, it releases the one whose acceptance removes the
    largest total value of other currently acceptable feasible edges.  When
    nothing is acceptable it releases the smallest remaining value first.
    This is a stress heuristic, not a worst-case-optimal adversary.
    """

    def __init__(self, graph: Graph, real: Realization):
        self._graph = graph
        self._real = real
        self._remaining = set(range(graph.num_edges))
        self._feasible: set[int] | None = None  # unarrived edges that clear both prices

    def next_arrival(self, view: AlgorithmView) -> int:
        graph, real = self._graph, self._real
        if self._feasible is None:
            # the prices are set before the first step and never change
            price = view.prices.ranks(graph.num_vertices)
            real_rank = real.rank[graph.num_edges :]
            self._feasible = {
                e
                for e, (u, v) in enumerate(graph.edges)
                if real_rank[e] < price[u] and real_rank[e] < price[v]
            }
        matched = view.matched_vertices
        acceptable = [
            e
            for e in self._feasible
            if graph.edges[e][0] not in matched and graph.edges[e][1] not in matched
        ]
        if acceptable:
            acc = set(acceptable)

            def blocked_weight(e: int) -> float:
                u, v = graph.edges[e]
                total = 0.0
                for e2 in graph.incident[u] + graph.incident[v]:
                    if e2 != e and e2 in acc:
                        total += real.real_values[e2]
                return total

            choice = max(acceptable, key=lambda e: (blocked_weight(e), -e))
        else:
            choice = min(self._remaining, key=lambda e: (real.real_values[e], e))
        self._remaining.remove(choice)
        self._feasible.discard(choice)
        return choice


class StarveItemsController:
    """Buyer-model adversary: release buyers whose best item is most contested.

    For each unarrived buyer, find the item of her best currently-acceptable
    feasible edge; release a buyer whose target item is wanted by the most
    other unarrived buyers.  Buyers with no acceptable edge are released last.
    """

    def __init__(self, graph: Graph, real: Realization):
        self._graph = graph
        self._real = real
        self._remaining = set(graph.buyers)
        # per buyer, the items of the edges that clear both prices, best edge first
        self._wanted: dict[int, list[int]] | None = None

    def next_arrival(self, view: AlgorithmView) -> int:
        if self._wanted is None:
            # the prices are set before the first step and never change
            graph = self._graph
            price = view.prices.ranks(graph.num_vertices)
            real_rank = self._real.rank[graph.num_edges :]
            self._wanted = {}
            for i in self._remaining:
                clearing = [
                    (real_rank[e], j)
                    for e, j in graph.adjacent[i]
                    if real_rank[e] < price[i] and real_rank[e] < price[j]
                ]
                self._wanted[i] = [j for _, j in sorted(clearing)]
        matched = view.matched_vertices
        # a buyer's target is the item of its best clearing edge to a free item
        targets = {
            i: next((j for j in self._wanted[i] if j not in matched), None) for i in self._remaining
        }
        contest: dict[int, int] = {}
        for j in targets.values():
            if j is not None:
                contest[j] = contest.get(j, 0) + 1
        with_target = [i for i, j in targets.items() if j is not None]
        if with_target:
            choice = max(with_target, key=lambda i: (contest[targets[i]], -i))
        else:
            choice = min(self._remaining)
        self._remaining.remove(choice)
        return choice


def make_controller(strategy: OrderStrategy, graph: Graph, real: Realization, model: str):
    """Build the stateful controller of an adaptive strategy for one run."""
    if strategy.kind != "adaptive":
        raise InputError("only adaptive strategies have controllers")
    if strategy.policy == "block-best":
        if model != "edge":
            raise InputError("block-best is an edge-arrival policy")
        return BlockBestController(graph, real)
    if model == "edge":
        raise InputError("starve-items is a buyer-arrival policy")
    return StarveItemsController(graph, real)
