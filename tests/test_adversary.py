from __future__ import annotations

import numpy as np
import pytest

from prophet_matching.adversary import (
    BlockBestController,
    OrderStrategy,
    StarveItemsController,
    make_controller,
    parse_order_spec,
    static_order,
)
from prophet_matching.core import AlgorithmView, Graph, InputError, Realization
from prophet_matching.distributions import DistSpec, InstanceSpec, draw_realization
from prophet_matching.edge_arrival import run_online_edge
from prophet_matching.harness import resolve_order
from prophet_matching.instances import complete_bipartite, complete_graph
from prophet_matching.invariants import random_small_instance
from prophet_matching.truthful import run_truthful
from prophet_matching.vertex_arrival import run_online_vertex

from conftest import bipartite_graph, general_graph, realization


def run_truthful_record(spec, real, order):
    return run_truthful(spec, real, order).record


class TestParsing:
    def test_forms(self):
        assert parse_order_spec("fixed:2,0,1") == OrderStrategy(kind="fixed", order=(2, 0, 1))
        assert parse_order_spec("random") == OrderStrategy(kind="random")
        assert parse_order_spec("inc") == OrderStrategy(kind="inc")
        assert parse_order_spec("dec") == OrderStrategy(kind="dec")
        assert parse_order_spec("adaptive:block-best") == OrderStrategy(
            kind="adaptive", policy="block-best"
        )

    def test_bad_specs(self):
        for bad in ("fixed:a,b", "adaptive:nope", "sorted", ""):
            with pytest.raises(InputError):
                parse_order_spec(bad)

    def test_strategy_validation(self):
        with pytest.raises(InputError):
            OrderStrategy(kind="fixed")
        with pytest.raises(InputError):
            OrderStrategy(kind="whatever")

    @pytest.mark.parametrize(
        "fields",
        [
            {"kind": "fixed", "order": (0.0, 1, 2, 3, 4, 5)},
            {"kind": "fixed", "order": (0, "1")},
            {"kind": "fixed", "order": 3},
        ],
    )
    def test_non_integer_order_rejected(self, fields):
        # a float order id used to pass static_order's permutation check
        with pytest.raises(InputError):
            OrderStrategy(**fields)

    @pytest.mark.parametrize(
        "fields",
        [
            {"kind": "random", "order": (7, 7, 7)},
            {"kind": "dec", "order": (0, 1)},
            {"kind": "adaptive", "policy": "block-best", "order": (0, 1)},
            {"kind": "random", "policy": "nope"},
            {"kind": "inc", "policy": "block-best"},
            {"kind": "fixed", "order": (0, 1), "policy": "starve-items"},
        ],
    )
    def test_fields_of_another_kind_rejected(self, fields):
        # an order is read only by the fixed kind, a policy only by adaptive
        with pytest.raises(InputError):
            OrderStrategy(**fields)

    def test_integer_likes_become_ints(self):
        s = OrderStrategy(kind="fixed", order=[np.int64(2), True, 0])
        assert s.order == (2, 1, 0) and type(s.order[0]) is int


def _three_path():
    spec = InstanceSpec(
        graph=general_graph(4, [(0, 1), (1, 2), (2, 3)]),
        dists=(DistSpec.uniform(0, 10),) * 3,
    )
    real = realization(
        samples=[(0.5, 11), (0.4, 12), (0.6, 13)],
        reals=[(5, 21), (3, 22), (4, 23)],
    )
    return spec, real


class TestStaticOrders:
    def test_fixed_feeds_verbatim(self):
        spec, real = _three_path()
        record = run_online_edge(spec, real, [2, 0, 1])
        assert tuple(ev.element for ev in record.events) == (2, 0, 1)

    def test_value_sorted_orders(self):
        spec, real = _three_path()
        # real values 5, 3, 4 on edges 0, 1, 2
        inc = static_order(OrderStrategy(kind="inc"), spec.graph, real, "edge")
        dec = static_order(OrderStrategy(kind="dec"), spec.graph, real, "edge")
        assert inc == [1, 2, 0]
        assert dec == [0, 2, 1]

    def test_buyer_orders_by_best_incident_value(self):
        graph = bipartite_graph([0, 1], [2, 3], [(0, 2), (0, 3), (1, 2)])
        spec = InstanceSpec(graph=graph, dists=(DistSpec.uniform(0, 10),) * 3)
        real = realization(
            samples=[(0, 11), (0, 12), (0, 13)],
            reals=[(2, 21), (6, 22), (4, 23)],
        )
        dec = static_order(OrderStrategy(kind="dec"), spec.graph, real, "vertex")
        assert dec == [0, 1]  # buyer 0's best is 6, buyer 1's best is 4
        inc = static_order(OrderStrategy(kind="inc"), spec.graph, real, "vertex")
        assert inc == [1, 0]

    def test_buyer_without_edges_keeps_its_place(self):
        # buyer 1 has no edges: it sorts as a zero value with key 0 would, after
        # buyers whose best real value is positive (0 and 3) and before buyer 2,
        # whose only real value is 0
        graph = bipartite_graph([0, 1, 2, 3], [4, 5], [(0, 4), (2, 5), (3, 4)])
        spec = InstanceSpec(graph=graph, dists=(DistSpec.uniform(0, 10),) * 3)
        real = realization(
            samples=[(2, 11), (0, 12), (5, 13)],
            reals=[(3, 21), (0, 22), (1, 23)],
        )
        dec = static_order(OrderStrategy(kind="dec"), spec.graph, real, "vertex")
        assert dec == [0, 3, 1, 2]
        inc = static_order(OrderStrategy(kind="inc"), spec.graph, real, "vertex")
        assert inc == [2, 1, 3, 0]

    def test_fixed_must_be_permutation(self):
        spec, real = _three_path()
        with pytest.raises(InputError):
            static_order(OrderStrategy(kind="fixed", order=(0, 1)), spec.graph, real, "edge")

    def test_random_is_seed_deterministic(self):
        # a random order is seeded by the trial alone
        spec, real = _three_path()
        s = OrderStrategy(kind="random")
        a = static_order(s, spec.graph, real, "edge", seed=5)
        b = static_order(s, spec.graph, real, "edge", seed=5)
        assert a == b


class TestAdaptivePolicies:
    def test_block_best_releases_the_middle_of_a_path_first(self):
        # all three edges are price-feasible and acceptable; the middle edge
        # conflicts with both side edges, so it blocks the most weight
        spec, real = _three_path()
        record = run_online_edge(spec, real, BlockBestController(spec.graph, real))
        assert record.events[0].element == 1
        assert record.matching.edges == {1}
        assert record.matching.weight == 3.0

    def test_block_best_is_a_permutation(self):
        rng = np.random.default_rng(53)
        for _ in range(30):
            spec = random_small_instance(rng, bipartite=False)
            real = draw_realization(spec, int(rng.integers(0, 2**62)))
            record = run_online_edge(spec, real, BlockBestController(spec.graph, real))
            assert sorted(ev.element for ev in record.events) == list(range(spec.graph.num_edges))

    def test_starve_items_targets_contested_item(self):
        graph = bipartite_graph([0, 1], [2, 3], [(0, 2), (0, 3), (1, 2)])
        spec = InstanceSpec(graph=graph, dists=(DistSpec.uniform(0, 10),) * 3)
        real = realization(
            samples=[(0, 11), (0, 12), (0, 13)],
            reals=[(5, 21), (4, 22), (5.5, 23)],
        )
        record = run_online_vertex(spec, real, StarveItemsController(spec.graph, real))
        # both buyers want item 2 most; the tie releases the smaller id
        assert [ev.element for ev in record.events] == [0, 1]

    def test_starve_items_permutation_on_sweep(self):
        rng = np.random.default_rng(59)
        for _ in range(30):
            spec = random_small_instance(rng, bipartite=True)
            real = draw_realization(spec, int(rng.integers(0, 2**62)))
            record = run_online_vertex(spec, real, StarveItemsController(spec.graph, real))
            assert sorted(ev.element for ev in record.events) == sorted(spec.graph.buyers)

    def test_policy_model_mismatch(self):
        spec, real = _three_path()
        with pytest.raises(InputError):
            make_controller(
                OrderStrategy(kind="adaptive", policy="starve-items"),
                spec.graph, real, "edge",
            )
        # static strategies are materialized by static_order, never driven
        with pytest.raises(InputError):
            make_controller(OrderStrategy(kind="random"), spec.graph, real, "edge")

    def test_resolved_order_replays_identically(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            spec = random_small_instance(rng, bipartite=False)
            real = draw_realization(spec, int(rng.integers(0, 2**62)))
            strategy = OrderStrategy(kind="adaptive", policy="block-best")
            order, live = resolve_order(strategy, "edge", spec, real)
            replayed = run_online_edge(spec, real, order)
            assert live == replayed
        # static orders come without a record: their run happens outside
        assert resolve_order(OrderStrategy(kind="random"), "edge", spec, real)[1] is None


class PerStepBlockBest:
    """``BlockBestController`` as it was, testing every price at every step;
    the reference for the controller that tests them once per run."""

    def __init__(self, graph: Graph, real: Realization):
        self._graph = graph
        self._real = real
        self._remaining = set(range(graph.num_edges))

    def next_arrival(self, view: AlgorithmView) -> int:
        graph, real = self._graph, self._real
        prices, m = view.prices, graph.num_edges
        feasible = [
            e
            for e in self._remaining
            if prices.beaten_by(m + e, graph.edges[e][0])
            and prices.beaten_by(m + e, graph.edges[e][1])
        ]
        acceptable = [
            e
            for e in feasible
            if graph.edges[e][0] not in view.matched_vertices
            and graph.edges[e][1] not in view.matched_vertices
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
        return choice


class PerStepStarveItems:
    """``StarveItemsController`` as it was, scanning every buyer's edges at
    every step; the reference for the controller that ranks them once."""

    def __init__(self, graph: Graph, real: Realization):
        self._graph = graph
        self._real = real
        self._remaining = set(graph.buyers)

    def _best_item(self, buyer: int, view: AlgorithmView) -> int | None:
        graph, rank = self._graph, self._real.rank
        m = graph.num_edges
        best = None
        for e in graph.incident[buyer]:
            _, j = graph.buyer_item(e)
            if j in view.matched_vertices:
                continue
            if view.prices.beaten_by(m + e, buyer) and view.prices.beaten_by(m + e, j):
                if best is None or rank[m + e] < rank[m + best]:
                    best = e
        if best is None:
            return None
        return graph.buyer_item(best)[1]

    def next_arrival(self, view: AlgorithmView) -> int:
        targets = {i: self._best_item(i, view) for i in self._remaining}
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


TIED = (DistSpec.point_mass(1.0), DistSpec.point_mass(0.0), DistSpec.bernoulli_scaled(0.5, 2.0))


class TestControllersMatchPerStepReferences:
    """Same releases and same records as the per-step controllers."""

    @staticmethod
    def _runs(rng, specs, run, new, reference):
        for spec in specs:
            for _ in range(5):
                real = draw_realization(spec, int(rng.integers(0, 2**63)))
                got = run(spec, real, new(spec.graph, real))
                want = run(spec, real, reference(spec.graph, real))
                assert [ev.element for ev in got.events] == [ev.element for ev in want.events]
                assert got == want

    def test_block_best(self):
        rng = np.random.default_rng(67)
        specs = [random_small_instance(rng, bipartite=False) for _ in range(60)]
        specs += [complete_graph(6, dist) for dist in TIED] + [complete_bipartite(3, 4, TIED[2])]
        self._runs(rng, specs, run_online_edge, BlockBestController, PerStepBlockBest)

    @pytest.mark.parametrize("run", [run_online_vertex, run_truthful_record])
    def test_starve_items(self, run):
        rng = np.random.default_rng(71)
        specs = [random_small_instance(rng, bipartite=True) for _ in range(60)]
        specs += [complete_bipartite(4, 4, dist) for dist in TIED]
        specs += [complete_bipartite(3, 6, dist) for dist in TIED]
        self._runs(rng, specs, run, StarveItemsController, PerStepStarveItems)
