from __future__ import annotations

import numpy as np
import pytest

from prophet_matching.adversary import OrderStrategy, static_order
from prophet_matching.core import ContractViolation, InputError, Realization, validate_matching
from prophet_matching.distributions import DistSpec, InstanceSpec, draw_batch, draw_realization
from prophet_matching.edge_arrival import (
    _records_agree,
    _static_batch,
    run_offline_edge,
    run_online_edge,
)
from prophet_matching.harness import _run_online
from prophet_matching.instances import complete_bipartite, path_graph, star_graph
from prophet_matching.invariants import random_small_instance
from prophet_matching.truthful import run_truthful
from prophet_matching.vertex_arrival import (
    build_safe_matching,
    run_offline_vertex,
    run_online_vertex,
)

from conftest import bipartite_graph, general_graph, realization


def _single_edge_spec():
    return path_graph(2, DistSpec.uniform(0.0, 10.0))


class TestOnlineSingleEdge:
    def test_real_beats_sample_accepted(self):
        spec = _single_edge_spec()
        real = realization(samples=[(5, 10)], reals=[(7, 20)])
        record = run_online_edge(spec, real, [0])
        assert record.prices.price(0) == 5.0 == record.prices.price(1)
        assert record.matching.edges == {0}
        assert record.matching.weight == 7.0
        assert record.feasible == (0,)
        assert record.events[0].outcome == "accepted"

    def test_real_below_sample_rejected(self):
        spec = _single_edge_spec()
        real = realization(samples=[(5, 10)], reals=[(3, 20)])
        record = run_online_edge(spec, real, [0])
        assert record.matching.edges == frozenset()
        assert record.matching.weight == 0.0
        assert record.feasible == ()
        assert record.events[0].outcome == "price_rejected"

    def test_point_mass_decided_by_key_order(self):
        spec = path_graph(2, DistSpec.point_mass(1.0))
        # the real draw's key ranks first: the tie goes to the arriving edge
        wins = realization(samples=[(1, 2)], reals=[(1, 1)])
        assert run_online_edge(spec, wins, [0]).matching.weight == 1.0
        # the sample's key ranks first: the price wins the tie
        loses = realization(samples=[(1, 1)], reals=[(1, 2)])
        assert run_online_edge(spec, loses, [0]).matching.weight == 0.0

    def test_order_must_be_permutation(self):
        spec = _single_edge_spec()
        real = realization(samples=[(5, 10)], reals=[(7, 20)])
        with pytest.raises(InputError):
            run_online_edge(spec, real, [0, 0])


def _three_path():
    spec = InstanceSpec(
        graph=general_graph(4, [(0, 1), (1, 2), (2, 3)]),
        dists=(DistSpec.uniform(0, 10),) * 3,
    )
    real = realization(
        samples=[(5, 11), (4, 12), (6, 13)],
        reals=[(2, 21), (3, 22), (1, 23)],
    )
    return spec, real


def _forced(real, heads):
    """``real`` with the two draws of every edge whose coin ``heads(e)``
    disagrees with the coupled coin swapped: the twin's coupled run on it is
    the run under coins ``heads``."""
    m, rank = real.num_edges, real.rank
    swap = list(range(2 * m))
    for e in range(m):
        if heads(e) != (rank[m + e] < rank[e]):
            swap[e], swap[m + e] = m + e, e
    return Realization(values=real.values[swap], keys=real.keys[swap])


class TestOfflineForcedCoins:
    def test_all_tails_routes_everything_to_samples(self):
        spec, real = _three_path()
        trace = run_offline_edge(spec, _forced(real, lambda e: False), [0, 1, 2])
        assert trace.record.feasible == ()
        # the sample matching is greedy on the larger draw of each edge (5, 4, 6)
        assert trace.record.sample_matching.edges == {0, 2}
        assert trace.record.sample_matching.weight == 11.0
        assert trace.record.matching.edges == frozenset()

    def test_all_heads_hand_trace(self):
        spec, real = _three_path()
        trace = run_offline_edge(spec, _forced(real, lambda e: True), [0, 1, 2])
        # scan order 6,5,4: every first copy is considered and goes feasible
        assert trace.record.feasible == (2, 0, 1)
        # the later, smaller copies: only edge 1 still has both endpoints active
        assert trace.record.sample_matching.edges == {1}
        assert trace.record.sample_matching.weight == 3.0
        # extraction in arrival order 0,1,2 takes 0, conflicts on 1, takes 2
        assert trace.record.matching.edges == {0, 2}
        assert trace.record.matching.weight == 5.0 + 6.0
        assert trace.first_edge == {0: 0, 1: 0, 2: 2, 3: 2}
        assert trace.safe == frozenset()

    def test_forced_mapping_accepted(self):
        spec, real = _three_path()
        forced = {0: True, 1: False, 2: True}
        trace = run_offline_edge(spec, _forced(real, forced.__getitem__), [0, 1, 2])
        assert 0 in set(trace.record.feasible)
        assert 2 in set(trace.record.feasible)


def _twins_agree(spec, seed, order):
    """Do the online run and its coupled offline twin agree exactly?"""
    real = draw_realization(spec, seed)
    online = run_online_edge(spec, real, order)
    return _records_agree(online, run_offline_edge(spec, real, order).record)


class TestCoupling:
    def test_single_edge_both_key_orders(self):
        spec = path_graph(2, DistSpec.point_mass(1.0))
        for seed in range(40):  # realizations cover both key orders
            assert _twins_agree(spec, seed, [0])

    def test_random_sweep(self):
        rng = np.random.default_rng(17)
        for k in range(300):
            spec = random_small_instance(rng)
            m = spec.graph.num_edges
            order = (
                [int(x) for x in rng.permutation(m)] if k % 2 else list(range(m))
            )
            assert _twins_agree(spec, int(rng.integers(0, 2**62)), order)

    def test_zero_value_edge_against_unpriced_vertex(self):
        # two zero-value edges sharing the center: one endpoint stays unpriced,
        # and a zero draw still beats the absent price (it enters the feasible
        # set), keeping online and offline aligned
        spec = InstanceSpec(
            graph=star_graph(2, DistSpec.point_mass(0.0)).graph,
            dists=(DistSpec.point_mass(0.0),) * 2,
        )
        real = realization(samples=[(0, 5), (0, 6)], reals=[(0, 3), (0, 1)])
        online = run_online_edge(spec, real, [0, 1])
        offline = run_offline_edge(spec, real, [0, 1])
        assert set(online.feasible) == set(offline.record.feasible) == {0, 1}
        assert online.matching.edges == offline.record.matching.edges == {0}


class TestSafeSet:
    def test_single_feasible_edge_both_endpoints_safe(self):
        spec = _single_edge_spec()
        real = realization(samples=[(1, 11)], reals=[(7, 12)])
        trace = run_offline_edge(spec, real, [0])
        assert set(trace.record.feasible) == {0}
        assert trace.safe == {0, 1}

    def test_shared_endpoint_with_smaller_edge(self):
        # feasible edges (0,1) large and (1,2) small sharing vertex 1:
        # vertex 2's leading edge is its only one and vertex 1 has nothing
        # below it, so only vertex 2 is safe; vertex 0 loses because vertex 1
        # carries a smaller feasible edge, vertex 1 because it has two
        spec = InstanceSpec(
            graph=general_graph(3, [(0, 1), (1, 2)]),
            dists=(DistSpec.uniform(0, 20),) * 2,
        )
        real = realization(
            samples=[(1, 11), (0.5, 12)],
            reals=[(10, 21), (8, 22)],
        )
        trace = run_offline_edge(spec, real, [0, 1])
        assert set(trace.record.feasible) == {0, 1}
        assert trace.first_edge == {0: 0, 1: 0, 2: 1}
        assert trace.safe == {2}


class TestStructure:
    def test_matchings_valid_on_sweep(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            spec = random_small_instance(rng)
            real = draw_realization(spec, int(rng.integers(0, 2**62)))
            order = [int(x) for x in rng.permutation(spec.graph.num_edges)]
            record = run_online_edge(spec, real, order)
            assert validate_matching(spec.graph, record.matching)
            assert validate_matching(spec.graph, record.sample_matching)
            assert record.matching.edges <= set(record.feasible)

    def test_accepted_precedes_conflicting_rejection(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            spec = random_small_instance(rng)
            real = draw_realization(spec, int(rng.integers(0, 2**62)))
            order = [int(x) for x in rng.permutation(spec.graph.num_edges)]
            record = run_online_edge(spec, real, order)
            matched: set[int] = set()
            for ev in record.events:
                u, v = spec.graph.edges[ev.element]
                if ev.outcome == "conflict_rejected":
                    assert u in matched or v in matched
                if ev.outcome == "accepted":
                    matched.update((u, v))

    def test_repeating_controller_is_fatal(self):
        class Repeater:
            def next_arrival(self, view):
                return 0

        spec, real = _three_path()
        with pytest.raises(ContractViolation):
            run_online_edge(spec, real, Repeater())

    @pytest.mark.parametrize("run", [run_online_edge, run_online_vertex, run_truthful])
    def test_non_int_controller_id_is_fatal(self, run):
        # 1.0 == 1 is a valid id by value; every model rejects it by type
        class FloatIds:
            def next_arrival(self, view):
                return 1.0

        spec = InstanceSpec(
            graph=bipartite_graph([0, 1], [2], [(0, 2), (1, 2)]),
            dists=(DistSpec.uniform(0, 10),) * 2,
        )
        real = realization(samples=[(1, 11), (1, 12)], reals=[(5, 21), (4, 22)])
        with pytest.raises(ContractViolation, match="invalid"):
            run(spec, real, FloatIds())

    @pytest.mark.parametrize(
        "run, ids",
        [(run_online_edge, [3, 1, 0, 2]), (run_online_vertex, [1, 0]), (run_truthful, [1, 0])],
        ids=lambda x: getattr(x, "__name__", "ids"),
    )
    def test_numpy_int_controller_ids_accepted(self, run, ids):
        class Replay:
            def __init__(self, cast):
                self.cast = cast
                self.ids = iter(ids)

            def next_arrival(self, view):
                return self.cast(next(self.ids))

        spec = InstanceSpec(
            graph=bipartite_graph([0, 1], [2, 3], [(0, 2), (0, 3), (1, 2), (1, 3)]),
            dists=(DistSpec.uniform(0, 10),) * 4,
        )
        real = realization(
            samples=[(1, 11), (2, 12), (3, 13), (4, 14)],
            reals=[(5, 21), (6, 22), (7, 23), (8, 24)],
        )
        assert run(spec, real, Replay(np.int64)) == run(spec, real, Replay(int))

    @pytest.mark.parametrize(
        "run, order",
        [
            (run_online_edge, [0.0, 1.0, 2.0, 3.0]),
            (run_offline_edge, [0.0, 1.0, 2.0, 3.0]),
            (run_online_vertex, [0.0, 1.0]),
            (run_offline_vertex, [0.0, 1.0]),
            (run_truthful, [0.0, 1.0]),
        ],
        ids=lambda x: getattr(x, "__name__", "floats"),
    )
    def test_non_integer_order_ids_rejected(self, run, order):
        # 1.0 == 1, so a check by value alone lets float ids through
        spec = InstanceSpec(
            graph=bipartite_graph([0, 1], [2, 3], [(0, 2), (0, 3), (1, 2), (1, 3)]),
            dists=(DistSpec.uniform(0, 10),) * 4,
        )
        real = realization(
            samples=[(1, 11), (2, 12), (3, 13), (4, 14)],
            reals=[(5, 21), (6, 22), (7, 23), (8, 24)],
        )
        with pytest.raises(InputError, match="integer"):
            run(spec, real, order)
        # numpy integers are integer ids
        ids = list(range(len(order)))
        assert run(spec, real, np.array(ids)) == run(spec, real, ids)

    @pytest.mark.parametrize("buyers", [3, 1], ids=["larger", "smaller"])
    @pytest.mark.parametrize(
        "run, order",
        [
            pytest.param(run, order, id=run.__name__)
            for run, order in (
                (run_online_edge, [0, 1, 2, 3]),
                (run_offline_edge, [0, 1, 2, 3]),
                (run_online_vertex, [0, 1]),
                (run_offline_vertex, [0, 1]),
            )
        ],
    )
    def test_realization_of_another_graph_rejected(self, run, order, buyers):
        # draw ids taken mod m would run a larger realization on the wrong
        # draws, and index past the end of a smaller one
        dist = DistSpec.uniform(0, 10)
        spec = complete_bipartite(2, 2, dist)
        real = draw_realization(complete_bipartite(buyers, buyers, dist), 5)
        with pytest.raises(InputError, match="does not match the instance graph"):
            run(spec, real, order)


class TestCoinFairness:
    def test_leading_edge_feasible_rate_near_half(self):
        from prophet_matching.invariants import DIST_FAMILIES, check_coin_fairness
        from prophet_matching.instances import complete_graph

        result = check_coin_fairness(
            complete_graph(6, DIST_FAMILIES["uniform"]), trials=1500, seed=3, label="unit"
        )
        assert result.passed
        # pins the independent coin stream
        assert result.data["p"] == 0.5208888888888888


def _assert_kernel_matches_driver(model, spec, seeds, strategy):
    """Every row of one kernel call against the per-trial driver: edge sets,
    and weights bit for bit."""
    values, rank, reals = draw_batch(spec, seeds)
    orders = [static_order(strategy, spec.graph, real, model, s) for real, s in zip(reals, seeds)]
    runs = _static_batch(
        model, spec.graph, values, rank, np.array(orders, dtype=np.intp).reshape(len(seeds), -1)
    )
    for t, (real, order) in enumerate(zip(reals, orders)):
        record = _run_online(model, spec, real, order)
        want = [
            (record.matching.edges, record.matching.weight),
            (frozenset(record.sample_matching.edges), record.sample_matching.weight),
            (frozenset(record.feasible), record.feasible_weight),
        ]
        got = [
            (frozenset(np.flatnonzero(runs.matching[t]).tolist()), runs.matching_weight[t]),
            (
                frozenset(np.flatnonzero(runs.sample_matching[t]).tolist()),
                runs.sample_matching_weight[t],
            ),
            (frozenset(np.flatnonzero(runs.feasible[t]).tolist()), runs.feasible_weight[t]),
        ]
        if model == "vertex":
            safe = build_safe_matching(spec.graph, record.feasible, real)
            want.append((safe.edges, safe.weight))
            got.append((frozenset(np.flatnonzero(runs.safe[t]).tolist()), runs.safe_weight[t]))
        else:
            assert runs.safe is None and runs.safe_weight is None
        assert [(edges, w.hex()) for edges, w in got] == [(edges, w.hex()) for edges, w in want]


STATIC_KINDS = ("fixed", "random", "dec", "inc")


class TestStaticBatch:
    """The batched static-order kernel against the per-trial driver."""

    @pytest.mark.parametrize("model", ["edge", "vertex", "truthful"])
    @pytest.mark.parametrize("kind", STATIC_KINDS)
    def test_random_mixed_instances(self, model, kind):
        rng = np.random.default_rng(["edge", "vertex", "truthful"].index(model) * 10 + len(kind))
        for _ in range(60):
            spec = random_small_instance(rng, bipartite=True if model != "edge" else None)
            seeds = [int(s) for s in rng.integers(0, 2**63, int(rng.integers(1, 9)))]
            ids = range(spec.graph.num_edges) if model == "edge" else spec.graph.buyers
            fixed = tuple(rng.permutation(list(ids)).tolist()) if kind == "fixed" else None
            strategy = OrderStrategy(kind=kind, order=fixed)
            _assert_kernel_matches_driver(model, spec, seeds, strategy)

    @pytest.mark.parametrize("model", ["edge", "vertex", "truthful"])
    def test_empty_graph(self, model):
        graph = bipartite_graph([0, 1], [2], [])
        spec = InstanceSpec(graph=graph, dists=())
        _assert_kernel_matches_driver(model, spec, [1, 2, 3], OrderStrategy(kind="random"))
        values, rank, _ = draw_batch(spec, [1, 2])
        orders = np.zeros((2, 0 if model == "edge" else 2), dtype=np.intp)
        if model != "edge":
            orders[:] = [0, 1]
        runs = _static_batch(model, graph, values, rank, orders)
        assert runs.matching.shape == runs.feasible.shape == (2, 0)
        assert runs.matching_weight.tolist() == runs.sample_matching_weight.tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("model", ["edge", "vertex", "truthful"])
    @pytest.mark.parametrize("kind", STATIC_KINDS)
    def test_buyer_and_item_without_edges(self, model, kind):
        # buyer 1 and item 4 have no edge
        graph = bipartite_graph([0, 1, 2], [3, 4, 5], [(0, 3), (0, 5), (2, 3), (2, 5)])
        spec = InstanceSpec(graph=graph, dists=(DistSpec.uniform(0.0, 1.0),) * 4)
        ids = range(4) if model == "edge" else graph.buyers
        strategy = OrderStrategy(kind=kind, order=tuple(ids)[::-1] if kind == "fixed" else None)
        _assert_kernel_matches_driver(model, spec, list(range(40)), strategy)

    @pytest.mark.parametrize("model", ["edge", "vertex", "truthful"])
    @pytest.mark.parametrize(
        "dist",
        [DistSpec.point_mass(1.0), DistSpec.point_mass(0.0), DistSpec.bernoulli_scaled(0.3, 2.0)],
        ids=["point-mass", "point-mass-zero", "bernoulli"],
    )
    def test_ties_and_zeros(self, model, dist):
        # every value ties, or most are zero: the tie-break keys decide
        for spec in (complete_bipartite(3, 3, dist), complete_bipartite(2, 4, dist)):
            for kind in STATIC_KINDS[1:]:
                _assert_kernel_matches_driver(
                    model, spec, list(range(30)), OrderStrategy(kind=kind)
                )


def _bipartite_with_loners(buyers: int, items: int) -> InstanceSpec:
    """Complete bipartite buyers x items, plus one buyer and one item without edges."""
    b = list(range(buyers + 1))
    i = list(range(buyers + 1, buyers + items + 2))
    edges = [(x, y) for x in b[:-1] for y in i[:-1]]
    return InstanceSpec(bipartite_graph(b, i, edges), (DistSpec.uniform(0.0, 1.0),) * len(edges))


class TestVertexDriverPastTableCap:
    """The per-trial vertex driver, which graphs without a matching table
    take, against the batched kernel on the same draws."""

    @pytest.mark.parametrize("shape", [(8, 9), (12, 12)])
    @pytest.mark.parametrize(
        "dist",
        [
            DistSpec.uniform(0.0, 1.0),
            DistSpec.point_mass(1.0),
            DistSpec.point_mass(0.0),
            DistSpec.bernoulli_scaled(0.3, 2.0),
        ],
        ids=["uniform", "point-mass", "point-mass-zero", "bernoulli"],
    )
    def test_driver_matches_kernel(self, shape, dist):
        plain = _bipartite_with_loners(*shape)
        spec = InstanceSpec(plain.graph, (dist,) * plain.graph.num_edges)
        assert spec.graph.matching_table is None
        for kind in ("random", "dec", "inc"):
            _assert_kernel_matches_driver("vertex", spec, list(range(12)), OrderStrategy(kind=kind))
