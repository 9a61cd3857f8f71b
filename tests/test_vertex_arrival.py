from __future__ import annotations

import numpy as np
import pytest

from prophet_matching.core import CapabilityError, InputError, validate_matching
from prophet_matching.distributions import DistSpec, InstanceSpec, draw_realization
from prophet_matching.vertex_arrival import (
    build_safe_matching,
    run_offline_vertex,
    run_online_vertex,
)
from prophet_matching.invariants import check_vertex_coupling, random_small_instance

from conftest import bipartite_graph, general_graph, realization


def _one_buyer_one_item():
    return InstanceSpec(
        graph=bipartite_graph([0], [1], [(0, 1)]),
        dists=(DistSpec.uniform(0, 10),),
    )


class TestOnline:
    def test_single_pair_accepts_when_real_beats_sample(self):
        spec = _one_buyer_one_item()
        real = realization(samples=[(5, 10)], reals=[(7, 20)])
        record = run_online_vertex(spec, real, [0])
        assert record.matching.edges == {0}
        assert record.matching.weight == 7.0

    def test_argmax_picks_largest_feasible_edge(self):
        # two items, both sample-priced at 0: the buyer's feasible set keeps
        # only the value-9 edge
        spec = InstanceSpec(
            graph=bipartite_graph([0], [1, 2], [(0, 1), (0, 2)]),
            dists=(DistSpec.uniform(0, 10),) * 2,
        )
        real = realization(
            samples=[(0, 11), (0, 12)],
            reals=[(4, 21), (9, 22)],
        )
        record = run_online_vertex(spec, real, [0])
        assert record.feasible == (1,)
        assert record.matching.edges == {1}
        assert record.matching.weight == 9.0

    def test_two_buyers_one_item_conflict(self):
        spec = InstanceSpec(
            graph=bipartite_graph([0, 1], [2], [(0, 2), (1, 2)]),
            dists=(DistSpec.uniform(0, 10),) * 2,
        )
        real = realization(
            samples=[(1, 11), (1, 12)],
            reals=[(5, 21), (4, 22)],
        )
        first = run_online_vertex(spec, real, [0, 1])
        assert set(first.feasible) == {0, 1}
        assert first.matching.edges == {0}
        assert first.matching.weight == 5.0
        assert first.events[1].outcome == "conflict_rejected"
        second = run_online_vertex(spec, real, [1, 0])
        assert second.matching.edges == {1}
        assert second.matching.weight == 4.0

    def test_requires_bipartite(self):
        spec = InstanceSpec(
            graph=general_graph(2, [(0, 1)]), dists=(DistSpec.point_mass(1),)
        )
        real = realization(samples=[(1, 1)], reals=[(1, 2)])
        with pytest.raises(CapabilityError):
            run_online_vertex(spec, real, [0])

    def test_order_must_permute_buyers(self):
        spec = _one_buyer_one_item()
        real = realization(samples=[(5, 10)], reals=[(7, 20)])
        with pytest.raises(InputError):
            run_online_vertex(spec, real, [1])


class TestOffline:
    def test_all_tails_gives_greedy_on_larger_draws(self):
        spec = InstanceSpec(
            graph=bipartite_graph([0, 1], [2, 3], [(0, 2), (0, 3), (1, 2)]),
            dists=(DistSpec.uniform(0, 10),) * 3,
        )
        real = realization(
            samples=[(5, 11), (4, 12), (6, 13)],
            reals=[(2, 21), (3, 22), (1, 23)],
        )
        # every sample outranks its real draw, so every coupled coin is tails
        trace = run_offline_vertex(spec, real, [0, 1])
        assert trace.record.feasible == ()
        # greedy on larger draws (5, 4, 6): edge 2 then edge 1
        assert trace.record.sample_matching.edges == {2, 1}
        assert trace.record.matching.edges == frozenset()
        assert trace.safe_matching.edges == frozenset()

    def test_weight_sandwich_and_buyer_uniqueness(self):
        rng = np.random.default_rng(31)
        for _ in range(150):
            spec = random_small_instance(rng, bipartite=True)
            real = draw_realization(spec, int(rng.integers(0, 2**62)))
            buyers = list(spec.graph.buyers)
            order = [buyers[int(x)] for x in rng.permutation(len(buyers))]
            trace = run_offline_vertex(spec, real, order)
            rec = trace.record
            assert rec.matching.weight <= trace.safe_matching.weight + 1e-12
            assert trace.safe_matching.weight <= rec.feasible_weight + 1e-12
            owners = [spec.graph.buyer_item(e)[0] for e in rec.feasible]
            assert len(owners) == len(set(owners))
            assert validate_matching(spec.graph, trace.safe_matching)
            assert validate_matching(spec.graph, rec.matching)

    def test_pools_shrink_consistently(self):
        spec = _one_buyer_one_item()
        real = realization(samples=[(1, 11)], reals=[(7, 12)])
        trace = run_offline_vertex(spec, real, [0])
        # the real copy was taken feasible, then the sample copy matched
        assert trace.record.feasible == (0,)
        assert trace.record.sample_matching.edges == {0}
        assert trace.record.matching.edges == {0}


class TestSafeMatching:
    def test_item_conflict_keeps_largest(self):
        spec = InstanceSpec(
            graph=bipartite_graph([0, 1], [2], [(0, 2), (1, 2)]),
            dists=(DistSpec.uniform(0, 10),) * 2,
        )
        real = realization(
            samples=[(1, 11), (1, 12)],
            reals=[(9, 21), (4, 22)],
        )
        trace = run_offline_vertex(spec, real, [0, 1])
        assert set(trace.record.feasible) == {0, 1}
        assert trace.safe_matching.edges == {0}
        assert trace.safe_matching.weight == 9.0
        assert build_safe_matching(spec.graph, trace.record.feasible, real) == (
            trace.safe_matching
        )
        online = run_online_vertex(spec, real, [1, 0])
        assert build_safe_matching(spec.graph, online.feasible, real) == (
            trace.safe_matching
        )

    def test_conflict_free_feasible_set_is_kept_whole(self):
        spec = InstanceSpec(
            graph=bipartite_graph([0, 1], [2, 3], [(0, 2), (1, 3)]),
            dists=(DistSpec.uniform(0, 10),) * 2,
        )
        real = realization(
            samples=[(1, 11), (1, 12)],
            reals=[(9, 21), (4, 22)],
        )
        trace = run_offline_vertex(spec, real, [0, 1])
        assert trace.safe_matching.edges == set(trace.record.feasible)


class TestCoupling:
    def test_random_sweep(self):
        # the one coupling check, on 300 random bipartite instances under
        # fixed, reversed and random buyer orders
        result = check_vertex_coupling(instances=300, seed=37)
        assert result.passed, result.detail
