from __future__ import annotations

import math
from itertools import product

import numpy as np
import pytest

from prophet_matching.core import InputError
from prophet_matching.distributions import DistSpec, InstanceSpec, draw_realization
from prophet_matching.edge_arrival import run_offline_edge
from prophet_matching.invariants import random_small_instance
from prophet_matching.truthful import (
    maximality_check,
    misreport_audit,
    run_truthful,
)
from prophet_matching.vertex_arrival import run_online_vertex

from conftest import bipartite_graph, realization


def _one_buyer_one_item():
    return InstanceSpec(
        graph=bipartite_graph([0], [1], [(0, 1)]),
        dists=(DistSpec.uniform(0, 10),),
    )


class TestMechanismBasics:
    def test_truthful_purchase(self):
        spec = _one_buyer_one_item()
        real = realization(samples=[(5, 10)], reals=[(7, 20)])
        outcome = run_truthful(spec, real, [0])
        assert outcome.matching.edges == {0}
        assert outcome.charged[0] == 5.0
        assert outcome.utilities[0] == 2.0

    def test_underreport_forfeits_the_item(self):
        spec = _one_buyer_one_item()
        real = realization(samples=[(5, 10)], reals=[(7, 20)])
        outcome = run_truthful(spec, real, [0], reports={0: {0: 4.0}})
        assert outcome.matching.edges == frozenset()
        assert outcome.utilities[0] == 0.0

    def test_report_tied_with_price_is_settled_by_true_key(self):
        # the sample (5, key 10) prices both sides; a report of exactly 5 keeps
        # the true draw's key, which wins the tie only if it is smaller
        spec = _one_buyer_one_item()
        for true_key, sold in ((5, True), (20, False)):
            real = realization(samples=[(5, 10)], reals=[(7, true_key)])
            outcome = run_truthful(spec, real, [0], reports={0: {0: 5.0}})
            assert bool(outcome.matching.edges) is sold
            assert outcome.utilities[0] == (2.0 if sold else 0.0)

    def test_utility_argmax_can_diverge_from_value_argmax(self):
        # buyer 0 is priced at 3; item 3 is priced 1 (value 6), item 4 is
        # priced 5 (value 7): offered prices are 3 and 5, utilities 3 and 2,
        # so the mechanism sells the lower-value item
        graph = bipartite_graph(
            [0, 1, 2], [3, 4, 5, 6],
            [(0, 3), (0, 4), (0, 5), (1, 3), (2, 4)],
        )
        spec = InstanceSpec(graph=graph, dists=(DistSpec.uniform(0, 10),) * 5)
        real = realization(
            samples=[(0, 11), (0, 12), (3, 13), (1, 14), (5, 15)],
            reals=[(6, 21), (7, 22), (0.5, 23), (0, 24), (0, 25)],
        )
        outcome = run_truthful(spec, real, [0, 1, 2])
        assert outcome.record.prices.price(0) == 3.0
        assert outcome.record.prices.price(3) == 1.0
        assert outcome.record.prices.price(4) == 5.0
        assert outcome.matching.edges == {0}
        assert outcome.charged[0] == 3.0
        assert outcome.utilities[0] == 3.0
        # the value-maximizing rule would have taken the value-7 edge instead
        record = run_online_vertex(spec, real, [0, 1, 2])
        assert record.feasible[0] == 1

    def test_bad_reports_rejected(self):
        spec = _one_buyer_one_item()
        real = realization(samples=[(5, 10)], reals=[(7, 20)])
        with pytest.raises(InputError):
            run_truthful(spec, real, [0], reports={0: {5: 1.0}})
        for bad in (-2.0, math.nan, math.inf, "x", None):
            with pytest.raises(InputError):
                run_truthful(spec, real, [0], reports={0: {0: bad}})
        with pytest.raises(InputError):
            run_truthful(spec, real, [0], reports={7: {0: 1.0}})


class TestTruthfulness:
    def test_identity_report_changes_nothing(self):
        spec = _one_buyer_one_item()
        real = realization(samples=[(5, 10)], reals=[(7, 20)])
        base = run_truthful(spec, real, [0])
        same = run_truthful(spec, real, [0], reports={0: {0: 7.0}})
        assert base.matching == same.matching
        assert base.utilities == same.utilities

    def test_exhaustive_grid_on_two_by_two(self):
        graph = bipartite_graph([0, 1], [2, 3], [(0, 2), (0, 3), (1, 2), (1, 3)])
        spec = InstanceSpec(graph=graph, dists=(DistSpec.uniform(0, 10),) * 4)
        real = realization(
            samples=[(2, 11), (1, 12), (3, 13), (0.5, 14)],
            reals=[(4, 21), (2.5, 22), (1, 23), (5, 24)],
        )
        for order in ([0, 1], [1, 0]):
            for buyer, edges in ((0, (0, 1)), (1, (2, 3))):
                base = run_truthful(spec, real, order).utilities.get(buyer, 0.0)
                grid = (0.0, 0.6, 2.0, 3.0, 4.0, 9.0)
                for a, b in product(grid, grid):
                    outcome = run_truthful(
                        spec, real, order, reports={buyer: {edges[0]: a, edges[1]: b}}
                    )
                    assert outcome.utilities.get(buyer, 0.0) <= base

    def test_random_audits(self):
        rng = np.random.default_rng(41)
        for k in range(15):
            spec = random_small_instance(rng, bipartite=True)
            buyers = list(spec.graph.buyers)
            order = [buyers[int(x)] for x in rng.permutation(len(buyers))]
            real = draw_realization(spec, int(rng.integers(0, 2**62)))
            for buyer in buyers:
                assert misreport_audit(spec, real, order, buyer, trials=30, seed=k)

    @pytest.mark.parametrize("buyer", [7, 2], ids=["out_of_range", "item"])
    def test_audit_of_a_non_buyer_rejected(self, buyer):
        # K2,2: buyers 0 and 1, items 2 and 3
        graph = bipartite_graph([0, 1], [2, 3], [(0, 2), (0, 3), (1, 2), (1, 3)])
        spec = InstanceSpec(graph=graph, dists=(DistSpec.uniform(0, 10),) * 4)
        real = draw_realization(spec, 3)
        with pytest.raises(InputError, match="not a buyer"):
            misreport_audit(spec, real, [0, 1], buyer, trials=5)

    def test_individual_rationality_and_payment_rule(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            spec = random_small_instance(rng, bipartite=True)
            buyers = list(spec.graph.buyers)
            order = [buyers[int(x)] for x in rng.permutation(len(buyers))]
            real = draw_realization(spec, int(rng.integers(0, 2**62)))
            outcome = run_truthful(spec, real, order)
            prices = outcome.record.prices
            for e in outcome.matching.edges:
                i, j = spec.graph.buyer_item(e)
                assert outcome.charged[i] == max(prices.price(i), prices.price(j))
                assert outcome.utilities[i] >= 0.0
            for i in buyers:
                assert outcome.utilities.get(i, 0.0) >= 0.0


class TestMaximality:
    def test_matching_feasible_set_is_kept_whole(self):
        spec = _one_buyer_one_item()
        real = realization(samples=[(5, 10)], reals=[(7, 20)])
        outcome = run_truthful(spec, real, [0])
        feasible = frozenset(run_offline_edge(spec, real, [0]).record.feasible)
        assert feasible == {0}
        assert maximality_check(outcome, feasible)

    def test_sweep(self):
        rng = np.random.default_rng(47)
        for _ in range(150):
            spec = random_small_instance(rng, bipartite=True)
            buyers = list(spec.graph.buyers)
            order = [buyers[int(x)] for x in rng.permutation(len(buyers))]
            real = draw_realization(spec, int(rng.integers(0, 2**62)))
            outcome = run_truthful(spec, real, order)
            feasible = frozenset(
                run_offline_edge(spec, real, list(range(spec.graph.num_edges))).record.feasible
            )
            assert maximality_check(outcome, feasible)
