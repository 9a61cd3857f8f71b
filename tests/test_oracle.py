from __future__ import annotations

import numpy as np
import pytest

from prophet_matching.core import CapabilityError, InputError, validate_matching
from prophet_matching.distributions import DistSpec, draw_realization
from prophet_matching.instances import path_graph
from prophet_matching.invariants import random_small_instance
from prophet_matching.oracle import (
    _assignment_opt,
    _dp_opt,
    _enumerate_opt,
    greedy_matching,
    max_weight_matching,
)

from conftest import bipartite_graph, brute_force_max_weight, dv, general_graph


class TestGreedy:
    def test_path_hand_trace(self):
        # weights 5, 3, 4 on a path: greedy takes the 5-edge, skips 3, takes 4
        g = general_graph(4, [(0, 1), (1, 2), (2, 3)])
        vals = [dv(5, 1), dv(3, 2), dv(4, 3)]
        m = greedy_matching(g, vals)
        assert m.edges == {0, 2}
        assert m.weight == 9.0
        assert brute_force_max_weight(g, vals) == 9.0  # greedy happens to be optimal here

    def test_triangle_single_edge(self):
        g = general_graph(3, [(0, 1), (1, 2), (0, 2)])
        m = greedy_matching(g, [dv(3, 1), dv(2, 2), dv(1, 3)])
        assert m.edges == {0}
        assert m.weight == 3.0

    def test_empty_graph(self):
        m = greedy_matching(general_graph(0, []), [])
        assert m.edges == frozenset()
        assert m.weight == 0.0

    def test_missing_value_rejected(self):
        g = general_graph(3, [(0, 1), (1, 2)])
        with pytest.raises(InputError):
            greedy_matching(g, {0: dv(1, 1)})

    def test_invariant_under_edge_list_permutation(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            spec = random_small_instance(rng)
            real = draw_realization(spec, int(rng.integers(0, 2**62)))
            g = spec.graph
            m1 = greedy_matching(g, real.samples)
            perm = [int(x) for x in rng.permutation(g.num_edges)]
            g2 = general_graph(g.num_vertices, [g.edges[e] for e in perm]) \
                if g.kind == "general" else bipartite_graph(
                    g.buyers, g.items, [g.edges[e] for e in perm])
            m2 = greedy_matching(g2, [real.samples[e] for e in perm])
            pairs1 = {tuple(sorted(g.edges[e])) for e in m1.edges}
            pairs2 = {tuple(sorted(g2.edges[e])) for e in m2.edges}
            assert pairs1 == pairs2
            # relabeling changes the accumulation order, so compare to ulp scale
            assert m1.weight == pytest.approx(m2.weight, rel=1e-12)


class TestMaxWeight:
    def test_bipartite_two_by_two(self):
        g = bipartite_graph([0, 1], [2, 3], [(0, 2), (0, 3), (1, 2), (1, 3)])
        vals = [dv(2, 1), dv(1, 2), dv(1, 3), dv(2, 4)]
        assert max_weight_matching(g, vals).weight == 4.0

    def test_path_by_enumeration(self):
        g = general_graph(4, [(0, 1), (1, 2), (2, 3)])
        vals = [dv(5, 1), dv(3, 2), dv(4, 3)]
        assert max_weight_matching(g, vals).weight == 9.0

    @pytest.mark.parametrize(
        "solve", [max_weight_matching, _dp_opt, _enumerate_opt], ids=["auto", "dp", "enumerate"]
    )
    def test_solvers_agree_with_brute_force_general(self, solve):
        rng = np.random.default_rng(11)
        for _ in range(25):
            spec = random_small_instance(rng, bipartite=False)
            if spec.graph.num_edges > 12:
                continue
            real = draw_realization(spec, int(rng.integers(0, 2**62)))
            expected = brute_force_max_weight(spec.graph, real.reals)
            got = solve(spec.graph, real.reals)
            assert got.weight == pytest.approx(expected, abs=1e-12)
            assert validate_matching(spec.graph, got)

    def test_assignment_agrees_with_enumeration_bipartite(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            spec = random_small_instance(rng, bipartite=True)
            real = draw_realization(spec, int(rng.integers(0, 2**62)))
            a = _assignment_opt(spec.graph, real.reals)
            b = _enumerate_opt(spec.graph, real.reals)
            assert a.weight == pytest.approx(b.weight, abs=1e-12)

    def test_greedy_two_approximation_exact(self):
        rng = np.random.default_rng(13)
        for _ in range(60):
            spec = random_small_instance(rng)
            real = draw_realization(spec, int(rng.integers(0, 2**62)))
            greedy = greedy_matching(spec.graph, real.reals)
            opt = max_weight_matching(spec.graph, real.reals)
            assert 2.0 * greedy.weight >= opt.weight

    def test_ties_broken_arbitrarily_weight_is_contractual(self):
        # two optimal matchings of equal weight: either is acceptable
        g = bipartite_graph([0, 1], [2, 3], [(0, 2), (1, 3), (0, 3), (1, 2)])
        vals = [dv(1, 1), dv(1, 2), dv(1, 3), dv(1, 4)]
        assert max_weight_matching(g, vals).weight == 2.0


class TestCapabilities:
    def test_large_sparse_general_graph_refused(self):
        # 30-vertex path: beyond the DP vertex cap and the enumeration edge cap
        spec = path_graph(30, DistSpec.point_mass(1.0))
        real = draw_realization(spec, 0)
        with pytest.raises(CapabilityError):
            max_weight_matching(spec.graph, real.reals)

    def test_enumerate_cap(self):
        # past the DP vertex cap, general graphs are enumerated up to 24 edges
        within = path_graph(25, DistSpec.point_mass(1.0))
        real = draw_realization(within, 0)
        assert max_weight_matching(within.graph, real.reals).weight == 12.0
        beyond = path_graph(26, DistSpec.point_mass(1.0))
        real = draw_realization(beyond, 0)
        with pytest.raises(CapabilityError):
            max_weight_matching(beyond.graph, real.reals)
