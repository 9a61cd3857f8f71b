from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from prophet_matching.core import InputError, validate_matching
from prophet_matching.distributions import DistSpec, InstanceSpec, draw_realization
from prophet_matching.instances import complete_graph, path_graph
from prophet_matching.invariants import DIST_FAMILIES, random_small_instance
from prophet_matching.oracle import (
    DP_VERTEX_CAP,
    _assignment_opt,
    _blossom_opt,
    _dp_opt,
    greedy_matching,
    max_weight_matching,
)

from conftest import bipartite_graph, brute_force_max_weight, general_graph, reference_order

# the gate's four value families, plus point masses: all-tied weights
CROSSCHECK_DISTS = {**DIST_FAMILIES, "point_mass": DistSpec.point_mass(1.0)}


class TestGreedy:
    def test_path_hand_trace(self):
        # weights 5, 3, 4 on a path: greedy takes the 5-edge, skips 3, takes 4
        g = general_graph(4, [(0, 1), (1, 2), (2, 3)])
        vals = [5.0, 3.0, 4.0]
        m = greedy_matching(g, [0, 2, 1], vals)  # the edges from best to worst
        assert m.edges == {0, 2}
        assert m.weight == 9.0
        assert brute_force_max_weight(g, vals) == 9.0  # greedy happens to be optimal here

    def test_triangle_single_edge(self):
        g = general_graph(3, [(0, 1), (1, 2), (0, 2)])
        m = greedy_matching(g, [0, 1, 2], [3.0, 2.0, 1.0])
        assert m.edges == {0}
        assert m.weight == 3.0

    def test_empty_graph(self):
        m = greedy_matching(general_graph(0, []), [], [])
        assert m.edges == frozenset()
        assert m.weight == 0.0

    def test_missing_value_rejected(self):
        g = general_graph(3, [(0, 1), (1, 2)])
        with pytest.raises(InputError):
            greedy_matching(g, [0, 1], [1.0])

    def test_order_must_be_permutation(self):
        # an order that skips or repeats an edge would scan a non-greedy matching
        g = general_graph(3, [(0, 1), (1, 2)])
        for bad in ([0], [0, 0], [1, 2], [0, 1, 1]):
            with pytest.raises(InputError):
                greedy_matching(g, bad, [2.0, 1.0])

    def test_invariant_under_edge_list_permutation(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            spec = random_small_instance(rng)
            real = draw_realization(spec, int(rng.integers(0, 2**62)))
            g = spec.graph
            m1 = greedy_matching(g, real.edge_order(0), real.sample_values)
            perm = [int(x) for x in rng.permutation(g.num_edges)]
            g2 = general_graph(g.num_vertices, [g.edges[e] for e in perm]) \
                if g.kind == "general" else bipartite_graph(
                    g.buyers, g.items, [g.edges[e] for e in perm])
            samples2 = [real.samples[e] for e in perm]
            m2 = greedy_matching(g2, reference_order(samples2), [d.value for d in samples2])
            pairs1 = {tuple(sorted(g.edges[e])) for e in m1.edges}
            pairs2 = {tuple(sorted(g2.edges[e])) for e in m2.edges}
            assert pairs1 == pairs2
            # relabeling changes the accumulation order, so compare to ulp scale
            assert m1.weight == pytest.approx(m2.weight, rel=1e-12)


class TestMaxWeight:
    def test_bipartite_two_by_two(self):
        g = bipartite_graph([0, 1], [2, 3], [(0, 2), (0, 3), (1, 2), (1, 3)])
        vals = [2.0, 1.0, 1.0, 2.0]
        assert max_weight_matching(g, vals).weight == 4.0

    def test_path_by_enumeration(self):
        g = general_graph(4, [(0, 1), (1, 2), (2, 3)])
        vals = [5.0, 3.0, 4.0]
        assert max_weight_matching(g, vals).weight == 9.0

    @pytest.mark.parametrize(
        "solve", [max_weight_matching, _dp_opt, _blossom_opt], ids=["auto", "dp", "blossom"]
    )
    def test_solvers_agree_with_brute_force_general(self, solve):
        rng = np.random.default_rng(11)
        for _ in range(25):
            spec = random_small_instance(rng, bipartite=False)
            if spec.graph.num_edges > 12:
                continue
            real = draw_realization(spec, int(rng.integers(0, 2**62)))
            expected = brute_force_max_weight(spec.graph, real.real_values)
            got = solve(spec.graph, real.real_values)
            assert got.weight == pytest.approx(expected, abs=1e-12)
            assert validate_matching(spec.graph, got)

    def test_assignment_agrees_with_blossom_bipartite(self):
        # blossom runs on bipartite graphs too, so it is an independent reference
        rng = np.random.default_rng(12)
        for _ in range(25):
            spec = random_small_instance(rng, bipartite=True)
            real = draw_realization(spec, int(rng.integers(0, 2**62)))
            a = _assignment_opt(spec.graph, real.real_values)
            b = _blossom_opt(spec.graph, real.real_values)
            assert a.weight == pytest.approx(b.weight, abs=1e-12)

    @pytest.mark.parametrize("dist_name", list(CROSSCHECK_DISTS))
    def test_blossom_agrees_with_dp_past_cap(self, dist_name):
        # the two exact solvers share no code; at 13-18 vertices
        # max_weight_matching uses blossom and the DP is still quick
        dist = CROSSCHECK_DISTS[dist_name]
        rng = np.random.default_rng(list(CROSSCHECK_DISTS).index(dist_name))
        for _ in range(60):
            n = int(rng.integers(DP_VERTEX_CAP + 1, 19))
            p = float(rng.uniform(0.15, 0.9))
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
            spec = InstanceSpec(graph=general_graph(n, edges), dists=(dist,) * len(edges))
            real = draw_realization(spec, int(rng.integers(0, 2**62)))
            dp = _dp_opt(spec.graph, real.real_values)
            blossom = _blossom_opt(spec.graph, real.real_values)
            assert validate_matching(spec.graph, blossom)
            assert blossom.weight == pytest.approx(dp.weight, rel=1e-12, abs=0)

    def test_greedy_two_approximation_exact(self):
        rng = np.random.default_rng(13)
        for _ in range(60):
            spec = random_small_instance(rng)
            real = draw_realization(spec, int(rng.integers(0, 2**62)))
            greedy = greedy_matching(spec.graph, real.edge_order(1), real.real_values)
            opt = max_weight_matching(spec.graph, real.real_values)
            assert 2.0 * greedy.weight >= opt.weight

    def test_ties_broken_arbitrarily_weight_is_contractual(self):
        # two optimal matchings of equal weight: either is acceptable
        g = bipartite_graph([0, 1], [2, 3], [(0, 2), (1, 3), (0, 3), (1, 2)])
        vals = [1.0, 1.0, 1.0, 1.0]
        assert max_weight_matching(g, vals).weight == 2.0


class TestCapabilities:
    def test_large_sparse_general_graph_solved(self):
        spec = path_graph(30, DistSpec.point_mass(1.0))
        real = draw_realization(spec, 0)
        assert max_weight_matching(spec.graph, real.real_values).weight == 15.0

    def test_paths_past_dp_cap(self):
        for n, weight in ((25, 12.0), (26, 13.0)):
            spec = path_graph(n, DistSpec.point_mass(1.0))
            real = draw_realization(spec, 0)
            assert max_weight_matching(spec.graph, real.real_values).weight == weight

    def test_complete_40(self):
        spec = complete_graph(40, DistSpec.uniform(0, 1))
        real = draw_realization(spec, 5)
        opt = max_weight_matching(spec.graph, real.real_values)
        assert validate_matching(spec.graph, opt)
        # positive values on an even complete graph: every optimum is perfect
        assert len(opt.edges) == 20
        assert opt.weight >= greedy_matching(spec.graph, real.edge_order(1), real.real_values).weight


def test_networkx_loaded_only_past_dp_cap():
    # importing networkx costs about 130 ms and 10 MB, which every run of the
    # package would pay if it were imported with the package
    code = (
        "import sys\n"
        "import prophet_matching\n"
        "assert 'networkx' not in sys.modules\n"
        "from prophet_matching.distributions import DistSpec, draw_realization\n"
        "from prophet_matching.instances import complete_graph\n"
        "from prophet_matching.oracle import max_weight_matching\n"
        "spec = complete_graph(12, DistSpec.uniform(0, 1))\n"
        "max_weight_matching(spec.graph, draw_realization(spec, 0).real_values)\n"
        "assert 'networkx' not in sys.modules\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
