from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from prophet_matching.core import (
    MATCHING_TABLE_CAP,
    InputError,
    Matching,
    matching_weight,
    validate_matching,
)
from prophet_matching.distributions import (
    DistSpec,
    InstanceSpec,
    draw_realization,
    draw_realizations,
)
from prophet_matching.instances import complete_bipartite, complete_graph, path_graph, star_graph
from prophet_matching.invariants import (
    DIST_FAMILIES,
    bipartite_families,
    edge_families,
    random_small_instance,
)
from prophet_matching.harness import max_matching_weights
from prophet_matching.oracle import (
    _assignment_opt,
    _blossom_opt,
    _table_opt,
    _table_weights,
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
        "solve", [max_weight_matching, _table_opt, _blossom_opt], ids=["auto", "table", "blossom"]
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
        # blossom's independent check: against the matching table, with which
        # it shares no code, on 13-18 vertices (past the 12-vertex DP cap the
        # name refers to); sparse gnp graphs within the table's cap
        dist = CROSSCHECK_DISTS[dist_name]
        rng = np.random.default_rng(list(CROSSCHECK_DISTS).index(dist_name))
        checked = 0
        while checked < 60:
            n = int(rng.integers(13, 19))
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.2]
            spec = InstanceSpec(graph=general_graph(n, edges), dists=(dist,) * len(edges))
            if spec.graph.matching_table is None:
                continue
            real = draw_realization(spec, int(rng.integers(0, 2**62)))
            table = _table_opt(spec.graph, real.real_values)
            blossom = _blossom_opt(spec.graph, real.real_values)
            assert validate_matching(spec.graph, blossom)
            assert blossom.weight == pytest.approx(table.weight, rel=1e-12, abs=0)
            checked += 1

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


TIE_HEAVY_DISTS = {
    "bernoulli": DistSpec.bernoulli_scaled(0.5, 1.0),
    "point_mass": DistSpec.point_mass(1.0),
}


class TestMatchingTable:
    @pytest.mark.parametrize(
        "spec,count",
        [
            (complete_graph(6, DistSpec.uniform(0, 1)), 76),
            (complete_graph(8, DistSpec.uniform(0, 1)), 764),
            (complete_bipartite(4, 4, DistSpec.uniform(0, 1)), 209),
            (complete_bipartite(3, 6, DistSpec.uniform(0, 1)), 229),
            (star_graph(8, DistSpec.uniform(0, 1)), 9),
            (path_graph(2, DistSpec.uniform(0, 1)), 2),
        ],
        ids=["K6", "K8", "K44", "K36", "star8", "edge"],
    )
    def test_rows_are_every_matching_once(self, spec, count):
        # telephone numbers for K_n; sum over k of C(a,k) C(b,k) k! for K_a,b
        graph = spec.graph
        table = graph.matching_table
        m = graph.num_edges
        rows = [tuple(int(e) for e in row if e < m) for row in table]
        assert len(rows) == len(set(rows)) == count
        for row in table.tolist():
            edges = [e for e in row if e < m]
            assert edges == sorted(edges) and row[len(edges):] == [m] * (len(row) - len(edges))
            assert validate_matching(graph, Matching(frozenset(edges), 0.0))

    def test_no_table_past_the_cap(self):
        # K10 has 9,496 matchings; K20 and K50,50 are the benchmark's graphs
        for spec in (
            complete_graph(10, DistSpec.uniform(0, 1)),
            complete_graph(20, DistSpec.uniform(0, 1)),
            complete_bipartite(50, 50, DistSpec.uniform(0, 1)),
            path_graph(40, DistSpec.uniform(0, 1)),
            star_graph(MATCHING_TABLE_CAP, DistSpec.uniform(0, 1)),
        ):
            assert spec.graph.matching_table is None
        below_cap = star_graph(MATCHING_TABLE_CAP - 1, DistSpec.uniform(0, 1))  # cap matchings
        assert below_cap.graph.matching_table is not None

    def test_empty_graph_has_the_empty_matching(self):
        graph = general_graph(3, [])
        assert graph.matching_table.shape == (1, 0)
        assert max_weight_matching(graph, []).weight == 0.0
        assert max_matching_weights(graph, np.zeros((4, 0))).tolist() == [0.0] * 4

    @pytest.mark.parametrize("dist_name", list(CROSSCHECK_DISTS))
    def test_weights_bit_equal_matching_weight(self, dist_name):
        # the batch weights are the floats matching_weight sums, not near them
        for spec in edge_families(CROSSCHECK_DISTS[dist_name]).values():
            table = spec.graph.matching_table
            m = spec.graph.num_edges
            for real in draw_realizations(spec, range(20)):
                weights = _table_weights(table, np.array([real.real_values]))[0]
                for row, weight in zip(table.tolist(), weights.tolist()):
                    assert weight == matching_weight([e for e in row if e < m], real.real_values)

    @pytest.mark.parametrize("dist_name", list(TIE_HEAVY_DISTS))
    def test_table_agrees_with_brute_force_on_ties(self, dist_name):
        dist = TIE_HEAVY_DISTS[dist_name]
        rng = np.random.default_rng(21)
        specs = [*edge_families(dist).values(), *bipartite_families(dist).values()]
        for _ in range(40):
            n = int(rng.integers(2, 8))
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
            specs.append(InstanceSpec(graph=general_graph(n, edges), dists=(dist,) * len(edges)))
        for spec in specs:
            if spec.graph.num_edges > 14:  # brute force enumerates 2**m edge sets
                continue
            for real in draw_realizations(spec, range(5)):
                expected = brute_force_max_weight(spec.graph, real.real_values)
                got = _table_opt(spec.graph, real.real_values)
                assert got.weight == expected
                assert validate_matching(spec.graph, got)

    @pytest.mark.parametrize("dist_name", list(CROSSCHECK_DISTS))
    def test_batch_equals_one_call_per_row(self, dist_name):
        dist = CROSSCHECK_DISTS[dist_name]
        specs = [*edge_families(dist).values(), *bipartite_families(dist).values()]
        specs.append(complete_graph(10, dist))  # past the cap: one blossom call per row
        for spec in specs:
            reals = draw_realizations(spec, range(30))
            for copy in ("sample_values", "real_values"):
                rows = [getattr(real, copy) for real in reals]
                want = [max_weight_matching(spec.graph, row).weight for row in rows]
                assert max_matching_weights(spec.graph, rows).tolist() == want

    def test_batch_rejects_rows_of_the_wrong_width(self):
        graph = general_graph(3, [(0, 1), (1, 2)])
        for bad in (np.zeros((2, 3)), np.zeros(2), np.zeros((2, 1))):
            with pytest.raises(InputError):
                max_matching_weights(graph, bad)


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


def test_networkx_loaded_only_past_table_cap():
    # importing networkx costs about 130 ms and 10 MB, which every run of the
    # package would pay if it were imported with the package.  Graphs within
    # the table's cap never need it, and every graph of the invariant suite is
    # one: the suite runs here at micro scale, and its random instances have
    # at most 8 vertices, or 4 + 4 in the bipartite ones
    dist = DistSpec.uniform(0, 1)
    for spec in (complete_graph(8, dist), complete_bipartite(4, 4, dist)):
        assert spec.graph.matching_table is not None
    code = (
        "import sys\n"
        "import prophet_matching\n"
        "assert 'networkx' not in sys.modules\n"
        "from prophet_matching.distributions import DistSpec, draw_realization\n"
        "from prophet_matching.instances import complete_graph, gnp_graph\n"
        "from prophet_matching.oracle import max_weight_matching\n"
        "for spec in (complete_graph(8, DistSpec.uniform(0, 1)),\n"
        "             gnp_graph(16, 0.1, DistSpec.uniform(0, 1), seed=1)):\n"
        "    assert spec.graph.matching_table is not None\n"
        "    max_weight_matching(spec.graph, draw_realization(spec, 0).real_values)\n"
        "assert 'networkx' not in sys.modules\n"
        "from prophet_matching.invariants import SuiteConfig, run_invariant_suite\n"
        "run_invariant_suite(SuiteConfig(coupling_instances=25, bound_trials=10, chain_trials=10,\n"
        "    greedy_instances=15, audit_instances=3, audit_misreports=10, maximality_runs=20,\n"
        "    point_mass_trials=10, chain_dists=('uniform', 'pareto', 'bernoulli')))\n"
        "assert 'networkx' not in sys.modules\n"
        "spec = complete_graph(12, DistSpec.uniform(0, 1))\n"
        "assert spec.graph.matching_table is None\n"
        "max_weight_matching(spec.graph, draw_realization(spec, 0).real_values)\n"
        "assert 'networkx' in sys.modules\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
