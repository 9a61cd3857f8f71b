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
from prophet_matching.harness import max_matching_weights, trial_chunks
from prophet_matching.instances import complete_bipartite, complete_graph
from prophet_matching.invariants import (
    DIST_FAMILIES,
    InvariantResult,
    _paired_result,
    check_vertex_chain,
    check_vertex_coupling,
    random_small_instance,
)

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
        record = run_offline_vertex(spec, real, [0, 1])
        assert record.feasible == ()
        # greedy on larger draws (5, 4, 6): edge 2 then edge 1
        assert record.sample_matching.edges == {2, 1}
        assert record.matching.edges == frozenset()
        assert build_safe_matching(spec.graph, record.feasible, real).edges == frozenset()

    def test_weight_sandwich_and_buyer_uniqueness(self):
        rng = np.random.default_rng(31)
        for _ in range(150):
            spec = random_small_instance(rng, bipartite=True)
            real = draw_realization(spec, int(rng.integers(0, 2**62)))
            buyers = list(spec.graph.buyers)
            order = [buyers[int(x)] for x in rng.permutation(len(buyers))]
            rec = run_offline_vertex(spec, real, order)
            safe = build_safe_matching(spec.graph, rec.feasible, real)
            assert rec.matching.weight <= safe.weight + 1e-12
            assert safe.weight <= rec.feasible_weight + 1e-12
            owners = [spec.graph.buyer_item(e)[0] for e in rec.feasible]
            assert len(owners) == len(set(owners))
            assert validate_matching(spec.graph, safe)
            assert validate_matching(spec.graph, rec.matching)

    def test_pools_shrink_consistently(self):
        spec = _one_buyer_one_item()
        real = realization(samples=[(1, 11)], reals=[(7, 12)])
        record = run_offline_vertex(spec, real, [0])
        # the real copy was taken feasible, then the sample copy matched
        assert record.feasible == (0,)
        assert record.sample_matching.edges == {0}
        assert record.matching.edges == {0}


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
        record = run_offline_vertex(spec, real, [0, 1])
        assert set(record.feasible) == {0, 1}
        safe = build_safe_matching(spec.graph, record.feasible, real)
        assert safe.edges == {0}
        assert safe.weight == 9.0
        online = run_online_vertex(spec, real, [1, 0])
        assert build_safe_matching(spec.graph, online.feasible, real) == safe

    def test_conflict_free_feasible_set_is_kept_whole(self):
        spec = InstanceSpec(
            graph=bipartite_graph([0, 1], [2, 3], [(0, 2), (1, 3)]),
            dists=(DistSpec.uniform(0, 10),) * 2,
        )
        real = realization(
            samples=[(1, 11), (1, 12)],
            reals=[(9, 21), (4, 22)],
        )
        record = run_offline_vertex(spec, real, [0, 1])
        safe = build_safe_matching(spec.graph, record.feasible, real)
        assert safe.edges == set(record.feasible)


class TestCoupling:
    def test_random_sweep(self):
        # the one coupling check, on 300 random bipartite instances under
        # fixed, reversed and random buyer orders
        result = check_vertex_coupling(instances=300, seed=37)
        assert result.passed, result.detail


def _vertex_chain_per_trial(spec, trials, seed, label):
    """``check_vertex_chain`` as a per-trial loop over the offline twin: the
    reference its batched form must match byte for byte."""
    rng_orders = np.random.default_rng(np.random.SeedSequence([seed, 779]))
    buyers = list(spec.graph.buyers)
    ms_w, feas_w, safe_w, match_w, opt_w = (np.empty(trials) for _ in range(5))
    sandwich_failures = 0
    for chunk in trial_chunks(spec, seed, trials):
        for t, real in enumerate(chunk.reals, chunk.start):
            order = [buyers[int(x)] for x in rng_orders.permutation(len(buyers))]
            record = run_offline_vertex(spec, real, order)
            ms_w[t] = record.sample_matching.weight
            feas_w[t] = record.feasible_weight
            safe_w[t] = build_safe_matching(spec.graph, record.feasible, real).weight
            match_w[t] = record.matching.weight
            if not (
                match_w[t] <= safe_w[t] + 1e-12 and safe_w[t] <= record.feasible_weight + 1e-12
            ):
                sandwich_failures += 1
        opt_w[chunk.start : chunk.start + len(chunk.reals)] = max_matching_weights(
            spec.graph, chunk.values[:, spec.graph.num_edges :]
        )
    return [
        _paired_result(f"vertex_chain/feasible_vs_sample[{label}]", 2.0 * feas_w - ms_w),
        _paired_result(f"vertex_chain/safe_vs_sample[{label}]", 2.0 * safe_w - ms_w),
        _paired_result(f"vertex_chain/matching_vs_safe[{label}]", 2.0 * match_w - safe_w),
        _paired_result(f"vertex_chain/safe_vs_opt[{label}]", 4.0 * safe_w - opt_w),
        InvariantResult(
            name=f"vertex_chain/weight_sandwich[{label}]",
            kind="exact",
            passed=sandwich_failures == 0,
            margin=float(-sandwich_failures),
            detail=f"{sandwich_failures} violations of w(M) <= w(safe) <= w(feasible)",
        ),
    ]


class TestChain:
    @pytest.mark.parametrize(
        "dist", [*DIST_FAMILIES.values(), DistSpec.point_mass(1.0)],
        ids=[*DIST_FAMILIES, "point_mass"],
    )
    @pytest.mark.parametrize("buyers, items", [(4, 4), (3, 6)], ids=["K44", "K36"])
    def test_batched_chain_matches_the_twin_loop(self, buyers, items, dist):
        # 300 trials span three chunks on both graphs (K4,4 takes 128 a chunk)
        spec = complete_bipartite(buyers, items, dist)
        got = check_vertex_chain(spec, 300, 2031, "t")
        want = _vertex_chain_per_trial(spec, 300, 2031, "t")

        def fields(r):
            return r.name, r.kind, r.passed, r.margin.hex(), r.detail, r.data

        assert [fields(r) for r in got] == [fields(r) for r in want]

    def test_needs_a_bipartite_graph(self):
        with pytest.raises(CapabilityError):
            check_vertex_chain(complete_graph(4, DistSpec.uniform(0, 1)), 10, 0, "t")
