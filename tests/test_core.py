from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from prophet_matching.core import (
    ContractViolation,
    Graph,
    InputError,
    Matching,
    PriceTable,
    Realization,
    sort_draws,
    validate_matching,
)
from prophet_matching.distributions import DistSpec, draw_realization
from prophet_matching.instances import complete_bipartite, complete_graph
from prophet_matching.invariants import random_small_instance
from conftest import general_graph, realization, reference_order


def _sample_outranks_real(sample, real) -> bool:
    """Does the one sample draw (draw 0) rank above the one real draw (draw 1)?"""
    return realization(samples=[sample], reals=[real]).rank == (0, 1)


class TestCompare:
    def test_values_differ(self):
        assert _sample_outranks_real((5, 10), (3, 99))
        assert not _sample_outranks_real((3, 99), (5, 10))

    def test_tie_resolved_by_key(self):
        # smaller key ranks first, i.e. wins the tie
        assert _sample_outranks_real((4, 2), (4, 7))
        assert not _sample_outranks_real((4, 7), (4, 2))

    def test_antisymmetry(self):
        # order and rank are inverse permutations: every pair compares one way
        real = realization(samples=[(1.5, 3), (1.5, 5)], reals=[(1.5, 4), (0.0, 1)])
        assert real.order == (0, 2, 1, 3)
        assert all(real.rank[d] == r for r, d in enumerate(real.order))

    def test_equal_keys_fatal(self):
        with pytest.raises(ContractViolation):
            realization(samples=[(4, 7)], reals=[(4, 7)])

    @given(
        st.lists(
            st.tuples(
                st.floats(0, 100, allow_nan=False),
                st.integers(0, 2**64 - 1),
            ),
            min_size=2,
            max_size=160,
            unique_by=lambda t: t[1],
        )
    )
    def test_strict_total_order(self, pairs):
        half = len(pairs) // 2
        real = realization(samples=pairs[:half], reals=pairs[half : 2 * half])
        assert list(real.order) == reference_order(real.samples + real.reals)
        assert sorted(real.rank) == list(range(2 * half))
        assert all(real.rank[d] == r for r, d in enumerate(real.order))


class TestGraph:
    def test_self_loop_rejected(self):
        with pytest.raises(InputError):
            general_graph(3, [(0, 0)])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(InputError):
            general_graph(3, [(0, 1), (1, 0)])

    def test_bipartite_edge_must_cross(self):
        with pytest.raises(InputError):
            Graph(
                num_vertices=4,
                edges=((0, 1),),
                kind="bipartite",
                buyers=(0, 1),
                items=(2, 3),
            )

    def test_bipartite_partition_must_cover(self):
        with pytest.raises(InputError):
            Graph(
                num_vertices=4,
                edges=((0, 2),),
                kind="bipartite",
                buyers=(0,),
                items=(2, 3),
            )

    def test_repeated_buyer_or_item_rejected(self):
        with pytest.raises(InputError):
            Graph(2, ((0, 1),), "bipartite", buyers=(0, 0), items=(1,))
        with pytest.raises(InputError):
            Graph(2, ((0, 1),), "bipartite", buyers=(0,), items=(1, 1))

    def test_adjacent_pairs_each_edge_with_its_other_end(self):
        g = general_graph(4, [(0, 1), (2, 1), (3, 0)])
        assert g.adjacent == (((0, 1), (2, 3)), ((0, 0), (1, 2)), ((1, 1),), ((2, 0),))
        assert [[e for e, _ in pairs] for pairs in g.adjacent] == [list(x) for x in g.incident]

    def test_buyer_item_orientation(self):
        g = Graph(
            num_vertices=4,
            edges=((2, 0), (1, 3)),
            kind="bipartite",
            buyers=(0, 1),
            items=(2, 3),
        )
        assert g.buyer_item(0) == (0, 2)
        assert g.buyer_item(1) == (1, 3)


class TestMatching:
    def test_disjoint_edges_valid(self):
        g = general_graph(4, [(0, 1), (1, 2), (2, 3)])
        m = Matching.from_edges([0, 2], [5.0, 3.0, 4.0])
        assert validate_matching(g, m)
        assert m.weight == 9.0

    def test_shared_vertex_invalid(self):
        g = general_graph(4, [(0, 1), (1, 2), (2, 3)])
        m = Matching.from_edges([0, 1], [5.0, 3.0, 4.0])
        assert not validate_matching(g, m)

    def test_empty_matching_valid(self):
        g = general_graph(4, [(0, 1)])
        assert validate_matching(g, Matching.empty())

    def test_unknown_edge_id(self):
        g = general_graph(4, [(0, 1)])
        with pytest.raises(InputError):
            validate_matching(g, Matching(edges=frozenset([5]), weight=0.0))

    def test_weight_accumulation_is_canonical(self):
        vals = [0.1, 0.2, 0.3]
        a = Matching.from_edges([2, 0], vals)
        b = Matching.from_edges([0, 2], vals)
        assert a.weight == b.weight


class TestPriceTable:
    def _table(self, real_draw):
        # one edge: its sample (draw 0) prices both endpoints, its real is draw 1
        g = general_graph(2, [(0, 1)])
        real = realization(samples=[(5, 11)], reals=[real_draw])
        return PriceTable.from_matching(g, Matching.from_edges([0], real.sample_values), real)

    def test_matched_vertices_carry_the_sample_draw(self):
        table = self._table((7, 12))
        assert table.origins == {0: 0, 1: 0}
        assert table.price(0) == 5.0 == table.price(1)
        assert table.beaten_by(1, 0)
        assert not self._table((3, 12)).beaten_by(1, 0)
        # an exact value tie against the price falls back to the key order
        assert self._table((5, 1)).beaten_by(1, 0)
        assert not self._table((5, 99)).beaten_by(1, 0)

    def test_unpriced_vertex_is_beaten_by_anything(self):
        table = PriceTable(real=realization(samples=[(5, 11)], reals=[(0.0, 1)]), origins={})
        assert table.price(3) == 0.0
        assert table.beaten_by(1, 3)  # even a zero-value draw

    def test_ranks_agree_with_beaten_by(self):
        rng = np.random.default_rng(41)
        for _ in range(60):
            spec = random_small_instance(rng)
            real = draw_realization(spec, int(rng.integers(0, 2**63)))
            graph, m = spec.graph, spec.graph.num_edges
            edges = [e for e in rng.permutation(m).tolist() if rng.random() < 0.5]
            used, chosen = set(), []
            for e in edges:
                if not used & set(graph.edges[e]):
                    used.update(graph.edges[e])
                    chosen.append(e)
            sample = Matching.from_edges(chosen, real.sample_values)
            table = PriceTable.from_matching(graph, sample, real)
            ranks = table.ranks(graph.num_vertices)
            assert [ranks[x] == 2 * m for x in range(graph.num_vertices)] == [
                x not in used for x in range(graph.num_vertices)
            ]
            for d in range(2 * m):
                for x in range(graph.num_vertices):
                    assert (real.rank[d] < ranks[x]) == table.beaten_by(d, x)


class TestRealization:
    def test_duplicate_keys_fatal(self):
        with pytest.raises(ContractViolation):
            realization(samples=[(1, 5)], reals=[(2, 5)])

    def test_rank_matches_reference_sort(self):
        # about 300 drawn realizations; point masses and bernoulli values tie
        # everywhere, uniform values almost never
        rng = np.random.default_rng(17)
        specs = [random_small_instance(rng) for _ in range(100)]
        for dist in (DistSpec.point_mass(1.0), DistSpec.bernoulli_scaled(0.5, 1.0)):
            specs += [complete_graph(5, dist), complete_bipartite(3, 4, dist)] * 25
            specs += [complete_graph(12, dist)] * 25
        specs += [complete_graph(12, DistSpec.uniform(0.0, 1.0))] * 50
        for spec in specs:
            real = draw_realization(spec, int(rng.integers(0, 2**63)))
            ref = reference_order(real.samples + real.reals)
            assert list(real.order) == ref
            assert [real.rank[d] for d in ref] == list(range(len(ref)))
            for copy in (0, 1):
                m = real.num_edges
                assert real.edge_order(copy) == [d - copy * m for d in ref if d // m == copy]

    def test_swap_copies_equals_a_fresh_sort(self):
        # swapping edges' two draws must give exactly the realization that
        # sorting the swapped arrays from scratch gives; ties included
        rng = np.random.default_rng(23)
        specs = [random_small_instance(rng) for _ in range(40)]
        specs += [complete_graph(5, DistSpec.bernoulli_scaled(0.5, 1.0))] * 20
        for spec in specs:
            real = draw_realization(spec, int(rng.integers(0, 2**63)))
            m = real.num_edges
            flipped = [e for e in range(m) if rng.random() < 0.5]
            swap = list(range(2 * m))
            for e in flipped:
                swap[e], swap[m + e] = m + e, e
            fresh = Realization(values=real.values[swap], keys=real.keys[swap])
            got = real.swap_copies(flipped)
            assert got == fresh
            assert (got.order, got.rank) == (fresh.order, fresh.rank)
            assert (got.sample_values, got.real_values) == (fresh.sample_values, fresh.real_values)
            assert got.samples == fresh.samples and got.reals == fresh.reals

    def test_key_must_be_64_bit_unsigned(self):
        for bad in (-1, 2**64):
            with pytest.raises(InputError):
                realization(samples=[(1, 5)], reals=[(1, bad)])

    def test_negative_value_rejected(self):
        with pytest.raises(InputError):
            realization(samples=[(-1, 5)], reals=[(2, 6)])
        # NaN passes a plain "< 0" test and would price a vertex at nan
        for bad in (math.nan, math.inf):
            with pytest.raises(InputError):
                realization(samples=[(1, 5)], reals=[(bad, 6)])


def _two_pass_sort(values, keys):
    """The reference ``sort_draws``: every row sorted by key, then stably by value."""
    n, w = keys.shape
    offsets = w * np.arange(n)[:, None]
    by_key = keys.argsort(axis=1)
    by_key += offsets
    sorted_keys = keys.take(by_key)
    repeated = sorted_keys[:, 1:] == sorted_keys[:, :-1]
    repeated = np.flatnonzero(repeated.any(axis=1)).tolist() if np.count_nonzero(repeated) else []
    order = by_key.take((-values.take(by_key)).argsort(axis=1, kind="stable") + offsets)
    rank = np.empty_like(order)
    rank.put(order, np.arange(w))
    order -= offsets
    return order, rank, repeated


class TestSortDraws:
    """``sort_draws`` against the two-pass sort it replaces, row for row."""

    @staticmethod
    def _check(values, keys):
        got, want = sort_draws(values, keys), _two_pass_sort(values, keys)
        assert got[0].tolist() == want[0].tolist()
        assert got[1].tolist() == want[1].tolist()
        assert got[2] == want[2]
        return got

    @staticmethod
    def _keys(rng, shape):
        return rng.integers(0, 2**64, shape, dtype=np.uint64)

    def test_tie_free_rows(self):
        rng = np.random.default_rng(3)
        for shape in [(1, 5000), (200, 24), (10, 380), (3, 2), (1, 0), (0, 6)]:
            self._check(rng.random(shape), self._keys(rng, shape))

    @pytest.mark.parametrize("p", [1.0, 0.5, 0.3])
    def test_point_mass_and_bernoulli_rows(self, p):
        # p = 1 ties every value of a row; Bernoulli rows tie about half
        rng = np.random.default_rng(int(p * 10))
        for shape in [(200, 24), (113, 36), (1, 5000)]:
            values = np.where(rng.random(shape) < p, 2.0, 0.0)
            self._check(values, self._keys(rng, shape))

    def test_mixed_chunks(self):
        # tie-free rows and tied rows of one chunk, in every interleaving;
        # the ties include 0.0 against -0.0 and +inf against +inf
        rng = np.random.default_rng(9)
        for _ in range(50):
            n, w = int(rng.integers(1, 12)), int(rng.integers(2, 40))
            values = rng.random((n, w))
            for t in np.flatnonzero(rng.random(n) < 0.5):
                a, b = rng.choice(w, 2, replace=False)
                values[t, a] = values[t, b] = rng.choice([values[t, a], 0.0, math.inf])
                if values[t, a] == 0.0:
                    values[t, b] = -0.0
            self._check(values, self._keys(rng, (n, w)))

    @pytest.mark.parametrize("tied", [False, True])
    def test_repeated_key_is_reported(self, tied):
        # far apart, so that only a sort of the keys puts the repeats side by side
        rng = np.random.default_rng(5)
        values = rng.random((6, 10))
        if tied:
            values[3:] = np.round(values[3:])
        keys = self._keys(rng, (6, 10))
        for t in (1, 4):
            keys[t, 8] = keys[t, 1]
        assert self._check(values, keys)[2] == [1, 4]

    def test_nan_rows_sort_as_before(self):
        # NaN compares unequal to itself, so a row holding one takes the key path
        rng = np.random.default_rng(8)
        values = rng.random((4, 12))
        values[0, 3] = values[1, 3] = values[1, 8] = math.nan
        values[2, 5] = math.inf
        self._check(values, self._keys(rng, (4, 12)))

    def test_nan_and_inf_values_rejected(self):
        rng = np.random.default_rng(12)
        nan, inf = math.nan, math.inf
        for bad in ([nan], [nan, nan], [inf], [inf, inf], [nan, inf]):
            for tied in (False, True):
                values = (np.ones(8) if tied else rng.random(8)).tolist()
                places = rng.choice(8, len(bad), replace=False)
                for place, value in zip(places, bad):
                    values[place] = value
                with pytest.raises(InputError):
                    Realization(values=values, keys=list(range(8)))
