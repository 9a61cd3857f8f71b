from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from prophet_matching.core import (
    ContractViolation,
    DrawnValue,
    Graph,
    InputError,
    Matching,
    PriceTable,
    beats,
    validate_matching,
)
from conftest import dv, general_graph, realization


class TestCompare:
    def test_values_differ(self):
        assert beats(dv(5, 10), dv(3, 99))
        assert not beats(dv(3, 99), dv(5, 10))

    def test_tie_resolved_by_key(self):
        # smaller key ranks first, i.e. wins the tie
        assert beats(dv(4, 2), dv(4, 7))
        assert not beats(dv(4, 7), dv(4, 2))

    def test_antisymmetry(self):
        a, b = dv(1.5, 3), dv(1.5, 4)
        assert beats(a, b)
        assert not beats(b, a)

    def test_equal_keys_fatal(self):
        with pytest.raises(ContractViolation):
            beats(dv(4, 7), dv(4, 7))

    @given(
        st.lists(
            st.tuples(
                st.floats(0, 100, allow_nan=False),
                st.integers(0, 2**64 - 1),
            ),
            min_size=2,
            max_size=30,
            unique_by=lambda t: t[1],
        )
    )
    def test_strict_total_order(self, pairs):
        draws = [dv(v, k) for v, k in pairs]
        ranked = sorted(draws, key=DrawnValue.sort_key)
        # sorting twice gives the same order, and adjacent pairs compare strictly
        assert ranked == sorted(draws, key=DrawnValue.sort_key)
        for a, b in zip(ranked, ranked[1:]):
            assert beats(a, b) and not beats(b, a)
        # transitivity along the chain implies the first beats the last
        if len(ranked) >= 2:
            assert beats(ranked[0], ranked[-1])


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
        m = Matching.from_edges([0, 2], [dv(5, 1), dv(3, 2), dv(4, 3)])
        assert validate_matching(g, m)
        assert m.weight == 9.0

    def test_shared_vertex_invalid(self):
        g = general_graph(4, [(0, 1), (1, 2), (2, 3)])
        m = Matching.from_edges([0, 1], [dv(5, 1), dv(3, 2), dv(4, 3)])
        assert not validate_matching(g, m)

    def test_empty_matching_valid(self):
        g = general_graph(4, [(0, 1)])
        assert validate_matching(g, Matching.empty())

    def test_unknown_edge_id(self):
        g = general_graph(4, [(0, 1)])
        with pytest.raises(InputError):
            validate_matching(g, Matching(edges=frozenset([5]), weight=0.0))

    def test_weight_accumulation_is_canonical(self):
        vals = [dv(0.1, 1), dv(0.2, 2), dv(0.3, 3)]
        a = Matching.from_edges([2, 0], vals)
        b = Matching.from_edges([0, 2], vals)
        assert a.weight == b.weight


class TestPriceTable:
    def test_matched_vertices_carry_the_sample_draw(self):
        g = general_graph(2, [(0, 1)])
        sample = dv(5, 11)
        m = Matching.from_edges([0], [sample])
        table = PriceTable.from_matching(g, m, [sample])
        assert table.price(0) == 5.0 == table.price(1)
        assert table.beaten_by(dv(7, 12), 0)
        assert not table.beaten_by(dv(3, 12), 0)
        # an exact value tie against the price falls back to the key order
        assert table.beaten_by(dv(5, 1), 0)
        assert not table.beaten_by(dv(5, 99), 0)

    def test_unpriced_vertex_is_beaten_by_anything(self):
        table = PriceTable(origins={})
        assert table.price(3) == 0.0
        assert table.beaten_by(dv(0.0, 1), 3)  # even a zero-value draw


class TestRealization:
    def test_duplicate_keys_fatal(self):
        with pytest.raises(ContractViolation):
            realization(samples=[(1, 5)], reals=[(2, 5)])

    def test_negative_value_rejected(self):
        with pytest.raises(InputError):
            realization(samples=[(-1, 5)], reals=[(2, 6)])
        # NaN passes a plain "< 0" test and would price a vertex at nan
        for bad in (math.nan, math.inf):
            with pytest.raises(InputError):
                realization(samples=[(1, 5)], reals=[(bad, 6)])
