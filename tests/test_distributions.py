from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest
from scipy import stats

from prophet_matching import distributions
from prophet_matching.core import InputError
from prophet_matching.distributions import (
    DistSpec,
    InstanceSpec,
    _edge_words,
    _unique_keys,
    draw_batch,
    draw_realization,
    draw_realizations,
)
from prophet_matching.instances import complete_bipartite, complete_graph, path_graph

from conftest import general_graph

# KS critical value at alpha=0.01 for n=1e5 draws: 1.628 / sqrt(n)
KS_THRESHOLD = 0.0052
N_KS = 100_000


def _draw_many(dist: DistSpec, n: int, seed: int = 7) -> np.ndarray:
    """n independent draws of a single-edge instance's real value, at seeds
    seed * n .. seed * n + n - 1, drawn in batches of 10^4."""
    spec = path_graph(2, dist)
    seeds = range(seed * n, seed * n + n)
    return np.array(
        [
            real.real_values[0]
            for start in range(0, n, 10_000)
            for real in draw_realizations(spec, seeds[start : start + 10_000])
        ]
    )


class TestDistSpecValidation:
    @pytest.mark.parametrize(
        "family,params",
        [
            ("uniform", (2.0, 1.0)),
            ("uniform", (-1.0, 1.0)),
            ("exponential", (0.0,)),
            ("exponential", (-2.0,)),
            ("pareto", (0.0, 1.0)),
            ("pareto", (1.0, -1.0)),
            ("bernoulli_scaled", (1.5, 1.0)),
            ("bernoulli_scaled", (0.5, -1.0)),
            ("point_mass", (-0.5,)),
            ("uniform", (1.0,)),
            ("gamma", (1.0,)),
            ("exponential", (math.inf,)),
        ],
    )
    def test_bad_params_rejected(self, family, params):
        with pytest.raises(InputError):
            DistSpec(family, params)

    def test_instance_needs_one_dist_per_edge(self):
        g = general_graph(3, [(0, 1), (1, 2)])
        with pytest.raises(InputError):
            InstanceSpec(graph=g, dists=(DistSpec.point_mass(1.0),))


class TestDrawRealization:
    def test_point_mass_degenerate(self):
        spec = path_graph(2, DistSpec.point_mass(7.0))
        real = draw_realization(spec, 123)
        assert real.samples[0].value == 7.0
        assert real.reals[0].value == 7.0
        assert real.samples[0].tiebreak != real.reals[0].tiebreak

    def test_deterministic_bit_for_bit(self):
        spec = complete_graph(5, DistSpec.uniform(0.0, 3.0))
        assert draw_realization(spec, 99) == draw_realization(spec, 99)
        assert draw_realization(spec, 99) != draw_realization(spec, 100)

    def test_edge_list_order_does_not_change_draws(self):
        dist = DistSpec.exponential(1.3)
        g1 = general_graph(4, [(0, 1), (1, 2), (2, 3)])
        g2 = general_graph(4, [(2, 3), (0, 1), (1, 2)])
        r1 = draw_realization(InstanceSpec(g1, (dist,) * 3), 5)
        r2 = draw_realization(InstanceSpec(g2, (dist,) * 3), 5)
        by_pair_1 = {g1.edges[e]: (r1.samples[e], r1.reals[e]) for e in range(3)}
        by_pair_2 = {g2.edges[e]: (r2.samples[e], r2.reals[e]) for e in range(3)}
        assert by_pair_1 == by_pair_2

    def test_keys_unique_across_draws(self):
        spec = complete_graph(8, DistSpec.uniform(0.0, 1.0))
        real = draw_realization(spec, 1)
        keys = [d.tiebreak for d in real.samples + real.reals]
        assert len(set(keys)) == 2 * spec.graph.num_edges

    def test_negative_seed_rejected(self):
        spec = path_graph(2, DistSpec.point_mass(1.0))
        with pytest.raises(InputError):
            draw_realization(spec, -1)

    @pytest.mark.parametrize(
        "dist",
        [DistSpec.exponential(1e-320), DistSpec.pareto(1.0, 1e-3), DistSpec.pareto(1e300, 0.01)],
        ids=["exp", "pareto", "pareto-product"],
    )
    def test_overflowing_draw_is_an_input_error(self, dist):
        # the exponential's quotient and the Pareto's product overflow to inf,
        # while the Pareto's power goes through Python's pow, which raises
        # OverflowError; the per-draw quantile says so as the draws do
        spec = path_graph(2, dist)
        with pytest.raises(InputError):
            draw_realization(spec, 3)
        with pytest.raises(InputError):
            draw_realizations(spec, [1, 2, 3])
        with pytest.raises(InputError):
            dist.quantile(0.999)

    def test_seed_at_or_above_2_64_rejected(self):
        # the seed is hashed as 8 bytes: 2**64 + 5 would draw what seed 5 draws
        spec = path_graph(3, DistSpec.uniform(0.0, 1.0))
        draw_realization(spec, 2**64 - 1)
        for bad in (2**64, 2**64 + 5, 2**70):
            with pytest.raises(InputError):
                draw_realization(spec, bad)
        with pytest.raises(InputError):
            draw_realization(spec, 5.0)


# sha256 of (values as <f8, then keys as <u8, in draw-id order) at seed 2024:
# any change to the random stream, the quantiles or the key layout shows here
STREAM_PINS = {
    "point_mass": (
        path_graph(4, DistSpec.point_mass(2.5)),
        "8fb3b796bb5b846b1e0bd0d0c76f288b486ab19e39a3539c09fffaad3c53a930",
    ),
    "uniform": (
        complete_graph(4, DistSpec.uniform(0.5, 2.0)),
        "fd9e046bb208634d6dca2cef449d69dbeabc67141158246b1d0acbe019eb27e8",
    ),
    "exponential": (
        complete_bipartite(2, 3, DistSpec.exponential(1.5)),
        "e2cdcbbe657c0ed5b65bb0b4d8acd3f2c99f3219b5bcca91dd946cd3c796cc42",
    ),
    "pareto": (
        complete_graph(4, DistSpec.pareto(1.0, 2.5)),
        "cd5a896644e533f3f0bb01849d965c4fe0c48194971fa6ca967fac7e32269c35",
    ),
    "bernoulli_scaled": (
        complete_bipartite(3, 3, DistSpec.bernoulli_scaled(0.4, 3.0)),
        "f572e8e131ca258a18592c17a5e4c0e9806d388e8c368de229d6fc7df4be9521",
    ),
}


class TestStream:
    @pytest.mark.parametrize("family", list(STREAM_PINS))
    def test_stream_pinned(self, family):
        spec, digest = STREAM_PINS[family]
        real = draw_realization(spec, 2024)
        data = real.values.astype("<f8").tobytes() + real.keys.astype("<u8").tobytes()
        assert hashlib.sha256(data).hexdigest() == digest

    def test_arrays_equal_the_per_edge_formula(self):
        # every family in one instance, with integer and signed-zero parameters:
        # each draw must be the float that hashing its edge alone and calling
        # DistSpec.quantile gives
        graph = complete_bipartite(3, 5, DistSpec.uniform(0.0, 1.0)).graph
        dists = [
            DistSpec.uniform(0.0, 2.0),
            DistSpec.exponential(2.0),
            DistSpec.pareto(2.0, 3.0),
            DistSpec.bernoulli_scaled(0.5, 1.0),
            DistSpec.point_mass(0.25),
            DistSpec("uniform", (1, 3)),
            DistSpec("point_mass", (-0.0,)),
        ]
        spec = InstanceSpec(graph, tuple(dists[e % len(dists)] for e in range(graph.num_edges)))
        m = graph.num_edges
        for seed in (0, 1, 77, 2**63 + 1, 2**64 - 1):
            real = draw_realization(spec, seed)
            values = real.sample_values + real.real_values
            for e, (u, v) in enumerate(graph.edges):
                ks, vs, kr, vr = _edge_words(seed, u, v)
                for d, key, word in ((e, ks, vs), (m + e, kr, vr)):
                    want = spec.dists[e].quantile((word >> 11) * 2.0**-53)
                    got = values[d]
                    assert type(got) is float
                    assert (got, math.copysign(1.0, got)) == (want, math.copysign(1.0, want))
                    assert int(real.keys[d]) == key

    @staticmethod
    def _seen_set_reference(keys, rekey):
        # the key de-duplication loop draw_realization ran before it moved
        # into _unique_keys, with draw ids in place of the two DrawnValue lists
        seen: set[int] = set()
        out = []
        for d, key in enumerate(keys):
            salt = 0
            while key in seen:
                salt += 1
                key = rekey(d, salt)
            seen.add(key)
            out.append(key)
        return out

    def test_unique_keys_matches_seen_set_loop(self):
        rng = np.random.default_rng(8)

        def rekey(d, salt):
            # a small range, so salted keys collide again and the loop repeats
            return (d * 7 + salt * 13) % 41

        for _ in range(200):
            n = 2 * int(rng.integers(1, 16))
            keys = rng.integers(0, 30, size=n).astype(np.uint64)
            got = _unique_keys(keys, rekey).tolist()
            assert got == self._seen_set_reference(keys.tolist(), rekey)
            assert len(set(got)) == n

    def test_unique_keys_leave_distinct_keys_alone(self):
        keys = np.array([5, 2**64 - 1, 0, 9], dtype=np.uint64)

        def rekey(d, salt):
            raise AssertionError("no key repeats, so nothing is re-keyed")

        assert _unique_keys(keys, rekey).tolist() == keys.tolist()

    def test_draw_rekeys_colliding_draws(self, monkeypatch):
        # every edge's salt-0 digest gets key words 0, so all 2m keys collide
        # and draw_realization must take its re-keying path
        spec = complete_graph(4, DistSpec.uniform(0.0, 1.0))
        honest = draw_realization(spec, 11)
        real_sha256 = hashlib.sha256

        class ZeroKeys:
            def __init__(self, h):
                self.h = h

            def copy(self):
                return ZeroKeys(self.h.copy())

            def update(self, data):
                self.h.update(data)

            def digest(self):
                d = self.h.digest()
                return bytes(8) + d[8:16] + bytes(8) + d[24:]

        def sha256(data=b""):
            # the seed-only state draw_realization copies; _edge_words
            # hashes the full 32 bytes in one call and stays honest
            return ZeroKeys(real_sha256(data)) if len(data) == 8 else real_sha256(data)

        monkeypatch.setattr(distributions.hashlib, "sha256", sha256)
        real = draw_realization(spec, 11)
        m = spec.graph.num_edges

        def rekey(d, salt):
            u, v = spec.graph.edges[d % m]
            return _edge_words(11, u, v, salt)[0 if d < m else 2]

        assert real.values.tolist() == honest.values.tolist()
        assert real.keys.tolist() == self._seen_set_reference([0] * (2 * m), rekey)
        assert len(set(real.keys.tolist())) == 2 * m


def _same_draws(a, b) -> bool:
    """Equal values (sign of zero included), keys, order and rank."""
    return (
        a.values.tobytes() == b.values.tobytes()
        and a.keys.tolist() == b.keys.tolist()
        and a.order == b.order
        and a.rank == b.rank
        and a.sample_values == b.sample_values
        and a.real_values == b.real_values
    )


def _mixed_family_instance() -> InstanceSpec:
    graph = complete_bipartite(3, 5, DistSpec.uniform(0.0, 1.0)).graph
    dists = [
        DistSpec.uniform(0.0, 2.0),
        DistSpec.exponential(2.0),
        DistSpec.pareto(2.0, 3.0),
        DistSpec.bernoulli_scaled(0.5, 1.0),
        DistSpec.point_mass(0.25),
        DistSpec("uniform", (1, 3)),
        DistSpec("point_mass", (-0.0,)),
    ]
    return InstanceSpec(graph, tuple(dists[e % len(dists)] for e in range(graph.num_edges)))


BATCH_SEEDS = [0, 1, 2, 77, 2024, 2**32, 2**63 + 1, 2**64 - 1, *range(1000, 1040)]


class TestDrawRealizations:
    @pytest.mark.parametrize("family", list(STREAM_PINS))
    def test_equal_one_seed_draws(self, family):
        spec, _ = STREAM_PINS[family]
        batch = draw_realizations(spec, BATCH_SEEDS)
        assert len(batch) == len(BATCH_SEEDS)
        for seed, real in zip(BATCH_SEEDS, batch):
            assert _same_draws(real, draw_realization(spec, seed))

    def test_equal_one_seed_draws_mixed_families(self):
        spec = _mixed_family_instance()
        batch = draw_realizations(spec, np.array(BATCH_SEEDS, dtype=np.uint64))
        for seed, real in zip(BATCH_SEEDS, batch):
            assert _same_draws(real, draw_realization(spec, seed))

    def test_batch_arrays_hold_each_realization(self):
        values, rank, reals = draw_batch(_mixed_family_instance(), BATCH_SEEDS)
        assert values.shape == rank.shape == (len(BATCH_SEEDS), 2 * reals[0].num_edges)
        for t, real in enumerate(reals):
            assert values[t].tolist() == real.values.tolist()
            assert rank[t].tolist() == list(real.rank)
        # read-only like each realization's own arrays, whose values they share
        assert not values.flags.writeable and not rank.flags.writeable

    def test_no_seeds_and_no_edges(self):
        assert draw_realizations(path_graph(3, DistSpec.uniform(0.0, 1.0)), []) == []
        empty = InstanceSpec(general_graph(2, []), ())
        reals = draw_realizations(empty, [4, 5])
        assert [r.values.shape for r in reals] == [(0,), (0,)]

    def test_seeds_checked_like_one_seed(self):
        spec = path_graph(2, DistSpec.uniform(0.0, 1.0))
        for bad in ([1, -1], [2**64], [1.5], np.array([0.5])):
            with pytest.raises(InputError):
                draw_realizations(spec, bad)

    def test_rekeys_colliding_rows_only(self, monkeypatch):
        # the batch form of test_draw_rekeys_colliding_draws: seed 11's
        # digests get key words 0, so its row alone takes the re-keying path
        spec = complete_graph(4, DistSpec.uniform(0.0, 1.0))
        seeds = [10, 11, 12]
        honest = draw_realizations(spec, seeds)
        real_sha256 = hashlib.sha256
        colliding = (11).to_bytes(8, "little")

        class ZeroKeys:
            def __init__(self, h):
                self.h = h

            def copy(self):
                return ZeroKeys(self.h.copy())

            def update(self, data):
                self.h.update(data)

            def digest(self):
                d = self.h.digest()
                return bytes(8) + d[8:16] + bytes(8) + d[24:]

        def sha256(data=b""):
            return ZeroKeys(real_sha256(data)) if data == colliding else real_sha256(data)

        monkeypatch.setattr(distributions.hashlib, "sha256", sha256)
        batch = draw_realizations(spec, seeds)
        one = draw_realization(spec, 11)
        _, rank, _ = draw_batch(spec, seeds)
        assert rank[1].tolist() == list(batch[1].rank)  # the re-keyed row's order
        m = spec.graph.num_edges

        def rekey(d, salt):
            u, v = spec.graph.edges[d % m]
            return _edge_words(11, u, v, salt)[0 if d < m else 2]

        assert _same_draws(batch[0], honest[0]) and _same_draws(batch[2], honest[2])
        assert _same_draws(batch[1], one)
        assert batch[1].values.tolist() == honest[1].values.tolist()
        assert batch[1].keys.tolist() == TestStream._seen_set_reference([0] * (2 * m), rekey)
        assert batch[1].order == tuple(
            sorted(range(2 * m), key=lambda d: (-batch[1].values[d], int(batch[1].keys[d])))
        )


# The marginal tests' statistics, as the per-seed draw_realization loop gave
# them: the batches draw the same values, so they must not move at all.
MARGINAL_PINS = {
    "uniform_mean": 0.4993863157268637,
    "ks_uniform": 0.0020410586827201427,
    "ks_exponential": 0.002041058682720087,
    "ks_pareto": 0.0020410586827200317,
    "bernoulli_rate": 0.30085,
}


class TestMarginals:
    def test_uniform_mean(self):
        xs = _draw_many(DistSpec.uniform(0.0, 1.0), N_KS)
        assert abs(xs.mean() - 0.5) < 0.01
        assert xs.mean() == MARGINAL_PINS["uniform_mean"]

    @pytest.mark.parametrize(
        "dist,frozen",
        [
            (DistSpec.uniform(0.0, 1.0), stats.uniform(0, 1)),
            (DistSpec.exponential(1.5), stats.expon(scale=1 / 1.5)),
            (DistSpec.pareto(1.0, 3.0), stats.pareto(b=3.0, scale=1.0)),
        ],
    )
    def test_continuous_families_match_analytic_cdf(self, dist, frozen):
        xs = _draw_many(dist, N_KS)
        d_stat = stats.kstest(xs, frozen.cdf).statistic
        assert d_stat < KS_THRESHOLD
        assert d_stat == MARGINAL_PINS[f"ks_{dist.family}"]

    def test_quantile_matches_cdf(self):
        for dist in (
            DistSpec.uniform(0.5, 2.0),
            DistSpec.exponential(0.7),
            DistSpec.pareto(2.0, 2.5),
        ):
            for u in (0.01, 0.25, 0.5, 0.9, 0.999):
                x = dist.quantile(u)
                assert math.isclose(dist.cdf(x), u, rel_tol=1e-9)

    def test_bernoulli_support_and_rate(self):
        p, v, n = 0.3, 2.5, 100_000
        xs = _draw_many(DistSpec.bernoulli_scaled(p, v), n)
        assert set(np.unique(xs)) <= {0.0, v}
        rate = (xs == v).mean()
        assert abs(rate - p) < 3 * math.sqrt(p * (1 - p) / n)
        assert rate == MARGINAL_PINS["bernoulli_rate"]


class TestIndependence:
    def test_sample_real_and_cross_edge_correlations(self):
        n = 10_000
        spec = path_graph(3, DistSpec.uniform(0.0, 1.0))
        s0 = np.empty(n)
        r0 = np.empty(n)
        r1 = np.empty(n)
        for k in range(n):
            real = draw_realization(spec, k)
            s0[k], r0[k], r1[k] = real.samples[0].value, real.reals[0].value, real.reals[1].value
        bound = 3.0 / math.sqrt(n)
        assert abs(np.corrcoef(s0, r0)[0, 1]) < bound  # two copies of one edge
        assert abs(np.corrcoef(r0, r1)[0, 1]) < bound  # across edges
