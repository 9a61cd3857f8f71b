"""Per-edge value distributions and seeded sampling of realizations.

Sampling is counter-based: edge (u, v) with u < v gets four 64-bit words from
``sha256(seed, u, v, 0)``: its sample key, sample value word, real key and
real value word.  So draws do not depend on the order edges are listed in an
instance file, and different seeds give independent realizations.

``draw_realizations`` draws a batch of seeds at once: it hashes every edge
once per seed, joins the digests into one buffer and reads it as a
(seeds, m, 4) array of words; ``draw_realization`` is its one-seed case.  A
value word w maps to ``(w >> 11) * 2**-53`` in [0, 1), which is exact in
numpy too.  Quantiles are then computed for all draws of a family at once;
the logarithm of the exponential and the power of the Pareto run through
``math.log1p`` and ``pow``, because numpy's ``log1p`` and ``**`` differ from
libm's in the last bit.  Each value is thus the same float as the per-edge
formula ``DistSpec.quantile`` gives.
"""

from __future__ import annotations

import hashlib
import math
import operator
import struct
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .core import Graph, InputError, Realization, sort_draws

FAMILIES = ("point_mass", "uniform", "exponential", "pareto", "bernoulli_scaled")

_PARAM_COUNT = {
    "point_mass": 1,
    "uniform": 2,
    "exponential": 1,
    "pareto": 2,
    "bernoulli_scaled": 2,
}


@dataclass(frozen=True)
class DistSpec:
    """A non-negative value distribution, one of five supported families.

    Parameter layout: point_mass(v); uniform(lo, hi); exponential(rate);
    pareto(scale, shape); bernoulli_scaled(p, v) meaning value v with
    probability p, else 0.
    """

    family: str
    params: tuple[float, ...]

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InputError(f"unknown distribution family {self.family!r}")
        if len(self.params) != _PARAM_COUNT[self.family]:
            raise InputError(
                f"{self.family} takes {_PARAM_COUNT[self.family]} parameter(s), "
                f"got {len(self.params)}"
            )
        for p in self.params:
            if not math.isfinite(p):
                raise InputError(f"{self.family} parameter {p} is not finite")
        f, p = self.family, self.params
        if f == "point_mass" and p[0] < 0:
            raise InputError("point_mass value must be non-negative")
        if f == "uniform":
            if p[0] < 0 or p[0] > p[1]:
                raise InputError("uniform requires 0 <= lo <= hi")
        if f == "exponential" and p[0] <= 0:
            raise InputError("exponential rate must be positive")
        if f == "pareto" and (p[0] <= 0 or p[1] <= 0):
            raise InputError("pareto requires scale > 0 and shape > 0")
        if f == "bernoulli_scaled":
            if not 0 <= p[0] <= 1:
                raise InputError("bernoulli_scaled probability must be in [0, 1]")
            if p[1] < 0:
                raise InputError("bernoulli_scaled value must be non-negative")

    # convenience constructors
    @classmethod
    def point_mass(cls, v: float) -> "DistSpec":
        return cls("point_mass", (float(v),))

    @classmethod
    def uniform(cls, lo: float, hi: float) -> "DistSpec":
        return cls("uniform", (float(lo), float(hi)))

    @classmethod
    def exponential(cls, rate: float) -> "DistSpec":
        return cls("exponential", (float(rate),))

    @classmethod
    def pareto(cls, scale: float, shape: float) -> "DistSpec":
        return cls("pareto", (float(scale), float(shape)))

    @classmethod
    def bernoulli_scaled(cls, p: float, v: float) -> "DistSpec":
        return cls("bernoulli_scaled", (float(p), float(v)))

    def quantile(self, u: float) -> float:
        """Inverse CDF at u in [0, 1); all five families invert analytically.

        Raises ``InputError`` where the value is not finite, as a draw does:
        an exponential quotient or a Pareto product can overflow to inf, and
        a Pareto power can raise ``OverflowError``.
        """
        f, p = self.family, self.params
        if f == "point_mass":
            return p[0]
        if f == "uniform":
            return p[0] + u * (p[1] - p[0])
        if f == "bernoulli_scaled":
            return p[1] if u < p[0] else 0.0
        try:
            if f == "exponential":
                x = -math.log1p(-u) / p[0]
            else:
                x = p[0] * (1.0 - u) ** (-1.0 / p[1])
        except OverflowError:
            x = math.inf
        if not math.isfinite(x):
            raise InputError(f"{f} quantile at {u} is not finite")
        return x

    def cdf(self, x: float) -> float:
        """Analytic CDF, used by the distribution-correctness checks."""
        f, p = self.family, self.params
        if f == "point_mass":
            return 1.0 if x >= p[0] else 0.0
        if f == "uniform":
            lo, hi = p
            if x < lo:
                return 0.0
            if x >= hi:
                return 1.0
            return (x - lo) / (hi - lo)
        if f == "exponential":
            return 0.0 if x < 0 else 1.0 - math.exp(-p[0] * x)
        if f == "pareto":
            return 0.0 if x < p[0] else 1.0 - (p[0] / x) ** p[1]
        prob, v = p
        if x < 0:
            return 0.0
        if x < v:
            return 1.0 - prob
        return 1.0


@dataclass(frozen=True)
class InstanceSpec:
    """A graph together with one value distribution per edge."""

    graph: Graph
    dists: tuple[DistSpec, ...]

    def __post_init__(self):
        if len(self.dists) != self.graph.num_edges:
            raise InputError(
                f"need one distribution per edge: graph has {self.graph.num_edges} "
                f"edges, got {len(self.dists)} distributions"
            )

    @cached_property
    def _draw_plan(self) -> tuple[tuple[bytes, ...], tuple[tuple, ...]]:
        """What every draw of this instance reuses, built once.

        Returns each edge's hash input after the seed, ``(lo, hi, salt 0)``,
        and its draws grouped by family as ``(family, draw ids, arguments)``:
        the ids of its edges' samples, then of their reals, or a full slice
        when one family covers every edge.  The arguments are what
        ``_quantiles`` reads: one array per parameter, with an entry per draw.
        """
        m = self.graph.num_edges
        tails = tuple(struct.pack("<QQQ", min(u, v), max(u, v), 0) for u, v in self.graph.edges)
        by_family: dict[str, list[int]] = {}
        for e, dist in enumerate(self.dists):
            by_family.setdefault(dist.family, []).append(e)
        groups = []
        for family, edges in by_family.items():
            params = [self.dists[e].params for e in edges] * 2  # the samples, then the reals
            if family == "uniform":  # the quantile needs lo and hi - lo
                params = [(lo, hi - lo) for lo, hi in params]
            elif family == "pareto":  # and this the scale and -1 / shape
                params = [(scale, -1.0 / shape) for scale, shape in params]
            args = tuple(np.array(col, dtype=np.float64) for col in zip(*params))
            draws = slice(None) if len(edges) == m else np.array(edges + [m + e for e in edges])
            groups.append((family, draws, args))
        return tails, tuple(groups)


_MASK64 = (1 << 64) - 1


def _edge_words(seed: int, u: int, v: int, salt: int = 0) -> tuple[int, int, int, int]:
    """Four independent 64-bit words for one edge, from a fixed hash split."""
    lo, hi = (u, v) if u < v else (v, u)
    h = hashlib.sha256(
        struct.pack("<QQQQ", seed & _MASK64, lo, hi, salt & _MASK64)
    ).digest()
    return struct.unpack("<QQQQ", h)


def _quantiles(family: str, u: np.ndarray, args) -> np.ndarray:
    """Quantiles of one family's draws at the uniforms ``u``, shape (seeds, draws).

    ``args`` comes from ``InstanceSpec._draw_plan``.  Every entry is the float
    ``DistSpec.quantile`` returns for it: numpy's arithmetic is IEEE's, but
    its ``log1p`` and ``**`` differ from libm's in the last bit, so those two
    run through ``math.log1p`` and ``pow`` on Python floats.  Only
    exponential and Pareto draws can leave [0, inf) with valid parameters,
    by overflowing.
    """
    if family == "point_mass":
        return np.broadcast_to(args[0], u.shape)
    if family == "uniform":
        lo, width = args
        return lo + u * width
    if family == "bernoulli_scaled":
        prob, v = args
        return np.where(u < prob, v, 0.0)
    with np.errstate(over="ignore"):
        if family == "exponential":
            (rate,) = args
            values = -_libm(math.log1p, -u) / rate
        else:
            scale, power = args
            try:
                values = scale * _libm(pow, 1.0 - u, np.broadcast_to(power, u.shape))
            except OverflowError:  # Python's pow raises where numpy's gives inf
                raise InputError("drawn value inf is negative or not finite") from None
    if values.size and values.max() == math.inf:
        raise InputError("drawn value inf is negative or not finite")
    return values


def _libm(fn, *arrays: np.ndarray) -> np.ndarray:
    """``fn`` over the entries of equal-shaped arrays, as Python floats."""
    out = map(fn, *(a.ravel().tolist() for a in arrays))
    return np.fromiter(out, np.float64, arrays[0].size).reshape(arrays[0].shape)


def _unique_keys(keys: np.ndarray, rekey: Callable[[int, int], int]) -> np.ndarray:
    """Make the 2m tie-break keys unique, keeping the first use of each key.

    Draws are visited in id order (the samples, then the reals).  A draw
    whose key is already taken gets ``rekey(draw, salt)`` for salt 1, 2, ...
    until the key is free.
    """
    seen: set[int] = set()
    out: list[int] = []
    for d, key in enumerate(keys.tolist()):
        salt = 0
        while key in seen:
            salt += 1
            key = rekey(d, salt)
        seen.add(key)
        out.append(key)
    return np.array(out, dtype=np.uint64)


def _check_seeds(seeds) -> list[int]:
    """The seeds as Python ints, each in [0, 2**64)."""
    if isinstance(seeds, np.ndarray):
        seeds = seeds.tolist()
    try:
        seeds = [operator.index(seed) for seed in seeds]
    except TypeError:
        raise InputError("seed must be an integer") from None
    for seed in seeds:
        if not 0 <= seed <= _MASK64:
            raise InputError("seed must be a non-negative integer below 2**64")
    return seeds


def draw_realizations(spec: InstanceSpec, seeds) -> list[Realization]:
    """``draw_realization`` at each of ``seeds``, drawn as one batch.

    All digests go into one buffer, the quantiles are taken over a
    (seeds x 2m) array, and ``sort_draws`` orders every row at once, so each
    realization equals the one its seed draws alone.
    """
    return draw_batch(spec, seeds)[2]


def draw_batch(spec: InstanceSpec, seeds) -> tuple[np.ndarray, np.ndarray, list[Realization]]:
    """``draw_realizations`` with the arrays its realizations are built from.

    Returns the (seeds, 2m) value and rank arrays, row t holding the
    ``values`` and ``rank`` of seed t's realization, and the realizations.
    """
    seeds = _check_seeds(seeds)
    tails, groups = spec._draw_plan
    n, m = len(seeds), len(tails)
    digests = []
    for seed in seeds:
        seeded = hashlib.sha256(seed.to_bytes(8, "little"))
        for tail in tails:  # copying the seeded state is cheaper than a new hash
            h = seeded.copy()
            h.update(tail)
            digests.append(h.digest())
    # per seed, one row per edge: sample key, sample value word, real key, real value word
    words = np.frombuffer(b"".join(digests), "<u8").reshape(n, m, 4)
    keys = np.concatenate((words[:, :, 0], words[:, :, 2]), axis=1)  # draw ids 0..2m-1
    units = np.concatenate((words[:, :, 1], words[:, :, 3]), axis=1)
    units >>= 11
    units = units * 2.0**-53
    values = np.empty((n, 2 * m))
    for family, draws, args in groups:
        values[:, draws] = _quantiles(family, units[:, draws], args)
    order, rank, repeated = sort_draws(values, keys)
    for t in repeated:

        def rekey(d: int, salt: int, seed=seeds[t]) -> int:
            u, v = spec.graph.edges[d % m]
            return _edge_words(seed, u, v, salt)[0 if d < m else 2]

        keys[t] = _unique_keys(keys[t], rekey)
        order[t], rank[t], _ = sort_draws(values[t : t + 1], keys[t : t + 1])
    flat = values.tolist()
    reals = [
        Realization._presorted(values[t], keys[t], order[t], rank[t], flat[t]) for t in range(n)
    ]
    # read-only, as each realization's own arrays are: its values are a row view
    values.setflags(write=False)
    rank.setflags(write=False)
    return values, rank, reals


def draw_realization(spec: InstanceSpec, seed: int) -> Realization:
    """Draw a sample and a real value for every edge, deterministically.

    Each edge contributes two independent draws from its own distribution,
    each tagged with a fresh 64-bit tie-break key.  In the astronomically
    unlikely event of a key collision among the 2m draws, colliding draws are
    re-keyed from a salted stream until all keys are unique, keeping the
    result a pure function of (spec, seed).  The seed must lie in
    [0, 2**64): it is hashed as 8 bytes, so larger seeds would alias.
    """
    return draw_realizations(spec, (seed,))[0]
