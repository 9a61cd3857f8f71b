"""Per-edge value distributions and seeded sampling of realizations.

Sampling is counter-based: edge (u, v) with u < v gets four 64-bit words from
``sha256(seed, u, v, 0)``: its sample key, sample value word, real key and
real value word.  So draws do not depend on the order edges are listed in an
instance file, and different seeds give independent realizations.

``draw_realization`` hashes every edge once, joins the digests into one
buffer and reads it as an (m, 4) array of words.  A value word w maps to
``(w >> 11) * 2**-53`` in [0, 1), which is exact in numpy too.  Uniform,
point-mass and Bernoulli quantiles are then computed for all edges of a
family at once; exponential and Pareto quantiles run per draw through
``DistSpec.quantile``, because numpy's ``log1p`` and ``**`` differ from
``math``'s in the last bit.  Each value is thus the same float as the
per-edge formula gives.
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

from .core import ContractViolation, Graph, InputError, Realization

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
        """Inverse CDF at u in [0, 1); all five families invert analytically."""
        f, p = self.family, self.params
        if f == "point_mass":
            return p[0]
        if f == "uniform":
            return p[0] + u * (p[1] - p[0])
        if f == "exponential":
            return -math.log1p(-u) / p[0]
        if f == "pareto":
            return p[0] * (1.0 - u) ** (-1.0 / p[1])
        return p[1] if u < p[0] else 0.0

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
        and its edges grouped by family as ``(family, edge index, arguments)``.
        The index is a full slice when one family covers every edge.  The
        vectorized families get their parameters as float arrays; exponential
        and Pareto get the edges' ``DistSpec`` objects.
        """
        tails = tuple(struct.pack("<QQQ", min(u, v), max(u, v), 0) for u, v in self.graph.edges)
        by_family: dict[str, list[int]] = {}
        for e, dist in enumerate(self.dists):
            by_family.setdefault(dist.family, []).append(e)
        groups = []
        for family, edges in by_family.items():
            dists = [self.dists[e] for e in edges]
            if family in _VECTOR_FAMILIES:
                params = [d.params for d in dists]
                if family == "uniform":  # the quantile needs lo and hi - lo
                    params = [(lo, hi - lo) for lo, hi in params]
                args = tuple(np.array(col, dtype=np.float64) for col in zip(*params))
            else:
                args = dists
            index = slice(None) if len(edges) == len(self.dists) else np.array(edges)
            groups.append((family, index, args))
        return tails, tuple(groups)


_VECTOR_FAMILIES = ("point_mass", "uniform", "bernoulli_scaled")
_MASK64 = (1 << 64) - 1


def _edge_words(seed: int, u: int, v: int, salt: int = 0) -> tuple[int, int, int, int]:
    """Four independent 64-bit words for one edge, from a fixed hash split."""
    lo, hi = (u, v) if u < v else (v, u)
    h = hashlib.sha256(
        struct.pack("<QQQQ", seed & _MASK64, lo, hi, salt & _MASK64)
    ).digest()
    return struct.unpack("<QQQQ", h)


def _quantiles(family: str, u: np.ndarray, args) -> np.ndarray:
    """Quantiles of one family's draws at the uniforms ``u``, shape (2, k).

    Row 0 holds the samples and row 1 the reals of the family's k edges;
    ``args`` comes from ``InstanceSpec._draw_plan``.  Every entry is the float
    ``DistSpec.quantile`` returns for it.
    """
    if family == "point_mass":
        return np.broadcast_to(args[0], u.shape)
    if family == "uniform":
        lo, width = args
        return lo + u * width
    if family == "bernoulli_scaled":
        prob, v = args
        return np.where(u < prob, v, 0.0)
    return np.array([[d.quantile(x) for d, x in zip(args, row)] for row in u.tolist()])


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


def draw_realization(spec: InstanceSpec, seed: int) -> Realization:
    """Draw a sample and a real value for every edge, deterministically.

    Each edge contributes two independent draws from its own distribution,
    each tagged with a fresh 64-bit tie-break key.  In the astronomically
    unlikely event of a key collision among the 2m draws, colliding draws are
    re-keyed from a salted stream until all keys are unique, keeping the
    result a pure function of (spec, seed).  The seed must lie in
    [0, 2**64): it is hashed as 8 bytes, so larger seeds would alias.
    """
    try:
        seed = operator.index(seed)
    except TypeError:
        raise InputError("seed must be an integer") from None
    if not 0 <= seed <= _MASK64:
        raise InputError("seed must be a non-negative integer below 2**64")
    tails, groups = spec._draw_plan
    seeded = hashlib.sha256(seed.to_bytes(8, "little"))
    digests = []
    for tail in tails:  # copying the seeded state is cheaper than a new hash
        h = seeded.copy()
        h.update(tail)
        digests.append(h.digest())
    # one row per edge: sample key, sample value word, real key, real value word
    words = np.frombuffer(b"".join(digests), "<u8").reshape(-1, 4)
    m = len(tails)

    def rekey(d: int, salt: int) -> int:
        u, v = spec.graph.edges[d % m]
        return _edge_words(seed, u, v, salt)[0 if d < m else 2]

    keys = words[:, 0::2].T.ravel()
    units = (words[:, 1::2].T >> 11) * 2.0**-53  # row 0 the samples, row 1 the reals
    values = np.empty((2, m))
    for family, index, args in groups:
        values[:, index] = _quantiles(family, units[:, index], args)
    values = values.ravel()
    try:
        return Realization(values=values, keys=keys)
    except ContractViolation:  # some key repeats; the constructor checks
        return Realization(values=values, keys=_unique_keys(keys, rekey))
