"""Shared domain types: graphs, drawn values, matchings, prices, run records.

Every algorithm in this package compares edge values under one strict total
order: first by numeric value, then by a per-draw tie-break key.  A
realization sorts its 2m draws by it once, and every comparison after that is
one of two integer ranks (``Realization.rank``).  Prices remember the draw id
of the sample that set them, which is what makes the online runs and their
offline twins agree edge-for-edge even when values collide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np


class InputError(ValueError):
    """Malformed caller input: bad graph, bad parameters, bad order."""


class CapabilityError(RuntimeError):
    """The request is well formed but outside what the chosen model supports."""


class ContractViolation(RuntimeError):
    """An internal invariant was broken; indicates a bug, not bad input."""


@dataclass(frozen=True)
class DrawnValue:
    """A sampled number plus a unique 64-bit tie-break key.

    Draws are ordered only through ``Realization.rank``: ties in ``value`` are
    resolved by the key, smaller key ranking first (i.e. winning).  Keys are
    drawn uniformly at random when a realization is built, so the induced
    order on equal values is a uniformly random permutation.
    """

    value: float
    tiebreak: int


@dataclass(frozen=True)
class Graph:
    """Undirected graph with dense integer vertex ids 0..n-1 and edge ids 0..m-1.

    For ``kind == "bipartite"`` the vertex set is partitioned into buyers and
    items and every edge must cross the partition.
    """

    num_vertices: int
    edges: tuple[tuple[int, int], ...]
    kind: str = "general"  # "general" | "bipartite"
    buyers: tuple[int, ...] = ()
    items: tuple[int, ...] = ()

    def __post_init__(self):
        n = self.num_vertices
        if n < 0:
            raise InputError("num_vertices must be non-negative")
        if self.kind not in ("general", "bipartite"):
            raise InputError(f"unknown graph kind {self.kind!r}")
        seen: set[tuple[int, int]] = set()
        for eid, (u, v) in enumerate(self.edges):
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge {eid} endpoint out of range: ({u}, {v})")
            if u == v:
                raise InputError(f"edge {eid} is a self-loop at vertex {u}")
            pair = (min(u, v), max(u, v))
            if pair in seen:
                raise InputError(f"duplicate edge {pair} (edge id {eid})")
            seen.add(pair)
        if self.kind == "bipartite":
            bset, iset = set(self.buyers), set(self.items)
            if len(bset) != len(self.buyers) or len(iset) != len(self.items):
                raise InputError("buyer and item ids must not repeat")
            if bset & iset:
                raise InputError("buyers and items overlap")
            if bset | iset != set(range(n)):
                raise InputError("buyers and items must partition the vertex set")
            for eid, (u, v) in enumerate(self.edges):
                if (u in bset) == (v in bset):
                    raise InputError(
                        f"edge {eid} ({u}, {v}) does not cross the buyer/item partition"
                    )

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def incident(self) -> tuple[tuple[int, ...], ...]:
        """Edge ids incident to each vertex."""
        inc: list[list[int]] = [[] for _ in range(self.num_vertices)]
        for eid, (u, v) in enumerate(self.edges):
            inc[u].append(eid)
            inc[v].append(eid)
        return tuple(tuple(x) for x in inc)

    @cached_property
    def _buyer_set(self) -> frozenset[int]:
        return frozenset(self.buyers)

    def buyer_item(self, eid: int) -> tuple[int, int]:
        """Orient a bipartite edge as (buyer, item)."""
        u, v = self.edges[eid]
        return (u, v) if u in self._buyer_set else (v, u)


@dataclass(frozen=True)
class Realization:
    """One joint draw: a sample and a real value for every edge.

    Edge e's sample is draw e and its real value is draw m+e.  The 2m keys are
    unique, so sorting the draws once by ``(-value, key)`` is a strict total
    order: ``order`` lists the draw ids from best to worst and ``rank[d]`` is
    draw d's place in it, so "draw a outranks draw b" is ``rank[a] < rank[b]``.
    """

    samples: tuple[DrawnValue, ...]
    reals: tuple[DrawnValue, ...]
    order: tuple[int, ...] = field(init=False, repr=False, compare=False)
    rank: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.samples) != len(self.reals):
            raise InputError("samples and reals must cover the same edges")
        draws = self.samples + self.reals
        n = len(draws)
        try:
            keys = np.fromiter([d.tiebreak for d in draws], np.uint64, n)
        except OverflowError:
            raise InputError("tie-break keys must be 64-bit unsigned integers") from None
        values = np.fromiter([d.value for d in draws], np.float64, n)
        by_key = keys.argsort()
        sorted_keys = keys[by_key]
        if np.count_nonzero(sorted_keys[1:] == sorted_keys[:-1]):
            raise ContractViolation("tie-break keys are not globally unique")
        # a stable sort by value keeps equal values in key order
        order = by_key[(-values[by_key]).argsort(kind="stable")]
        # that sort puts +inf first, and negative values and NaN last
        for d in order[:1].tolist() + order[-1:].tolist():
            if not 0 <= values[d] < math.inf:
                raise InputError(f"drawn value {values[d]} is negative or not finite")
        object.__setattr__(self, "order", tuple(order.tolist()))
        object.__setattr__(self, "rank", tuple(order.argsort().tolist()))

    @property
    def num_edges(self) -> int:
        return len(self.samples)

    def edge_order(self, copy: int) -> list[int]:
        """Edge ids from best to worst by their sample (copy 0) or real (copy 1) draw."""
        lo, hi = copy * self.num_edges, (copy + 1) * self.num_edges
        return [d - lo for d in self.order if lo <= d < hi]


def matching_weight(edge_ids: Iterable[int], values: Sequence[DrawnValue]) -> float:
    """Sum of values over edges, accumulated in edge-id order.

    The fixed accumulation order makes equal edge sets produce bit-identical
    weights no matter which algorithm built them.
    """
    total = 0.0
    for eid in sorted(edge_ids):
        total += values[eid].value
    return total


@dataclass(frozen=True)
class Matching:
    """A set of vertex-disjoint edges and its total value."""

    edges: frozenset[int]
    weight: float

    @classmethod
    def from_edges(cls, edge_ids: Iterable[int], values: Sequence[DrawnValue]) -> "Matching":
        ids = frozenset(edge_ids)
        return cls(edges=ids, weight=matching_weight(ids, values))

    @classmethod
    def empty(cls) -> "Matching":
        return cls(edges=frozenset(), weight=0.0)


def validate_matching(graph: Graph, matching: Matching) -> bool:
    """True iff no two edges of the matching share a vertex."""
    used: set[int] = set()
    for eid in matching.edges:
        if not 0 <= eid < graph.num_edges:
            raise InputError(f"unknown edge id {eid}")
        u, v = graph.edges[eid]
        if u in used or v in used:
            return False
        used.update((u, v))
    return True


@dataclass(frozen=True)
class PriceTable:
    """Vertex thresholds derived from a matching on the sample graph.

    Each matched vertex remembers the draw id of the sample that priced it,
    so a real value tied with the price is still ordered strictly (by rank).
    Vertices absent from the table have price 0 and are beaten by every draw.
    """

    real: Realization = field(repr=False)
    origins: Mapping[int, int]

    def price(self, vertex: int) -> float:
        origin = self.origins.get(vertex)
        return 0.0 if origin is None else self.real.samples[origin].value

    def beaten_by(self, draw: int, vertex: int) -> bool:
        """Does draw id ``draw`` rank strictly above this vertex's threshold?"""
        origin = self.origins.get(vertex)
        return origin is None or self.real.rank[draw] < self.real.rank[origin]

    @classmethod
    def from_matching(cls, graph: Graph, matching: Matching, real: Realization) -> "PriceTable":
        # edge e's sample is draw e, so each matched vertex maps to its edge id
        origins = {x: eid for eid in matching.edges for x in graph.edges[eid]}
        return cls(real=real, origins=origins)


@dataclass(frozen=True)
class AlgorithmView:
    """What an (adaptive) arrival controller may observe mid-run.

    Exposes only the algorithm's public state: thresholds, the matching built
    so far, the price-feasible edges seen so far, and which elements have
    already arrived.  Internal randomness is never exposed.
    """

    prices: PriceTable
    matched_vertices: frozenset[int]
    matching_edges: frozenset[int]
    feasible: tuple[int, ...]
    arrived: frozenset[int]


@dataclass(frozen=True)
class ArrivalEvent:
    """One step of an online run.

    ``element`` is an edge id in the edge-arrival model and a buyer id in the
    vertex models.  ``edge`` is the edge acted on, when there is one.
    """

    step: int
    element: int
    outcome: str  # accepted | price_rejected | conflict_rejected | no_feasible_edge
    edge: int | None = None
    value: float | None = None
    threshold: float | None = None


@dataclass(frozen=True)
class RunRecord:
    """Full trace of one algorithm execution."""

    matching: Matching
    sample_matching: Matching
    feasible: tuple[int, ...]  # price-feasible edges, in the order they were added
    feasible_weight: float
    prices: PriceTable
    events: tuple[ArrivalEvent, ...] = ()

    def __post_init__(self):
        if not self.matching.edges <= set(self.feasible):
            raise ContractViolation("output matching must be drawn from the feasible set")
