"""Shared domain types: graphs, drawn values, matchings, prices, run records.

Every algorithm in this package compares edge values under one strict total
order: first by numeric value, then by a per-draw tie-break key.  A
realization holds its 2m draws as a value array and a key array, sorts them
by that order once, and every comparison after that is one of two integer
ranks (``Realization.rank``).  Prices remember the draw id of the sample that
set them, which is what makes the online runs and their offline twins agree
edge-for-edge even when values collide.
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
    order on equal values is a uniformly random permutation.  The library
    itself reads the realization's arrays; this is only the per-draw view
    ``Realization.samples`` and ``Realization.reals`` build on first use.
    """

    value: float
    tiebreak: int


# Graphs with more matchings than this get no ``Graph.matching_table``; the
# certification gate's graphs have at most 229 (K3,6).
MATCHING_TABLE_CAP = 1024


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
    def adjacent(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The (edge id, other endpoint) pairs of the edges at each vertex,
        in ``incident`` order: a buyer's edges with their items."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.num_vertices)]
        for eid, (u, v) in enumerate(self.edges):
            adj[u].append((eid, v))
            adj[v].append((eid, u))
        return tuple(tuple(x) for x in adj)

    @cached_property
    def buyer_items(self) -> tuple[tuple[int, int], ...]:
        """Every edge oriented as (buyer, item), indexed by edge id."""
        buyers = frozenset(self.buyers)
        return tuple((u, v) if u in buyers else (v, u) for u, v in self.edges)

    def buyer_item(self, eid: int) -> tuple[int, int]:
        """Orient a bipartite edge as (buyer, item)."""
        return self.buyer_items[eid]

    @cached_property
    def biadjacency(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The buyers x items matrix layout of a bipartite graph.

        Returns each edge's row (its buyer's place in ``buyers``), each edge's
        column (its item's place in ``items``), and the edge id at every cell,
        -1 where the graph has no edge.
        """
        row = {b: r for r, b in enumerate(self.buyers)}
        col = {j: c for c, j in enumerate(self.items)}
        rows = np.array([row[b] for b, _ in self.buyer_items], dtype=np.intp)
        cols = np.array([col[j] for _, j in self.buyer_items], dtype=np.intp)
        edge_at = np.full((len(self.buyers), len(self.items)), -1, dtype=np.intp)
        edge_at[rows, cols] = np.arange(self.num_edges)
        return rows, cols, edge_at

    @cached_property
    def matching_table(self) -> np.ndarray | None:
        """Every matching of the graph, or None if it has more than
        ``MATCHING_TABLE_CAP``.

        Row r of the table lists matching r's edge ids in increasing order,
        padded with m (one past the last edge id) to the size of the largest
        matching; the empty matching is a row of padding.
        """
        m, cap = self.num_edges, MATCHING_TABLE_CAP
        # the graph has at least m + 1 matchings (none, and each edge alone),
        # and at least 2**k if a greedy matching has k edges: one per subset
        used: set[int] = set()
        for u, v in self.edges:
            if u not in used and v not in used:
                used.update((u, v))
        if m >= cap or 2 ** (len(used) // 2) > cap:
            return None
        above: list[list[tuple[int, int]]] = [[] for _ in range(self.num_vertices)]
        for eid, (u, v) in enumerate(self.edges):
            above[min(u, v)].append((eid, max(u, v)))
        lows = [v for v in range(self.num_vertices) if above[v]]
        # grow each matching only by edges whose lower endpoint comes after
        # those of its edges, so every matching is reached exactly once
        found = [(0, 0, ())]  # (next place in lows, used vertex bits, edge ids)
        rows = []
        while found:
            start, used_bits, chosen = found.pop()
            rows.append(sorted(chosen))
            for k in range(start, len(lows)):
                v = lows[k]
                if used_bits >> v & 1:
                    continue
                for eid, w in above[v]:
                    if not used_bits >> w & 1:
                        found.append((k + 1, used_bits | 1 << v | 1 << w, chosen + (eid,)))
            if len(rows) + len(found) > cap:
                return None
        table = np.full((len(rows), max(map(len, rows))), m, dtype=np.intp)
        for r, chosen in enumerate(rows):
            table[r, : len(chosen)] = chosen
        table.setflags(write=False)
        return table


def sort_draws(values: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Sort each row of draws from best to worst: larger value first, then smaller key.

    ``values`` and ``keys`` are (rows, 2m) arrays, one realization's draws
    per row.  Returns every row's ``order`` (draw ids from best to worst) and
    ``rank`` (each draw's place in that order), and the rows in which a key
    repeats, which leaves them without a strict order.

    When no row holds a tied value, one argsort of the values orders every
    row, and the keys are only sorted to find repeats.  Otherwise every row
    is sorted by key, then stably by value, which keeps equal values in key
    order.  A chunk of draws from one instance is tie-free in every row (a
    continuous distribution) or ties in nearly every row (a point mass or a
    Bernoulli), so the choice is made per call.
    """
    n, w = keys.shape
    offsets = w * np.arange(n)[:, None]  # row starts in the flattened arrays
    order = (-values).argsort(axis=1)
    order += offsets
    down = values.take(order)
    if (down[:, :-1] > down[:, 1:]).all():  # False at any tie or NaN
        sorted_keys = np.sort(keys, axis=1)
    else:
        by_key = keys.argsort(axis=1)
        by_key += offsets
        sorted_keys = keys.take(by_key)
        order = by_key.take((-values.take(by_key)).argsort(axis=1, kind="stable") + offsets)
    repeated = sorted_keys[:, 1:] == sorted_keys[:, :-1]
    repeated = np.flatnonzero(repeated.any(axis=1)).tolist() if np.count_nonzero(repeated) else []
    rank = np.empty_like(order)
    rank.put(order, np.arange(w))  # put repeats the w places over every row
    order -= offsets
    return order, rank, repeated


@dataclass(frozen=True, eq=False)
class Realization:
    """One joint draw: a sample and a real value for every edge.

    The 2m draws are two arrays indexed by draw id: ``values`` (float64) and
    ``keys`` (uint64 tie-break keys).  Edge e's sample is draw e and its real
    value is draw m+e.  The keys are unique, so sorting the draws once by
    ``(-value, key)`` is a strict total order: ``order_array`` lists the draw
    ids from best to worst and ``rank_array[d]`` is draw d's place in it, so
    "draw a outranks draw b" is ``rank[a] < rank[b]``.  ``order`` and
    ``rank`` are the same two rows as tuples of ints, built on first use, for
    code that reads them one draw at a time.

    The library reads the values as Python floats, from ``sample_values``
    and ``real_values`` (indexed by edge id).  ``samples`` and ``reals`` are
    the same draws as ``DrawnValue`` objects, built on first use.
    """

    values: np.ndarray
    keys: np.ndarray
    order_array: np.ndarray = field(init=False, repr=False)
    rank_array: np.ndarray = field(init=False, repr=False)
    sample_values: tuple[float, ...] = field(init=False, repr=False)
    real_values: tuple[float, ...] = field(init=False, repr=False)

    def __post_init__(self):
        values = np.array(self.values, dtype=np.float64)
        try:
            keys = np.array(self.keys, dtype=np.uint64)
        except OverflowError:
            raise InputError("tie-break keys must be 64-bit unsigned integers") from None
        if values.ndim != 1 or values.shape != keys.shape or len(values) % 2:
            raise InputError("values and keys must be 1-D, of one even length: samples, then reals")
        order, rank, repeated = sort_draws(values[None], keys[None])
        if repeated:
            raise ContractViolation("tie-break keys are not globally unique")
        # the sort puts +inf first, and negative values and NaN last
        for d in order[0, :1].tolist() + order[0, -1:].tolist():
            if not 0 <= values[d] < math.inf:
                raise InputError(f"drawn value {values[d]} is negative or not finite")
        self._fill(values, keys, order[0], rank[0], values.tolist())

    @classmethod
    def _presorted(
        cls,
        values: np.ndarray,
        keys: np.ndarray,
        order: np.ndarray,
        rank: np.ndarray,
        flat: list[float],
    ) -> "Realization":
        """A realization of draws ``sort_draws`` has already ordered and checked;
        ``order`` and ``rank`` are its rows, and ``flat`` is ``values`` as a
        list of floats."""
        out = object.__new__(cls)
        out._fill(values, keys, order, rank, flat)
        return out

    def _fill(
        self,
        values: np.ndarray,
        keys: np.ndarray,
        order: np.ndarray,
        rank: np.ndarray,
        flat: list[float],
    ):
        for array in (values, keys, order, rank):
            array.setflags(write=False)
        m = len(flat) // 2
        # a frozen dataclass: fill the fields past its __setattr__
        self.__dict__.update(
            values=values,
            keys=keys,
            order_array=order,
            rank_array=rank,
            sample_values=tuple(flat[:m]),
            real_values=tuple(flat[m:]),
        )

    def __eq__(self, other):
        if not isinstance(other, Realization):
            return NotImplemented
        return np.array_equal(self.values, other.values) and np.array_equal(self.keys, other.keys)

    def __hash__(self):
        return hash((self.sample_values, self.real_values, self.keys.tobytes()))

    @property
    def num_edges(self) -> int:
        return len(self.sample_values)

    @cached_property
    def order(self) -> tuple[int, ...]:
        """Draw ids from best to worst: ``order_array`` as a tuple."""
        return tuple(self.order_array.tolist())

    @cached_property
    def rank(self) -> tuple[int, ...]:
        """Each draw's place in ``order``: ``rank_array`` as a tuple."""
        return tuple(self.rank_array.tolist())

    @cached_property
    def samples(self) -> tuple[DrawnValue, ...]:
        """Edge e's sample draw, as a ``DrawnValue`` view."""
        return tuple(map(DrawnValue, self.sample_values, self.keys[: self.num_edges].tolist()))

    @cached_property
    def reals(self) -> tuple[DrawnValue, ...]:
        """Edge e's real draw, as a ``DrawnValue`` view."""
        return tuple(map(DrawnValue, self.real_values, self.keys[self.num_edges :].tolist()))

    def edge_order(self, copy: int) -> list[int]:
        """Edge ids from best to worst by their sample (copy 0) or real (copy 1) draw."""
        m, order = self.num_edges, self.order_array
        if copy:
            return (order[order >= m] - m).tolist()
        return order[order < m].tolist()


def matching_weight(edge_ids: Iterable[int], values: Sequence[float]) -> float:
    """Sum of values over edges, accumulated in edge-id order.

    The fixed accumulation order makes equal edge sets produce bit-identical
    weights no matter which algorithm built them.
    """
    total = 0.0
    for eid in sorted(edge_ids):
        total += values[eid]
    return total


@dataclass(frozen=True)
class Matching:
    """A set of vertex-disjoint edges and its total value."""

    edges: frozenset[int]
    weight: float

    @classmethod
    def from_edges(cls, edge_ids: Iterable[int], values: Sequence[float]) -> "Matching":
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
        return 0.0 if origin is None else self.real.sample_values[origin]

    def beaten_by(self, draw: int, vertex: int) -> bool:
        """Does draw id ``draw`` rank strictly above this vertex's threshold?"""
        origin = self.origins.get(vertex)
        return origin is None or self.real.rank[draw] < self.real.rank[origin]

    def ranks(self, num_vertices: int) -> list[int]:
        """Every vertex's threshold as a rank: that of the sample that priced
        it, or 2m, which every draw outranks.

        The prices of a run never change, so a run builds this list once and
        ``beaten_by(d, x)`` is ``real.rank[d] < ranks[x]``.
        """
        out = [2 * self.real.num_edges] * num_vertices
        ranks = self.real.rank_array[list(self.origins.values())].tolist()
        for x, rank in zip(self.origins, ranks):
            out[x] = rank
        return out

    @classmethod
    def from_matching(cls, graph: Graph, matching: Matching, real: Realization) -> "PriceTable":
        # edge e's sample is draw e, so each matched vertex maps to its edge id
        origins = {x: eid for eid in matching.edges for x in graph.edges[eid]}
        return cls(real=real, origins=origins)


@dataclass(frozen=True)
class AlgorithmView:
    """What an (adaptive) arrival controller may observe mid-run.

    Exposes only the algorithm's public state: the vertex thresholds and the
    vertices the matching built so far covers.  Internal randomness is never
    exposed.
    """

    prices: PriceTable
    matched_vertices: frozenset[int]


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
