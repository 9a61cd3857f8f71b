"""Instance files and generators.

The instance format is plain JSON:

    {
      "kind": "general" | "bipartite",
      "vertices": <n>,
      "buyers": [ids],            # bipartite only
      "items": [ids],             # bipartite only
      "edges": [{"u": int, "v": int,
                 "dist": {"family": str, "params": [num, ...]}}]
    }

Loading and saving round-trip exactly: values are binary64 floats and JSON
serialization preserves them bit-for-bit.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .core import Graph, InputError
from .distributions import DistSpec, InstanceSpec


def _require(cond: bool, where: str, message: str):
    if not cond:
        raise InputError(f"{where}: {message}")


def _is_int(x) -> bool:
    """A JSON integer; ``true`` and ``false`` parse as bools, which are ints in Python."""
    return isinstance(x, int) and not isinstance(x, bool)


def instance_from_dict(data: dict) -> InstanceSpec:
    """Build an instance from parsed JSON, with field-level diagnostics."""
    _require(isinstance(data, dict), "$", "instance must be a JSON object")
    kind = data.get("kind", "general")
    _require(kind in ("general", "bipartite"), "kind", f"unknown kind {kind!r}")
    n = data.get("vertices")
    _require(_is_int(n) and n >= 0, "vertices", "must be a non-negative integer")
    raw_edges = data.get("edges", [])
    _require(isinstance(raw_edges, list), "edges", "must be a list")

    edges: list[tuple[int, int]] = []
    dists: list[DistSpec] = []
    for k, item in enumerate(raw_edges):
        where = f"edges[{k}]"
        _require(isinstance(item, dict), where, "must be an object")
        u, v = item.get("u"), item.get("v")
        _require(_is_int(u) and _is_int(v), where, "u and v must be integers")
        dist = item.get("dist")
        _require(isinstance(dist, dict), f"{where}.dist", "must be an object")
        family = dist.get("family")
        params = dist.get("params")
        _require(isinstance(family, str), f"{where}.dist.family", "must be a string")
        _require(
            isinstance(params, list) and all(_is_int(p) or isinstance(p, float) for p in params),
            f"{where}.dist.params",
            "must be a list of numbers",
        )
        try:
            dists.append(DistSpec(family, tuple(float(p) for p in params)))
        except InputError as exc:
            raise InputError(f"{where}.dist: {exc}") from None
        edges.append((u, v))

    buyers: tuple[int, ...] = ()
    items: tuple[int, ...] = ()
    if kind == "bipartite":
        raw_buyers, raw_items = data.get("buyers"), data.get("items")
        _require(
            isinstance(raw_buyers, list) and all(map(_is_int, raw_buyers)),
            "buyers",
            "bipartite instances need an integer list of buyers",
        )
        _require(
            isinstance(raw_items, list) and all(map(_is_int, raw_items)),
            "items",
            "bipartite instances need an integer list of items",
        )
        buyers, items = tuple(raw_buyers), tuple(raw_items)
    try:
        graph = Graph(
            num_vertices=n, edges=tuple(edges), kind=kind, buyers=buyers, items=items
        )
    except InputError as exc:
        raise InputError(f"graph: {exc}") from None
    return InstanceSpec(graph=graph, dists=tuple(dists))


def instance_to_dict(spec: InstanceSpec) -> dict:
    graph = spec.graph
    data: dict = {
        "kind": graph.kind,
        "vertices": graph.num_vertices,
        "edges": [
            {
                "u": u,
                "v": v,
                "dist": {
                    "family": spec.dists[eid].family,
                    "params": list(spec.dists[eid].params),
                },
            }
            for eid, (u, v) in enumerate(graph.edges)
        ],
    }
    if graph.kind == "bipartite":
        data["buyers"] = list(graph.buyers)
        data["items"] = list(graph.items)
    return data


def load_instance(path: str | Path) -> InstanceSpec:
    """Load an instance file; schema violations raise InputError with the field."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read instance file {path}: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from None
    return instance_from_dict(data)


def save_instance(spec: InstanceSpec, path: str | Path):
    Path(path).write_text(json.dumps(instance_to_dict(spec), indent=2) + "\n")


# ---------------------------------------------------------------------------
# instance generators


def _spread(edges: list[tuple[int, int]], n: int, dist: DistSpec, kind="general",
            buyers=(), items=()) -> InstanceSpec:
    graph = Graph(
        num_vertices=n, edges=tuple(edges), kind=kind, buyers=tuple(buyers), items=tuple(items)
    )
    return InstanceSpec(graph=graph, dists=tuple(dist for _ in edges))


def complete_graph(n: int, dist: DistSpec) -> InstanceSpec:
    """K_n with one shared distribution on every edge."""
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return _spread(edges, n, dist)


def complete_bipartite(a: int, b: int, dist: DistSpec) -> InstanceSpec:
    """K_{a,b}: buyers 0..a-1, items a..a+b-1."""
    buyers = range(a)
    items = range(a, a + b)
    edges = [(i, j) for i in buyers for j in items]
    return _spread(edges, a + b, dist, kind="bipartite", buyers=buyers, items=items)


def gnp_graph(n: int, p: float, dist: DistSpec, seed: int) -> InstanceSpec:
    """Erdos-Renyi G(n, p); edge presence drawn from the given seed."""
    if not 0 <= p <= 1:
        raise InputError("edge probability must be in [0, 1]")
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return _spread(edges, n, dist)


def star_graph(leaves: int, dist: DistSpec) -> InstanceSpec:
    """A center (vertex 0) with the given number of leaves.

    With one arriving edge per leaf this recovers the classic pick-one-value
    online selection problem.
    """
    edges = [(0, k) for k in range(1, leaves + 1)]
    return _spread(edges, leaves + 1, dist)


def path_graph(n: int, dist: DistSpec) -> InstanceSpec:
    """A path on n vertices."""
    edges = [(k, k + 1) for k in range(n - 1)]
    return _spread(edges, n, dist)


def parse_graph_spec(text: str, dist: DistSpec, seed: int = 0) -> InstanceSpec:
    """Parse generator strings like complete:6, bipartite:4,4, gnp:8,0.5, star:8, path:5."""
    name, _, arg = text.partition(":")
    try:
        if name == "complete":
            return complete_graph(int(arg), dist)
        if name == "bipartite":
            a, b = arg.split(",")
            return complete_bipartite(int(a), int(b), dist)
        if name == "gnp":
            n, p = arg.split(",")
            return gnp_graph(int(n), float(p), dist, seed)
        if name == "star":
            return star_graph(int(arg), dist)
        if name == "path":
            return path_graph(int(arg), dist)
    except (ValueError, TypeError):
        raise InputError(f"bad graph spec {text!r}") from None
    raise InputError(f"unknown graph family {name!r}")


def parse_dist_spec(text: str) -> DistSpec:
    """Parse distribution strings like uniform:0,1 or point_mass:7."""
    name, _, arg = text.partition(":")
    try:
        params = tuple(float(x) for x in arg.split(",")) if arg else ()
    except ValueError:
        raise InputError(f"bad distribution parameters in {text!r}") from None
    return DistSpec(name, params)
