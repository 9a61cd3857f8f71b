"""Incentive-compatible posted-price assignment for bipartite vertex arrivals.

Prices are the same greedy sample prices used everywhere else.  When a buyer
arrives she sees, for every still-free item, a take-it-or-leave-it price of
max(her own threshold, the item threshold); she gets a utility-maximizing
item among those her reported values can afford.  Prices never depend on her
report, so misreporting can only lose utility: it may forfeit an affordable
item or buy one she values less.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .core import Graph, InputError, Matching, Realization, RunRecord
from .distributions import InstanceSpec
from .edge_arrival import _drive_arrivals
from .vertex_arrival import _require_bipartite


@dataclass(frozen=True)
class MechanismOutcome:
    """Result of one mechanism run: assignment, payments, true utilities."""

    record: RunRecord
    graph: Graph
    charged: Mapping[int, float]
    utilities: Mapping[int, float]

    @property
    def matching(self) -> Matching:
        return self.record.matching


def run_truthful(
    spec: InstanceSpec,
    real: Realization,
    order,
    reports: Mapping[int, Mapping[int, float]] | None = None,
) -> MechanismOutcome:
    """Run the posted-price mechanism.

    ``reports`` optionally overrides, per buyer, the values she claims for her
    incident edges (edge id -> reported value); buyers absent from the map
    report truthfully.  Item selection uses reported values; payments and the
    returned utilities always use true values.  The reports form a claimed
    realization: the same draws with the reported real values, each keeping
    the true draw's tie-break key, ranked within itself.  Reporting the truth
    is therefore literally identical to not reporting at all.
    """
    graph = spec.graph
    _require_bipartite(graph)
    reports = reports or {}
    for i, rep in reports.items():
        if i not in set(graph.buyers):
            raise InputError(f"report for unknown buyer {i}")
        for e in rep:
            if not 0 <= e < graph.num_edges or i not in graph.edges[e]:
                raise InputError(f"buyer {i} reported a value for non-incident edge {e}")
            if not (isinstance(rep[e], numbers.Real) and 0 <= rep[e] < math.inf):  # NaN fails too
                raise InputError("reported values must be non-negative finite numbers")
    m = graph.num_edges
    claimed = real
    if reports:
        values = real.values.copy()
        for rep in reports.values():
            for e, value in rep.items():
                values[m + e] = float(value)
        claimed = Realization(values=values, keys=real.keys)
    rank, claimed_values = claimed.rank, claimed.real_values

    def chooser(prices):
        def choose(i, matched):
            best_edge = None
            best_surplus = None
            for e in graph.incident[i]:
                _, j = graph.buyer_item(e)
                if j in matched:
                    continue
                # prices hold sample draw ids, and the claimed realization keeps the samples
                priced_by = (prices.origins.get(i), prices.origins.get(j))
                if not all(o is None or rank[m + e] < rank[o] for o in priced_by):
                    continue
                offered = max(prices.price(i), prices.price(j))
                surplus = claimed_values[e] - offered
                if (
                    best_edge is None
                    or surplus > best_surplus
                    or (surplus == best_surplus and rank[m + e] < rank[m + best_edge])
                ):
                    best_edge, best_surplus = e, surplus
            return best_edge, True

        return choose

    # the buyer picks among free items only, so every chosen edge is accepted
    # and the feasible set is the matching; the threshold is the price paid
    record = _drive_arrivals(spec, real, order, graph.buyers, "buyer", chooser)
    charged: dict[int, float] = {}
    utilities: dict[int, float] = {}
    for ev in record.events:
        if ev.outcome == "accepted":
            charged[ev.element] = ev.threshold
            utilities[ev.element] = ev.value - ev.threshold
        else:
            utilities[ev.element] = 0.0
    return MechanismOutcome(record=record, graph=graph, charged=charged, utilities=utilities)


def sample_misreport(
    rng: np.random.Generator, true_values: Mapping[int, float]
) -> dict[int, float]:
    """One random deviation from truthful reporting.

    Mixes the failure modes worth probing: multiplicative noise, zeroing out
    edges (walking away), large inflation (overbidding past thresholds), and
    permuting values across the buyer's edges.
    """
    edges = sorted(true_values)
    mode = rng.integers(0, 4)
    out = dict(true_values)
    if mode == 0:
        for e in edges:
            out[e] = float(true_values[e] * rng.uniform(0.0, 2.5))
    elif mode == 1:
        for e in edges:
            if rng.random() < 0.5:
                out[e] = 0.0
    elif mode == 2:
        for e in edges:
            if rng.random() < 0.5:
                out[e] = float(true_values[e] * rng.uniform(2.0, 100.0) + 1.0)
    else:
        perm = rng.permutation(len(edges))
        vals = [true_values[e] for e in edges]
        out = {e: vals[perm[k]] for k, e in enumerate(edges)}
    return out


def misreport_audit(
    spec: InstanceSpec,
    real: Realization,
    order,
    buyer: int,
    trials: int,
    seed: int = 0,
) -> bool:
    """Can ``buyer`` ever gain by lying, all other buyers held truthful?

    Samples ``trials`` random misreports for the buyer and compares the
    resulting true utility against the truthful run's.  Returns True iff the
    truthful utility is at least as large in every trial.
    """
    truthful = run_truthful(spec, real, order)
    if buyer not in spec.graph.buyers:
        raise InputError(f"{buyer!r} is not a buyer of the instance")
    base = truthful.utilities.get(buyer, 0.0)
    true_values = {e: real.real_values[e] for e in spec.graph.incident[buyer]}
    rng = np.random.default_rng(np.random.SeedSequence([seed, buyer]))
    for _ in range(trials):
        deviant = sample_misreport(rng, true_values)
        outcome = run_truthful(spec, real, order, reports={buyer: deviant})
        if outcome.utilities.get(buyer, 0.0) > base:
            return False
    return True


def maximality_check(outcome: MechanismOutcome, feasible) -> bool:
    """Is the mechanism's matching maximal inside the price-feasible edge set?

    ``feasible`` is the price-feasible set of the coupled offline edge-arrival
    construction on the same realization (its computation ignores arrival
    order entirely).  True iff no feasible edge could be added to the
    mechanism's matching without sharing a vertex.
    """
    graph = outcome.graph
    chosen = outcome.record.matching.edges
    covered: set[int] = set()
    for e in chosen:
        covered.update(graph.edges[e])
    for e in feasible:
        if e in chosen:
            continue
        u, v = graph.edges[e]
        if u not in covered and v not in covered:
            return False
    return True
