"""Registered correctness checks: exact couplings and statistical guarantees.

Two kinds of check live here.  Exact checks (coupling, matching validity,
greedy 2-approximation, truthfulness, maximality) must hold on every single
run; one violation fails the suite.  Statistical checks certify expectation
bounds from paired per-trial differences: a bound ``c * E[alg] >= E[opt]`` is
accepted iff ``mean(c*alg - opt) >= -3 * SE`` over the trials.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import operator
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .adversary import OrderStrategy
from .core import Graph, InputError, Realization, validate_matching
from .distributions import DistSpec, InstanceSpec, _edge_words, draw_realization
from .edge_arrival import (
    _kernel_agrees,
    _records_agree,
    _static_batch,
    run_offline_edge,
    run_online_edge,
)
from .harness import (
    ExperimentConfig,
    estimate_ratio,
    estimate_to_csv,
    max_matching_weights,
    summarize,
    trial_batches,
    trial_chunks,
    trial_seeds,
)
from .instances import (
    complete_bipartite,
    complete_graph,
    gnp_graph,
    instance_from_dict,
    instance_to_dict,
    star_graph,
)
from .oracle import greedy_matching, max_weight_matching
from .truthful import maximality_check, misreport_audit, run_truthful
from .vertex_arrival import (
    _require_bipartite,
    build_safe_matching,
    run_offline_vertex,
    run_online_vertex,
)

# ---------------------------------------------------------------------------
# shipped experiment families

DIST_FAMILIES: dict[str, DistSpec] = {
    "uniform": DistSpec.uniform(0.0, 1.0),
    "exponential": DistSpec.exponential(1.0),
    "pareto": DistSpec.pareto(1.0, 3.0),
    "bernoulli": DistSpec.bernoulli_scaled(0.5, 1.0),
}

GNP_TOPOLOGY_SEED = 11


def edge_families(dist: DistSpec) -> dict[str, InstanceSpec]:
    return {
        "K6": complete_graph(6, dist),
        "G8": gnp_graph(8, 0.5, dist, seed=GNP_TOPOLOGY_SEED),
        "star8": star_graph(8, dist),
    }


def bipartite_families(dist: DistSpec) -> dict[str, InstanceSpec]:
    return {
        "K44": complete_bipartite(4, 4, dist),
        "K36": complete_bipartite(3, 6, dist),
    }


EDGE_ORDERS: dict[str, OrderStrategy] = {
    "random": OrderStrategy(kind="random"),
    "dec": OrderStrategy(kind="dec"),
    "inc": OrderStrategy(kind="inc"),
    "adaptive": OrderStrategy(kind="adaptive", policy="block-best"),
}

BUYER_ORDERS: dict[str, OrderStrategy] = {
    "random": OrderStrategy(kind="random"),
    "dec": OrderStrategy(kind="dec"),
    "inc": OrderStrategy(kind="inc"),
    "adaptive": OrderStrategy(kind="adaptive", policy="starve-items"),
}


def _stable_seed(label: str, seed: int) -> int:
    """Process-independent seed derived from a label (str hash is salted)."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


@dataclass(frozen=True)
class InvariantResult:
    """One check's outcome; ``margin`` is a z-score for statistical checks
    and the smallest observed slack for exact ones."""

    name: str
    kind: str  # "exact" | "statistical"
    passed: bool
    margin: float
    detail: str = ""
    data: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SuiteReport:
    results: tuple[InvariantResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)


def _paired_result(name: str, diffs: np.ndarray, detail: str = "", data=None) -> InvariantResult:
    """Certify E[diff] >= 0 from paired per-trial differences at 3 sigma."""
    mean = float(diffs.mean())
    se = float(diffs.std(ddof=1) / math.sqrt(len(diffs))) if len(diffs) > 1 else 0.0
    z = math.inf if se == 0 else mean / se
    return InvariantResult(
        name=name,
        kind="statistical",
        passed=mean >= -3.0 * se,
        margin=z,
        detail=detail or f"mean={mean:.6g} se={se:.3g}",
        data=data or {},
    )


def _ratio_se(num: np.ndarray, den: np.ndarray) -> tuple[float, float]:
    """Cluster-robust estimate and SE of sum(num)/sum(den) over trials."""
    total_den = den.sum()
    if total_den == 0:
        return math.nan, math.nan
    p = float(num.sum() / total_den)
    resid = num - p * den
    se = float(
        math.sqrt(len(num) * resid.var(ddof=1)) / total_den
    ) if len(num) > 1 else 0.0
    return p, se


# ---------------------------------------------------------------------------
# random small instances for the coupling and audit sweeps


def _random_dist(rng: np.random.Generator) -> DistSpec:
    pick = rng.integers(0, 5)
    if pick == 0:
        return DistSpec.uniform(0.0, float(1.0 + 2.0 * rng.random()))
    if pick == 1:
        return DistSpec.exponential(float(rng.uniform(0.5, 2.0)))
    if pick == 2:
        return DistSpec.pareto(1.0, float(rng.uniform(2.2, 4.0)))
    if pick == 3:
        return DistSpec.bernoulli_scaled(float(rng.uniform(0.2, 0.9)), float(rng.uniform(0.5, 3.0)))
    return DistSpec.point_mass(float(rng.choice([0.0, 1.0, rng.uniform(0.0, 2.0)])))


def random_small_instance(
    rng: np.random.Generator, bipartite: bool | None = None
) -> InstanceSpec:
    """A small random instance with per-edge mixed distribution families."""
    if bipartite is None:
        bipartite = bool(rng.random() < 0.5)
    edges: list[tuple[int, int]] = []
    if bipartite:
        a = int(rng.integers(1, 5))
        b = int(rng.integers(1, 5))
        n = a + b
        buyers, items = tuple(range(a)), tuple(range(a, n))
        for i in buyers:
            for j in items:
                if rng.random() < 0.7:
                    edges.append((i, j))
        if not edges:
            edges.append((0, a))
        graph = Graph(num_vertices=n, edges=tuple(edges), kind="bipartite",
                      buyers=buyers, items=items)
    else:
        n = int(rng.integers(2, 9))
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.5:
                    edges.append((u, v))
        if not edges:
            edges.append((0, 1))
        graph = Graph(num_vertices=n, edges=tuple(edges))
    dists = tuple(_random_dist(rng) for _ in edges)
    return InstanceSpec(graph=graph, dists=dists)


def _sweep_orders(rng: np.random.Generator, count: int, k: int) -> list[int]:
    """Alternate fixed and random arrival orders across a sweep."""
    if k % 3 == 0:
        return list(range(count))
    if k % 3 == 1:
        return list(range(count))[::-1]
    return [int(x) for x in rng.permutation(count)]


# ---------------------------------------------------------------------------
# exact sweeps


def _kernel_note(mismatches: int) -> str:
    """The detail's note on runs where ``_static_batch`` disagrees with the driver."""
    return f", {mismatches} batched-kernel mismatches" if mismatches else ""


def check_edge_coupling(instances: int = 1000, seed: int = 101) -> InvariantResult:
    """Online and offline edge-arrival runs agree exactly, instance by instance.

    The batched static-order kernel must give the online run exactly too.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    failures = 0
    kernel_failures = 0
    valid_failures = 0
    for k in range(instances):
        spec = random_small_instance(rng)
        order = _sweep_orders(rng, spec.graph.num_edges, k)
        real = draw_realization(spec, int(rng.integers(0, 2**63)))
        record = run_online_edge(spec, real, order)
        if not _records_agree(record, run_offline_edge(spec, real, order).record):
            failures += 1
        if not _kernel_agrees("edge", spec.graph, real, order, record):
            kernel_failures += 1
        if not (
            validate_matching(spec.graph, record.matching)
            and validate_matching(spec.graph, record.sample_matching)
        ):
            valid_failures += 1
    passed = failures == 0 and kernel_failures == 0 and valid_failures == 0
    return InvariantResult(
        name="edge_coupling",
        kind="exact",
        passed=passed,
        margin=float(instances - failures),
        detail=f"{instances - failures}/{instances} exact matches, "
        f"{valid_failures} matching-validity failures" + _kernel_note(kernel_failures),
        data={"instances": instances, "failures": failures},
    )


def check_vertex_coupling(instances: int = 1000, seed: int = 102) -> InvariantResult:
    """Bipartite analogue of the edge coupling sweep, plus structural checks.

    The batched static-order kernel must give the online run and the safe
    matching exactly too.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    failures = 0
    kernel_failures = 0
    structural = 0
    for k in range(instances):
        spec = random_small_instance(rng, bipartite=True)
        buyers = spec.graph.buyers
        order = [buyers[i] for i in _sweep_orders(rng, len(buyers), k)]
        real = draw_realization(spec, int(rng.integers(0, 2**63)))
        rec = run_offline_vertex(spec, real, order)
        safe = build_safe_matching(spec.graph, rec.feasible, real)
        online = run_online_vertex(spec, real, order)
        if not _records_agree(online, rec):
            failures += 1
        if not _kernel_agrees("vertex", spec.graph, real, order, online, safe):
            kernel_failures += 1
        # each buyer at most once in the feasible set; weight sandwich holds
        seen_buyers = [spec.graph.buyer_item(e)[0] for e in rec.feasible]
        if len(seen_buyers) != len(set(seen_buyers)):
            structural += 1
        if not (
            rec.matching.weight <= safe.weight + 1e-12
            and safe.weight <= rec.feasible_weight + 1e-12
        ):
            structural += 1
        if not validate_matching(spec.graph, safe):
            structural += 1
    passed = failures == 0 and kernel_failures == 0 and structural == 0
    return InvariantResult(
        name="vertex_coupling",
        kind="exact",
        passed=passed,
        margin=float(instances - failures),
        detail=f"{instances - failures}/{instances} exact matches, "
        f"{structural} structural failures" + _kernel_note(kernel_failures),
        data={"instances": instances, "failures": failures},
    )


def check_greedy_two_approx(instances: int = 500, seed: int = 103) -> InvariantResult:
    """2 * w(greedy) >= w(OPT), exactly, on random mixed instances."""
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    violations = 0
    min_slack = math.inf
    worst_ratio = 0.0
    for _ in range(instances):
        spec = random_small_instance(rng)
        real = draw_realization(spec, int(rng.integers(0, 2**63)))
        for copy, values in enumerate((real.sample_values, real.real_values)):
            greedy = greedy_matching(spec.graph, real.edge_order(copy), values)
            opt = max_weight_matching(spec.graph, values)
            slack = 2.0 * greedy.weight - opt.weight
            min_slack = min(min_slack, slack)
            if greedy.weight > 0:
                worst_ratio = max(worst_ratio, opt.weight / greedy.weight)
            if slack < 0:
                violations += 1
    return InvariantResult(
        name="greedy_two_approx",
        kind="exact",
        passed=violations == 0,
        margin=min_slack,
        detail=f"min slack {min_slack:.6g}, worst OPT/greedy {worst_ratio:.4f}",
        data={"violations": violations, "worst_ratio": worst_ratio},
    )


# ---------------------------------------------------------------------------
# competitive-ratio bounds


def check_bound(
    spec: InstanceSpec,
    model: str,
    strategy: OrderStrategy,
    bound: float,
    trials: int,
    seed: int,
    label: str,
) -> InvariantResult:
    """Certify bound * E[w(alg)] >= E[w(OPT)] on one instance/order config.

    Also exactly checks the greedy 2-approximation on the sample values of
    every trial (the per-realization guarantee the prices rely on).
    """
    config = ExperimentConfig(spec, model, strategy, trials, seed)
    m = spec.graph.num_edges
    rows, opt_s = [], []
    for chunk, part in trial_batches(config):
        rows += part
        opt_s += max_matching_weights(spec.graph, chunk.values[:, :m]).tolist()
    est = summarize(rows)
    alg = np.array([r.matching_weight for r in rows])
    opt = np.array([r.opt_weight for r in rows])
    slack = 2.0 * np.array([r.sample_matching_weight for r in rows]) - opt_s
    greedy_violations = int(np.count_nonzero(slack < 0))
    result = _paired_result(
        f"bound[{label}]",
        bound * alg - opt,
        detail=(
            f"E[opt]={est.mean_opt:.4f} E[alg]={est.mean_alg:.4f} "
            f"ratio={est.ratio:.3f} vs bound {bound:g}"
        ),
        data={
            "bound": bound,
            "mean_alg": est.mean_alg,
            "mean_opt": est.mean_opt,
            "se_opt_over_mean": est.se_opt / est.mean_opt if est.mean_opt else math.nan,
            "greedy_violations": greedy_violations,
            "greedy_min_slack": float(slack.min()),
        },
    )
    if greedy_violations:
        result = replace(
            result,
            passed=False,
            detail=result.detail + f"; {greedy_violations} greedy 2-approx violations",
        )
    return result


def competitive_bound_matrix(model: str, trials: int, seed: int) -> list[InvariantResult]:
    """The shipped (family x distribution x order) certification matrix."""
    bound = {"edge": 16.0, "vertex": 8.0, "truthful": 16.0}[model]
    orders = EDGE_ORDERS if model == "edge" else BUYER_ORDERS
    families = edge_families if model == "edge" else bipartite_families
    results = []
    for dist_name, dist in DIST_FAMILIES.items():
        for fam_name, spec in families(dist).items():
            for order_name, strategy in orders.items():
                label = f"{model}:{fam_name}:{dist_name}:{order_name}"
                results.append(
                    check_bound(
                        spec, model, strategy, bound, trials,
                        seed=_stable_seed(label, seed), label=label,
                    )
                )
    return results


# ---------------------------------------------------------------------------
# proof-level chains


def check_edge_chain(
    spec: InstanceSpec, trials: int, seed: int, label: str
) -> list[InvariantResult]:
    """The edge-model inequality chain, measured on the offline twin.

    Per trial we record: the per-vertex leading feasible values, the sample
    matching weight, the leading values restricted to safe vertices, and the
    output matching weight; plus the counts behind the coin-fairness and
    safe-frequency rates.
    """
    rng_orders = np.random.default_rng(np.random.SeedSequence([seed, 777]))
    m = spec.graph.num_edges
    lead_sum = np.empty(trials)
    ms_w = np.empty(trials)
    safe_sum = np.empty(trials)
    match_w = np.empty(trials)
    n_considered = np.empty(trials)
    n_lead_feasible = np.empty(trials)
    n_safe = np.empty(trials)
    for chunk in trial_chunks(spec, seed, trials):
        for t, real in enumerate(chunk.reals, chunk.start):
            order = [int(x) for x in rng_orders.permutation(m)]
            trace = run_offline_edge(spec, real, order)
            feas = frozenset(trace.record.feasible)
            considered = frozenset(trace.first_edge)  # the leads are summed in its order
            values = real.real_values
            lead = 0.0
            feasible_leads = 0
            for v in considered:
                e = trace.first_edge[v]
                if e in feas:
                    lead += values[e]
                    feasible_leads += 1
            safe_val = sum(values[trace.first_edge[v]] for v in trace.safe)
            lead_sum[t] = lead
            ms_w[t] = trace.record.sample_matching.weight
            safe_sum[t] = safe_val
            match_w[t] = trace.record.matching.weight
            n_considered[t] = len(considered)
            n_lead_feasible[t] = feasible_leads
            n_safe[t] = len(trace.safe)
    results = [
        _paired_result(f"edge_chain/leading_vs_sample[{label}]", lead_sum - ms_w),
        _paired_result(f"edge_chain/safe_quarter[{label}]", safe_sum - 0.25 * lead_sum),
        _paired_result(f"edge_chain/matching_half[{label}]", match_w - 0.5 * safe_sum),
    ]
    p_safe, se_safe = _ratio_se(n_safe, n_lead_feasible)
    results.append(
        InvariantResult(
            name=f"edge_chain/safe_frequency[{label}]",
            kind="statistical",
            passed=p_safe >= 0.25 - 3.0 * se_safe,
            margin=(p_safe - 0.25) / se_safe if se_safe else math.inf,
            detail=f"P[safe | leading edge feasible]={p_safe:.4f} (se {se_safe:.4g})",
            data={
                "p_safe_given_feasible_lead": p_safe,
                "p_safe_given_considered": float(n_safe.sum() / n_considered.sum()),
            },
        )
    )
    return results


_COIN_SALT = 0xC01F11B5


def check_coin_fairness(
    spec: InstanceSpec, trials: int, seed: int, label: str
) -> InvariantResult:
    """P[first considered incident edge is feasible | vertex touched] = 1/2.

    Measured with genuinely independent coins, the reading in which the rate
    is exactly a fair coin: each edge's coin is one bit of a hash of its
    endpoints under a per-trial coin seed.  The twin's coupled coin is heads
    exactly when an edge's real draw ranks above its sample, so it runs on
    the realization with the two draws of every edge whose coin disagrees
    swapped.  That is the same as flipping the coins during the scan: the
    pool of active vertices only shrinks, so a copy skipped once is never
    considered later.
    """
    edges = spec.graph.edges
    rng_orders = np.random.default_rng(np.random.SeedSequence([seed, 778]))
    m = spec.graph.num_edges
    draws = np.arange(2 * m)
    partners = np.roll(draws, m)  # draw e <-> draw m+e
    num = np.empty(trials)
    den = np.empty(trials)
    coin_seeds = trial_seeds(seed ^ 0xC0FFEE, trials).tolist()
    for chunk in trial_chunks(spec, seed, trials):
        for t, real in enumerate(chunk.reals, chunk.start):
            order = [int(x) for x in rng_orders.permutation(m)]
            heads = np.array(
                [_edge_words(coin_seeds[t], u, v, _COIN_SALT)[0] & 1 for u, v in edges],
                dtype=bool,
            )
            rank = real.rank_array
            swap = np.where(np.tile(heads != (rank[m:] < rank[:m]), 2), partners, draws)
            trace = run_offline_edge(spec, Realization(real.values[swap], real.keys[swap]), order)
            feas = frozenset(trace.record.feasible)
            den[t] = len(trace.first_edge)
            num[t] = sum(1 for e in trace.first_edge.values() if e in feas)
    p, se = _ratio_se(num, den)
    return InvariantResult(
        name=f"edge_chain/coin_fairness[{label}]",
        kind="statistical",
        passed=abs(p - 0.5) <= 3.0 * se,
        margin=(p - 0.5) / se if se else 0.0,
        detail=f"P[leading edge feasible | touched]={p:.4f} (se {se:.4g})",
        data={"p": p, "se": se},
    )


def check_vertex_chain(
    spec: InstanceSpec, trials: int, seed: int, label: str
) -> list[InvariantResult]:
    """The bipartite chain: safe-matching inequalities and the 4x bound.

    Note on safe_vs_sample: the textbook chain asserts the bound on the
    conflict-resolved safe matching, but what the per-buyer coin argument
    actually supports is the bound on the full feasible set
    (feasible_vs_sample, also measured here).  Item conflicts can cost the
    safe matching enough to flip safe_vs_sample negative on some families;
    both forms are reported so the gap is visible.

    Each chunk of trials runs in one ``_static_batch`` call: its sample
    matching, feasible, safe and matching weights are the online run's, bit
    for bit, and so the offline twin's, by the coupling.
    """
    graph = spec.graph
    _require_bipartite(graph)
    rng_orders = np.random.default_rng(np.random.SeedSequence([seed, 779]))
    buyers = np.array(graph.buyers, dtype=np.intp)
    ms_w = np.empty(trials)
    feas_w = np.empty(trials)
    safe_w = np.empty(trials)
    match_w = np.empty(trials)
    opt_w = np.empty(trials)
    for chunk in trial_chunks(spec, seed, trials):
        rows = slice(chunk.start, chunk.start + len(chunk.seeds))
        # one permutation per trial, in trial order: the order stream
        orders = np.array([buyers[rng_orders.permutation(len(buyers))] for _ in chunk.seeds])
        runs = _static_batch("vertex", graph, chunk.values, chunk.rank, orders)
        ms_w[rows] = runs.sample_matching_weight
        feas_w[rows] = runs.feasible_weight
        safe_w[rows] = runs.safe_weight
        match_w[rows] = runs.matching_weight
        opt_w[rows] = max_matching_weights(graph, chunk.values[:, graph.num_edges :])
    sandwich_failures = int(
        np.count_nonzero(~((match_w <= safe_w + 1e-12) & (safe_w <= feas_w + 1e-12)))
    )
    results = [
        _paired_result(f"vertex_chain/feasible_vs_sample[{label}]", 2.0 * feas_w - ms_w),
        _paired_result(f"vertex_chain/safe_vs_sample[{label}]", 2.0 * safe_w - ms_w),
        _paired_result(f"vertex_chain/matching_vs_safe[{label}]", 2.0 * match_w - safe_w),
        _paired_result(f"vertex_chain/safe_vs_opt[{label}]", 4.0 * safe_w - opt_w),
    ]
    results.append(
        InvariantResult(
            name=f"vertex_chain/weight_sandwich[{label}]",
            kind="exact",
            passed=sandwich_failures == 0,
            margin=float(-sandwich_failures),
            detail=f"{sandwich_failures} violations of w(M) <= w(safe) <= w(feasible)",
        )
    )
    return results


# ---------------------------------------------------------------------------
# mechanism checks


def check_truthfulness(
    instances: int = 100, misreports: int = 200, seed: int = 104
) -> InvariantResult:
    """Misreport audits for every buyer on random bipartite instances.

    Also asserts individual rationality and the payment rule on the truthful
    runs along the way.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    audit_failures = 0
    ir_failures = 0
    for k in range(instances):
        spec = random_small_instance(rng, bipartite=True)
        buyers = list(spec.graph.buyers)
        order = [buyers[int(x)] for x in rng.permutation(len(buyers))]
        real_seed = int(rng.integers(0, 2**63))
        real = draw_realization(spec, real_seed)
        outcome = run_truthful(spec, real, order)
        for i in buyers:
            if outcome.utilities.get(i, 0.0) < 0.0:
                ir_failures += 1
            if not misreport_audit(spec, real, order, i, misreports, seed=seed + k):
                audit_failures += 1
    passed = audit_failures == 0 and ir_failures == 0
    return InvariantResult(
        name="truthfulness_audit",
        kind="exact",
        passed=passed,
        margin=float(-audit_failures),
        detail=f"{audit_failures} profitable misreports, {ir_failures} IR violations "
        f"({instances} instances x {misreports} misreports per buyer)",
        data={"audit_failures": audit_failures, "ir_failures": ir_failures},
    )


def check_maximality(runs: int = 1000, seed: int = 105) -> InvariantResult:
    """The mechanism's matching is maximal in the price-feasible edge set, and
    the batched static-order kernel gives the mechanism's run exactly."""
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    failures = 0
    kernel_failures = 0
    for k in range(runs):
        spec = random_small_instance(rng, bipartite=True)
        buyers = list(spec.graph.buyers)
        order = [buyers[int(x)] for x in rng.permutation(len(buyers))]
        real = draw_realization(spec, int(rng.integers(0, 2**63)))
        outcome = run_truthful(spec, real, order)
        feasible = frozenset(
            run_offline_edge(spec, real, list(range(spec.graph.num_edges))).record.feasible
        )
        if not maximality_check(outcome, feasible):
            failures += 1
        if not _kernel_agrees("truthful", spec.graph, real, order, outcome.record):
            kernel_failures += 1
    return InvariantResult(
        name="mechanism_maximality",
        kind="exact",
        passed=failures == 0 and kernel_failures == 0,
        margin=float(-failures),
        detail=f"{failures} non-maximal outcomes over {runs} runs" + _kernel_note(kernel_failures),
        data={"failures": failures},
    )


def check_single_edge_point_mass(trials: int = 10_000, seed: int = 106) -> InvariantResult:
    """Single point-mass edge: the online algorithm accepts with rate 1/2.

    With identical sample and real values the decision reduces to which of
    the two tie-break keys ranks first, a fair coin; the rate must sit within
    0.5 +/- 0.015 at 10^4 trials (3 sigma).
    """
    spec = star_graph(1, DistSpec.point_mass(1.0))
    fixed = OrderStrategy(kind="fixed", order=(0,))
    rate = estimate_ratio(ExperimentConfig(spec, "edge", fixed, trials, seed)).mean_alg
    tol = 3.0 * 0.5 / math.sqrt(trials)
    return InvariantResult(
        name="single_edge_point_mass",
        kind="statistical",
        passed=abs(rate - 0.5) <= tol,
        margin=(rate - 0.5) / (0.5 / math.sqrt(trials)),
        detail=f"acceptance rate {rate:.4f}, gate 0.5 +/- {tol:.4f}",
        data={"rate": rate, "ratio": math.inf if rate == 0 else 1.0 / rate},
    )


def check_determinism_roundtrip(seed: int = 107) -> InvariantResult:
    """Identical configs give byte-identical CSV; instances round-trip exactly."""
    spec = complete_graph(4, DistSpec.uniform(0.0, 1.0))
    config = ExperimentConfig(
        instance=spec,
        model="edge",
        strategy=OrderStrategy(kind="random"),
        trials=50,
        master_seed=seed,
    )
    csv_a = estimate_to_csv(estimate_ratio(config))
    csv_b = estimate_to_csv(estimate_ratio(config))
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    roundtrip_ok = True
    for _ in range(20):
        inst = random_small_instance(rng)
        if instance_from_dict(instance_to_dict(inst)) != inst:
            roundtrip_ok = False
    passed = csv_a == csv_b and roundtrip_ok
    return InvariantResult(
        name="determinism_roundtrip",
        kind="exact",
        passed=passed,
        margin=1.0 if passed else 0.0,
        detail=f"csv identical: {csv_a == csv_b}; instance round-trip: {roundtrip_ok}",
    )


# ---------------------------------------------------------------------------
# the suite


@dataclass(frozen=True)
class SuiteConfig:
    """Trial counts for the invariant suite; defaults match the full gate."""

    seed: int = 2024
    coupling_instances: int = 1000
    bound_trials: int = 10_000
    chain_trials: int = 10_000
    greedy_instances: int = 500
    audit_instances: int = 100
    audit_misreports: int = 200
    maximality_runs: int = 1000
    point_mass_trials: int = 10_000
    chain_dists: tuple[str, ...] = ("uniform", "pareto", "bernoulli")

    def __post_init__(self):
        for name in (f.name for f in fields(self) if f.name != "chain_dists"):
            try:
                value = operator.index(getattr(self, name))
            except TypeError:
                raise InputError(f"{name} must be an integer") from None
            least = 0 if name == "seed" else 1
            if value < least:
                raise InputError(f"{name} must be at least {least}")
            object.__setattr__(self, name, value)
        unknown = [name for name in self.chain_dists if name not in DIST_FAMILIES]
        if unknown:
            raise InputError(f"unknown chain_dists {unknown}; known: {', '.join(DIST_FAMILIES)}")

    @classmethod
    def quick(cls) -> "SuiteConfig":
        return cls(
            coupling_instances=150,
            bound_trials=400,
            chain_trials=800,
            greedy_instances=80,
            audit_instances=10,
            audit_misreports=40,
            maximality_runs=100,
            point_mass_trials=2000,
            chain_dists=("uniform",),
        )


def run_invariant_suite(config: SuiteConfig | None = None) -> SuiteReport:
    """Execute every registered invariant at the configured trial counts."""
    cfg = config or SuiteConfig()
    results: list[InvariantResult] = []
    results.append(check_edge_coupling(cfg.coupling_instances, cfg.seed + 1))
    results.append(check_vertex_coupling(cfg.coupling_instances, cfg.seed + 2))
    results.append(check_greedy_two_approx(cfg.greedy_instances, cfg.seed + 3))
    for model in ("edge", "vertex", "truthful"):
        results.extend(competitive_bound_matrix(model, cfg.bound_trials, cfg.seed + 4))
    for dist_name in cfg.chain_dists:
        dist = DIST_FAMILIES[dist_name]
        results.extend(
            check_edge_chain(complete_graph(6, dist), cfg.chain_trials,
                             cfg.seed + 5, f"K6-{dist_name}")
        )
        results.append(
            check_coin_fairness(complete_graph(6, dist), cfg.chain_trials,
                                cfg.seed + 6, f"K6-{dist_name}")
        )
        results.extend(
            check_vertex_chain(complete_bipartite(4, 4, dist), cfg.chain_trials,
                               cfg.seed + 7, f"K44-{dist_name}")
        )
        results.extend(
            check_vertex_chain(complete_bipartite(3, 6, dist), cfg.chain_trials,
                               cfg.seed + 7, f"K36-{dist_name}")
        )
    results.append(
        check_truthfulness(cfg.audit_instances, cfg.audit_misreports, cfg.seed + 8)
    )
    results.append(check_maximality(cfg.maximality_runs, cfg.seed + 9))
    results.append(check_single_edge_point_mass(cfg.point_mass_trials, cfg.seed + 10))
    results.append(check_determinism_roundtrip(cfg.seed + 11))
    return SuiteReport(results=tuple(results))


def report_to_csv(report: SuiteReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["name", "kind", "passed", "margin", "detail"])
    for r in report.results:
        writer.writerow([r.name, r.kind, r.passed, repr(r.margin), r.detail])
    return buf.getvalue()


def report_to_json(report: SuiteReport) -> str:
    data = {
        "passed": report.passed,
        "results": [
            {
                "name": r.name,
                "kind": r.kind,
                "passed": r.passed,
                "margin": None if math.isinf(r.margin) else r.margin,
                "detail": r.detail,
            }
            for r in report.results
        ],
    }
    return json.dumps(data, indent=2, sort_keys=True) + "\n"
