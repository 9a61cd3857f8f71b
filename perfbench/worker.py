"""One workload in a fresh interpreter: set up, run the timed calls, report.

Started by ``perfbench/run.py`` with the repository's ``src/`` on
PYTHONPATH, so it measures the library as checked out.  It prints one JSON
line when set-up is done (the parent's clock stops there for ``setup_s``)
and, unless ``--mode setup``, one JSON line of results.  It imports nothing
but the library and the standard library, so its peak RSS is the library's.

Modes:
  setup  import the library and build the workload's configs, then exit;
  run    time the workload untraced for ``--seconds`` seconds;
  trace  untraced and traced calls in turn at one config, for ``--seconds``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import resource
import statistics
import sys
import time

import spans

GATE = "gate-quick"
# workload -> (model, trials per call); a call takes about a second on 2 cores
RATIO_WORKLOADS = {
    "ratio-vertex-K50x50": ("vertex", 40),
    "ratio-edge-K20": ("edge", 12),
}
MODEL_BOUND = {"edge": 16.0, "vertex": 8.0, "truthful": 16.0}
MAX_PAIRS = 64  # distinct ratio configs per run; each is called twice
SUBSAMPLE_EVERY = 10  # trials whose optimum the parent recomputes independently
ONLINE_FN = dict(zip(("edge", "vertex", "truthful"), spans.ONLINE_LAYERS))
ROOT_CLOCK_TOLERANCE = 0.01  # root span vs the clock around the traced call


def setup(workload: str, seed: int):
    """Build the workload's configs; the library gets only these."""
    if workload == GATE:
        from prophet_matching.invariants import SuiteConfig

        return dataclasses.replace(SuiteConfig.quick(), seed=seed)
    from prophet_matching import (
        DistSpec,
        ExperimentConfig,
        OrderStrategy,
        complete_bipartite,
        complete_graph,
    )

    model, trials = RATIO_WORKLOADS[workload]
    dist = DistSpec.uniform(0.0, 1.0)
    spec = complete_bipartite(50, 50, dist) if model == "vertex" else complete_graph(20, dist)
    return [
        ExperimentConfig(
            instance=spec,
            model=model,
            strategy=OrderStrategy(kind="random"),
            trials=trials,
            master_seed=seed * MAX_PAIRS + pair,
        )
        for pair in range(MAX_PAIRS)
    ]


# ---------------------------------------------------------------------------
# the timed calls and what they return


def call_gate(cfg):
    from prophet_matching import invariants

    return invariants.run_invariant_suite(cfg)


def call_ratio(cfg):
    from prophet_matching import harness

    estimate = harness.estimate_ratio(cfg)
    return estimate, harness.estimate_to_csv(estimate)


def gate_summary(report) -> dict:
    from prophet_matching.invariants import report_to_csv

    return {
        "csv_sha256": hashlib.sha256(report_to_csv(report).encode()).hexdigest(),
        "results": [[r.name, r.kind, r.passed, r.margin] for r in report.results],
    }


def bound_trials(cfg, report) -> int:
    return cfg.bound_trials * sum(r.name.startswith("bound[") for r in report.results)


def ratio_pair(cfg, estimate, texts: list[str]) -> dict:
    """Outputs of calls at one config, with the real values of a fixed
    subsample of trials so that the parent can recompute their optimum."""
    from prophet_matching import draw_realization

    subsample = [
        [row.trial, [d.value for d in draw_realization(cfg.instance, row.seed).reals]]
        for row in estimate.rows
        if row.trial % SUBSAMPLE_EVERY == 0
    ]
    return {
        "master_seed": cfg.master_seed,
        "ratio": estimate.ratio,
        "csv": texts,
        "subsample": subsample,
    }


def graph_facts(cfg) -> dict:
    graph = cfg.instance.graph
    return {
        "model": cfg.model,
        "bound": MODEL_BOUND[cfg.model],
        "trials": cfg.trials,
        "edges": graph.edges,
        "buyers": graph.buyers,
        "items": graph.items,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


# ---------------------------------------------------------------------------
# modes


def run_gate(cfg, seconds: float) -> dict:
    windows, reports = [], []
    start = time.monotonic_ns()
    # at least two calls, so that every run checks they agree; no call that
    # would end past the time budget
    while len(windows) < 2 or 2 * windows[-1][1] - windows[-1][0] - start <= seconds * 1e9:
        t0 = time.monotonic_ns()
        report = call_gate(cfg)
        windows.append([t0, time.monotonic_ns()])
        reports.append(gate_summary(report))
    return {
        "windows": windows,
        "trials": bound_trials(cfg, report),
        "peak_rss_mb": peak_rss_mb(),
        "reports": reports,
    }


def run_ratio(configs, seconds: float) -> dict:
    windows, done = [], []
    start = time.monotonic_ns()
    for cfg in configs:
        texts = []
        t_pair = time.monotonic_ns()
        for _ in range(2):
            t0 = time.monotonic_ns()
            estimate, text = call_ratio(cfg)
            windows.append([t0, time.monotonic_ns()])
            texts.append(text)
        done.append((cfg, estimate, texts))
        now = time.monotonic_ns()
        if 2 * now - t_pair - start > seconds * 1e9:
            break
    peak = peak_rss_mb()
    return {
        "windows": windows,
        "trials": configs[0].trials,
        "peak_rss_mb": peak,
        "graph": graph_facts(configs[0]),
        "pairs": [ratio_pair(*item) for item in done],
    }


def _chain_checks(tracer, workload: str, cfg) -> list[list]:
    """Spans along each trial's call chain nest as the library calls them."""
    checks = []

    def expect(path: tuple[str, ...], count: int):
        seen = tracer.calls(path)
        checks.append([f"nesting {'/'.join(path)}", seen == count, f"{seen} calls, want {count}"])

    if workload == GATE:
        from prophet_matching import invariants

        for model, online in ONLINE_FN.items():
            if model == "edge":
                families, orders = invariants.edge_families, invariants.EDGE_ORDERS
            else:
                families, orders = invariants.bipartite_families, invariants.BUYER_ORDERS
            dist = invariants.DIST_FAMILIES["uniform"]
            per_order = len(invariants.DIST_FAMILIES) * len(families(dist)) * cfg.bound_trials
            chain = (f"invariants.competitive_bound_matrix.{model}", "harness.resolve_order")
            expect(chain, len(orders) * per_order)  # one resolution per trial
            expect(chain + (online,), per_order)  # only the adaptive order runs the algorithm
            expect(chain + (online, "oracle.greedy_matching"), per_order)
    else:
        online = ONLINE_FN[cfg.model]
        expect(("harness.resolve_order", "adversary.static_order"), cfg.trials)
        expect((online, "oracle.greedy_matching"), cfg.trials)
        expect(("oracle.max_weight_matching",), cfg.trials)
    return checks


def run_trace(workload: str, cfg, seconds: float) -> dict:
    """Alternate untraced and traced calls at one config for ``seconds``
    (at least two rounds); per-layer metrics come from the first traced call."""
    call = call_gate if workload == GATE else call_ratio
    target = cfg if workload == GATE else cfg[0]
    untraced, untraced_walls, tracers, outputs, external = [], [], [], [], []
    start = time.perf_counter()
    while len(tracers) < 2 or time.perf_counter() - start < seconds:
        t0 = time.perf_counter_ns()
        untraced.append(call(target))
        untraced_walls.append(time.perf_counter_ns() - t0)
        tracer = spans.Tracer(workload)
        t0 = time.perf_counter_ns()
        outputs.append(tracer.run(call, target))
        external.append(time.perf_counter_ns() - t0)
        tracers.append(tracer)
    first = tracers[0]
    outputs += untraced

    if workload == GATE:
        summaries = [gate_summary(x) for x in outputs]
        same_output = all(s["csv_sha256"] == summaries[0]["csv_sha256"] for s in summaries)
        payload = {"reports": summaries}

        def in_trial(path):
            return any(p.startswith("invariants.competitive_bound_matrix") for p in path)

    else:
        texts = [text for _, text in outputs]
        same_output = len(set(texts)) == 1
        payload = {
            "graph": graph_facts(target),
            "pairs": [ratio_pair(target, outputs[0][0], texts)],
        }

        def in_trial(path):
            return True

    self_sum = sum(agg[2] for agg in first.paths.values()) + first.hook_ns
    checks = [
        ["traced outputs equal the untraced output", same_output, ""],
        ["span and outcome counts repeat at the same seed",
         first.counts() == tracers[1].counts(), ""],
        ["self times plus hook time sum to the root span",
         self_sum == first.wall_ns, f"{self_sum} ns vs {first.wall_ns} ns"],
        [f"root span within {ROOT_CLOCK_TOLERANCE:.0%} of the clock around the call",
         abs(first.wall_ns - external[0]) <= ROOT_CLOCK_TOLERANCE * external[0],
         f"{first.wall_ns} ns vs {external[0]} ns"],
    ]
    checks += _chain_checks(first, workload, target)

    metrics = first.metrics(in_trial)
    traced_wall = statistics.median(t.wall_ns for t in tracers)
    metrics["trace_overhead_frac"] = traced_wall / statistics.median(untraced_walls) - 1.0
    payload.update(
        {
            "metrics": metrics,
            "self_tests": checks,
            "paths": {"/".join(p): agg for p, agg in sorted(first.paths.items())},
        }
    )
    return payload


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(GATE, *RATIO_WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), default="run")
    args = parser.parse_args()

    cfg = setup(args.workload, args.seed)
    print(json.dumps({"ready": True}), flush=True)
    if args.mode == "setup":
        return 0
    if args.mode == "trace":
        result = run_trace(args.workload, cfg, args.seconds)
    elif args.workload == GATE:
        result = run_gate(cfg, args.seconds)
    else:
        result = run_ratio(cfg, args.seconds)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
