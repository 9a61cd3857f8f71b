"""Command-line interface.

Subcommands: simulate (one traced run), ratio (Monte Carlo competitive-ratio
estimate), verify (invariant suite), audit-truthful (misreport audits), gen
(instance generator).  Exit codes: 0 pass, 1 invariant failure, 2 input
error, 3 capability error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .adversary import parse_order_spec
from .core import CapabilityError, InputError
from .distributions import draw_realization
from .harness import (
    ExperimentConfig,
    _online_trial,
    estimate_ratio,
    estimate_to_csv,
    estimate_to_json,
    resolve_order,
    save_results,
    trial_seed,
)
from .instances import load_instance, parse_dist_spec, parse_graph_spec, save_instance
from .invariants import SuiteConfig, run_invariant_suite
from .truthful import misreport_audit

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_INPUT = 2
EXIT_CAPABILITY = 3


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--instance", required=True, help="instance JSON file")
    parser.add_argument(
        "--model", choices=("edge", "vertex", "truthful"), default="edge"
    )
    parser.add_argument(
        "--order",
        default="random",
        help="fixed:ids | random | inc | dec | adaptive:<policy>",
    )
    parser.add_argument("--seed", type=int, default=0)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prophet-matching",
        description="Single-sample posted-price matching simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one seeded trial and print the trace")
    _add_common(p)

    p = sub.add_parser("ratio", help="Monte Carlo competitive-ratio estimate")
    _add_common(p)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--out", default=None, help="write results to this path")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("verify", help="run the invariant suite")
    p.add_argument("--quick", action="store_true", help="reduced trial counts")
    p.add_argument("--seed", type=int, default=SuiteConfig.seed)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="json")

    p = sub.add_parser("audit-truthful", help="misreport audits on an instance")
    _add_common(p)
    p.add_argument("--trials", type=int, default=200, help="misreports per buyer")

    p = sub.add_parser("gen", help="generate an instance file")
    p.add_argument(
        "--graph",
        required=True,
        help="complete:n | bipartite:a,b | gnp:n,p | star:k | path:n",
    )
    p.add_argument("--dist", required=True, help="family:params, e.g. uniform:0,1")
    p.add_argument("--seed", type=int, default=0, help="topology seed for gnp")
    p.add_argument("--out", required=True)
    return parser


def _cmd_simulate(args) -> int:
    spec = load_instance(args.instance)
    strategy = parse_order_spec(args.order)
    seed = trial_seed(args.seed, 0)
    real = draw_realization(spec, seed)
    order, record = _online_trial(strategy, args.model, spec, real, seed)
    print(f"model={args.model} seed={args.seed} arrivals={order}")
    for ev in record.events:
        extra = ""
        if ev.edge is not None:
            extra = f" edge={ev.edge} value={ev.value:.6g} threshold={ev.threshold:.6g}"
        print(f"  step {ev.step}: element {ev.element} -> {ev.outcome}{extra}")
    print(
        f"matching weight={record.matching.weight:.6g} "
        f"edges={sorted(record.matching.edges)}"
    )
    print(
        f"sample matching weight={record.sample_matching.weight:.6g} "
        f"feasible weight={record.feasible_weight:.6g}"
    )
    return EXIT_OK


def _cmd_ratio(args) -> int:
    spec = load_instance(args.instance)
    config = ExperimentConfig(
        instance=spec,
        model=args.model,
        strategy=parse_order_spec(args.order),
        trials=args.trials,
        master_seed=args.seed,
    )
    estimate = estimate_ratio(config)
    if args.out:
        save_results(estimate, args.out, args.format)
        ratio = "inf" if estimate.ratio_infinite else f"{estimate.ratio:.4f}"
        print(
            f"wrote {args.format} to {args.out}; trials={estimate.trials} "
            f"mean_alg={estimate.mean_alg:.6g} (se {estimate.se_alg:.3g}) "
            f"mean_opt={estimate.mean_opt:.6g} (se {estimate.se_opt:.3g}) ratio={ratio}"
        )
    elif args.format == "csv":
        sys.stdout.write(estimate_to_csv(estimate))
    else:
        sys.stdout.write(estimate_to_json(estimate))
    return EXIT_OK


def _cmd_verify(args) -> int:
    config = replace(SuiteConfig.quick() if args.quick else SuiteConfig(), seed=args.seed)
    report = run_invariant_suite(config)
    for r in report.results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name}: {r.detail}")
    print(f"{'all invariants hold' if report.passed else 'INVARIANT FAILURE'}")
    if args.out:
        save_results(report, args.out, args.format)
    return EXIT_OK if report.passed else EXIT_INVARIANT


def _cmd_audit(args) -> int:
    spec = load_instance(args.instance)
    if spec.graph.kind != "bipartite":
        raise CapabilityError("audit-truthful requires a bipartite instance")
    strategy = parse_order_spec(args.order)
    seed = trial_seed(args.seed, 0)
    real = draw_realization(spec, seed)
    order, _ = resolve_order(strategy, "truthful", spec, real, seed=seed)
    failures = 0
    for buyer in spec.graph.buyers:
        ok = misreport_audit(spec, real, order, buyer, args.trials, seed=args.seed)
        print(f"buyer {buyer}: {'truthful is optimal' if ok else 'PROFITABLE MISREPORT'}")
        if not ok:
            failures += 1
    return EXIT_OK if failures == 0 else EXIT_INVARIANT


def _cmd_gen(args) -> int:
    dist = parse_dist_spec(args.dist)
    spec = parse_graph_spec(args.graph, dist, seed=args.seed)
    save_instance(spec, args.out)
    print(
        f"wrote {args.out}: {spec.graph.kind} graph, "
        f"{spec.graph.num_vertices} vertices, {spec.graph.num_edges} edges"
    )
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "ratio": _cmd_ratio,
        "verify": _cmd_verify,
        "audit-truthful": _cmd_audit,
        "gen": _cmd_gen,
    }
    try:
        return handlers[args.command](args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CapabilityError as exc:
        print(f"capability error: {exc}", file=sys.stderr)
        return EXIT_CAPABILITY


if __name__ == "__main__":
    sys.exit(main())
