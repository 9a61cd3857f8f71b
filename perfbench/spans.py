"""Span tracer that wraps the library's functions from outside the library.

The tracer replaces each traced function, in the namespace of every module
that calls it, with a wrapper that records a span.  Spans are aggregated by
their call path (root name, then each enclosing span name), so nesting and
self time are exact without keeping one record per call:

    self time of a span = its duration - the durations of its child spans

Work the tracer does after a call returns (reading outcome counts from the
result) is timed separately as ``hook_ns`` and charged to no span, so that
``sum(self_ns) + hook_ns == root duration`` holds exactly.

Untraced runs never construct a Tracer, so they call the library unmodified.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter

PACKAGE = "prophet_matching"

# Modules whose global names are patched: every caller of a traced function.
CALLER_MODULES = ("invariants", "harness", "edge_arrival", "vertex_arrival", "truthful")

# Library layers, as "<defining module>.<function>".
LIBRARY_LAYERS = (
    "harness.trial_seed",
    "distributions.draw_realization",
    "adversary.static_order",
    "adversary.make_controller",
    "harness.resolve_order",
    "oracle.greedy_matching",
    "edge_arrival.run_online_edge",
    "vertex_arrival.run_online_vertex",
    "truthful.run_truthful",
    "edge_arrival.run_offline_edge",
    "vertex_arrival.run_offline_vertex",
    "oracle.max_weight_matching",
)

ONLINE_LAYERS = (
    "edge_arrival.run_online_edge",
    "vertex_arrival.run_online_vertex",
    "truthful.run_truthful",
)

# The checks run_invariant_suite calls; the bound matrix gets one span per model.
CHECK_LAYERS = (
    "invariants.check_edge_coupling",
    "invariants.check_vertex_coupling",
    "invariants.check_greedy_two_approx",
    "invariants.competitive_bound_matrix.edge",
    "invariants.competitive_bound_matrix.vertex",
    "invariants.competitive_bound_matrix.truthful",
    "invariants.check_edge_chain",
    "invariants.check_coin_fairness",
    "invariants.check_vertex_chain",
    "invariants.check_truthfulness",
    "invariants.check_maximality",
    "invariants.check_single_edge_point_mass",
    "invariants.check_determinism_roundtrip",
)

LAYERS = LIBRARY_LAYERS + CHECK_LAYERS

OUTCOMES = ("accepted", "price_rejected", "conflict_rejected", "no_feasible_edge")


def _module(name: str):
    return importlib.import_module(f"{PACKAGE}.{name}")


class Tracer:
    """Aggregated span tracer for one workload call.

    ``paths`` maps a call path to ``[calls, total_ns, self_ns]``;
    ``outcomes`` maps the path of an online run to the arrival outcomes its
    returned ``RunRecord.events`` hold; ``draws`` counts drawn values (two
    per edge per ``draw_realization`` call).
    """

    def __init__(self, root: str):
        self.root = root
        self.paths: dict[tuple[str, ...], list[int]] = {}
        self.outcomes: dict[tuple[str, ...], Counter] = {}
        self.draws = 0
        self.hook_ns = 0
        self.wall_ns = 0
        self._stack: list[list] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- span recording ---------------------------------------------------

    def _wrap(self, fn, name, hook=None, suffix_arg=False):
        stack = self._stack
        paths = self.paths
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            span = name + "." + args[0] if suffix_arg else name
            frame = [parent[0] + (span,), 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                duration = t1 - t0
                agg = paths.get(frame[0])
                if agg is None:
                    agg = paths[frame[0]] = [0, 0, 0]
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - frame[1]
                parent[1] += duration
            if hook is not None:
                hook(frame[0], args, result)
                spent = clock() - t1
                self.hook_ns += spent
                parent[1] += spent
            return result

        return wrapper

    def _count_draws(self, path, args, result):
        self.draws += 2 * len(args[0].dists)

    def _count_outcomes(self, path, args, result):
        record = getattr(result, "record", result)  # run_truthful wraps its RunRecord
        tally = self.outcomes.get(path)
        if tally is None:
            tally = self.outcomes[path] = Counter()
        tally.update(event.outcome for event in record.events)

    def _patch(self, original, wrapper):
        for name in CALLER_MODULES:
            module = _module(name)
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def install(self):
        """Replace every traced function in its callers' namespaces."""
        for layer in LIBRARY_LAYERS:
            module_name, fn_name = layer.split(".")
            original = getattr(_module(module_name), fn_name)
            hook = None
            if layer == "distributions.draw_realization":
                hook = self._count_draws
            elif layer in ONLINE_LAYERS:
                hook = self._count_outcomes
            self._patch(original, self._wrap(original, layer, hook))
        invariants = _module("invariants")
        for fn_name in dict.fromkeys(layer.split(".")[1] for layer in CHECK_LAYERS):
            original = getattr(invariants, fn_name)
            # the bound matrix runs once per model: name its span after the model
            per_model = fn_name == "competitive_bound_matrix"
            self._patch(
                original, self._wrap(original, f"invariants.{fn_name}", suffix_arg=per_model)
            )

    def uninstall(self):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def run(self, fn, *args):
        """Call ``fn`` as the root span with every layer traced."""
        self._stack.append([(self.root,), 0])
        self.install()
        try:
            t0 = time.perf_counter_ns()
            result = fn(*args)
            self.wall_ns = time.perf_counter_ns() - t0
        finally:
            self.uninstall()
            root = self._stack.pop()
        self.paths[root[0]] = [1, self.wall_ns, self.wall_ns - root[1]]
        return result

    # -- derived figures ----------------------------------------------------

    def layer(self, name: str, where=lambda path: True) -> list[int]:
        """[calls, total_ns, self_ns] summed over the paths ending in ``name``."""
        out = [0, 0, 0]
        for path, agg in self.paths.items():
            if path[-1] == name and where(path):
                for k in range(3):
                    out[k] += agg[k]
        return out

    def calls(self, path: tuple[str, ...]) -> int:
        agg = self.paths.get((self.root,) + path)
        return agg[0] if agg else 0

    def counts(self) -> dict:
        """Everything that must repeat exactly at the same seed."""
        return {
            "calls": {"/".join(p): agg[0] for p, agg in sorted(self.paths.items())},
            "outcomes": {
                "/".join(p): dict(sorted(c.items())) for p, c in sorted(self.outcomes.items())
            },
            "draws": self.draws,
        }

    def metrics(self, in_trial) -> dict[str, float]:
        """Per-layer metrics; ``in_trial(path)`` selects the paths that belong
        to Monte Carlo trials, which the per-trial ratios are taken over."""
        root_ns = self.wall_ns
        out: dict[str, float] = {}
        for name in LAYERS:
            calls, _, self_ns = self.layer(name)
            out[f"{name}.calls"] = calls
            out[f"{name}.self_us_per_call"] = self_ns / calls / 1e3 if calls else 0.0
            out[f"{name}.self_share"] = self_ns / root_ns
        trials = self.layer("harness.resolve_order", in_trial)[0]
        online = sum(self.layer(name, in_trial)[0] for name in ONLINE_LAYERS)
        oracle = self.layer("oracle.max_weight_matching", in_trial)[0]
        out["online.runs_per_trial"] = online / trials if trials else 0.0
        out["oracle.calls_per_trial"] = oracle / trials if trials else 0.0
        draw_self = self.layer("distributions.draw_realization")[2]
        out["distributions.ns_per_draw"] = draw_self / self.draws if self.draws else 0.0
        # outcome counts of the run that produced each trial's result; the
        # adaptive order's recording run under resolve_order is excluded
        useful = Counter()
        for path, tally in self.outcomes.items():
            if in_trial(path) and "harness.resolve_order" not in path:
                useful.update(tally)
        for outcome in OUTCOMES:
            out[f"outcomes.{outcome}_per_trial"] = useful[outcome] / trials if trials else 0.0
        return out
