"""What the benchmark reads of the library; keep it real.

``perfbench/spans.py`` lists the traced layers as ``"<module>.<function>"``
(check layers of the bound matrix carry the model as a third part) and
patches each function in the namespaces of its calling modules.
``perfbench/worker.py`` reads the real values of drawn realizations and
expects one greedy price matching inside each online run, and one order
resolution per trial of the bound matrix.  A refactor that
breaks any of this should fail here, not in a benchmark run.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

from prophet_matching import (
    DistSpec,
    ExperimentConfig,
    OrderStrategy,
    complete_bipartite,
    complete_graph,
    draw_realization,
)
from prophet_matching.adversary import parse_order_spec
from prophet_matching.harness import MODELS, estimate_ratio
from prophet_matching import invariants

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _spans()


@pytest.mark.parametrize("layer", SPANS.LIBRARY_LAYERS + SPANS.CHECK_LAYERS)
def test_traced_layer_resolves(layer):
    module_name, fn_name, *suffix = layer.split(".")
    fn = getattr(importlib.import_module(f"prophet_matching.{module_name}"), fn_name, None)
    assert callable(fn), f"{layer} names no function of prophet_matching"
    assert suffix in ([], *([m] for m in MODELS))
    # the tracer patches the function where it is called from
    callers = [importlib.import_module(f"prophet_matching.{m}") for m in SPANS.CALLER_MODULES]
    assert any(fn in vars(c).values() for c in callers), f"no caller module binds {layer}"


def test_drawn_reals_carry_float_values():
    real = draw_realization(complete_bipartite(2, 3, DistSpec.uniform(0.0, 1.0)), 1)
    assert len(real.reals) == 6
    assert all(type(d.value) is float for d in real.reals)


@pytest.mark.parametrize(
    "order,spec",
    [
        # the ratio workloads' graphs are past the table's cap, where a
        # random order runs each trial alone, as here
        ("random", complete_bipartite(5, 6, DistSpec.uniform(0.0, 1.0))),
        ("adaptive:starve-items", complete_bipartite(2, 3, DistSpec.uniform(0.0, 1.0))),
    ],
    ids=["random", "adaptive:starve-items"],
)
def test_traced_ratio_runs_one_greedy_inside_each_online_run(order, spec):
    config = ExperimentConfig(
        instance=spec,
        model="vertex",
        strategy=parse_order_spec(order),
        trials=7,
        master_seed=3,
    )
    tracer = SPANS.Tracer("test")
    tracer.run(estimate_ratio, config)
    online = "vertex_arrival.run_online_vertex"
    greedy = {
        path: agg[0] for path, agg in tracer.paths.items() if path[-1] == "oracle.greedy_matching"
    }
    assert greedy and all(path[-2] == online for path in greedy)
    assert sum(greedy.values()) == tracer.layer(online)[0] == config.trials


@pytest.mark.parametrize(
    "model,spec",
    [
        ("edge", complete_graph(10, DistSpec.uniform(0.0, 1.0))),
        ("vertex", complete_bipartite(5, 6, DistSpec.uniform(0.0, 1.0))),
    ],
    ids=["edge-K10", "vertex-K5,6"],
)
def test_traced_ratio_solves_each_trial_once_past_the_table_cap(model, spec):
    # the ratio workloads' trace self-test (perfbench/worker.py, _chain_checks)
    # counts these spans directly under the call: one exact solve and one
    # static order per trial.  Past the table's cap the solve is one
    # max_weight_matching call per trial, bound where the tracer patches it
    assert spec.graph.matching_table is None
    config = ExperimentConfig(spec, model, OrderStrategy(kind="random"), trials=7, master_seed=3)
    tracer = SPANS.Tracer("test")
    tracer.run(estimate_ratio, config)
    assert tracer.calls(("oracle.max_weight_matching",)) == config.trials
    assert tracer.calls(("harness.resolve_order", "adversary.static_order")) == config.trials


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("order", ["random", "dec", "inc", "fixed"])
def test_traced_static_order_on_a_table_graph_runs_no_online_span(model, order):
    # a static order on a graph with a matching table runs each chunk in the
    # batched kernel: every trial still resolves its order once, and no
    # per-trial online run, greedy matching or exact solve is traced
    spec = complete_bipartite(2, 3, DistSpec.uniform(0.0, 1.0))
    assert spec.graph.matching_table is not None
    ids = range(spec.graph.num_edges) if model == "edge" else spec.graph.buyers
    strategy = parse_order_spec(order if order != "fixed" else f"fixed:{','.join(map(str, ids))}")
    config = ExperimentConfig(spec, model, strategy, trials=7, master_seed=3)
    tracer = SPANS.Tracer("test")
    tracer.run(estimate_ratio, config)
    assert tracer.calls(("harness.resolve_order", "adversary.static_order")) == config.trials
    assert tracer.calls(("harness.resolve_order",)) == config.trials
    traced = {layer for path in tracer.paths for layer in path[1:]}
    assert traced == {"harness.resolve_order", "adversary.static_order"}


def test_traced_bound_matrix_resolves_each_trial_once(monkeypatch):
    # the gate's trace self-test (perfbench/worker.py, _chain_checks) counts
    # these spans under each model's bound matrix: one order resolution per
    # trial, and the online algorithm, with its one greedy price matching,
    # run under it only for the adaptive order
    families = {"K22": complete_bipartite(2, 2, DistSpec.uniform(0.0, 1.0))}
    monkeypatch.setattr(invariants, "edge_families", lambda dist: families)
    monkeypatch.setattr(invariants, "bipartite_families", lambda dist: families)
    trials = 6
    for model in MODELS:
        tracer = SPANS.Tracer("test")
        # looked up when called, so that the call is the tracer's wrapper
        tracer.run(lambda: invariants.competitive_bound_matrix(model, trials, 4))
        matrix = (f"invariants.competitive_bound_matrix.{model}", "harness.resolve_order")
        per_order = len(invariants.DIST_FAMILIES) * len(families) * trials
        orders = invariants.EDGE_ORDERS if model == "edge" else invariants.BUYER_ORDERS
        online = dict(zip(MODELS, SPANS.ONLINE_LAYERS))[model]
        assert tracer.calls(matrix) == len(orders) * per_order
        assert tracer.calls(matrix + (online,)) == per_order
        assert tracer.calls(matrix + (online, "oracle.greedy_matching")) == per_order
