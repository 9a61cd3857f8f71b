"""Monte Carlo experiment runner: competitive-ratio estimation and persistence.

Each trial derives its own seed from the master seed and the trial index, so
results are reproducible bit-for-bit and independent of execution order.
``trial_batches`` is the one trial path: it draws, runs and solves a
config's trials a chunk at a time, for ``estimate_ratio`` and for the
invariant suite's bound checks alike.  The reported ratio is the ratio of means
(expected optimum over expected online weight); the mean of per-trial ratios
is kept only as a diagnostic.
"""

from __future__ import annotations

import csv
import io
import json
import math
import operator
from dataclasses import dataclass, field
from itertools import count
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .adversary import OrderStrategy, make_controller, static_order
from .core import CapabilityError, Graph, InputError, Realization, RunRecord
from .distributions import InstanceSpec, draw_batch
from .edge_arrival import _static_batch, run_online_edge
from .oracle import _table_weights, max_weight_matching
from .truthful import run_truthful
from .vertex_arrival import build_safe_matching, run_online_vertex

MODELS = ("edge", "vertex", "truthful")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: an instance, a model, an order strategy, and trials."""

    instance: InstanceSpec
    model: str
    strategy: OrderStrategy
    trials: int
    master_seed: int = 0

    def __post_init__(self):
        if self.model not in MODELS:
            raise InputError(f"unknown model {self.model!r}")
        for name in ("trials", "master_seed"):
            try:
                object.__setattr__(self, name, operator.index(getattr(self, name)))
            except TypeError:
                raise InputError(f"{name} must be an integer") from None
        if self.trials < 1:
            raise InputError("trials must be at least 1")
        if self.master_seed < 0:
            raise InputError("master_seed must be a non-negative integer")
        if self.model in ("vertex", "truthful") and self.instance.graph.kind != "bipartite":
            raise CapabilityError(f"model {self.model!r} requires a bipartite instance")


@dataclass(frozen=True)
class TrialRow:
    """Per-trial measurements; optional columns stay None where not applicable."""

    trial: int
    seed: int
    matching_weight: float
    opt_weight: float
    sample_matching_weight: float
    feasible_weight: float
    safe_matching_weight: float | None = None


@dataclass(frozen=True)
class RatioEstimate:
    """Summary of an estimate_ratio run.

    ``ratio`` is mean_opt / mean_alg; when the algorithm mean is zero but the
    optimum is not, the ratio is reported as infinity and flagged.
    """

    mean_alg: float
    mean_opt: float
    ratio: float
    se_alg: float
    se_opt: float
    trials: int
    ratio_infinite: bool = False
    mean_of_ratios: float | None = None
    rows: tuple[TrialRow, ...] = field(default=(), repr=False)


def trial_seed(master_seed: int, trial: int) -> int:
    """Per-trial realization seed derived from the master seed."""
    if master_seed < 0 or trial < 0:
        raise InputError("seeds and trial indices must be non-negative integers")
    return int(np.random.SeedSequence([master_seed, trial]).generate_state(1, np.uint64)[0])


# numpy's SeedSequence constants: a pool of four 32-bit words, two hash
# multipliers and the mixing multipliers
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def trial_seeds(master_seed: int, trials: int) -> np.ndarray:
    """``trial_seed(master_seed, t)`` for t = 0 .. trials-1, as a uint64 array.

    This is ``SeedSequence([master_seed, t]).generate_state(1, np.uint64)``
    with the mixing done over every t at once, in uint32 arrays that wrap as
    numpy's own 32-bit arithmetic does.  The entropy is the master seed's
    32-bit words, low first, then t's one word.
    """
    if master_seed < 0 or trials < 0:
        raise InputError("seeds and trial indices must be non-negative integers")
    if trials > 2**32:  # each trial index must be a single 32-bit word
        raise InputError("at most 2**32 trials")
    words, rest = [], master_seed
    while True:
        words.append(rest & _MASK32)
        rest >>= 32
        if not rest:
            break
    entropy = [np.full(trials, w, dtype=np.uint32) for w in words]
    entropy.append(np.arange(trials, dtype=np.uint32))
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value *= np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> np.uint32(16))

    zero = np.zeros(trials, dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    # generate_state: two 32-bit words, low then high, of one uint64
    hash_const = _INIT_B
    state = []
    for value in pool[:2]:
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value *= np.uint32(hash_const)
        state.append((value ^ (value >> np.uint32(16))).astype(np.uint64))
    return state[0] | state[1] << np.uint64(32)


def _run_online(model: str, spec: InstanceSpec, real, order) -> RunRecord:
    """The model's online algorithm on one realization and order or controller."""
    if model == "edge":
        return run_online_edge(spec, real, order)
    if model == "vertex":
        return run_online_vertex(spec, real, order)
    return run_truthful(spec, real, order).record


def resolve_order(
    strategy: OrderStrategy,
    model: str,
    spec: InstanceSpec,
    real,
    seed: int = 0,
) -> tuple[list[int], RunRecord | None]:
    """Materialize any strategy into the concrete arrival order for one run.

    Non-adaptive strategies are computed directly and come with no record.
    Adaptive strategies are resolved by driving the model's online algorithm
    with the policy; the order is read from that run's events, and its
    record comes with the order.  The policy reacts only to observable state,
    so replaying the recorded order reproduces the record exactly.
    """
    if strategy.kind != "adaptive":
        return static_order(strategy, spec.graph, real, model, seed), None
    controller = make_controller(strategy, spec.graph, real, model)
    record = _run_online(model, spec, real, controller)
    return [ev.element for ev in record.events], record


def _online_trial(
    strategy: OrderStrategy, model: str, spec: InstanceSpec, real, seed: int
) -> tuple[list[int], RunRecord]:
    """The arrival order and the online record of one trial, each computed once."""
    order, record = resolve_order(strategy, model, spec, real, seed=seed)
    if record is None:
        record = _run_online(model, spec, real, order)
    return order, record


def _mean_se(xs: np.ndarray) -> tuple[float, float]:
    mean = float(xs.mean()) if len(xs) else 0.0
    if len(xs) < 2:
        return mean, 0.0
    return mean, float(xs.std(ddof=1) / math.sqrt(len(xs)))


def summarize(rows: list[TrialRow]) -> RatioEstimate:
    alg = np.array([r.matching_weight for r in rows])
    opt = np.array([r.opt_weight for r in rows])
    mean_alg, se_alg = _mean_se(alg)
    mean_opt, se_opt = _mean_se(opt)
    infinite = mean_alg == 0.0 and mean_opt > 0.0
    if infinite:
        ratio = math.inf
    elif mean_alg == 0.0:
        ratio = math.nan
    else:
        ratio = mean_opt / mean_alg
    positive = alg > 0
    mean_of_ratios = float((opt[positive] / alg[positive]).mean()) if positive.any() else None
    return RatioEstimate(
        mean_alg=mean_alg,
        mean_opt=mean_opt,
        ratio=ratio,
        se_alg=se_alg,
        se_opt=se_opt,
        trials=len(rows),
        ratio_infinite=infinite,
        mean_of_ratios=mean_of_ratios,
        rows=tuple(rows),
    )


# Trials are drawn, run and solved a chunk at a time, with at most this many
# draws per chunk: trials times 2m, and at least one trial.  The gate's
# graphs (m = 8 to 18) get 113 to 256 trials per chunk, where the batched
# static-order kernel costs 2 to 7 us per trial, against 15 to 31 us at 16
# trials.  On the quick suite, 2,048 to 16,384 draws per chunk take the same
# time within noise and 1,024 is about a third slower; each doubling adds
# about 1 MB of peak memory (2-core Xeon, Python 3.11, numpy 2.4).
# ratio-edge-K20 gets 10 trials per chunk and ratio-vertex-K50x50 one.
BATCH_ELEMENTS = 1 << 12


class TrialChunk(NamedTuple):
    """Trials ``start`` .. ``start + len(seeds) - 1``: their seeds, and the
    (trials, 2m) value and rank arrays their realizations are built from."""

    start: int
    seeds: list[int]
    values: np.ndarray
    rank: np.ndarray
    reals: list[Realization]


def trial_chunks(spec: InstanceSpec, master_seed: int, trials: int):
    """Trials 0 .. trials-1 as ``TrialChunk``s.

    Trial t's seed is ``trial_seed(master_seed, t)`` and its realization the
    one ``draw_realization`` gives at that seed.
    """
    size = max(1, BATCH_ELEMENTS // max(1, 2 * spec.graph.num_edges))
    seeds = trial_seeds(master_seed, trials)
    for start in range(0, trials, size):
        chunk = seeds[start : start + size]
        yield TrialChunk(start, chunk.tolist(), *draw_batch(spec, chunk))


def max_matching_weights(graph: Graph, values: np.ndarray) -> np.ndarray:
    """The maximum matching weight under each row of a (rows, m) value array.

    Each weight is the one ``max_weight_matching`` gives for that row.  A
    graph with a matching table is solved for all rows at once, in memory
    proportional to rows times its matchings; any other is solved row by row.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or values.shape[1] != graph.num_edges:
        raise InputError(f"need rows of {graph.num_edges} edge values, got shape {values.shape}")
    table = graph.matching_table
    if table is None:
        return np.array([max_weight_matching(graph, row).weight for row in values.tolist()])
    return _table_weights(table, values).max(axis=1)


def _chunk_columns(config: ExperimentConfig, chunk: TrialChunk):
    """The alg, sample-matching, feasible and safe weights of a chunk's trials.

    A static order on a graph with a matching table runs the whole chunk in
    ``_static_batch``; any other trial runs alone.  Either way each trial's
    order comes from one ``resolve_order`` call.
    """
    spec, model, strategy = config.instance, config.model, config.strategy
    trials = zip(chunk.seeds, chunk.reals)
    if strategy.kind != "adaptive" and spec.graph.matching_table is not None:
        orders = [resolve_order(strategy, model, spec, real, seed)[0] for seed, real in trials]
        orders = np.array(orders, dtype=np.intp).reshape(len(orders), -1)
        runs = _static_batch(model, spec.graph, chunk.values, chunk.rank, orders)
        safe = runs.safe_weight.tolist() if model == "vertex" else [None] * len(orders)
        return zip(
            runs.matching_weight.tolist(),
            runs.sample_matching_weight.tolist(),
            runs.feasible_weight.tolist(),
            safe,
        )
    columns = []
    for seed, real in trials:
        _, record = _online_trial(strategy, model, spec, real, seed)
        safe = None
        if model == "vertex":
            safe = build_safe_matching(spec.graph, record.feasible, real).weight
        columns.append(
            (record.matching.weight, record.sample_matching.weight, record.feasible_weight, safe)
        )
    return columns


def trial_batches(config: ExperimentConfig):
    """The config's trials a chunk at a time: (``TrialChunk``, rows) per chunk.

    Each row measures one seeded trial: its online run, the vertex model's
    safe matching taken from that run's feasible set, and the exact optimum
    of its real values, solved for the whole chunk at once.
    """
    m = config.instance.graph.num_edges
    for chunk in trial_chunks(config.instance, config.master_seed, config.trials):
        opts = max_matching_weights(config.instance.graph, chunk.values[:, m:]).tolist()
        columns = _chunk_columns(config, chunk)
        rows = [
            TrialRow(
                trial=t,
                seed=seed,
                matching_weight=alg,
                opt_weight=opt,
                sample_matching_weight=sample,
                feasible_weight=feasible,
                safe_matching_weight=safe,
            )
            for t, seed, opt, (alg, sample, feasible, safe) in zip(
                count(chunk.start), chunk.seeds, opts, columns
            )
        ]
        yield chunk, rows


def estimate_ratio(config: ExperimentConfig) -> RatioEstimate:
    """Estimate the competitive ratio over seeded independent trials.

    Deterministic given the config; trials are aggregated in index order so
    the output does not depend on how they were scheduled.
    """
    return summarize([row for _, rows in trial_batches(config) for row in rows])


# ---------------------------------------------------------------------------
# persistence

_CSV_COLUMNS = (
    "trial",
    "seed",
    "matching_weight",
    "opt_weight",
    "sample_matching_weight",
    "feasible_weight",
    "safe_matching_weight",
)


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return repr(x)
    return str(x)


def estimate_to_csv(estimate: RatioEstimate) -> str:
    """Render per-trial rows as CSV; byte-identical for identical configs."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for r in estimate.rows:
        writer.writerow(
            [
                r.trial,
                r.seed,
                _fmt(r.matching_weight),
                _fmt(r.opt_weight),
                _fmt(r.sample_matching_weight),
                _fmt(r.feasible_weight),
                _fmt(r.safe_matching_weight),
            ]
        )
    return buf.getvalue()


def estimate_to_json(estimate: RatioEstimate) -> str:
    data = {
        "trials": estimate.trials,
        "mean_alg": estimate.mean_alg,
        "se_alg": estimate.se_alg,
        "mean_opt": estimate.mean_opt,
        "se_opt": estimate.se_opt,
        "ratio": "inf" if estimate.ratio_infinite else estimate.ratio,
        "ratio_infinite": estimate.ratio_infinite,
        "mean_of_ratios": estimate.mean_of_ratios,
    }
    if isinstance(data["ratio"], float) and math.isnan(data["ratio"]):
        data["ratio"] = None
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def save_results(result, path: str | Path, fmt: str = "csv"):
    """Write a RatioEstimate or an invariant-suite report to disk."""
    from .invariants import SuiteReport, report_to_csv, report_to_json

    if fmt not in ("csv", "json"):
        raise InputError(f"unknown format {fmt!r}; use csv or json")
    if isinstance(result, RatioEstimate):
        text = estimate_to_csv(result) if fmt == "csv" else estimate_to_json(result)
    elif isinstance(result, SuiteReport):
        text = report_to_csv(result) if fmt == "csv" else report_to_json(result)
    else:
        raise InputError(f"cannot save object of type {type(result).__name__}")
    Path(path).write_text(text)
