"""Correctness checks on a workload's outputs, independent of the random stream.

They hold for any draws, so a declared change of the random stream moves the
fingerprints that run.py reports but fails no check here.  The optimum of a
fixed subsample of trials is recomputed with solvers the library does not
use: scipy's assignment solver for bipartite graphs and networkx's blossom
matching for general graphs.
"""

from __future__ import annotations

import csv
import io
import math

GATE_CHECKS = 134  # verdicts in run_invariant_suite(SuiteConfig.quick())
OPT_REL_TOL = 1e-9  # independent solvers sum the same values in another order


class Checks:
    """Counts checks attempted and keeps a line for each one that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    @property
    def failed(self) -> int:
        return len(self.failures)


def check_gate(checks: Checks, reports: list[dict]):
    """Every verdict passes, there are 134 of them, and repeated calls at the
    same seed give the same report."""
    first = reports[0]
    checks.expect(
        len(first["results"]) == GATE_CHECKS,
        f"gate: {len(first['results'])} checks, want {GATE_CHECKS}",
    )
    for name, _, passed, margin in first["results"]:
        checks.expect(passed, f"gate: {name} failed (margin {margin})")
    for k, report in enumerate(reports[1:], 1):
        checks.expect(
            report["csv_sha256"] == first["csv_sha256"],
            f"gate: call {k} at the same seed gave another report",
        )


def tightest_z(reports: list[dict]) -> dict:
    """The statistical verdict closest to its threshold: the gate's fingerprint."""
    stats = [(m, name) for name, kind, _, m in reports[0]["results"] if kind == "statistical"]
    margin, name = min(stats, key=lambda item: abs(item[0]))
    return {"check": name, "z": margin}


def _independent_opt(graph: dict, values: list[float]) -> float:
    edges = graph["edges"]
    if graph["buyers"]:
        import numpy as np
        from scipy.optimize import linear_sum_assignment

        row = {b: k for k, b in enumerate(graph["buyers"])}
        col = {j: k for k, j in enumerate(graph["items"])}
        weight = np.zeros((len(row), len(col)))
        for (u, v), value in zip(edges, values):
            b, j = (u, v) if u in row else (v, u)
            weight[row[b], col[j]] = value
        rows, cols = linear_sum_assignment(weight, maximize=True)
        return float(weight[rows, cols].sum())
    import networkx as nx

    g = nx.Graph()
    g.add_weighted_edges_from((u, v, value) for (u, v), value in zip(edges, values))
    return float(sum(g[u][v]["weight"] for u, v in nx.max_weight_matching(g)))


def check_ratio(checks: Checks, graph: dict, pairs: list[dict]):
    """Per config: identical CSV bytes across calls, a finite ratio below the
    model's bound, the weight order on every trial, and the optimum of the
    subsampled trials against an independent solver."""
    bound = graph["bound"]
    for pair in pairs:
        tag = f"master seed {pair['master_seed']}"
        texts = pair["csv"]
        checks.expect(len(set(texts)) == 1, f"{tag}: calls at one config gave different CSV")
        ratio = pair["ratio"]
        checks.expect(
            math.isfinite(ratio) and ratio < bound, f"{tag}: ratio {ratio} vs bound {bound:g}"
        )
        rows = {int(row["trial"]): row for row in csv.DictReader(io.StringIO(texts[0]))}
        checks.expect(len(rows) == graph["trials"], f"{tag}: {len(rows)} CSV rows")
        for row in rows.values():
            alg = float(row["matching_weight"])
            checks.expect(
                alg <= float(row["feasible_weight"]),
                f"{tag} trial {row['trial']}: matching weight above feasible weight",
            )
            checks.expect(
                alg <= float(row["opt_weight"]),
                f"{tag} trial {row['trial']}: matching weight above the optimum",
            )
        for trial, values in pair["subsample"]:
            want = _independent_opt(graph, values)
            got = float(rows[trial]["opt_weight"]) if trial in rows else math.nan
            checks.expect(
                math.isclose(got, want, rel_tol=OPT_REL_TOL),
                f"{tag} trial {trial}: optimum {got!r}, independent solver {want!r}",
            )
