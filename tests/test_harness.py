from __future__ import annotations

import hashlib
import json
import math

import numpy as np
import pytest

from prophet_matching.adversary import OrderStrategy, parse_order_spec
from prophet_matching.cli import main
from prophet_matching.core import CapabilityError, InputError
from prophet_matching.distributions import DistSpec, draw_realization
from prophet_matching.harness import (
    ExperimentConfig,
    TrialRow,
    _online_trial,
    estimate_ratio,
    estimate_to_csv,
    estimate_to_json,
    save_results,
    summarize,
    trial_seed,
    trial_seeds,
)
from prophet_matching.instances import (
    complete_bipartite,
    complete_graph,
    instance_from_dict,
    load_instance,
    path_graph,
    save_instance,
    star_graph,
)
from prophet_matching.invariants import random_small_instance


class TestInstanceIO:
    def test_minimal_instance(self, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(
            json.dumps(
                {
                    "kind": "general",
                    "vertices": 2,
                    "edges": [{"u": 0, "v": 1, "dist": {"family": "point_mass", "params": [1]}}],
                }
            )
        )
        spec = load_instance(path)
        assert spec.graph.num_edges == 1
        assert spec.dists[0].family == "point_mass"

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        for k in range(20):
            spec = random_small_instance(rng)
            path = tmp_path / f"inst{k}.json"
            save_instance(spec, path)
            assert load_instance(path) == spec

    def test_bipartite_same_side_edge_is_schema_error(self):
        data = {
            "kind": "bipartite",
            "vertices": 4,
            "buyers": [0, 1],
            "items": [2, 3],
            "edges": [{"u": 0, "v": 1, "dist": {"family": "point_mass", "params": [1]}}],
        }
        with pytest.raises(InputError, match="partition"):
            instance_from_dict(data)

    @pytest.mark.parametrize(
        "mutate,fragment",
        [
            (lambda d: d["edges"][0].pop("dist"), "dist"),
            (lambda d: d["edges"][0]["dist"].update(family="gamma"), "family"),
            (lambda d: d["edges"][0]["dist"].update(params=[1, 2, 3]), "parameter"),
            (lambda d: d.update(vertices=-1), "vertices"),
            (lambda d: d["edges"].append(dict(d["edges"][0])), "duplicate"),
            # JSON true and false parse as Python bools, which are ints
            (lambda d: d.update(vertices=True), "non-negative integer"),
            (lambda d: d["edges"][0].update(u=False, v=True), "u and v"),
            (lambda d: d["edges"][0]["dist"].update(params=[False, True]), "list of numbers"),
            (lambda d: d.update(kind="bipartite", buyers=[False], items=[1]), "buyers"),
            (lambda d: d.update(kind="bipartite", buyers=[0], items=[True]), "items"),
        ],
    )
    def test_schema_diagnostics(self, mutate, fragment):
        data = {
            "kind": "general",
            "vertices": 2,
            "edges": [{"u": 0, "v": 1, "dist": {"family": "uniform", "params": [0, 1]}}],
        }
        mutate(data)
        with pytest.raises(InputError, match=fragment):
            instance_from_dict(data)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(InputError):
            load_instance(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(InputError):
            load_instance(bad)


class TestEstimateRatio:
    def test_point_mass_single_edge_rate_and_ratio(self):
        config = ExperimentConfig(
            instance=star_graph(1, DistSpec.point_mass(1.0)),
            model="edge",
            strategy=OrderStrategy(kind="random"),
            trials=3000,
            master_seed=7,
        )
        estimate = estimate_ratio(config)
        assert abs(estimate.mean_alg - 0.5) < 0.03
        assert estimate.mean_opt == 1.0
        assert abs(estimate.ratio - 2.0) < 0.15

    def test_csv_deterministic_and_savable(self, tmp_path):
        config = ExperimentConfig(
            instance=complete_graph(4, DistSpec.uniform(0, 1)),
            model="edge",
            strategy=OrderStrategy(kind="random"),
            trials=40,
            master_seed=3,
        )
        a = estimate_to_csv(estimate_ratio(config))
        b = estimate_to_csv(estimate_ratio(config))
        assert a == b
        out = tmp_path / "rows.csv"
        save_results(estimate_ratio(config), out, "csv")
        assert out.read_text() == a
        payload = json.loads(estimate_to_json(estimate_ratio(config)))
        assert payload["trials"] == 40
        assert payload["ratio"] > 1.0

    # sha256 of the per-trial CSV, pinned across commits: any change that
    # moves one byte of a row (an online run, an order, the optimum, the
    # vertex safe-matching column) fails here.  Uniform values keep the bytes
    # free of libm differences.  A declared random-stream change updates these.
    @pytest.mark.parametrize(
        "model, graph, order, digest",
        [
            ("edge", "K6", "adaptive:block-best",
             "cd3e3667dacc966ed11bc3bc2efe4b785d516c8b864dc9f7fa61901d8a0e8f6f"),
            ("vertex", "K44", "adaptive:starve-items",
             "553aa320509595abe47d8e600c0c0eaddf5ecd92316e977ebdf3b0ef4efb8a40"),
            ("truthful", "K36", "random",
             "9c2c064b80c87a04e24bd9f52c56442f330437e054659e26cbd0f959be698ea4"),
            # past the matching table's cap: one blossom call per trial
            ("edge", "K12", "random",
             "14d84592d893c6a96ad315dec54e763c8b9b400e26d50e770ab2febe3f26a3e8"),
        ],
    )
    def test_csv_bytes_pinned(self, model, graph, order, digest):
        dist = DistSpec.uniform(0.0, 1.0)
        spec = {
            "K6": complete_graph(6, dist),
            "K44": complete_bipartite(4, 4, dist),
            "K36": complete_bipartite(3, 6, dist),
            "K12": complete_graph(12, dist),
        }[graph]
        config = ExperimentConfig(
            instance=spec,
            model=model,
            strategy=parse_order_spec(order),
            trials=200,
            master_seed=2024,
        )
        text = estimate_to_csv(estimate_ratio(config))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("elements", [1, 1 << 20])
    def test_chunk_size_moves_no_byte(self, monkeypatch, elements):
        # at the default size every config takes two chunks; one trial per
        # chunk and one chunk for every trial must give the same bytes.  The
        # static orders run in the batched kernel, the adaptive one per trial
        from prophet_matching import harness
        from prophet_matching.invariants import check_bound

        dist = DistSpec.uniform(0.0, 1.0)
        configs = [
            ExperimentConfig(complete_bipartite(3, 4, dist), "vertex", parse_order_spec(order),
                             trials=200, master_seed=5)
            for order in ("adaptive:starve-items", "dec")
        ]
        configs.append(
            ExperimentConfig(complete_bipartite(3, 6, dist), "truthful",
                             OrderStrategy(kind="random"), trials=200, master_seed=7)
        )
        bound_args = (
            complete_graph(6, dist), "edge", OrderStrategy(kind="random"), 16.0, 200, 9, "K6"
        )
        for spec in (configs[0].instance, configs[2].instance, bound_args[0]):
            assert spec.graph.matching_table is not None
            assert len(list(harness.trial_chunks(spec, 0, 200))) == 2

        def outputs():
            csvs = [estimate_to_csv(estimate_ratio(config)) for config in configs]
            return csvs, check_bound(*bound_args)

        want = outputs()
        monkeypatch.setattr(harness, "BATCH_ELEMENTS", elements)
        assert outputs() == want

    def test_save_results_rejects_unknown_format(self, tmp_path):
        from prophet_matching.invariants import InvariantResult, SuiteReport

        estimate = estimate_ratio(
            ExperimentConfig(complete_graph(3, DistSpec.uniform(0, 1)), "edge",
                             OrderStrategy(kind="random"), trials=3, master_seed=1)
        )
        report = SuiteReport(results=(InvariantResult("x", "exact", True, 0.5, "fine"),))
        for result in (estimate, report):
            out = tmp_path / "out.xml"
            with pytest.raises(InputError):
                save_results(result, out, "xml")
            assert not out.exists()

    @pytest.mark.parametrize(
        "model,order",
        [
            ("edge", "random"),
            ("edge", "adaptive:block-best"),
            ("vertex", "dec"),
            ("truthful", "random"),
        ],
    )
    def test_weights_are_python_floats(self, model, order):
        # _fmt writes repr(x): a numpy scalar would print as np.float64(...)
        # and silently change the CSV bytes
        spec = complete_bipartite(3, 4, DistSpec.uniform(0, 1))
        strategy = parse_order_spec(order)
        estimate = estimate_ratio(ExperimentConfig(spec, model, strategy, trials=5, master_seed=2))
        for row in estimate.rows:
            weights = [
                row.matching_weight,
                row.opt_weight,
                row.sample_matching_weight,
                row.feasible_weight,
            ]
            if model == "vertex":
                weights.append(row.safe_matching_weight)
            assert all(type(w) is float for w in weights)
        real = draw_realization(spec, 11)
        _, record = _online_trial(strategy, model, spec, real, 11)
        weights = [record.matching.weight, record.sample_matching.weight, record.feasible_weight]
        assert all(type(w) is float for w in weights)
        edge_events = [ev for ev in record.events if ev.edge is not None]
        assert edge_events
        assert all(type(ev.value) is float and type(ev.threshold) is float for ev in edge_events)

    def test_vertex_rows_carry_safe_matching_weight(self):
        config = ExperimentConfig(
            instance=complete_bipartite(2, 2, DistSpec.uniform(0, 1)),
            model="vertex",
            strategy=OrderStrategy(kind="random"),
            trials=10,
            master_seed=3,
        )
        estimate = estimate_ratio(config)
        assert all(r.safe_matching_weight is not None for r in estimate.rows)
        assert all(
            r.matching_weight <= r.safe_matching_weight + 1e-12 for r in estimate.rows
        )

    def test_zero_algorithm_mean_flags_infinite_ratio(self):
        rows = [
            TrialRow(0, 0, 0.0, 1.0, 0.0, 0.0),
            TrialRow(1, 1, 0.0, 3.0, 0.0, 0.0),
        ]
        estimate = summarize(rows)
        assert estimate.ratio_infinite
        assert math.isinf(estimate.ratio)

    def test_empty_graph_means_are_zero_and_flagged_undefined(self):
        config = ExperimentConfig(
            instance=path_graph(1, DistSpec.point_mass(1.0)),
            model="edge",
            strategy=OrderStrategy(kind="random"),
            trials=5,
            master_seed=1,
        )
        estimate = estimate_ratio(config)
        assert estimate.mean_alg == 0.0 and estimate.mean_opt == 0.0
        assert not estimate.ratio_infinite
        assert math.isnan(estimate.ratio)

    def test_model_requires_bipartite(self):
        with pytest.raises(CapabilityError):
            ExperimentConfig(
                instance=complete_graph(4, DistSpec.uniform(0, 1)),
                model="vertex",
                strategy=OrderStrategy(kind="random"),
                trials=5,
                master_seed=1,
            )

    def test_bad_trials(self):
        with pytest.raises(InputError):
            ExperimentConfig(
                instance=complete_graph(3, DistSpec.uniform(0, 1)),
                model="edge",
                strategy=OrderStrategy(kind="random"),
                trials=0,
                master_seed=1,
            )


    @pytest.mark.parametrize("field,value", [("trials", 2.5), ("master_seed", 1.5)])
    def test_non_integer_trials_or_seed_rejected(self, field, value):
        # both used to pass, and estimate_ratio then died with a TypeError
        args = {"trials": 3, "master_seed": 1, field: value}
        with pytest.raises(InputError):
            ExperimentConfig(
                instance=complete_graph(3, DistSpec.uniform(0, 1)),
                model="edge",
                strategy=OrderStrategy(kind="random"),
                **args,
            )

    def test_negative_master_seed(self):
        with pytest.raises(InputError):
            ExperimentConfig(
                instance=complete_graph(3, DistSpec.uniform(0, 1)),
                model="edge",
                strategy=OrderStrategy(kind="random"),
                trials=2,
                master_seed=-1,
            )


class TestTrialSeeds:
    # masters of one to three 32-bit words, at both ends of each width
    MASTERS = (0, 1, 5, 2024, 2**31, 2**32 - 1, 2**32, 2**32 + 1, 2**48 + 7,
               2**62 + 9, 2**63 - 1, 2**63 + 5, 2**64 - 2, 2**64 - 1, 2**64, 2**80 + 3,
               2**96 - 1, 2**96, 2**127 + 11, 2**160 + 1)

    def test_equal_trial_seed_on_10_5_pairs(self):
        trials = 100_000 // len(self.MASTERS)
        for master in self.MASTERS:
            got = trial_seeds(master, trials)
            assert got.dtype == np.uint64 and got.shape == (trials,)
            assert got.tolist() == [trial_seed(master, t) for t in range(trials)], master

    def test_no_trials(self):
        assert trial_seeds(3, 0).tolist() == []

    @pytest.mark.parametrize("master,trials", [(-1, 3), (3, -1)])
    def test_negative_rejected(self, master, trials):
        with pytest.raises(InputError):
            trial_seeds(master, trials)


class TestCli:
    def _gen(self, tmp_path, graph="complete:4", dist="uniform:0,1"):
        out = tmp_path / "inst.json"
        code = main(["gen", "--graph", graph, "--dist", dist, "--out", str(out)])
        assert code == 0
        return out

    def test_gen_then_ratio_csv(self, tmp_path, capsys):
        inst = self._gen(tmp_path)
        out = tmp_path / "rows.csv"
        code = main(
            [
                "ratio", "--instance", str(inst), "--model", "edge",
                "--order", "random", "--trials", "20", "--seed", "1",
                "--out", str(out), "--format", "csv",
            ]
        )
        assert code == 0
        header = out.read_text().splitlines()[0]
        assert header.startswith("trial,seed,matching_weight,opt_weight")

    def test_simulate_prints_trace(self, tmp_path, capsys):
        inst = self._gen(tmp_path, graph="star:3")
        code = main(["simulate", "--instance", str(inst), "--order", "fixed:2,0,1"])
        assert code == 0
        text = capsys.readouterr().out
        assert "arrivals=[2, 0, 1]" in text
        assert "matching weight" in text

    def test_audit_truthful(self, tmp_path, capsys):
        inst = self._gen(tmp_path, graph="bipartite:2,2")
        code = main(["audit-truthful", "--instance", str(inst), "--trials", "25"])
        assert code == 0
        assert "truthful is optimal" in capsys.readouterr().out

    def test_input_error_exit_code(self, tmp_path):
        missing = tmp_path / "none.json"
        assert main(["ratio", "--instance", str(missing), "--trials", "5"]) == 2
        inst = self._gen(tmp_path)
        assert main(["simulate", "--instance", str(inst), "--order", "bogus"]) == 2

    @pytest.mark.parametrize(
        "args",
        [
            ["ratio", "--trials", "3", "--seed", "-1"],
            ["simulate", "--seed", "-1"],
            ["audit-truthful", "--trials", "3", "--seed", "-1"],
        ],
        ids=lambda args: args[0],
    )
    def test_negative_seed_is_an_input_error(self, tmp_path, args):
        inst = self._gen(tmp_path, graph="bipartite:2,2")
        assert main([args[0], "--instance", str(inst), *args[1:]]) == 2

    def test_verify_negative_seed_is_an_input_error(self):
        assert main(["verify", "--quick", "--seed", "-5"]) == 2

    def test_capability_error_exit_code(self, tmp_path):
        inst = self._gen(tmp_path, graph="complete:6")
        code = main(["ratio", "--instance", str(inst), "--model", "vertex", "--trials", "2"])
        assert code == 3

    def test_ratio_on_large_general_graph(self, tmp_path, capsys):
        inst = self._gen(tmp_path, graph="complete:30")
        capsys.readouterr()
        code = main(
            ["ratio", "--instance", str(inst), "--model", "edge", "--trials", "3",
             "--format", "json"]
        )
        assert code == 0
        assert math.isfinite(json.loads(capsys.readouterr().out)["ratio"])

    def test_verify_exit_codes_with_stub(self, tmp_path, monkeypatch, capsys):
        from prophet_matching import cli
        from prophet_matching.invariants import InvariantResult, SuiteReport

        good = SuiteReport(
            results=(InvariantResult("stub", "exact", True, 1.0, "ok"),)
        )
        bad = SuiteReport(
            results=(InvariantResult("stub", "exact", False, -1.0, "broken"),)
        )
        monkeypatch.setattr(cli, "run_invariant_suite", lambda cfg: good)
        assert main(["verify", "--quick"]) == 0
        monkeypatch.setattr(cli, "run_invariant_suite", lambda cfg: bad)
        assert main(["verify", "--quick"]) == 1
        out = tmp_path / "report.json"
        monkeypatch.setattr(cli, "run_invariant_suite", lambda cfg: good)
        assert main(["verify", "--quick", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["passed"] is True


class TestInvariantSuitePlumbing:
    def test_micro_suite_runs_and_passes(self):
        from prophet_matching.invariants import SuiteConfig, report_to_csv, run_invariant_suite

        config = SuiteConfig(
            coupling_instances=25,
            bound_trials=40,
            chain_trials=60,
            greedy_instances=15,
            audit_instances=3,
            audit_misreports=10,
            maximality_runs=20,
            point_mass_trials=400,
            chain_dists=("uniform", "pareto", "bernoulli"),
        )
        report = run_invariant_suite(config)
        # every margin and detail, pinned from the per-trial loops the
        # batched checks replaced: batching must not move one byte
        digest = hashlib.sha256(report_to_csv(report).encode()).hexdigest()
        assert digest == "a5c15c208dea8be925c2437c6bcb42b9fb27f789a7a432c53c922a71b3c86500"
        names = [r.name for r in report.results]
        assert any(n == "edge_coupling" for n in names)
        assert any(n.startswith("bound[truthful") for n in names)
        # exact checks must hold even at micro scale
        for r in report.results:
            if r.kind == "exact":
                assert r.passed, r

    @pytest.mark.parametrize(
        "check, matches",
        [
            ("check_edge_coupling", "10/10 exact matches, 0 matching-validity failures"),
            ("check_vertex_coupling", "10/10 exact matches, 0 structural failures"),
            ("check_maximality", "0 non-maximal outcomes over 10 runs"),
        ],
        ids=["edge_coupling", "vertex_coupling", "maximality"],
    )
    def test_kernel_mismatch_is_named_apart(self, monkeypatch, check, matches):
        # a batched kernel that disagrees with the per-trial runs fails the
        # check, and the detail blames the kernel, not the twin or the mechanism
        from prophet_matching import invariants

        monkeypatch.setattr(invariants, "_kernel_agrees", lambda *args: False)
        result = getattr(invariants, check)(10)
        assert not result.passed
        assert result.detail == f"{matches}, 10 batched-kernel mismatches"

    @pytest.mark.parametrize(
        "field,value",
        [
            ("seed", 1.5),
            ("seed", -1),
            ("bound_trials", -2),
            ("bound_trials", 0),
            ("point_mass_trials", 0),
            ("chain_trials", "10"),
            ("audit_misreports", 2.0),
            ("chain_dists", ("gauss",)),
        ],
    )
    def test_suite_config_rejects_bad_values(self, field, value):
        from prophet_matching.invariants import SuiteConfig

        with pytest.raises(InputError):
            SuiteConfig(**{field: value})

    def test_suite_config_takes_integer_likes(self):
        from prophet_matching.invariants import SuiteConfig

        config = SuiteConfig(seed=np.uint64(0), bound_trials=np.int64(3))
        assert type(config.seed) is int and type(config.bound_trials) is int

    def test_report_serialization(self):
        from prophet_matching.invariants import (
            InvariantResult,
            SuiteReport,
            report_to_csv,
            report_to_json,
        )

        report = SuiteReport(
            results=(InvariantResult("x", "exact", True, 0.5, "fine"),)
        )
        assert "name,kind,passed" in report_to_csv(report)
        assert json.loads(report_to_json(report))["passed"] is True
