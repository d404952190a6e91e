"""Command-line behavior: outputs, exit codes, determinism."""

import contextlib
import copy
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

REPO = Path(__file__).resolve().parent.parent
# Child interpreters import ranksel from this checkout, installed or not.
SRC_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    p for p in (str(REPO / "src"), os.environ.get("PYTHONPATH")) if p))


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "ranksel.cli", *args],
        capture_output=True,
        text=True,
        env=SRC_ENV,
        **kwargs,
    )


def small_config(tmp_path, out_name="out.csv", seed=11, reps=24):
    config = {
        "scenario": {
            "k": 3,
            "prior_means": [0.0, 0.0, 0.0],
            "prior_stds": [1.0, 1.0, 1.0],
            "sampling_stds": [1.0, 1.0, 1.0],
            "T": 21,
            "n0": 3,
            "macro_reps": reps,
            "master_seed": seed,
            "variance_mode": "plugin_refresh",
        },
        "policies": ["ea", "aoap"],
        "output": {"path": str(tmp_path / out_name), "downsample": 1},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


# Ten alternatives at T = 120, n0 = 10: 20 samples follow the warmup.
TEN_ALTERNATIVES = {"k": 10, "prior_means": [0.0] * 10, "prior_stds": [1.0] * 10,
                    "sampling_stds": [1.0] * 10, "T": 120, "n0": 10}


class TestHelp:
    def test_top_level_help(self):
        res = run_cli("--help")
        assert res.returncode == 0
        for sub in ("run-experiment", "fit-vfa", "solve-exact",
                    "optimal-ratios", "state-space-size"):
            assert sub in res.stdout

    def test_subcommand_help(self):
        res = run_cli("run-experiment", "--help")
        assert res.returncode == 0
        assert "--config" in res.stdout and "--workers" in res.stdout


class TestRunExperiment:
    def test_missing_config_exits_io(self, tmp_path):
        missing = tmp_path / "absent.json"
        res = run_cli("run-experiment", "--config", str(missing), "--out", "x.csv")
        assert res.returncode == 4
        assert "absent.json" in res.stderr

    def test_small_run_row_count(self, tmp_path):
        config = small_config(tmp_path)
        out = tmp_path / "res.csv"
        res = run_cli("run-experiment", "--config", str(config), "--out", str(out))
        assert res.returncode == 0, res.stderr
        lines = out.read_text().splitlines()
        assert lines[0] == "policy,t,ipcs,stderr,macro_reps"
        assert len(lines) == 1 + 2 * (21 - 9 + 1)

    def test_unwritable_output_exits_io(self, tmp_path):
        config = small_config(tmp_path)
        res = run_cli(
            "run-experiment", "--config", str(config),
            "--out", str(tmp_path / "no_dir" / "x.csv"),
        )
        assert res.returncode == 4

    def test_byte_identical_across_runs_and_workers(self, tmp_path):
        config = small_config(tmp_path)
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        assert run_cli("run-experiment", "--config", str(config), "--out", str(out1),
                       "--workers", "1").returncode == 0
        assert run_cli("run-experiment", "--config", str(config), "--out", str(out2),
                       "--workers", "4").returncode == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_two_workers_match_one_across_blocks(self, tmp_path):
        """8,200 replications make three 4,096-row blocks, so two threads seed and draw
        blocks at the same time."""
        from ranksel import cli

        config = small_config(tmp_path, reps=8200)
        outs = [tmp_path / "w1.csv", tmp_path / "w2.csv"]
        for out, workers in zip(outs, ("1", "2")):
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["run-experiment", "--config", str(config), "--out", str(out),
                                 "--workers", workers]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_first_scipy_import_in_worker_threads(self, tmp_path):
        """kg loads scipy.special on first use.  In a fresh interpreter that first
        import happens on the worker threads, so the CSV must still match one worker's."""
        config = json.loads(small_config(tmp_path, reps=8200).read_text())
        config["policies"] = ["kg"]
        path = tmp_path / "kg.json"
        path.write_text(json.dumps(config))
        outs = [tmp_path / "w1.csv", tmp_path / "w2.csv"]
        for out, workers in zip(outs, ("1", "2")):
            res = run_cli("run-experiment", "--config", str(path), "--out", str(out),
                          "--workers", workers)
            assert res.returncode == 0 and res.stderr == "", res.stderr
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_config_parsed_once(self, tmp_path, monkeypatch):
        from ranksel import cli, experiment

        calls = {"parse_config": 0, "_fit_settings": 0}
        for name in calls:
            def counted(*args, _real=getattr(experiment, name), _name=name):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(experiment, name, counted)
        config = json.loads(small_config(tmp_path, reps=4).read_text())
        config["policies"] = ["aoap", {"id": "two_factor", "fit": {"iterations": 2}}]
        path = tmp_path / "fit.json"
        path.write_text(json.dumps(config))
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["run-experiment", "--config", str(path),
                             "--out", str(tmp_path / "fit.csv")]) == 0
        assert calls == {"parse_config": 1, "_fit_settings": 1}

    def test_bundled_example_config_full_run(self, tmp_path):
        config_path = REPO / "configs" / "example1.json"
        config = json.loads(config_path.read_text())
        from ranksel.experiment import parse_config

        scenario, specs, _ = parse_config(config)
        assert scenario.horizon == 400 and scenario.warmup == 100
        assert [s["id"] for s in specs] == ["ea", "ocba", "kg", "aoap"]
        out = tmp_path / "example1.csv"
        res = run_cli("run-experiment", "--config", str(config_path),
                      "--out", str(out), "--workers", "2")
        assert res.returncode == 0, res.stderr
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 4 * (400 - 100 + 1)


class TestOptimalRatios:
    def test_symmetric(self):
        res = run_cli("optimal-ratios", "--means", "1,0", "--stds", "1,1")
        assert res.returncode == 0
        ratios = [float(x) for x in res.stdout.splitlines()[0].split()[1].split(",")]
        assert ratios == pytest.approx([0.5, 0.5], abs=1e-8)

    def test_two_to_one(self):
        res = run_cli("optimal-ratios", "--means", "1,0", "--stds", "2,1")
        ratios = [float(x) for x in res.stdout.splitlines()[0].split()[1].split(",")]
        assert ratios == pytest.approx([2 / 3, 1 / 3], abs=1e-8)

    def test_mismatched_lengths_usage_error(self):
        res = run_cli("optimal-ratios", "--means", "1,0", "--stds", "1,1,1")
        assert res.returncode == 2

    def test_one_alternative_usage_error(self):
        res = run_cli("optimal-ratios", "--means", "1", "--stds", "1")
        assert (res.returncode, res.stdout) == (2, "")
        assert len(res.stderr.splitlines()) == 1, res.stderr

    def test_tied_best_is_usage_error(self):
        res = run_cli("optimal-ratios", "--means", "1,1", "--stds", "1,1")
        assert res.returncode == 2

    def test_negative_std_is_usage_error(self):
        """A negative std must not be squared into a valid variance."""
        res = run_cli("optimal-ratios", "--means", "1,0,-1", "--stds=-1,2,1")
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr.splitlines() == [
            "error: --stds must be positive, with squares in the float range"]

    @pytest.mark.parametrize("means,stds", [
        ("1,0", "1e7,1e-7"),
        ("1,0", "1e-160,1"),    # sigma_b^2 is subnormal
        ("1e300,0", "1,1"),
        ("1e-300,0", "1,1"),
    ])
    def test_extreme_two_alternatives_match_closed_form(self, means, stds):
        """k = 2: r_b = sigma_b / (sigma_b + sigma_1), from the variances the CLI forms."""
        res = run_cli("optimal-ratios", "--means", means, "--stds", stds)
        assert res.returncode == 0 and res.stderr.splitlines() == []
        s_b, s_1 = (math.sqrt(float(s) * float(s)) for s in stds.split(","))
        expected = [s_b / (s_b + s_1), s_1 / (s_b + s_1)]
        assert res.stdout.splitlines() == [
            "ratios: " + ",".join(f"{r:.10g}" for r in expected),
            "residuals: rate_spread=0.000e+00 incumbent_defect=0.000e+00",
            "iterations: 0",
        ]

    @pytest.mark.parametrize("means,stds,ratios", [
        ("1,0,-1e150", "1,1,1e-100", "0.5,0.5,0"),    # the third ratio is ~1e-500
        ("1,0,0", "1,1e-150,1e150", "1e-150,0,1"),    # the second ratio is ~1e-450
    ])
    def test_underflowed_ratio_is_not_a_rate_spread(self, means, stds, ratios):
        res = run_cli("optimal-ratios", "--means", means, "--stds", stds)
        assert res.returncode == 0 and res.stderr == ""
        assert res.stdout.splitlines() == [
            f"ratios: {ratios}",
            "residuals: rate_spread=0.000e+00 incumbent_defect=0.000e+00",
            "iterations: 0",
        ]

    # Recorded with scipy.optimize.brentq as the root finder; the port keeps every byte.
    @pytest.mark.parametrize("means,stds,stdout", [
        ("1,0,-0.5", "1,2,1", ["ratios: 0.3182568306,0.6270408971,0.05470227228",
                               "residuals: rate_spread=1.682e-16 incumbent_defect=0.000e+00",
                               "iterations: 6"]),
        # c03's three truths, as standard deviations.
        ("4,3,2,1,0", "1,1,1,1,1", [
            "ratios: 0.4504558367,0.4448895011,0.06389401983,0.02632304214,0.01443760025",
            "residuals: rate_spread=1.117e-16 incumbent_defect=0.000e+00",
            "iterations: 7"]),
        ("4,3,2,1,0", "2,1,1.5,1,2.5", [
            "ratios: 0.5907834911,0.291411651,0.06610201474,0.01175785793,0.03994498531",
            "residuals: rate_spread=0.000e+00 incumbent_defect=2.220e-16",
            "iterations: 8"]),
        ("2,1.6,1.2,0.8,0", "1,1.5,0.8,1.2,2", [
            "ratios: 0.3712862897,0.5535835301,0.02629662131,0.0247735283,0.02406003055",
            "residuals: rate_spread=4.178e-16 incumbent_defect=2.220e-16",
            "iterations: 7"]),
    ])
    def test_pinned_stdout(self, means, stds, stdout):
        res = run_cli("optimal-ratios", "--means", means, "--stds", stds)
        assert (res.returncode, res.stderr, res.stdout.splitlines()) == (0, "", stdout)

    @pytest.mark.parametrize("means,stds,message", [
        ("1,0", "1e200,1", "--stds must be positive, with squares in the float range"),
        ("1,0,-1e200", "1,1,1", "optimal ratios need gap and std ratios within the float range"),
    ])
    def test_out_of_range_is_one_line_usage_error(self, means, stds, message):
        res = run_cli("optimal-ratios", "--means", means, "--stds", stds)
        assert res.returncode == 2 and res.stdout == ""
        assert res.stderr.splitlines() == [f"error: {message}"]


class TestStateSpaceSize:
    def test_two_by_two(self):
        res = run_cli("state-space-size", "--t", "2", "--k", "2", "--supports", "2,2")
        assert res.returncode == 0 and res.stdout.strip() == "10"

    def test_empty_history(self):
        res = run_cli("state-space-size", "--t", "0", "--k", "5",
                      "--supports", "2,2,2,2,2")
        assert res.returncode == 0 and res.stdout.strip() == "1"

    def test_bad_support_usage_error(self):
        res = run_cli("state-space-size", "--t", "2", "--k", "2", "--supports", "1,2")
        assert res.returncode == 2


class TestSolveExact:
    def model_file(self, tmp_path):
        model = {
            "k": 2,
            "support": [[0.0, 1.0], [0.0, 1.0]],
            "prior_support": [[0.8, 0.5], [0.2, 0.5]],
            "prior_pmf": [0.5, 0.5],
            "sampling_pmf": [
                [[0.2, 0.8], [0.5, 0.5]],
                [[0.8, 0.2], [0.5, 0.5]],
            ],
            "reward": "PCS",
        }
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model))
        return path

    def test_horizon_zero_prints_selection_value(self, tmp_path):
        res = run_cli("solve-exact", "--model", str(self.model_file(tmp_path)),
                      "--horizon", "0")
        assert res.returncode == 0
        assert res.stdout.startswith("value: 0.5")

    def test_writes_policy_table(self, tmp_path):
        table = tmp_path / "policy.tsv"
        res = run_cli("solve-exact", "--model", str(self.model_file(tmp_path)),
                      "--horizon", "2", "--table", str(table))
        assert res.returncode == 0
        assert table.exists()
        assert "value: 0.8" in res.stdout

    def test_cap_exceeded_numerical_error(self, tmp_path):
        res = run_cli("solve-exact", "--model", str(self.model_file(tmp_path)),
                      "--horizon", "9", "--state-cap", "3")
        assert res.returncode == 3

    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_cap_below_one_usage_error(self, tmp_path, cap):
        res = run_cli("solve-exact", "--model", str(self.model_file(tmp_path)),
                      "--horizon", "3", "--state-cap", cap)
        assert res.returncode == 2 and res.stdout == ""
        assert res.stderr.splitlines() == [f"error: state_cap must be >= 1, got {cap}"]

    def test_huge_horizon_rejected_at_cap(self, tmp_path, capsys):
        """The state count is closed-form, so a horizon far past the cap is
        rejected at once instead of after an O(t^2) count."""
        from ranksel import cli

        assert cli.main(["solve-exact", "--model", str(self.model_file(tmp_path)),
                         "--horizon", "1000000"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: state space too large") and err.count("\n") == 1, err

    def test_prints_state_count(self, tmp_path, capsys):
        from ranksel import cli

        assert cli.main(["solve-exact", "--model", str(self.model_file(tmp_path)),
                         "--horizon", "2"]) == 0
        # k=2 binary alternatives: 1 + 4 + 10 count states over levels 0..2
        assert capsys.readouterr().out.splitlines()[1] == "states: 15"

    @pytest.mark.parametrize("payload, message", [
        ([1, 2], "JSON object"),
        ({"k": 2, "support": [[0.0, 1.0], [0.0, 1.0]], "prior_pmf": [1.0],
          "sampling_pmf": [[[0.5, 0.5], [0.5, 0.5]]]}, "'prior_support'"),
        ({"k": 2, "support": 5, "prior_support": ["a"], "prior_pmf": [1.0],
          "sampling_pmf": [[[0.5, 0.5], [0.5, 0.5]]]}, "malformed"),
    ], ids=["not-an-object", "missing-key", "mistyped-support"])
    def test_bad_model_file_usage_error(self, tmp_path, capsys, payload, message):
        from ranksel import cli

        path = tmp_path / "bad_model.json"
        path.write_text(json.dumps(payload))
        assert cli.main(["solve-exact", "--model", str(path), "--horizon", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert message in err


class TestFitVfa:
    def test_fit_writes_weights(self, tmp_path):
        config = small_config(tmp_path)
        out = tmp_path / "weights.json"
        res = run_cli("fit-vfa", "--scenario", str(config), "--out", str(out),
                      "--iterations", "200", "--seed", "3")
        assert res.returncode == 0, res.stderr
        payload = json.loads(out.read_text())
        assert len(payload["weights"]) == 2
        assert payload["activation"] == "linear"
        assert payload["config"]["iterations"] == 200

    def test_fit_deterministic(self, tmp_path):
        config = small_config(tmp_path)
        outs = []
        for name in ("w1.json", "w2.json"):
            out = tmp_path / name
            res = run_cli("fit-vfa", "--scenario", str(config), "--out", str(out),
                          "--iterations", "150", "--seed", "3")
            assert res.returncode == 0
            outs.append(json.loads(out.read_text())["weights"])
        assert outs[0] == outs[1]

    def test_builtin_scenario_name(self, tmp_path):
        out = tmp_path / "w.json"
        res = run_cli("fit-vfa", "--scenario", "example2-lowconf", "--out", str(out),
                      "--iterations", "50", "--seed", "3")
        assert res.returncode == 0, res.stderr

    def test_scenario_only_config_and_horizon_override(self, tmp_path):
        config = {
            "scenario": {
                "k": 3,
                "prior_means": [0.0, 0.0, 0.0],
                "prior_stds": [1.0, 1.0, 1.0],
                "sampling_stds": [1.0, 1.0, 1.0],
                "T": 30,
                "n0": 3,
                "master_seed": 8,
            }
        }
        cpath = tmp_path / "scenario_only.json"
        cpath.write_text(json.dumps(config))
        out = tmp_path / "w.json"
        res = run_cli("fit-vfa", "--scenario", str(cpath), "--out", str(out),
                      "--iterations", "80", "--horizon", "15", "--seed", "1")
        assert res.returncode == 0, res.stderr
        assert len(json.loads(out.read_text())["weights"]) == 2

    def test_negative_seed_rejected_before_fit(self, tmp_path, capsys, monkeypatch):
        from ranksel import cli, vfa

        monkeypatch.setattr(vfa, "gmcl_fit", lambda *a, **kw: pytest.fail("fit ran"))
        out = tmp_path / "w.json"
        assert cli.main(["fit-vfa", "--scenario", str(small_config(tmp_path)),
                         "--out", str(out), "--seed", "-1"]) == 2
        assert capsys.readouterr().err == (
            "error: seed must be >= 0, got -1\n")
        assert not out.exists()

    def test_lookahead_generator_beyond_budget_rejected(self, tmp_path, capsys, monkeypatch):
        """Ten alternatives at T = 120, n0 = 10 leave 20 samples after warmup, so an
        aoap_ms30 generator exits 2 before any history is simulated."""
        from ranksel import cli, experiment

        monkeypatch.setattr(experiment, "_replications",
                            lambda *a, **kw: pytest.fail("a history was simulated"))
        path = tmp_path / "ten.json"
        path.write_text(json.dumps({"scenario": TEN_ALTERNATIVES}))
        out = tmp_path / "w.json"
        assert cli.main(["fit-vfa", "--scenario", str(path), "--out", str(out),
                         "--generator", "aoap_ms30"]) == 2
        assert capsys.readouterr().err == (
            "error: policy 'aoap_ms30' looks 30 samples ahead, but only 20 follow the warmup "
            "(T - k*n0)\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fit-vfa", "run-experiment"])
    def test_infinite_feature_is_usage_error(self, tmp_path, capsys, command):
        """Zero prior stds with known variances make every fitted history's gap
        feature infinite: exit 2 with one line, from fit-vfa and from an
        inline two_factor fit alike."""
        from ranksel import cli

        config = {
            "scenario": {"prior_means": [1, 0], "prior_stds": [0, 0], "sampling_stds": [1, 1],
                         "T": 8, "n0": 2, "macro_reps": 16, "variance_mode": "known"},
            "policies": [{"id": "two_factor", "fit": {"iterations": 20}}],
        }
        path = tmp_path / "zero_prior.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        argv = (["fit-vfa", "--scenario", str(path), "--iterations", "20"]
                if command == "fit-vfa" else ["run-experiment", "--config", str(path)])
        assert cli.main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: history 1 has non-finite features") and err.count("\n") == 1
        assert not out.exists()


class TestConfigValidation:
    """Bad configs end in exit 2 with a one-line message, before any policy runs."""

    def run_main(self, tmp_path, capsys, scenario=None, policies=("aoap",), output=None,
                 flags=(), code=2):
        from ranksel import cli

        config = json.loads(small_config(tmp_path).read_text())
        config["scenario"].update(scenario or {})
        config["policies"] = list(policies) if isinstance(policies, tuple) else policies
        if output is not None:
            config["output"] = output
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        got = cli.main(["run-experiment", "--config", str(path),
                        "--out", str(tmp_path / "bad.csv"), *flags])
        err = capsys.readouterr().err
        assert got == code
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert not (tmp_path / "bad.csv").exists()
        return err

    def test_nan_prior_mean(self, tmp_path, capsys):
        err = self.run_main(tmp_path, capsys, {"prior_means": [0.0, float("nan"), 0.0]})
        assert "finite" in err

    def test_infinite_sampling_std(self, tmp_path, capsys):
        err = self.run_main(tmp_path, capsys, {"sampling_stds": [1.0, float("inf"), 1.0]})
        assert "finite" in err

    def test_string_macro_reps(self, tmp_path, capsys):
        assert "macro_reps" in self.run_main(tmp_path, capsys, {"macro_reps": "50"})

    def test_fractional_horizon(self, tmp_path, capsys):
        assert "'T'" in self.run_main(tmp_path, capsys, {"T": 12.5})

    def test_bool_macro_reps(self, tmp_path, capsys):
        assert "macro_reps" in self.run_main(tmp_path, capsys, {"macro_reps": True})

    @staticmethod
    def forbid_runs(monkeypatch):
        """Fail on the first noise draw: every simulation, an inline fit's too, starts there."""
        from ranksel import experiment

        def no_runs(*args, **kwargs):
            raise AssertionError("a policy ran before the config was validated")

        monkeypatch.setattr(experiment, "_block_normals", no_runs)

    def test_lookahead_beyond_budget_rejected_before_any_run(self, tmp_path, capsys,
                                                             monkeypatch):
        self.forbid_runs(monkeypatch)
        err = self.run_main(tmp_path, capsys, TEN_ALTERNATIVES, policies=("aoap", "aoap_ms30"))
        assert err == ("error: policy 'aoap_ms30' looks 30 samples ahead, but only 20 follow "
                       "the warmup (T - k*n0)\n")

    def test_unknown_policy_rejected_before_any_run(self, tmp_path, capsys, monkeypatch):
        self.forbid_runs(monkeypatch)
        err = self.run_main(tmp_path, capsys, policies=("aoap", "sobol"))
        assert "sobol" in err

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_bad_downsample_flag_rejected_before_any_run(self, tmp_path, capsys, monkeypatch,
                                                          value):
        self.forbid_runs(monkeypatch)
        err = self.run_main(tmp_path, capsys, flags=("--downsample", value))
        assert "--downsample" in err

    @pytest.mark.parametrize("payload, message", [
        ([0.5, 0.5], "JSON object"),
        ({"activation": "linear"}, "'weights'"),
        ({"weights": [0.5, 0.5], "box_bound": "x"}, "malformed"),
        ({"weights": [float("nan"), 0.5]}, "weights must lie in [0, 100], got [nan, 0.5]"),
        ({"weights": [0.5, 0.5], "box_bound": 50}, "'box_bound' must be 100 if given, got 50"),
        ({"weights": [400, 1], "box_bound": 1000}, "'box_bound' must be 100 if given, got 1000"),
    ], ids=["not-an-object", "missing-weights", "mistyped-box-bound", "nan-weight",
            "smaller-box", "larger-box"])
    def test_bad_weights_file_usage_error(self, tmp_path, capsys, payload, message):
        path = tmp_path / "weights.json"
        path.write_text(json.dumps(payload))
        err = self.run_main(tmp_path, capsys,
                            policies=({"id": "two_factor", "weights_file": str(path)},))
        assert message in err

    @pytest.mark.parametrize("payload, code, message", [
        ({"weights": [1.0, 1.0], "activaton": "expm"}, 2,
         "weights file has unexpected key 'activaton'"),
        ([1.0, 1.0], 2, "weights file must be a JSON object"),
        ({"weights": [1.0, 1.0, 1.0]}, 2, "exactly two weights"),
        (None, 4, "weights.json"),
    ], ids=["unknown-key", "json-list", "three-weights", "missing-file"])
    def test_weights_file_read_before_any_run(self, tmp_path, capsys, monkeypatch, payload,
                                              code, message):
        """Weights files are read as the config is parsed, so a bad one stops the run
        before the policy listed ahead of it is simulated."""
        self.forbid_runs(monkeypatch)
        path = tmp_path / "weights.json"
        if payload is not None:
            path.write_text(json.dumps(payload))
        err = self.run_main(tmp_path, capsys, code=code,
                            policies=("aoap", {"id": "two_factor", "weights_file": str(path)}))
        assert message in err

    @pytest.mark.parametrize("fit, message", [
        ({"iterations": "5"}, "'iterations'"),
        ({"seed": True}, "'seed'"),
        ({"step_scale": "10"}, "'step_scale'"),
        ({"initial_w": [1.0, "x"]}, "'initial_w'"),
        ({"activation": 1}, "'activation'"),
        (["iterations", 5], "'fit' must be an object"),
    ], ids=["string-iterations", "bool-seed", "string-step-scale", "mistyped-initial-w",
            "numeric-activation", "non-object"])
    def test_mistyped_fit(self, tmp_path, capsys, fit, message):
        err = self.run_main(tmp_path, capsys, policies=("aoap", {"id": "two_factor", "fit": fit}))
        assert message in err

    @pytest.mark.parametrize("policies", [5, None, "aoap", {"id": "aoap"}],
                             ids=["number", "null", "string", "object"])
    def test_policies_not_a_list(self, tmp_path, capsys, monkeypatch, policies):
        self.forbid_runs(monkeypatch)
        err = self.run_main(tmp_path, capsys, policies=policies)
        assert "config 'policies' must be a list" in err

    @pytest.mark.parametrize("policies", [
        ({"id": "aoap", "label": [1]},),
        ({"id": "aoap", "label": 5}, {"id": "ea", "label": "x"}),
    ], ids=["list-label", "number-label"])
    def test_label_not_a_string(self, tmp_path, capsys, monkeypatch, policies):
        self.forbid_runs(monkeypatch)
        err = self.run_main(tmp_path, capsys, policies=policies)
        assert "policy 'label' must be a string" in err

    @pytest.mark.parametrize("label", ["a,b\nc", "a,b", 'a"b', "a\rb", "a\nb"])
    def test_label_that_breaks_the_csv(self, tmp_path, capsys, monkeypatch, label):
        """A label is written unquoted as the CSV's first field."""
        self.forbid_runs(monkeypatch)
        err = self.run_main(tmp_path, capsys, policies=({"id": "aoap", "label": label},))
        assert "holds a comma, quote or line break" in err

    @pytest.mark.parametrize("fit, message", [
        ({"initial_w": [1, 1, 1]}, "exactly two weights"),
        ({"initial_w": []}, "exactly two weights"),
        ({"initial_w": [200, 1]}, "weights must lie in [0, 100], got [200.0, 1.0]"),
        ({"activation": "x"}, "unknown activation 'x'"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
        ({"step_scale": math.inf}, "step_scale must be positive and finite, got inf"),
    ], ids=["three-weights", "no-weights", "outside-box", "unknown-activation",
            "negative-seed", "infinite-step-scale"])
    def test_bad_fit_value_rejected_before_any_run(self, tmp_path, capsys, monkeypatch, fit,
                                                   message):
        self.forbid_runs(monkeypatch)
        err = self.run_main(tmp_path, capsys, policies=("aoap", {"id": "two_factor", "fit": fit}))
        assert message in err

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_rejected_before_any_run(self, tmp_path, capsys, monkeypatch,
                                                       workers):
        self.forbid_runs(monkeypatch)  # the check is in run_specs, before any fit or block
        err = self.run_main(tmp_path, capsys, flags=("--workers", workers))
        assert f"workers must be >= 1, got {workers}" in err

    def test_workers_below_one_rejected_before_inline_fit(self, tmp_path, capsys, monkeypatch):
        from ranksel import experiment

        fits = []
        monkeypatch.setattr(experiment, "gmcl_fit", lambda *a, **kw: fits.append(a))
        err = self.run_main(tmp_path, capsys, flags=("--workers", "0"),
                            policies=({"id": "two_factor", "fit": {"iterations": 2}}, "aoap"))
        assert "workers must be >= 1, got 0" in err
        assert fits == []

    def test_duplicate_label_rejected_before_any_run(self, tmp_path, capsys, monkeypatch):
        self.forbid_runs(monkeypatch)
        err = self.run_main(tmp_path, capsys, policies=("aoap", {"id": "ea", "label": "aoap"}))
        assert "duplicate policy label 'aoap'" in err

    @pytest.mark.parametrize("command", ["run-experiment", "fit-vfa"])
    @pytest.mark.parametrize("payload", [[1, 2], 3, "x"], ids=["list", "number", "string"])
    def test_config_not_an_object(self, tmp_path, capsys, command, payload):
        from ranksel import cli

        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        flag = "--config" if command == "run-experiment" else "--scenario"
        assert cli.main([command, flag, str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "error: config must be a JSON object\n"
        assert not (tmp_path / "out").exists()

    def test_null_weights_file(self, tmp_path, capsys):
        err = self.run_main(tmp_path, capsys,
                            policies=({"id": "two_factor", "weights_file": None},))
        assert "'weights_file'" in err

    @pytest.mark.parametrize("output, message", [
        ({"downsample": "2"}, "'downsample'"),
        ({"downsample": 0}, "'downsample'"),
        ({"path": 7}, "'path'"),
        (["x"], "'output' must be an object"),
    ], ids=["string-downsample", "zero-downsample", "numeric-path", "non-object"])
    def test_mistyped_output(self, tmp_path, capsys, output, message):
        assert message in self.run_main(tmp_path, capsys, output=output)


# Scenarios whose std squares leave the float range, at k = 2 or 3, T = 20, n0 = 2 and
# 50 replications of aoap.
OUT_OF_RANGE_STDS = [
    ({"prior_stds": [1e200, 1]}, "prior_stds"),
    ({"prior_stds": [1e200, 1], "variance_mode": "known"}, "prior_stds"),
    ({"sampling_stds": [1e-200, 1, 1]}, "sampling_stds"),
    ({"sampling_stds": [1, 1, 1e200]}, "sampling_stds"),
    ({"sampling_stds": [1e200, 1], "variance_mode": "known"}, "sampling_stds"),
]


# Each change to the probe scenario, at master seed 1, makes a posterior mean NaN or
# infinite before the horizon.  ea and ocba decide without reading it.
SHIFT_1E9 = {"prior_means": [1e9, 1e9 + 0.5, 1e9 + 1], "prior_stds": [1, 1, 1]}
UNDEFINED_POSTERIOR = {
    "shift-1e9-ea": (SHIFT_1E9, "ea"),
    "shift-1e9-ocba": (SHIFT_1E9, "ocba"),
    "shift-1e9-aoap": (SHIFT_1E9, "aoap"),
    "prior-1e100-ea": ({"prior_stds": [1e100, 1, 1]}, "ea"),
    "prior-1e100-ocba": ({"prior_stds": [1e100, 1, 1]}, "ocba"),
    "sampling-1e-150-ea": ({"sampling_stds": [1e-150, 1, 1]}, "ea"),
    "sampling-1e-150-ocba": ({"sampling_stds": [1e-150, 1, 1]}, "ocba"),
    "shift-1e8-frozen-ocba": ({"prior_means": [1e8, 1e8 + 0.5, 1e8 + 1], "prior_stds": [1, 1, 1],
                               "variance_mode": "plugin_frozen"}, "ocba"),
    "prior-1e154-k2-ea": ({"prior_stds": [1e154, 1]}, "ea"),
    "prior-1e154-k2-aoap": ({"prior_stds": [1e154, 1]}, "aoap"),
    "shift-1e9-no-steps-ea": ({**SHIFT_1E9, "T": 6}, "ea"),
    # Equal observations of 1.5 get the smallest variance, so the sum over it overflows
    # only at the third one, after the warm-up.
    "late-overflow-ea": ({"prior_means": [1.5, 0], "prior_stds": [1e-150, 1],
                          "sampling_stds": [1e-150, 1]}, "ea"),
}


def _probe_config(tmp_path, scenario, policies=("aoap",)):
    k = len(scenario.get("prior_stds", scenario.get("sampling_stds", [])))
    base = {"k": k, "prior_means": [0.0, 0.5, 1.0][:k], "prior_stds": [1.0] * k,
            "sampling_stds": [1.0] * k, "T": 20, "n0": 2, "macro_reps": 50}
    path = tmp_path / "probe.json"
    path.write_text(json.dumps({"scenario": {**base, **scenario}, "policies": list(policies),
                                "output": {"path": str(tmp_path / "probe.csv")}}))
    return path


class TestOutOfRangeInputsExitInOneLine:
    """Exit 2, nothing on stdout, one stderr line (no warnings), and no output file."""

    @staticmethod
    def assert_one_line_usage_error(tmp_path, res, message):
        assert (res.returncode, res.stdout) == (2, "")
        assert len(res.stderr.splitlines()) == 1 and message in res.stderr, res.stderr
        assert not (tmp_path / "probe.csv").exists() and not (tmp_path / "w.json").exists()

    @pytest.mark.parametrize("scenario, field", OUT_OF_RANGE_STDS,
                             ids=["prior-1e200", "prior-1e200-known", "sampling-1e-200",
                                  "sampling-1e200", "sampling-1e200-known"])
    def test_run_experiment_stds(self, tmp_path, scenario, field):
        res = run_cli("run-experiment", "--config", str(_probe_config(tmp_path, scenario)))
        self.assert_one_line_usage_error(tmp_path, res, field)

    @pytest.mark.parametrize("name", list(UNDEFINED_POSTERIOR))
    def test_run_experiment_undefined_posterior(self, tmp_path, name):
        scenario, policy = UNDEFINED_POSTERIOR[name]
        path = _probe_config(tmp_path, {**scenario, "master_seed": 1}, (policy,))
        res = run_cli("run-experiment", "--config", str(path))
        self.assert_one_line_usage_error(tmp_path, res, "posterior mean is not finite")

    def test_undefined_posterior_in_worker_threads(self, tmp_path):
        """Two 4,096-row blocks on two threads: the warning filter reaches them too."""
        path = _probe_config(tmp_path, {**SHIFT_1E9, "master_seed": 1, "macro_reps": 4100},
                             ("ea",))
        res = run_cli("run-experiment", "--config", str(path), "--workers", "2")
        self.assert_one_line_usage_error(tmp_path, res, "posterior mean is not finite")

    def test_zero_posterior_variance(self, tmp_path):
        """Equal observations of 0.3 get the smallest variance, so count / variance
        overflows from the 4th one and the posterior variance is 0: the mean it gives
        is finite but wrong."""
        path = _probe_config(tmp_path, {"prior_means": [0.3, 0], "prior_stds": [1e-150, 1],
                                        "sampling_stds": [1e-150, 1], "master_seed": 1},
                             ("ea",))
        res = run_cli("run-experiment", "--config", str(path))
        self.assert_one_line_usage_error(tmp_path, res, "posterior variance is 0")

    def test_solve_exact_infinite_support(self, tmp_path):
        """JSON's Infinity loads as a float; the EOC table was all NaN."""
        model = {"k": 2, "support": [[0, math.inf], [0, 1]], "prior_support": ["a", "b"],
                 "prior_pmf": [0.5, 0.5], "sampling_pmf": [[[0.5, 0.5], [0.5, 0.5]]] * 2,
                 "reward": "EOC"}
        (tmp_path / "model.json").write_text(json.dumps(model))
        res = run_cli("solve-exact", "--model", str(tmp_path / "model.json"), "--horizon", "2",
                      "--table", str(tmp_path / "policy.tsv"))
        self.assert_one_line_usage_error(tmp_path, res, "support values must be finite")
        assert not (tmp_path / "policy.tsv").exists()

    def test_fit_vfa_stds(self, tmp_path):
        path = _probe_config(tmp_path, {"prior_stds": [1e200, 1]})
        res = run_cli("fit-vfa", "--scenario", str(path), "--out", str(tmp_path / "w.json"),
                      "--iterations", "20")
        self.assert_one_line_usage_error(tmp_path, res, "prior_stds")

    def test_underflowing_prior_std_is_a_point_mass(self, tmp_path):
        res = run_cli("run-experiment", "--config",
                      str(_probe_config(tmp_path, {"prior_means": [0.0, 1.0],
                                                   "prior_stds": [1e-170, 1e-170]})))
        assert res.returncode == 0 and res.stderr == ""

    def test_fit_vfa_infinite_step_scale(self, tmp_path):
        res = run_cli("fit-vfa", "--scenario", "example1", "--out", str(tmp_path / "w.json"),
                      "--iterations", "3", "--step-scale", "inf")
        self.assert_one_line_usage_error(tmp_path, res, "step_scale must be positive and finite")

    def test_inline_fit_overflowing_step_scale(self, tmp_path):
        """JSON reads 1e400 as inf."""
        path = _probe_config(tmp_path, {"prior_stds": [1, 1]},
                             ("aoap", {"id": "two_factor", "fit": {"iterations": 2,
                                                                  "step_scale": 7}}))
        path.write_text(path.read_text().replace('"step_scale": 7', '"step_scale": 1e400'))
        res = run_cli("run-experiment", "--config", str(path))
        self.assert_one_line_usage_error(tmp_path, res, "step_scale must be positive and finite")


# Each config or file names one key that nothing reads; k = 2, T = 8, n0 = 2, 4 replications.
PROBE_SCENARIO = {"k": 2, "prior_means": [0.0, 0.5], "prior_stds": [1.0, 1.0],
                  "sampling_stds": [1.0, 1.0], "T": 8, "n0": 2, "macro_reps": 4}
WEIGHTS = {"weights": [1.0, 1.0], "activation": "linear", "box_bound": 100.0}
UNEXPECTED_KEYS = [
    ({"scenario": {**PROBE_SCENARIO, "macro_rep": 7}, "policies": ["aoap"]},
     "scenario has unexpected key 'macro_rep'"),
    ({"scenario": {**PROBE_SCENARIO, "variance_mod": "known"}, "policies": ["aoap"]},
     "scenario has unexpected key 'variance_mod'"),
    ({"scenario": PROBE_SCENARIO, "policies": [{"id": "aoap", "lable": "x"}]},
     "policy 'aoap' has unexpected key 'lable'"),
    ({"scenario": PROBE_SCENARIO, "policies": [{"id": "two_factor", "fit": {"iteration": 2}}]},
     "two_factor 'fit' has unexpected key 'iteration'"),
    ({"scenario": PROBE_SCENARIO, "policies": ["aoap"], "outputs": {"downsample": 2}},
     "config has unexpected key 'outputs'"),
    ({"scenario": PROBE_SCENARIO, "policies": [{"id": "aoap", "fit": {"iterations": 2}}]},
     "policy 'aoap' has unexpected key 'fit'"),
    ({"scenario": PROBE_SCENARIO, "policies": [
        {"id": "two_factor", "weights_file": "WEIGHTS", "fit": {"iterations": 2}}]},
     "two_factor policy has both 'weights_file' and 'fit'"),
    ({"scenario": PROBE_SCENARIO, "policies": ["aoap"], "output": {"path": "x", "downsmaple": 2}},
     "output has unexpected key 'downsmaple'"),
    ({"scenario": PROBE_SCENARIO, "policies": [{"id": "two_factor", "weights_file": "WEIGHTS"}],
      "weights": {**WEIGHTS, "activaton": "expm"}},
     "weights file has unexpected key 'activaton'"),
]


class TestUnexpectedKeysExitInOneLine:
    """A key nothing reads is a usage error that names it: exit 2, nothing on
    stdout, one stderr line, and no output file."""

    @staticmethod
    def run_main(capsys, argv, out):
        from ranksel import cli

        code = cli.main([*argv, str(out)])
        captured = capsys.readouterr()
        assert not out.exists()
        return code, captured.out, captured.err.splitlines()

    @pytest.mark.parametrize("config, message", UNEXPECTED_KEYS,
                             ids=["scenario-macro_rep", "scenario-variance_mod", "policy-lable",
                                  "fit-iteration", "top-level-outputs", "aoap-fit",
                                  "weights_file-and-fit", "output-downsmaple",
                                  "weights-file-activaton"])
    def test_run_experiment(self, tmp_path, capsys, config, message):
        weights = tmp_path / "weights.json"
        weights.write_text(json.dumps(config.pop("weights", WEIGHTS)))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config).replace('"WEIGHTS"', json.dumps(str(weights))))
        got = self.run_main(capsys, ["run-experiment", "--config", str(path), "--out"],
                            tmp_path / "out.csv")
        assert got == (2, "", [f"error: {message}"])

    def test_model_file(self, tmp_path, capsys):
        path = TestSolveExact().model_file(tmp_path)
        payload = {**json.loads(path.read_text()), "rewrd": "EOC"}
        path.write_text(json.dumps(payload))
        got = self.run_main(capsys, ["solve-exact", "--model", str(path), "--horizon", "2",
                                     "--table"], tmp_path / "table.tsv")
        assert got == (2, "", ["error: model file has unexpected key 'rewrd'"])

    def test_fit_vfa_checks_the_scenario(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"scenario": {**PROBE_SCENARIO, "macro_rep": 7}}))
        got = self.run_main(capsys, ["fit-vfa", "--scenario", str(path), "--iterations", "2",
                                     "--out"], tmp_path / "w.json")
        assert got == (2, "", ["error: scenario has unexpected key 'macro_rep'"])

    def test_fit_vfa_reads_only_the_scenario(self, tmp_path, capsys):
        from ranksel import cli

        path = tmp_path / "config.json"
        path.write_text(json.dumps({"scenario": PROBE_SCENARIO, "notes": "ignored by fit-vfa"}))
        assert cli.main(["fit-vfa", "--scenario", str(path), "--iterations", "2",
                         "--out", str(tmp_path / "w.json")]) == 0


@pytest.mark.parametrize("command, horizon, code", [
    ("run-experiment", 10**15, 3),  # one replication: 7.1 PiB of noise
    ("fit-vfa", 10**12, 3),  # a 2,048-history block: 14.6 PiB
    ("fit-vfa", 10**15, 2),  # more bytes than an array can index: NumPy's ValueError
])
def test_huge_horizon_fails_in_one_line(tmp_path, capsys, command, horizon, code):
    """Requests far beyond the 128 TiB address space fail at once, whatever the
    overcommit setting: one error line, no traceback, no output file."""
    from ranksel import cli

    config = {"scenario": {"prior_means": [0.0, 0.5], "prior_stds": [1.0, 1.0],
                           "sampling_stds": [1.0, 1.0], "T": horizon, "n0": 2,
                           "macro_reps": 1},
              "policies": ["ea"]}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    argv = (["run-experiment", "--config", str(path)] if command == "run-experiment" else
            ["fit-vfa", "--scenario", str(path), "--horizon", str(horizon), "--iterations",
             "2048"])
    assert cli.main([*argv, "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert not out.exists()


# A tiny valid config: every field the config parser reads, at sizes that run fast.
FUZZ_BASE = {
    "scenario": {"k": 2, "prior_means": [0.0, 0.5], "prior_stds": [1.0, 1.0],
                 "sampling_stds": [1.0, 1.0], "T": 8, "n0": 2, "macro_reps": 4,
                 "master_seed": 3, "variance_mode": "plugin_refresh"},
    "policies": ["aoap", {"id": "two_factor", "label": "tf",
                          "fit": {"iterations": 2, "step_scale": 1.0, "step_exponent": 0.75,
                                  "initial_w": [1.0, 1.0], "seed": 1, "activation": "linear"}}],
    "output": {"path": "unused.csv", "downsample": 1},
}
WRONG_VALUES = [None, True, -1, 0.5, "x", [], {}]
DELETE = object()


def _field_paths(value, path=()):
    """Path of every value in a JSON document, the document itself first."""
    yield path
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        items = ()
    for key, child in items:
        yield from _field_paths(child, path + (key,))


def _mutate(config, path, value):
    """A copy of ``config`` with the field at ``path`` replaced, or deleted if it is a key."""
    if not path:
        return value
    config = copy.deepcopy(config)
    parent = config
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return config


class TestConfigFuzz:
    """One wrongly typed or missing field, at any depth, never ends in a traceback."""

    @given(path=st.sampled_from(list(_field_paths(FUZZ_BASE))),
           value=st.sampled_from(WRONG_VALUES + [DELETE]))
    @settings(max_examples=60, deadline=None)
    def test_one_bad_field(self, path, value):
        from ranksel import cli

        if value is DELETE and not (path and isinstance(path[-1], str)):
            value = None   # only object keys are deleted, so list sizes never change
        config = _mutate(FUZZ_BASE, path, value)
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "config.json"
            cfg.write_text(json.dumps(config))
            for argv in (["run-experiment", "--config", str(cfg), "--out", f"{tmp}/out.csv"],
                         ["fit-vfa", "--scenario", str(cfg), "--out", f"{tmp}/w.json",
                          "--iterations", "2"]):
                err = io.StringIO()
                with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(argv)
                err = err.getvalue()
                assert code in (0, 2), (argv[0], path, value, code, err)
                if code == 2:
                    assert err.startswith("error:") and err.count("\n") == 1, (argv[0], err)
                else:
                    assert err == "", (argv[0], err)


# Each policy id with a config entry that runs without a weights file.
FUZZ_POLICIES = ["ea", "ocba", "kg", "aoap", "aoap_ms2",
                 {"id": "two_factor", "fit": {"iterations": 4, "seed": 1}}]


class TestMagnitudeFuzz:
    """Means and stds across the float range: every run writes its CSV with nothing on
    stderr, or exits 2 with one stderr line and writes nothing."""

    @given(scale_exp=st.integers(-500, 500),
           shift=st.floats(-1e12, 1e12),
           std_exps=st.lists(st.floats(-150, 150), min_size=6, max_size=6),
           variance_mode=st.sampled_from(["known", "plugin_refresh", "plugin_frozen"]))
    @settings(max_examples=25, deadline=None)
    def test_every_policy(self, scale_exp, shift, std_exps, variance_mode):
        from ranksel import cli

        scale = 2.0**scale_exp
        stds = [scale * 10.0**e for e in std_exps]
        scenario = {"k": 3, "prior_means": [scale * (m + shift) for m in (0.0, 0.5, 1.0)],
                    "prior_stds": stds[:3], "sampling_stds": stds[3:], "T": 10, "n0": 2,
                    "macro_reps": 4, "master_seed": 1, "variance_mode": variance_mode}
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out.csv"
            for policy in FUZZ_POLICIES:
                cfg = Path(tmp) / "config.json"
                cfg.write_text(json.dumps({"scenario": scenario, "policies": [policy]}))
                err = io.StringIO()
                with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(["run-experiment", "--config", str(cfg), "--out", str(out)])
                err = err.getvalue()
                assert code in (0, 2), (policy, scenario, code, err)
                if code == 0:
                    assert err == "" and out.exists(), (policy, scenario, err)
                    out.unlink()
                else:
                    assert err.startswith("error:") and err.count("\n") == 1, (policy, err)
                    assert not out.exists(), (policy, scenario)


# Run in a fresh interpreter with a config for ea/ocba/aoap/two_factor/aoap_ms2, a kg config
# and a model file; prints the scipy modules loaded after each stage.
SCIPY_STAGES = """
import contextlib, io, json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import ranksel, ranksel.cli
stages = {"import": scipy_modules()}
config, kg_config, model = sys.argv[1:]
with contextlib.redirect_stdout(io.StringIO()):
    assert ranksel.cli.main(["run-experiment", "--config", config]) == 0
    assert ranksel.cli.main(["solve-exact", "--model", model, "--horizon", "3"]) == 0
    stages["run"] = scipy_modules()
    assert ranksel.cli.main(["run-experiment", "--config", kg_config]) == 0
    stages["kg"] = scipy_modules()
    assert ranksel.cli.main(["optimal-ratios", "--means", "1,0,-0.5", "--stds", "1,2,1"]) == 0
    stages["optimal-ratios"] = scipy_modules()
print(json.dumps(stages))
"""

# Run in a fresh interpreter: an optimal-ratios run whose root finder iterates, then the
# scipy modules loaded.
RATIOS_ONLY = """
import contextlib, io, sys
import ranksel.cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    assert ranksel.cli.main(["optimal-ratios", "--means", "1,0,-0.5", "--stds", "1,2,1"]) == 0
print(out.getvalue().splitlines()[-1])
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


class TestImport:
    def test_scipy_loaded_only_on_first_use(self, tmp_path):
        """Importing the package and the CLI loads no SciPy module, and neither do the
        policies and the exact solver that call none; kg loads scipy.special only, and
        no run loads scipy.optimize or scipy.integrate."""
        config = json.loads(small_config(tmp_path, out_name="a.csv").read_text())
        config["policies"] = ["ea", "ocba", "aoap", "aoap_ms2",
                              {"id": "two_factor", "fit": {"iterations": 4}}]
        paths = [tmp_path / "config.json", tmp_path / "kg.json"]
        paths[0].write_text(json.dumps(config))
        paths[1].write_text(json.dumps({**config, "policies": ["kg"],
                                        "output": {"path": str(tmp_path / "kg.csv")}}))
        model = TestSolveExact().model_file(tmp_path)
        res = subprocess.run([sys.executable, "-c", SCIPY_STAGES, *map(str, paths), str(model)],
                             capture_output=True, text=True, env=SRC_ENV)
        assert res.returncode == 0, res.stderr
        stages = json.loads(res.stdout)
        assert stages["import"] == [] and stages["run"] == []
        assert "scipy.special" in stages["kg"]
        assert not [m for m in stages["kg"] if m.startswith("scipy.optimize")], stages["kg"]
        assert not [m for m in stages["optimal-ratios"] if m.startswith("scipy.optimize")]
        assert not [m for stage in stages.values() for m in stage
                    if m.startswith("scipy.integrate")], stages

    def test_optimal_ratios_loads_no_scipy(self):
        """The ratio root finder is the package's own: a run that iterates loads no SciPy."""
        res = subprocess.run([sys.executable, "-c", RATIOS_ONLY], capture_output=True, text=True,
                             env=SRC_ENV)
        assert (res.returncode, res.stdout.splitlines()) == (0, ["iterations: 6", "[]"]), res.stderr
