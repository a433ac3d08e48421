"""Command-line interface tests.

Commands run in-process through ``main(argv)``; exit codes follow the
convention 0 = success, 1 = runtime failure, 2 = usage error.
"""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ppmkit
from ppmkit import (
    Dataset,
    DiagnosticsError,
    MeanFunctionSpec,
    ModelSpec,
    PosteriorDraws,
    VarianceFunctionSpec,
    cli,
    demo,
    inference,
)
from ppmkit.cli import main
from ppmkit.functions import ZERO_ONE_LINKS, apply_link


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A dataset, model specs, and a small fit shared across CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data_path = root / "data.csv"
    model_path = root / "model.json"
    draws_path = root / "draws.csv"
    assert main(["simulate", "--n", "60", "--seed", "3", "--out", str(data_path)]) == 0
    demo.regression_model("true_model").save(model_path)
    assert main([
        "fit", "--data", str(data_path), "--model", str(model_path),
        "--out-draws", str(draws_path), "--out-diagnostics", str(root / "diag.json"),
        "--chains", "4", "--warmup", "1000", "--samples", "500", "--thin", "4",
        "--seed", "1",
    ]) == 0
    return root


def _fresh_python(code):
    """stdout of ``code`` in a fresh interpreter: this test process has
    scipy.stats and scipy.optimize loaded already."""
    src = str(Path(ppmkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    return out.stdout.strip()


def test_cold_import_leaves_scipy_stats_unloaded():
    code = ("import sys, ppmkit, ppmkit.cli; "
            "print('scipy.stats' in sys.modules, 'scipy.optimize' in sys.modules)")
    assert _fresh_python(code) == "False False"


def test_plug_in_fit_leaves_scipy_optimize_unloaded():
    code = ("import sys, ppmkit; from ppmkit import demo; "
            "model, data = demo.regression_model('true_model'), demo.simulate_dataset(40, seed=4); "
            "before = 'scipy.optimize' in sys.modules; "
            "theta = ppmkit.plug_in_fit(model, data, seed=0); "
            "print(before, 'scipy.optimize' in sys.modules, theta.shape); "
            "print('scipy.linalg' in sys.modules, 'scipy.sparse' in sys.modules)")
    assert _fresh_python(code) == "False False (3,)\nFalse False"


class TestSimulate:
    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main(["simulate", "--n", "50", "--seed", "7", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_subsample_row_count(self, tmp_path):
        out = tmp_path / "sub.csv"
        assert main(["simulate", "--n", "100", "--subsample-k", "8",
                     "--seed", "0", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 13  # header + floor(100/8)

    def test_negative_sigma_is_usage_error(self, tmp_path):
        rc = main(["simulate", "--sigma", "-1", "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    @pytest.mark.parametrize("flags", [["--n", "0"], ["--subsample-k", "0"],
                                       ["--n", "5", "--subsample-k", "6"]])
    def test_invalid_count_is_usage_error(self, tmp_path, capsys, flags):
        assert main(["simulate", *flags, "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("flags", [["--theta1", "nan"], ["--sigma", "inf"],
                                       ["--theta2=-inf"],
                                       ["--classification", "--coef", "0.4,nan,1"]])
    def test_non_finite_parameter_is_usage_error(self, tmp_path, capsys, flags):
        assert main(["simulate", *flags, "--out", str(tmp_path / "x.csv")]) == 2
        assert "non-finite" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("coef", ["a,1,2", "1,2", "0.4,1,2,3"])
    def test_bad_coef_names_the_flag(self, tmp_path, capsys, coef):
        assert main(["simulate", "--classification", "--coef", coef,
                     "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --coef ") and "Traceback" not in err
        assert not (tmp_path / "x.csv").exists()

    def test_classification_output(self, tmp_path):
        out = tmp_path / "cls.csv"
        assert main(["simulate", "--classification", "--n", "40",
                     "--seed", "2", "--out", str(out)]) == 0
        data = Dataset.from_csv(out)
        assert data.n_features == 2
        assert set(np.unique(data.y)) <= {0.0, 1.0}

    def test_env_seed_overrides_flag(self, tmp_path, monkeypatch):
        by_flag = tmp_path / "flag.csv"
        by_env = tmp_path / "env.csv"
        assert main(["simulate", "--n", "30", "--seed", "11", "--out", str(by_flag)]) == 0
        monkeypatch.setenv("PPM_SEED", "11")
        assert main(["simulate", "--n", "30", "--seed", "999", "--out", str(by_env)]) == 0
        assert by_flag.read_bytes() == by_env.read_bytes()


class TestFit:
    def test_outputs_and_convergence(self, workdir):
        draws = PosteriorDraws.from_csv(workdir / "draws.csv")
        assert draws.n_draws == 2000
        diag = json.loads((workdir / "diag.json").read_text())
        assert set(diag["r_hat"]) == {"theta1", "theta2", "sigma"}
        assert diag["flagged"] == []
        assert diag["run_config"]["command"] == "fit"

    def test_missing_dataset_is_usage_error(self, workdir, tmp_path):
        rc = main(["fit", "--data", str(tmp_path / "nope.csv"),
                   "--model", str(workdir / "model.json"),
                   "--out-draws", str(tmp_path / "d.csv")])
        assert rc == 2

    @pytest.mark.parametrize("command, text", [
        ("fit", "x,y\n0.1,0.2\n0.3\n"),
        ("predict", ""),
        ("fit", "x,y\n0.1,abc\n"),
        ("fit", "x,y\n0.1,0.2\n0.3,nan\n"),
        ("fit", "x,x,y\n0.1,0.2,0.3\n"),
        ("fit", "x,,y\n0.1,0.2,0.3\n"),
        ("fit", "x,y_se\n0.1,0.2\n"),
        ("predict", "theta1,theta2,sigma,chain\n0.1,0.2,0.3,0\n0.1,0.2,0.3,1.5\n"),
    ])
    def test_malformed_csv_is_usage_error(self, workdir, tmp_path, capsys, command, text):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        model = str(workdir / "model.json")
        if command == "fit":
            argv = ["fit", "--data", str(bad), "--model", model,
                    "--out-draws", str(tmp_path / "d.csv")]
        else:
            argv = ["predict", "--draws", str(bad), "--model", model, "--x", "0.5",
                    "--out-summary", str(tmp_path / "s.json")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "bad.csv, line" in err
        assert "Traceback" not in err

    def test_non_finite_prior_is_usage_error(self, workdir, tmp_path, capsys):
        spec = json.loads((workdir / "model.json").read_text())
        spec["priors"][0]["mu"] = float("nan")
        model_path = tmp_path / "nan_prior.json"
        model_path.write_text(json.dumps(spec))  # json writes the bare token NaN
        rc = main(["fit", "--data", str(workdir / "data.csv"), "--model", str(model_path),
                   "--out-draws", str(tmp_path / "d.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "mu" in err

    @pytest.mark.parametrize("edit", [
        lambda spec: spec["priors"][0].update(mu=None),
        lambda spec: spec["priors"][0].update(sigma="2"),
        lambda spec: spec["mean"].update(n_features="1"),
        lambda spec: spec.pop("mean"),
        lambda spec: [spec],
        lambda spec: spec.update(truncation={"lower": "0"}),
    ], ids=["null-mu", "string-sigma", "string-n-features", "no-mean", "list", "string-bound"])
    def test_malformed_model_file_is_usage_error(self, workdir, tmp_path, capsys, edit):
        spec = json.loads((workdir / "model.json").read_text())
        edited = edit(spec)
        model_path = tmp_path / "bad_model.json"
        model_path.write_text(json.dumps(edited if isinstance(edited, list) else spec))
        rc = main(["fit", "--data", str(workdir / "data.csv"), "--model", str(model_path),
                   "--out-draws", str(tmp_path / "d.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (tmp_path / "d.csv").exists()

    def test_plug_in_diagnostics_record_the_mode(self, workdir, tmp_path):
        diag = tmp_path / "diag.json"
        assert main(["fit", "--data", str(workdir / "data.csv"),
                     "--model", str(workdir / "model.json"),
                     "--out-draws", str(tmp_path / "p.csv"), "--out-diagnostics", str(diag),
                     "--plug-in", "--seed", "0"]) == 0
        payload = json.loads(diag.read_text())
        assert set(payload) == {"mode", "run_config"}
        assert payload["mode"] == "plug_in"
        assert payload["run_config"]["flags"]["plug_in"] is True

    def test_stuck_fit_writes_error_diagnostics(self, workdir, tmp_path, monkeypatch):
        # an absurd proposal scale rejects every move, so every chain is stuck
        monkeypatch.setattr(inference, "_INIT_SCALE", 1e12)
        diag = tmp_path / "diag.json"
        rc = main(["fit", "--data", str(workdir / "data.csv"),
                   "--model", str(workdir / "model.json"),
                   "--out-draws", str(tmp_path / "d.csv"), "--out-diagnostics", str(diag),
                   "--chains", "2", "--warmup", "1", "--samples", "50",
                   "--seed", "0"])
        assert rc == 1
        assert not (tmp_path / "d.csv").exists()
        payload = json.loads(diag.read_text())
        assert "zero acceptance" in payload["error"]
        assert payload["acceptance"] == [0.0, 0.0]
        assert payload["run_config"]["command"] == "fit"
        for key in ("r_hat", "ess"):
            assert set(payload[key]) == {"theta1", "theta2", "sigma"}
            assert all(math.isnan(v) for v in payload[key].values())

    @pytest.mark.parametrize("flags", [["--init-scale", "1"], ["--target-accept", "0.3"]])
    def test_sampler_constants_are_not_flags(self, workdir, tmp_path, flags):
        with pytest.raises(SystemExit) as exit_:
            main(["fit", "--data", str(workdir / "data.csv"),
                  "--model", str(workdir / "model.json"),
                  "--out-draws", str(tmp_path / "d.csv"), *flags])
        assert exit_.value.code == 2
        assert list(tmp_path.iterdir()) == []

    def test_feature_count_mismatch_is_usage_error(self, workdir, tmp_path, capsys):
        model_path = tmp_path / "two_features.json"
        ModelSpec(mean=MeanFunctionSpec("linear", n_features=2),
                  variance=VarianceFunctionSpec("constant"), name="plane").save(model_path)
        rc = main(["fit", "--data", str(workdir / "data.csv"), "--model", str(model_path),
                   "--out-draws", str(tmp_path / "d.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'plane' takes 2 feature(s)" in err
        assert "the dataset has 1" in err
        assert not (tmp_path / "d.csv").exists()

    def test_feature_vectors_with_error_columns_are_usage_error(self, workdir, tmp_path,
                                                                 capsys):
        data = tmp_path / "errors.csv"
        data.write_text("x1,x2,y,x_se\n0.1,0.2,1.0,0.01\n0.3,0.4,0.0,0.02\n")
        rc = main(["fit", "--data", str(data), "--model", str(workdir / "model.json"),
                   "--out-draws", str(tmp_path / "d.csv")])
        assert rc == 2
        assert "x_se and y_se need a single feature" in capsys.readouterr().err
        assert not (tmp_path / "d.csv").exists()

    @pytest.mark.parametrize("text, message", [
        ("x,y,y_se\n0.1,0.2,0.1\n0.2,0.3,-0.1\n",
         "rows.csv, line 3: standard errors must be nonnegative"),
        ("x1,x2,y,x_se\n0.1,0.2,1.0,0.01\n0.3,0.4,0.0,0.02\n",
         "rows.csv: x_se and y_se need a single feature"),
    ], ids=["negative-se", "feature-vectors-with-se"])
    def test_dataset_refusal_names_the_file(self, workdir, tmp_path, capsys, text, message):
        data = tmp_path / "rows.csv"
        data.write_text(text)
        rc = main(["fit", "--data", str(data), "--model", str(workdir / "model.json"),
                   "--out-draws", str(tmp_path / "d.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "d.csv").exists()

    def test_too_few_samples_to_diagnose_is_usage_error(self, workdir, tmp_path, capsys):
        rc = main(["fit", "--data", str(workdir / "data.csv"),
                   "--model", str(workdir / "model.json"),
                   "--out-draws", str(tmp_path / "d.csv"),
                   "--out-diagnostics", str(tmp_path / "diag.json"),
                   "--samples", "3", "--seed", "0"])
        assert rc == 2
        assert "4 draws per chain" in capsys.readouterr().err
        assert not (tmp_path / "d.csv").exists()
        assert not (tmp_path / "diag.json").exists()

    def test_undiagnosable_fit_is_runtime_failure(self, workdir, tmp_path, capsys,
                                                  monkeypatch):
        def refuse(*args, **kwargs):
            raise DiagnosticsError("parameter 'sigma' is constant across all draws")

        monkeypatch.setattr(inference, "compute_diagnostics", refuse)
        rc = main(["fit", "--data", str(workdir / "data.csv"),
                   "--model", str(workdir / "model.json"),
                   "--out-draws", str(tmp_path / "d.csv"),
                   "--out-diagnostics", str(tmp_path / "diag.json"),
                   "--chains", "2", "--warmup", "20", "--samples", "20", "--seed", "0"])
        assert rc == 1
        assert "constant across all draws" in capsys.readouterr().err
        assert not (tmp_path / "d.csv").exists()
        assert not (tmp_path / "diag.json").exists()

    def test_unfactorable_covariance_is_runtime_failure(self, workdir, tmp_path, capsys,
                                                         monkeypatch):
        # numpy's LinAlgError is a ValueError, which main reports as a usage error
        monkeypatch.setattr(inference, "_regularised_cov",
                            lambda draws: -np.eye(draws.shape[2])[None].repeat(len(draws), 0))
        rc = main(["fit", "--data", str(workdir / "data.csv"),
                   "--model", str(workdir / "model.json"),
                   "--out-draws", str(tmp_path / "d.csv"),
                   "--chains", "2", "--warmup", "80", "--samples", "20", "--seed", "0"])
        assert rc == 1
        assert "cannot factor a proposal covariance" in capsys.readouterr().err
        assert not (tmp_path / "d.csv").exists()

    def test_plug_in_writes_single_row(self, workdir, tmp_path):
        out = tmp_path / "params.csv"
        assert main(["fit", "--data", str(workdir / "data.csv"),
                     "--model", str(workdir / "model.json"),
                     "--out-draws", str(out), "--plug-in", "--seed", "0"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "theta1,theta2,sigma,chain"
        assert len(lines) == 2

    def test_plug_in_mode_feeds_predict(self, workdir, tmp_path):
        draws, summary = tmp_path / "plug.csv", tmp_path / "s.json"
        assert main(["fit", "--data", str(workdir / "data.csv"),
                     "--model", str(workdir / "model.json"),
                     "--out-draws", str(draws), "--plug-in", "--seed", "0"]) == 0
        assert main(["predict", "--draws", str(draws), "--model", str(workdir / "model.json"),
                     "--x", "0.5", "--per-draw", "4000", "--out-summary", str(summary)]) == 0
        (entry,) = json.loads(summary.read_text())["results"]
        assert entry["pi_lower"] < entry["mean"] < entry["pi_upper"]

    @pytest.mark.parametrize("case, message", [
        ("fractional-outcomes", "bernoulli outcomes must be 0/1"),
        ("feature-count", "model 'quadratic' takes 1 feature(s), the dataset has 2"),
    ], ids=["fractional-outcomes", "feature-count"])
    def test_plug_in_refuses_what_fit_refuses(self, tmp_path, capsys, case, message):
        data, model_path = tmp_path / "rows.csv", tmp_path / "model.json"
        if case == "fractional-outcomes":
            data.write_text("x1,x2,y\n0.1,0.2,0.25\n0.3,0.4,0.75\n")
            demo.classification_model().save(model_path)
        else:
            data.write_text("x1,x2,y\n0.1,0.2,1.0\n0.3,0.4,0.0\n")
            demo.regression_model("quadratic").save(model_path)
        errors = []
        for mode in ([], ["--plug-in"]):
            rc = main(["fit", "--data", str(data), "--model", str(model_path),
                       "--out-draws", str(tmp_path / "d.csv"), *mode])
            assert rc == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1] == f"error: {message}\n"
        assert not (tmp_path / "d.csv").exists()

    def test_unconverged_gate(self, workdir, tmp_path):
        # two absurdly short chains on a 4-parameter model will not converge
        model = demo.regression_model("quadratic")
        model_path = tmp_path / "quad.json"
        model.save(model_path)
        args = ["fit", "--data", str(workdir / "data.csv"), "--model", str(model_path),
                "--out-draws", str(tmp_path / "d.csv"),
                "--chains", "2", "--warmup", "5", "--samples", "20", "--seed", "0"]
        assert main(args) == 1
        assert main(args + ["--allow-unconverged"]) == 0

    def test_low_bulk_ess_alone_fails_the_fit(self, tmp_path, capsys):
        # R-hat 1.0024 passes; bulk ESS as low as 343 is below the floor
        demo.running_example().to_csv(tmp_path / "data.csv")
        demo.regression_model("exp2").save(tmp_path / "exp2.json")
        args = ["fit", "--data", str(tmp_path / "data.csv"),
                "--model", str(tmp_path / "exp2.json"), "--out-draws", str(tmp_path / "d.csv"),
                "--out-diagnostics", str(tmp_path / "diag.json"),
                "--samples", "200", "--seed", "3"]
        assert main(args) == 1
        diag = json.loads((tmp_path / "diag.json").read_text())
        low = {name for name, ess in diag["ess"].items() if ess < inference.MIN_BULK_ESS}
        assert low and set(diag["flagged"]) == low
        assert max(diag["r_hat"].values()) <= inference.MAX_R_HAT
        err = capsys.readouterr().err
        assert all(f"{name} (r_hat " in err for name in low)
        assert main(args + ["--allow-unconverged"]) == 0


class TestPredict:
    def test_summary_fields(self, workdir, tmp_path):
        out = tmp_path / "summary.json"
        rc = main(["predict", "--draws", str(workdir / "draws.csv"),
                   "--model", str(workdir / "model.json"),
                   "--x", "0.5", "--threshold", "1.2", "--per-draw", "5",
                   "--out-summary", str(out), "--seed", "4"])
        assert rc == 0
        payload = json.loads(out.read_text())
        (entry,) = payload["results"]
        assert set(entry) >= {"x", "mean", "median", "sd", "pi_lower", "pi_upper",
                              "level", "p_exceeds"}
        assert entry["p_exceeds"]["threshold"] == 1.2

    def test_two_compound_threshold_decision(self, tmp_path):
        # constant-mean draws emulate two fitted compounds; compound B has
        # around 2% mass above the safety threshold
        model = demo.regression_model("linear")
        model_path = tmp_path / "lin.json"
        model.save(model_path)
        for name, spec in (("a", demo.COMPOUND_A), ("b", demo.COMPOUND_B)):
            rows = np.tile([spec.mu, 0.0, spec.sigma], (400, 1))
            d = PosteriorDraws(draws=rows, chain=np.repeat([0, 1], 200),
                               parameter_names=("theta0", "theta1", "sigma"))
            d.to_csv(tmp_path / f"{name}.csv")
        out = tmp_path / "decision.json"
        rc = main(["predict",
                   "--draws", str(tmp_path / "a.csv"), "--model", str(model_path),
                   "--draws", str(tmp_path / "b.csv"), "--model", str(model_path),
                   "--x", "0.0", "--threshold", "8.0", "--per-draw", "100",
                   "--combine", "none", "--out-summary", str(out), "--seed", "5"])
        assert rc == 0
        results = json.loads(out.read_text())["results"]
        p_a, p_b = (r["p_exceeds"]["value"] for r in results)
        assert p_a > p_b
        assert p_b == pytest.approx(0.02, abs=0.006)

    def test_truncate_lower_bounds_interval(self, workdir, tmp_path):
        out = tmp_path / "trunc.json"
        rc = main(["predict", "--draws", str(workdir / "draws.csv"),
                   "--model", str(workdir / "model.json"),
                   "--x", "0.01", "--truncate-lower", "0",
                   "--per-draw", "5", "--out-summary", str(out), "--seed", "6"])
        assert rc == 0
        (entry,) = json.loads(out.read_text())["results"]
        assert entry["pi_lower"] >= 0.0

    def test_negative_grid_start_in_equals_form(self, workdir, tmp_path):
        summary = tmp_path / "s.json"
        rc = main(["predict", "--draws", str(workdir / "draws.csv"),
                   "--model", str(workdir / "model.json"), "--grid=-0.5:1:5",
                   "--out-summary", str(summary)])
        assert rc == 0
        xs = [r["x"] for r in json.loads(summary.read_text())["results"]]
        assert xs == [-0.5, -0.125, 0.25, 0.625, 1.0]

    def test_one_model_without_widths_builds_no_average(self, workdir, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "average_predictions", lambda preds: calls.append(preds))
        rc = main(["predict", "--draws", str(workdir / "draws.csv"),
                   "--model", str(workdir / "model.json"), "--grid", "0:1:3",
                   "--out-summary", str(tmp_path / "s.json"), "--seed", "7"])
        assert rc == 0 and calls == []

    def test_grid_widths_table(self, workdir, tmp_path):
        widths = tmp_path / "widths.csv"
        rc = main(["predict", "--draws", str(workdir / "draws.csv"),
                   "--model", str(workdir / "model.json"),
                   "--grid", "0:1:5", "--per-draw", "4",
                   "--out-summary", str(tmp_path / "s.json"),
                   "--out-widths", str(widths), "--seed", "7"])
        assert rc == 0
        lines = widths.read_text().splitlines()
        assert lines[0] == "model,x,width"
        # one curve for the model plus the average row set
        assert len(lines) == 1 + 2 * 5

    def test_x_se_routes_through_error_propagation(self, workdir, tmp_path):
        plain = tmp_path / "plain.json"
        noisy = tmp_path / "noisy.json"
        base = ["predict", "--draws", str(workdir / "draws.csv"),
                "--model", str(workdir / "model.json"), "--x", "0.15",
                "--per-draw", "10", "--seed", "8"]
        assert main(base + ["--out-summary", str(plain)]) == 0
        assert main(base + ["--x-se", "0.06", "--n-x", "20000",
                            "--out-summary", str(noisy)]) == 0
        sd_plain = json.loads(plain.read_text())["results"][0]["sd"]
        sd_noisy = json.loads(noisy.read_text())["results"][0]["sd"]
        assert sd_noisy > sd_plain

    def test_pool_combines_ensemble_fits_of_one_model(self, workdir, tmp_path):
        second = tmp_path / "draws2.csv"
        assert main(["fit", "--data", str(workdir / "data.csv"),
                     "--model", str(workdir / "model.json"),
                     "--out-draws", str(second), "--chains", "4", "--warmup", "1000",
                     "--samples", "500", "--thin", "4", "--seed", "2"]) == 0
        out = tmp_path / "pooled.json"
        rc = main(["predict",
                   "--draws", str(workdir / "draws.csv"), "--draws", str(second),
                   "--model", str(workdir / "model.json"),
                   "--x", "0.5", "--per-draw", "4",
                   "--out-summary", str(out), "--seed", "3"])
        assert rc == 0
        results = json.loads(out.read_text())["results"]
        assert any(r["model"].startswith("average(") for r in results)

    def test_one_model_serves_every_draws_file_uncombined(self, workdir, tmp_path):
        draws = str(workdir / "draws.csv")
        summary, widths = tmp_path / "s.json", tmp_path / "w.csv"
        rc = main(["predict", "--draws", draws, "--draws", draws,
                   "--model", str(workdir / "model.json"), "--grid", "0:1:3",
                   "--combine", "none", "--out-summary", str(summary),
                   "--out-widths", str(widths), "--seed", "3"])
        assert rc == 0
        results = json.loads(summary.read_text())["results"]
        assert [r["x"] for r in results] == [0.0, 0.5, 1.0] * 2
        # the two results at each x are told apart by the same labels as the widths
        assert [r["model"] for r in results] == ["true_model"] * 3 + ["true_model#1"] * 3
        with open(widths, newline="") as fh:
            names = [r["model"] for r in csv.DictReader(fh)]
        assert names == ["true_model"] * 3 + ["true_model#1"] * 3 + ["average"] * 3

    def test_repeated_model_average_names_each_copy(self, workdir, tmp_path):
        draws, out = str(workdir / "draws.csv"), tmp_path / "s.json"
        rc = main(["predict", "--draws", draws, "--draws", draws,
                   "--model", str(workdir / "model.json"), "--x", "0.5",
                   "--out-summary", str(out)])
        assert rc == 0
        labels = [r["model"] for r in json.loads(out.read_text())["results"]]
        assert labels == ["true_model", "true_model#1", "average(true_model, true_model#1)"]

    def test_x_with_grid_is_usage_error(self, workdir, tmp_path, capsys):
        out = tmp_path / "s.json"
        rc = main(["predict", "--draws", str(workdir / "draws.csv"),
                   "--model", str(workdir / "model.json"), "--x", "0.5", "--grid", "0:1:2",
                   "--out-summary", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--x" in err and "--grid" in err
        assert not out.exists()

    def test_missing_query_is_usage_error(self, workdir, tmp_path):
        rc = main(["predict", "--draws", str(workdir / "draws.csv"),
                   "--model", str(workdir / "model.json"),
                   "--out-summary", str(tmp_path / "s.json")])
        assert rc == 2

    def test_model_draws_mismatch_is_usage_error(self, workdir, tmp_path):
        model = demo.regression_model("quadratic")
        model_path = tmp_path / "quad.json"
        model.save(model_path)
        rc = main(["predict", "--draws", str(workdir / "draws.csv"),
                   "--model", str(model_path), "--x", "0.5",
                   "--out-summary", str(tmp_path / "s.json")])
        assert rc == 2

    def test_widths_without_a_grid_write_nothing(self, workdir, tmp_path, capsys):
        out = tmp_path / "s.json"
        rc = main(["predict", "--draws", str(workdir / "draws.csv"),
                   "--model", str(workdir / "model.json"), "--x", "0.5",
                   "--out-summary", str(out), "--out-widths", str(tmp_path / "w.csv")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_samples_of_uncombined_models_write_nothing(self, workdir, tmp_path, capsys):
        draws, model = str(workdir / "draws.csv"), str(workdir / "model.json")
        rc = main(["predict", "--draws", draws, "--model", model,
                   "--draws", draws, "--model", model, "--x", "0.5", "--combine", "none",
                   "--out-summary", str(tmp_path / "s.json"),
                   "--out-samples", str(tmp_path / "samples.csv")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag, flags", [
        ("--x", ["--x", "nan"]),
        ("--grid", ["--grid", "0:inf:3"]),
        ("--x-se", ["--x", "0.5", "--x-se", "nan"]),
        ("--threshold", ["--x", "0.5", "--threshold", "nan"]),
        ("--truncate-lower", ["--x", "0.5", "--truncate-lower", "nan"]),
        ("--truncate-upper", ["--x", "0.5", "--truncate-upper=-inf"]),
    ])
    def test_non_finite_flag_writes_nothing(self, workdir, tmp_path, capsys, flag, flags):
        rc = main(["predict", "--draws", str(workdir / "draws.csv"),
                   "--model", str(workdir / "model.json"), *flags,
                   "--out-summary", str(tmp_path / "s.json")])
        assert rc == 2
        assert f"{flag} must be a finite number" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


@pytest.fixture(scope="module")
def cls_fit(tmp_path_factory):
    root = tmp_path_factory.mktemp("decompose")
    data = root / "cls.csv"
    model = root / "cls.json"
    draws = root / "draws.csv"
    assert main(["simulate", "--classification", "--n", "200", "--seed", "5",
                 "--out", str(data)]) == 0
    demo.classification_model().save(model)
    assert main(["fit", "--data", str(data), "--model", str(model),
                 "--out-draws", str(draws), "--chains", "2", "--warmup", "600",
                 "--samples", "600", "--seed", "2", "--allow-unconverged"]) == 0
    return root


class TestDecompose:
    def test_decomposition_identity_in_output(self, cls_fit, tmp_path):
        out = tmp_path / "dec.json"
        rc = main(["decompose", "--draws", str(cls_fit / "draws.csv"),
                   "--model", str(cls_fit / "cls.json"),
                   "--x", "0.5,0.5", "--x", "2.0,-2.0", "--out", str(out)])
        assert rc == 0
        for r in json.loads(out.read_text())["results"]:
            gap = abs(r["aleatoric"] + r["epistemic"] - r["mu_bar"] * (1 - r["mu_bar"]))
            assert gap < 1e-12

    def test_boundary_grid_output(self, cls_fit, tmp_path):
        out = tmp_path / "dec.json"
        band = tmp_path / "band.csv"
        rc = main(["decompose", "--draws", str(cls_fit / "draws.csv"),
                   "--model", str(cls_fit / "cls.json"), "--x", "0,0",
                   "--boundary-grid=-3:3:7", "--out", str(out),
                   "--out-boundary", str(band)])
        assert rc == 0
        rows = band.read_text().splitlines()[1:]
        xs = [float(r.split(",")[0]) for r in rows]
        widths = [float(r.split(",")[2]) - float(r.split(",")[1]) for r in rows]
        assert xs == sorted(xs)
        assert all(w >= 0.0 for w in widths)

    def test_bad_boundary_grid_writes_nothing(self, cls_fit, tmp_path, capsys):
        rc = main(["decompose", "--draws", str(cls_fit / "draws.csv"),
                   "--model", str(cls_fit / "cls.json"), "--x", "0,0",
                   "--boundary-grid", "bad", "--out", str(tmp_path / "dec.json"),
                   "--out-boundary", str(tmp_path / "band.csv")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_non_numeric_boundary_grid_names_its_shape(self, cls_fit, tmp_path, capsys):
        rc = main(["decompose", "--draws", str(cls_fit / "draws.csv"),
                   "--model", str(cls_fit / "cls.json"), "--x", "0,0",
                   "--boundary-grid", "a:3:7", "--out", str(tmp_path / "dec.json"),
                   "--out-boundary", str(tmp_path / "band.csv")])
        assert rc == 2
        assert ("--boundary-grid must look like start:stop:count, got 'a:3:7'"
                in capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag, flags", [
        ("--x", ["--x", "nan,0.5"]),
        ("--x", ["--x", "0,0", "--x", "0.5,inf"]),
        ("--boundary-grid", ["--x", "0,0", "--boundary-grid=-inf:3:7"]),
        ("--x", ["--x", "a,0.5"]),
        ("--x", ["--x", "0,0", "--x", "0.5,"]),
    ])
    def test_non_finite_flag_writes_nothing(self, cls_fit, tmp_path, capsys, flag, flags):
        rc = main(["decompose", "--draws", str(cls_fit / "draws.csv"),
                   "--model", str(cls_fit / "cls.json"), *flags,
                   "--out", str(tmp_path / "dec.json"),
                   "--out-boundary", str(tmp_path / "band.csv")])
        assert rc == 2
        assert f"{flag} must be a finite number" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_scalar_predict_on_two_feature_model_is_usage_error(self, cls_fit, tmp_path, capsys):
        rc = main(["predict", "--draws", str(cls_fit / "draws.csv"),
                   "--model", str(cls_fit / "cls.json"), "--x", "0.5",
                   "--out-summary", str(tmp_path / "s.json")])
        assert rc == 2
        assert "takes 2 features" in capsys.readouterr().err

    @pytest.mark.parametrize("level", ["2", "0", "1", "-0.5", "nan"])
    def test_level_outside_unit_interval_writes_nothing(self, cls_fit, tmp_path, capsys, level):
        rc = main(["decompose", "--draws", str(cls_fit / "draws.csv"),
                   "--model", str(cls_fit / "cls.json"), "--x", "0.5,0.5",
                   "--level", level, "--out", str(tmp_path / "dec.json"),
                   "--out-boundary", str(tmp_path / "band.csv")])
        assert rc == 2
        assert "--level must lie in (0, 1)" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_seed_is_not_a_flag(self, cls_fit, tmp_path):
        # decompose draws no random numbers
        with pytest.raises(SystemExit) as exit_:
            main(["decompose", "--draws", str(cls_fit / "draws.csv"),
                  "--model", str(cls_fit / "cls.json"), "--x", "0,0",
                  "--out", str(tmp_path / "d.json"), "--seed", "0"])
        assert exit_.value.code == 2
        assert list(tmp_path.iterdir()) == []

    def test_regression_model_rejected(self, workdir, tmp_path):
        rc = main(["decompose", "--draws", str(workdir / "draws.csv"),
                   "--model", str(workdir / "model.json"),
                   "--x", "0.5", "--out", str(tmp_path / "d.json")])
        assert rc == 2


class TestReport:
    def test_fast_report_writes_manifest(self, tmp_path):
        out = tmp_path / "rep"
        assert main(["report", "--out-dir", str(out), "--fast", "--seed", "9",
                     "--m-datasets", "2"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        for rel in manifest["artifacts"]:
            assert (out / rel).is_file()
        assert manifest["run_config"]["seed"] == 9

    def test_flagged_fits_are_named_on_stderr(self, tmp_path, capsys):
        out = tmp_path / "rep"
        assert main(["report", "--out-dir", str(out), "--fast", "--seed", "1"]) == 0
        fits = json.loads((out / "convergence.json").read_text())["fits"]
        job_order = ["quadratic_full", "exp2_full", "exp3_full", "quadratic_sub", "var_trend",
                     "var_const", "logistic"] + [f"gen_{i}" for i in range(5)]
        flagged = [name for name in job_order if fits[name]["flagged"]]
        assert flagged == job_order  # --fast settings converge no fit
        assert capsys.readouterr().err.splitlines() == [
            f"report: fits flagged as unconverged: {', '.join(flagged)} "
            f"(see {out / 'convergence.json'})"]

    @pytest.mark.parametrize("flags", [["--m-datasets", "0"], ["--workers", "-3"],
                                       ["--workers", "0"]])
    def test_bad_count_writes_nothing(self, tmp_path, capsys, flags):
        out = tmp_path / "rep"
        assert main(["report", "--out-dir", str(out), "--fast", *flags]) == 2
        assert capsys.readouterr().err.startswith(f"error: {flags[0]} must be >= 1")
        assert not out.exists()

    def test_threshold_decision_is_exact(self, tmp_path):
        out = tmp_path / "rep"
        assert main(["report", "--out-dir", str(out), "--fast", "--seed", "3",
                     "--m-datasets", "1"]) == 0
        decision = json.loads((out / "threshold_decision.json").read_text())
        assert decision["threshold"] == demo.SAFETY_THRESHOLD == 8.0
        tails = {}
        for record, (name, spec) in zip(decision["compounds"],
                                        [("A", demo.COMPOUND_A), ("B", demo.COMPOUND_B)],
                                        strict=True):
            assert record["compound"] == name
            assert record["mean"] == spec.mu
            assert record["p_above_threshold"] == 1.0 - spec.cdf(8.0)
            tails[name] = record["p_above_threshold"]
        assert tails["A"] > tails["B"]

    def test_width_table_matches_prediction_intervals(self, tmp_path):
        out = tmp_path / "rep"
        assert main(["report", "--out-dir", str(out), "--fast", "--seed", "3",
                     "--m-datasets", "1"]) == 0
        with open(out / "model_averaging" / "predictions.csv", newline="") as fh:
            predicted = [((r["model"], r["x"]), float(r["pi_upper"]) - float(r["pi_lower"]))
                         for r in csv.DictReader(fh)]
        with open(out / "model_averaging" / "width_table.csv", newline="") as fh:
            widths = [((r["model"], r["x"]), float(r["width"])) for r in csv.DictReader(fh)]
        assert len(widths) == 4 * 31
        assert widths == predicted

    def test_classification_rows_and_link_curves(self, tmp_path):
        out = tmp_path / "rep"
        assert main(["report", "--out-dir", str(out), "--fast", "--seed", "3",
                     "--m-datasets", "1"]) == 0
        with open(out / "classification" / "mu_sigma.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 300
        for r in rows:
            mu_bar = float(r["mu_bar"])
            gap = float(r["aleatoric"]) + float(r["epistemic"]) - mu_bar * (1.0 - mu_bar)
            assert abs(gap) < 1e-12
        with open(out / "link_functions.csv", newline="") as fh:
            table = list(csv.DictReader(fh))
        u = np.array([float(r["u"]) for r in table])
        assert len(u) == 121
        for link in ZERO_ONE_LINKS:
            assert np.array_equal([float(r[link]) for r in table], apply_link(link, u))
