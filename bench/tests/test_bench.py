"""Tests of the benchmark's own code: inputs, tracer and correctness checks."""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import workloads as wl  # noqa: E402
from tracing import Patched, Tracer  # noqa: E402


def _files(d):
    return {p.name: p.read_bytes() for p in sorted(Path(d).iterdir())}


def test_same_seed_gives_identical_inputs_and_another_seed_differs(tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for d, seed in ((a, 3), (b, 3), (c, 4)):
        d.mkdir()
        wl.write_predict_inputs(seed, d)
    fa, fb, fc = _files(a), _files(b), _files(c)
    assert len(fa) == 5
    assert fa == fb
    assert all(fa[name] != fc[name] for name in fa)


def test_synthetic_draws_have_preset_size_and_lie_in_prior_support():
    from ppmkit import demo

    for kind, model in wl.predict_models().items():
        draws = wl.synthesize_draws(kind, model, 7)
        cfg = demo.fit_settings(kind, 7)
        assert draws.n_draws == cfg.chains * cfg.samples
        for prior, col in zip(model.priors, draws.draws.T):
            assert np.all(np.isfinite(prior.log_density(col)))


def test_self_time_is_span_minus_child_time_on_hand_built_trace():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    tracer.enter("root")      # 0
    tracer.enter("a")         # 1
    tracer.enter("leaf")      # 2
    tracer.exit()             # 3: leaf spans 1
    tracer.exit()             # 4: a spans 3, child 1
    tracer.enter("b")         # 5
    tracer.exit()             # 6: b spans 1
    tracer.exit()             # 10: root spans 10, children 4
    assert tracer.stats[("leaf", "a")] == [1, 1.0, 1.0]
    assert tracer.stats[("a", "root")] == [1, 3.0, 2.0]
    assert tracer.stats[("b", "root")] == [1, 1.0, 1.0]
    assert tracer.stats[("root", None)] == [1, 10.0, 6.0]
    assert tracer.totals("root") == (1, 10.0, 6.0)


def test_patched_wraps_every_binding_and_restores_the_originals():
    import ppmkit
    from ppmkit import cli, demo, functions, inference

    original_fit, original_mean = inference.fit, functions.mean_values
    tracer = Tracer()
    with Patched(tracer):
        assert cli.fit is inference.fit is ppmkit.fit
        assert cli.fit is not original_fit
        assert inference.mean_values is not original_mean
        model = demo.regression_model("exp2")
        data = demo.running_example(20)
        ppmkit.log_posterior(model, data, [2.0, 1.2, 0.1])
    assert (cli.fit, ppmkit.fit, inference.fit) == (original_fit,) * 3
    assert inference.mean_values is original_mean
    assert tracer.totals("inference.log_posterior")[0] == 1
    assert tracer.totals("functions.mean_values", "inference.log_posterior")[0] == 1
    assert tracer.totals("distributions.log_density", "inference.log_posterior")[0] == 3


def test_nearest_rank_percentile_picks_an_observed_value():
    assert wl.percentile([3, 1, 2, 5, 4], 0.5) == 3
    assert wl.percentile([3, 1, 2, 5, 4], 0.9) == 5
    assert wl.percentile([7.0], 0.9) == 7.0
    assert wl.op_latencies([0.002, 0.001, 0.004]) == {"op_p50_ms": 2.0, "op_p90_ms": 4.0}


def test_interval_check_rejects_unordered_or_infinite_bounds():
    assert wl.check_interval(0.0, 1.0) is None
    assert wl.check_interval(1.0, 0.0)
    assert wl.check_interval(float("nan"), 1.0)
    assert wl.check_interval(0.0, float("inf"))


def test_truncation_check_rejects_a_sample_outside_its_bound():
    assert wl.check_within([0.0, 0.3, 2.0], 0.0, None) is None
    assert wl.check_within([0.1, -1e-9], 0.0, None)
    assert wl.check_within([0.1, 1.5], None, 1.0)


def test_probability_check_rejects_values_outside_unit_interval():
    assert wl.check_probability([0.0, 0.5, 1.0]) is None
    assert wl.check_probability(1.0 + 1e-12)
    assert wl.check_probability([0.2, -0.1])
    assert wl.check_probability(float("nan"))


def test_decomposition_check_rejects_a_sum_off_by_more_than_tolerance():
    from ppmkit import decompose_uncertainty

    good = decompose_uncertainty(np.array([0.2, 0.4, 0.9]))
    assert wl.check_decomposition(good) is None
    bad = SimpleNamespace(mu_bar=good.mu_bar, aleatoric=good.aleatoric + 1e-9,
                          epistemic=good.epistemic)
    assert wl.check_decomposition(bad)


def test_fit_check_rejects_an_unconverged_fit():
    from ppmkit import PosteriorDraws
    from ppmkit.inference import compute_diagnostics

    rng = np.random.default_rng(0)
    chain = np.repeat(np.arange(4), 200)
    names = ("a",)

    def draws(offsets):
        d = rng.standard_normal((800, 1)) + np.repeat(offsets, 200)[:, None]
        return PosteriorDraws(d, chain, names, compute_diagnostics(d, chain, names))

    assert wl.check_fit(draws([0.0, 0.0, 0.0, 0.0]), 1.05) is None
    assert "r_hat" in wl.check_fit(draws([0.0, 0.0, 0.0, 3.0]), 1.05)


def test_manifest_check_rejects_unlisted_and_missing_files(tmp_path):
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "a.csv").write_text("x\n")
    (tmp_path / "manifest.json").write_text(json.dumps({"artifacts": ["sub/a.csv"]}))
    assert wl.check_manifest(tmp_path) is None
    (tmp_path / "b.csv").write_text("y\n")
    assert "b.csv" in wl.check_manifest(tmp_path)
    (tmp_path / "b.csv").unlink()
    (tmp_path / "sub" / "a.csv").unlink()
    assert "sub/a.csv" in wl.check_manifest(tmp_path)


def test_benchmark_json_matches_the_reported_metric_units():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == wl.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == wl.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)


def test_run_fails_without_printing_a_result_when_sources_are_missing(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fit-full", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.fixture(scope="module")
def query_context(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("predict")
    wl.write_predict_inputs(5, workdir)
    return (5, *wl.load_predict_inputs({"workdir": workdir}))


@pytest.mark.parametrize("cls", wl.QUERY_CLASSES)
def test_each_query_class_passes_its_checks_and_repeats(query_context, cls):
    import ppmkit

    ctx = query_context
    first, problems = wl.run_query(ppmkit, ctx, cls, 0)
    assert not [p for p in problems if p]
    assert wl.run_query(ppmkit, ctx, cls, 0)[0] == first
