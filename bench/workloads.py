"""The three ppmkit benchmark workloads, run as one fresh worker process each.

    python3 bench/workloads.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

The worker times its own set-up from its first line (the ppmkit import,
input generation and file writing), then, unless ``--setup-only``, runs the
timed part and prints one JSON object as its last line.  The timed part is
a loop of passes, each a fixed amount of work, for ``--seconds``.  With
``--trace 1`` it runs the timed part untraced and then its work once more
under the tracing wrappers, and reports per-layer metrics and the tracing
overhead.

ppmkit is driven only through its public functions, looked up on the
package at call time so the tracing wrappers see every call.
"""

import time

T0 = time.perf_counter()  # set-up is timed from here, before numpy/ppmkit load

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
clock = time.perf_counter

WORKLOADS = ("fit-full", "predict-mix", "report-fast")
QUERY_CLASSES = ("plain", "truncated", "noisy", "averaged", "classify")
PASS_ROUNDS = 40  # rounds of the query mix in one predict-mix pass (200 queries)
TRACED_PASSES = 3  # predict-mix passes repeated under the tracing wrappers
DECOMPOSITION_TOL = 1e-12

# Unit of every metric the benchmark reports; every workload reports all of
# them.  An operation is one fit (fit-full), one query (predict-mix) or one
# report (report-fast).  BENCHMARK.json lists the same names; a test keeps
# the two in step.
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# metric name -> (span, scale to the unit, parent filter); value = mean per call
PER_CALL = {
    "inference.fit_s": ("inference.fit", 1.0, ...),
    "inference.log_posterior_us": ("inference.log_posterior", 1e6, ...),
    "inference.compute_diagnostics_ms": ("inference.compute_diagnostics", 1e3, ...),
    "inference.plug_in_fit_s": ("inference.plug_in_fit", 1.0, ...),
    "inference.draws_from_csv_ms": ("inference.draws_from_csv", 1e3, ...),
    "inference.draws_to_csv_ms": ("inference.draws_to_csv", 1e3, ...),
    "distributions.log_density_us": ("distributions.log_density", 1e6, ...),
    # likelihood kernels only, not the same kernels evaluating prior terms
    "distributions.normal_logpdf_us": ("distributions.normal_logpdf", 1e6, "inference.log_posterior"),
    "distributions.bernoulli_logpmf_us": (
        "distributions.bernoulli_logpmf", 1e6, "inference.log_posterior"),
    "distributions.sample_truncated_us": ("distributions.sample_truncated", 1e6, ...),
    "distributions.sample_values_us": ("distributions.sample_values", 1e6, ...),
    "functions.mean_values_us": ("functions.mean_values", 1e6, ...),
    "functions.apply_link_us": ("functions.apply_link", 1e6, ...),
    "functions.sigma_values_us": ("functions.sigma_values", 1e6, ...),
    "prediction.posterior_predictive_ms": ("prediction.posterior_predictive", 1e3, ...),
    "prediction.interval_ms": ("prediction.interval", 1e3, ...),
    "prediction.average_predictions_ms": ("prediction.average_predictions", 1e3, ...),
    "prediction.pi_width_curve_ms": ("prediction.pi_width_curve", 1e3, ...),
    "uncertainty.propagate_test_error_ms": ("uncertainty.propagate_test_error", 1e3, ...),
    "uncertainty.classify_predictive_us": ("uncertainty.classify_predictive", 1e6, ...),
    "uncertainty.decompose_uncertainty_us": ("uncertainty.decompose_uncertainty", 1e6, ...),
    "uncertainty.decision_boundary_band_ms": ("uncertainty.decision_boundary_band", 1e3, ...),
    "simulate.dataset_from_csv_ms": ("simulate.dataset_from_csv", 1e3, ...),
    "simulate.dataset_to_csv_ms": ("simulate.dataset_to_csv", 1e3, ...),
}
# metric name -> (span, parent filter); value = number of calls
COUNTS = {
    "inference.log_posterior_calls": ("inference.log_posterior", ...),
    "inference.plug_in_fit_calls": ("inference.log_posterior", "inference.plug_in_fit"),
    "distributions.log_density_calls": ("distributions.log_density", ...),
}
FIT_NAMES = ("exp3", "logistic")
PER_LAYER_UNITS = {
    **{name: name.rsplit("_", 1)[1] for name in PER_CALL},
    **{name: "count" for name in COUNTS},
    **{f"inference.{stat}.{fit}": unit
       for fit in FIT_NAMES
       for stat, unit in (("fit_s", "s"), ("log_posterior_calls", "count"),
                          ("acceptance", "ratio"), ("ess_per_1k_calls", "ESS/1k-calls"),
                          ("max_rhat", "ratio"), ("min_bulk_ess", "ESS"),
                          ("ess_per_s", "1/s"))},
    **{f"prediction.posterior_predictive_ms.{c}": "ms" for c in ("plain", "truncated", "averaged")},
    "cli.report_self_s": "s",
    "trace.overhead_frac": "ratio",
}


# --------------------------------------------------------------------- #
# Correctness checks: each returns None or a one-line reason
# --------------------------------------------------------------------- #


def check_interval(lower, upper):
    if not (math.isfinite(lower) and math.isfinite(upper)):
        return f"interval bound not finite: [{lower}, {upper}]"
    if not lower <= upper:
        return f"interval bounds out of order: [{lower}, {upper}]"
    return None


def check_within(samples, lower, upper):
    import numpy as np

    s = np.asarray(samples, dtype=float)
    lo = -np.inf if lower is None else lower
    hi = np.inf if upper is None else upper
    bad = int(np.count_nonzero(~((s >= lo) & (s <= hi))))
    return f"{bad} truncated samples outside [{lo}, {hi}]" if bad else None


def check_probability(p):
    import numpy as np

    p = np.asarray(p, dtype=float)
    if not np.all((p >= 0.0) & (p <= 1.0)):
        return "probability outside [0, 1]"
    return None


def check_decomposition(dec):
    gap = abs(dec.aleatoric + dec.epistemic - dec.mu_bar * (1.0 - dec.mu_bar))
    return None if gap <= DECOMPOSITION_TOL else f"aleatoric + epistemic off by {gap:.3g}"


def check_fit(draws, gate):
    import numpy as np

    if not np.all(np.isfinite(draws.draws)):
        return "non-finite draws"
    if draws.diagnostics is None:
        return "no diagnostics"
    r_hat = draws.diagnostics.max_r_hat()
    return None if r_hat <= gate else f"max r_hat {r_hat:.4f} > gate {gate}"


def check_manifest(out_dir):
    """Every file the report wrote is listed in its manifest, and nothing else."""
    out_dir = Path(out_dir)
    manifest = out_dir / "manifest.json"
    if not manifest.is_file():
        return "no manifest.json"
    listed = set(json.loads(manifest.read_text())["artifacts"])
    written = {p.relative_to(out_dir).as_posix() for p in out_dir.rglob("*") if p.is_file()}
    written.discard("manifest.json")
    if listed != written:
        return (f"manifest mismatch: unlisted {sorted(written - listed)}, "
                f"missing {sorted(listed - written)}")
    return None


def tree_digest(out_dir):
    h = hashlib.sha256()
    for p in sorted(Path(out_dir).rglob("*")):
        if p.is_file():
            h.update(p.relative_to(out_dir).as_posix().encode() + b"\0")
            h.update(p.read_bytes())
    return h.hexdigest()


def percentile(values, q):
    """Nearest-rank percentile: the smallest value at or above a share ``q``."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)), 1) - 1]


def op_latencies(seconds):
    """``op_p50_ms`` and ``op_p90_ms`` of per-operation wall times."""
    ms = [1e3 * t for t in seconds]
    return {"op_p50_ms": percentile(ms, 0.5), "op_p90_ms": percentile(ms, 0.9)}


class Tally:
    """Operations attempted and failed, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []
        self.errors = []  # run-level check failures

    def op(self, problems):
        self.attempted += 1
        problems = [p for p in problems if p]
        if problems:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append("; ".join(problems))


def _failure(err):
    return f"{type(err).__name__}: {err}"


# --------------------------------------------------------------------- #
# fit-full
# --------------------------------------------------------------------- #


def setup_fit_full(seed, workdir):
    """The demo models and data of the full-preset fits.  They do not
    depend on ``seed``; see FIT_SCHEDULE for the sampler seeds."""
    import ppmkit as pk
    from ppmkit import demo

    cls = pk.simulate_classification(
        300, demo.CLASSIFICATION_COEF, seed=demo.RUNNING_EXAMPLE_SEED + 1)
    return {
        "exp3": (demo.regression_model("exp3"), demo.running_example()),
        "logistic": (demo.classification_model(), cls),
    }


# (model, k): one fit with the fixed sampler seed demo seed + 1000 k, the
# seed the report gives its k-th fit.  Bulk ESS of a 4-chain fit moves
# several-fold between sampler seeds, so a seed that changed with --seed
# would make the ESS figures measure the seed, not the program.  exp3 takes
# about 25 s a fit and logistic about 3 s, short enough for a slow spell of
# the host to move one timing by half; so a pass fits logistic on four
# distinct chain sets, spread around the exp3 fit.  op_p50_ms is then the
# median logistic fit and op_p90_ms the exp3 fit.
FIT_SCHEDULE = (("logistic", 1), ("logistic", 2), ("exp3", 1), ("logistic", 3), ("logistic", 4))


def _fit_pass(pk, fits, tally, tracer=None):
    """[(model, wall time, draws, log-posterior calls or None)] of one pass
    over FIT_SCHEDULE; a fit that raises is counted and left out."""
    from ppmkit import demo
    from ppmkit.cli import R_HAT_GATE

    done = []
    for name, k in FIT_SCHEDULE:
        model, data = fits[name]
        config = demo.fit_settings(name, demo.RUNNING_EXAMPLE_SEED + 1000 * k)
        label = f"{name}@{config.seed}"
        calls = tracer.totals("inference.log_posterior")[0] if tracer else None
        start = clock()
        try:
            draws = pk.fit(model, data, config)
        except Exception as err:  # counted, the run goes on
            tally.op([f"{label}: {_failure(err)}"])
            continue
        wall = clock() - start
        if tracer:
            calls = tracer.totals("inference.log_posterior")[0] - calls
        done.append((name, wall, draws, calls))
        problem = check_fit(draws, R_HAT_GATE)
        tally.op([problem and f"{label}: {problem}"])
    return done


def _draws_digest(done):
    h = hashlib.sha256()
    for name, _, draws, _ in done:
        h.update(name.encode() + draws.draws.tobytes())
    return h.hexdigest()


def _min_ess(draws):
    return min(draws.diagnostics.ess.values())


def run_fit_full(fits, seconds, tally):
    import ppmkit as pk

    passes, start = [], clock()
    while True:
        pass_start = clock()
        done = _fit_pass(pk, fits, tally)
        passes.append((clock() - pass_start, done))
        if clock() - start >= seconds:
            break
    if len({_draws_digest(done) for _, done in passes}) != 1:
        tally.errors.append("fit draws differ between passes of one run")
    wall = statistics.median(wall for wall, _ in passes)
    metrics = {"wall_s": wall,
               **op_latencies([w for _, done in passes for _, w, _, _ in done])}
    # ESS rates of the untraced fits, reported by the traced run
    ess_per_s = {}
    for name in FIT_NAMES:
        rates = [_min_ess(draws) / w for _, done in passes
                 for n, w, draws, _ in done if n == name and draws.diagnostics is not None]
        if rates:
            ess_per_s[name] = statistics.median(rates)
    return metrics, {"digest": _draws_digest(passes[0][1]), "wall": wall,
                     "ess_per_s": ess_per_s}


def trace_fit_full(fits, untraced, tally):
    import ppmkit as pk
    from tracing import Patched, Tracer

    tracer = Tracer()
    with Patched(tracer):
        start = clock()
        done = _fit_pass(pk, fits, tally, tracer)
        wall = clock() - start
    if _draws_digest(done) != untraced["digest"]:
        tally.errors.append("traced fits differ from untraced fits")
    metrics = layer_metrics(tracer)
    for name in FIT_NAMES:
        # lower median over the model's fits in the pass (four for logistic):
        # the value of one actual fit, so counts stay whole numbers
        fit_runs = [(w, d, c) for n, w, d, c in done if n == name and d.diagnostics is not None]
        if not fit_runs:
            continue
        stats = {
            "fit_s": [w for w, _, _ in fit_runs],
            "log_posterior_calls": [c for _, _, c in fit_runs],
            "acceptance": [statistics.fmean(d.diagnostics.acceptance) for _, d, _ in fit_runs],
            "ess_per_1k_calls": [1000.0 * _min_ess(d) / c for _, d, c in fit_runs],
            "max_rhat": [d.diagnostics.max_r_hat() for _, d, _ in fit_runs],
            "min_bulk_ess": [_min_ess(d) for _, d, _ in fit_runs],
        }
        metrics.update({f"inference.{stat}.{name}": statistics.median_low(values)
                        for stat, values in stats.items()})
    for name, rate in untraced["ess_per_s"].items():
        metrics[f"inference.ess_per_s.{name}"] = rate
    return metrics, wall


# --------------------------------------------------------------------- #
# predict-mix
# --------------------------------------------------------------------- #

# Synthetic posteriors near what the demo fits give on the running example:
# per parameter (centre, spread, positive).  Positive parameters are drawn
# log-normally so every draw lies inside the prior support.
SYNTHETIC = {
    "exp3": ((2.6, 0.15, True), (1.0, 0.08, False), (0.2, 0.03, False), (0.1, 0.07, True)),
    "exp2": ((2.2, 0.1, True), (1.25, 0.05, False), (0.12, 0.07, True)),
    "quadratic": ((0.25, 0.03, False), (2.0, 0.15, False), (-1.0, 0.15, False),
                  (0.1, 0.07, True)),
    "logistic": ((0.4, 0.15, False), (1.2, 0.15, False), (-1.4, 0.15, False)),
}


def predict_models():
    from ppmkit import demo

    return {
        "exp3": demo.regression_model("exp3"),
        "exp2": demo.regression_model("exp2"),
        "quadratic": demo.regression_model("quadratic"),
        "logistic": demo.classification_model(),
    }


def synthesize_draws(kind, model, seed):
    """4 chains x the preset's retained samples of plausible posterior draws."""
    import numpy as np
    import ppmkit as pk
    from ppmkit import demo

    config = demo.fit_settings(kind, seed)
    rows = config.chains * config.samples
    rng = np.random.default_rng([seed, list(SYNTHETIC).index(kind)])
    cols = []
    for centre, spread, positive in SYNTHETIC[kind]:
        z = rng.standard_normal(rows)
        cols.append(centre * np.exp(spread * z) if positive else centre + spread * z)
    draws = np.column_stack(cols)
    for prior, col in zip(model.priors, draws.T):
        if not np.all(np.isfinite(prior.log_density(col))):
            raise RuntimeError(f"synthetic {kind} draw outside the prior support")
    chain = np.repeat(np.arange(config.chains), config.samples)
    return pk.PosteriorDraws(draws=draws, chain=chain, parameter_names=model.parameter_names)


def write_predict_inputs(seed, workdir):
    """Write the synthetic draws and the 300-row classification set as CSV."""
    import ppmkit as pk
    from ppmkit import demo

    workdir = Path(workdir)
    for kind, model in predict_models().items():
        synthesize_draws(kind, model, seed).to_csv(workdir / f"{kind}_draws.csv")
    pk.simulate_classification(300, demo.CLASSIFICATION_COEF, seed=seed).to_csv(
        workdir / "classification.csv")


def setup_predict_mix(seed, workdir):
    write_predict_inputs(seed, workdir)
    return {"seed": seed, "workdir": Path(workdir)}


def load_predict_inputs(state):
    import dataclasses

    import ppmkit as pk

    models = predict_models()
    models["exp2_truncated"] = dataclasses.replace(models["exp2"], truncation=(0.0, None))
    draws = {k: pk.PosteriorDraws.from_csv(state["workdir"] / f"{k}_draws.csv")
             for k in ("exp3", "exp2", "quadratic", "logistic")}
    data = pk.Dataset.from_csv(state["workdir"] / "classification.csv")
    return models, draws, data


def run_query(pk, ctx, cls, i):
    """One query of class ``cls``: (summary tuple, list of check results)."""
    import numpy as np

    seed, models, draws, data = ctx
    rng = np.random.default_rng([seed, QUERY_CLASSES.index(cls), i])
    if cls == "plain":
        x, threshold = rng.uniform(0.0, 1.0), rng.uniform(0.6, 1.4)
        pred = pk.posterior_predictive(models["exp3"], draws["exp3"], x, per_draw=10, rng=rng)
        iv = pk.interval(pred)
        p = pk.prob_exceeds(pred, threshold)
        return (x, iv.lower, iv.upper, p), [check_interval(iv.lower, iv.upper),
                                            check_probability(p)]
    if cls == "truncated":
        x = rng.uniform(0.0, 0.05)
        pred = pk.posterior_predictive(models["exp2_truncated"], draws["exp2"], x,
                                       per_draw=20, rng=rng)
        iv = pk.interval(pred)
        p = pk.prob_exceeds(pred, 0.0, "below")
        return (x, iv.lower, iv.upper, p), [check_interval(iv.lower, iv.upper),
                                            check_within(pred.samples, 0.0, None),
                                            check_probability(p)]
    if cls == "noisy":
        x = rng.uniform(0.05, 0.95)
        pred = pk.propagate_test_error(models["exp3"], draws["exp3"],
                                       pk.MeasuredValue(x, 0.06), n_x=1000, rng=rng)
        iv = pk.interval(pred)
        return (x, iv.lower, iv.upper), [check_interval(iv.lower, iv.upper)]
    if cls == "averaged":
        x = rng.uniform(0.0, 1.0)
        preds = [pk.posterior_predictive(models[k], draws[k], x, per_draw=2, rng=rng)
                 for k in ("quadratic", "exp2", "exp3")]
        iv = pk.interval(pk.average_predictions(preds))
        return (x, iv.lower, iv.upper), [check_interval(iv.lower, iv.upper)]
    row = int(rng.integers(data.n))
    p_draws, y_pred = pk.classify_predictive(models["logistic"], draws["logistic"], data.x[row])
    dec = pk.decompose_uncertainty(p_draws)
    return ((row, y_pred, dec.aleatoric, dec.epistemic),
            [check_probability(p_draws), check_probability(y_pred), check_decomposition(dec)])


def _query_pass(pk, state, tally, tracer=None):
    """One pass: read the CSV inputs back, then serve PASS_ROUNDS rounds of
    interleaved classes in a closed loop (one client).  Returns the pass's
    wall time, its query summaries and each query's latency."""
    start = clock()
    ctx = (state["seed"], *load_predict_inputs(state))
    summaries, latencies = [], []
    for n in range(PASS_ROUNDS * len(QUERY_CLASSES)):
        cls, i = QUERY_CLASSES[n % len(QUERY_CLASSES)], n // len(QUERY_CLASSES)
        q_start = clock()
        try:
            if tracer is None:
                summary, problems = run_query(pk, ctx, cls, i)
            else:
                with tracer.span(f"query.{cls}"):
                    summary, problems = run_query(pk, ctx, cls, i)
        except Exception as err:  # counted, the run goes on
            summary, problems = None, [f"{cls}#{i}: {_failure(err)}"]
        latencies.append(clock() - q_start)
        summaries.append(summary)
        tally.op(problems)
    return clock() - start, summaries, latencies


def run_predict_mix(state, seconds, tally):
    import ppmkit as pk

    walls, latencies, digests, start = [], [], set(), clock()
    while True:
        wall, summaries, lat = _query_pass(pk, state, tally)
        walls.append(wall)
        latencies += lat
        digests.add(hashlib.sha256(repr(summaries).encode()).hexdigest())
        if clock() - start >= seconds:
            break
    if len(digests) != 1:
        tally.errors.append("query summaries differ between passes of one run")
    wall = statistics.median(walls)
    metrics = {"wall_s": wall, **op_latencies(latencies)}
    return metrics, {"digest": next(iter(digests)), "summaries": summaries, "wall": wall}


def trace_predict_mix(state, untraced, tally):
    import ppmkit as pk
    from tracing import Patched, Tracer

    tracer = Tracer()
    walls = []
    with Patched(tracer):
        for _ in range(TRACED_PASSES):
            wall, summaries, _ = _query_pass(pk, state, tally, tracer)
            walls.append(wall)
            if summaries != untraced["summaries"]:
                tally.errors.append("traced queries differ from untraced ones")
        # the set-up's writer, timed here so set-up itself stays untraced
        tracer_dir = state["workdir"] / "traced-inputs"
        tracer_dir.mkdir(exist_ok=True)
        write_predict_inputs(state["seed"], tracer_dir)
    metrics = layer_metrics(tracer)
    for cls in ("plain", "truncated", "averaged"):
        count, total, _ = tracer.totals("prediction.posterior_predictive", f"query.{cls}")
        if count:
            metrics[f"prediction.posterior_predictive_ms.{cls}"] = 1e3 * total / count
    return metrics, statistics.median(walls)


# --------------------------------------------------------------------- #
# report-fast
# --------------------------------------------------------------------- #


def setup_report_fast(seed, workdir):
    import ppmkit.cli  # noqa: F401  (the import is part of set-up)

    return {"seed": seed, "workdir": Path(workdir)}


def _report_pass(state, tally):
    from ppmkit import cli

    out = state["workdir"] / "report"
    shutil.rmtree(out, ignore_errors=True)
    # a fixed relative --out-dir: the path is recorded in the outputs
    argv = ["report", "--fast", "--workers", "1", "--seed", str(state["seed"]),
            "--out-dir", "report"]
    start = clock()
    try:
        rc = cli.main(argv)
    except Exception as err:  # counted, the run goes on
        tally.op([_failure(err)])
        return clock() - start, None
    wall = clock() - start
    if rc != 0:
        tally.op([f"report exited {rc}"])
        return wall, None
    tally.op([check_manifest(out)])
    return wall, tree_digest(out)


def run_report_fast(state, seconds, tally):
    walls, digests, start = [], set(), clock()
    while True:
        wall, digest = _report_pass(state, tally)
        walls.append(wall)
        digests.add(digest)
        if clock() - start >= seconds:
            break
    if len(digests) != 1:
        tally.errors.append("report artifacts differ between passes of one run")
    wall = statistics.median(walls)
    metrics = {"wall_s": wall, **op_latencies(walls)}
    return metrics, {"digest": next(iter(digests)), "wall": wall}


def trace_report_fast(state, untraced, tally):
    from tracing import Patched, Tracer

    tracer = Tracer()
    with Patched(tracer):
        wall, digest = _report_pass(state, tally)
    if digest != untraced["digest"]:
        tally.errors.append("traced report differs from untraced report")
    metrics = layer_metrics(tracer)
    count, _, self_time = tracer.totals("cli.cmd_report")
    if count:
        metrics["cli.report_self_s"] = self_time / count
    return metrics, wall


# --------------------------------------------------------------------- #
# Metrics from a trace
# --------------------------------------------------------------------- #


def layer_metrics(tracer):
    out = {}
    for metric, (span, scale, parent) in PER_CALL.items():
        count, total, _ = tracer.totals(span, parent)
        if count:
            out[metric] = scale * total / count
    for metric, (span, parent) in COUNTS.items():
        count = tracer.totals(span, parent)[0]
        if count:
            out[metric] = count
    return out


WORKLOAD_FUNCS = {
    "fit-full": (setup_fit_full, run_fit_full, trace_fit_full),
    "predict-mix": (setup_predict_mix, run_predict_mix, trace_predict_mix),
    "report-fast": (setup_report_fast, run_report_fast, trace_report_fast),
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    os.environ.pop("PPM_SEED", None)  # the CLI would let it override --seed
    workdir = Path(args.workdir).resolve()
    workdir.mkdir(parents=True, exist_ok=True)
    os.chdir(workdir)

    setup, run, trace = WORKLOAD_FUNCS[args.workload]
    state = setup(args.seed, workdir)
    setup_s = clock() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tally = Tally()
    metrics, extra = run(state, args.seconds, tally)
    result = {"digest": extra["digest"]}
    if args.trace:
        # extra["wall"]: untraced wall time of the work the traced run repeats
        base = extra["wall"]
        metrics, traced_wall = trace(state, extra, tally)
        metrics["trace.overhead_frac"] = (traced_wall - base) / base
        # a layer the workload never calls reports 0 (no calls, no time)
        metrics = {name: metrics.get(name, 0) for name in PER_LAYER_UNITS}
    else:
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result.update({
        "setup_s": setup_s,
        "metrics": metrics,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.reasons,
        "errors": tally.errors,
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
