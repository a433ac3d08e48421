"""Command-line interface: simulate | fit | predict | decompose | report.

Every command is deterministic given its flags and seed; the ``PPM_SEED``
environment variable overrides ``--seed`` when set.  JSON outputs embed
the resolved run configuration, and all files are written atomically
(temp file + rename).  Exit codes: 0 success, 1 runtime failure, 2 usage
error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__, demo
from .functions import ZERO_ONE_LINKS, apply_link
from .inference import (
    FitConfig,
    FitError,
    ModelSpec,
    PosteriorDraws,
    fit,
    plug_in_fit,
)
from .prediction import (
    average_predictions,
    classical_exceedance,
    classical_interval,
    interval,
    pi_width_curve,
    posterior_predictive,
    prob_exceeds,
)
from .simulate import (
    Dataset,
    csv_text,
    simulate_classification,
    simulate_dataset,
    subsample_every_kth,
)
from .uncertainty import (
    MeasuredValue,
    classify_predictive,
    decision_boundary_band,
    decompose_uncertainty,
    generate_datasets,
    pool_ensemble_predictions,
    propagate_test_error,
)

R_HAT_GATE = 1.05


class UsageError(Exception):
    pass


# --------------------------------------------------------------------- #
# Output plumbing
# --------------------------------------------------------------------- #


def _write_atomic(path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _run_config(args: argparse.Namespace) -> dict:
    flags = {}
    for key, value in sorted(vars(args).items()):
        # workers is an execution-resource knob: output bytes must not
        # depend on the degree of parallelism
        if key in ("func", "command", "workers"):
            continue
        if isinstance(value, Path):
            value = str(value)
        flags[key] = value
    return {
        "command": args.command,
        "flags": flags,
        "seed": getattr(args, "seed", None),
        "version": __version__,
    }


def _resolve_seed(args: argparse.Namespace) -> None:
    env = os.environ.get("PPM_SEED")
    if env is not None and hasattr(args, "seed"):
        try:
            args.seed = int(env)
        except ValueError as err:
            raise UsageError(f"PPM_SEED must be an integer, got {env!r}") from err


def _require_file(path, what: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"{what} not found: {p}")
    return p


def _parse_grid(text: str) -> np.ndarray:
    try:
        start, stop, count = text.split(":")
        grid = np.linspace(float(start), float(stop), int(count))
    except ValueError as err:
        raise UsageError(f"grid must look like start:stop:count, got {text!r}") from err
    if grid.size < 1:
        raise UsageError("grid must contain at least one point")
    return grid


def _summary_entry(pred, level, threshold=None, direction="above"):
    iv = interval(pred, level)
    entry = {
        "x": pred.x,
        "model": pred.model,
        "mean": pred.mean(),
        "median": pred.median(),
        "sd": pred.sd(),
        "pi_lower": iv.lower,
        "pi_upper": iv.upper,
        "level": level,
        "p_exceeds": None,
    }
    if threshold is not None:
        entry["p_exceeds"] = {
            "threshold": threshold,
            "direction": direction,
            "value": prob_exceeds(pred, threshold, direction),
        }
    return entry


# --------------------------------------------------------------------- #
# simulate
# --------------------------------------------------------------------- #


def cmd_simulate(args) -> int:
    if args.classification:
        coef = tuple(float(v) for v in args.coef.split(","))
        if len(coef) != 3:
            raise UsageError("--coef needs three comma-separated values")
        data = simulate_classification(args.n, coef, seed=args.seed)
    else:
        try:
            data = simulate_dataset(
                args.n, args.theta1, args.theta2, args.sigma,
                seed=args.seed, random_x=args.random_x,
            )
        except ValueError as err:
            raise UsageError(str(err)) from err
    if args.subsample_k is not None:
        try:
            data = subsample_every_kth(data, args.subsample_k)
        except ValueError as err:
            raise UsageError(str(err)) from err
    _write_atomic(args.out, data.to_csv_text())
    return 0


# --------------------------------------------------------------------- #
# fit
# --------------------------------------------------------------------- #


def cmd_fit(args) -> int:
    data = Dataset.from_csv(_require_file(args.data, "dataset"))
    model = ModelSpec.load(_require_file(args.model, "model spec"))
    if args.plug_in:
        theta = plug_in_fit(model, data, seed=args.seed)
        _write_atomic(args.out_draws, csv_text(model.parameter_names, [list(theta)]))
        if args.out_diagnostics:
            _write_atomic(
                args.out_diagnostics,
                _json_text({"run_config": _run_config(args), "mode": "plug_in"}),
            )
        return 0
    config = FitConfig(
        chains=args.chains,
        warmup=args.warmup,
        samples=args.samples,
        init_scale=args.init_scale,
        target_accept=args.target_accept,
        seed=args.seed,
        thin=args.thin,
    )
    try:
        draws = fit(model, data, config)
    except FitError as err:
        if args.out_diagnostics and err.diagnostics is not None:
            payload = {"run_config": _run_config(args), "error": str(err)}
            payload.update(err.diagnostics.to_json())
            _write_atomic(args.out_diagnostics, _json_text(payload))
        print(f"fit failed: {err}", file=sys.stderr)
        return 1
    _write_atomic(args.out_draws, draws.to_csv_text())
    diag = draws.diagnostics
    if args.out_diagnostics and diag is not None:
        payload = {"run_config": _run_config(args)}
        payload.update(diag.to_json())
        _write_atomic(args.out_diagnostics, _json_text(payload))
    if diag is not None and diag.max_r_hat() > R_HAT_GATE and not args.allow_unconverged:
        print(
            f"fit did not converge: max r_hat {diag.max_r_hat():.3f} > {R_HAT_GATE}",
            file=sys.stderr,
        )
        return 1
    return 0


# --------------------------------------------------------------------- #
# predict
# --------------------------------------------------------------------- #


def cmd_predict(args) -> int:
    draw_paths = [_require_file(p, "draws file") for p in args.draws]
    model_paths = [_require_file(p, "model spec") for p in args.model]
    models = [ModelSpec.load(p) for p in model_paths]
    if len(models) == 1 and len(draw_paths) > 1:
        if args.combine != "pool":
            raise UsageError("one model spec per draws file is required unless --combine pool")
        models = models * len(draw_paths)
    if len(models) != len(draw_paths):
        raise UsageError("one --model per --draws is required")
    all_draws = [PosteriorDraws.from_csv(p) for p in draw_paths]
    for m, d in zip(models, all_draws):
        if m.parameter_names != d.parameter_names:
            raise UsageError(
                f"model {m.name!r} expects parameters {m.parameter_names}, "
                f"draws carry {d.parameter_names}"
            )

    if args.grid is not None:
        queries = _parse_grid(args.grid)
    elif args.x:
        queries = np.asarray(args.x, dtype=float)
    else:
        raise UsageError("supply --x or --grid")
    if args.truncate_lower is not None or args.truncate_upper is not None:
        bounds = (args.truncate_lower, args.truncate_upper)
        models = [dataclasses.replace(m, truncation=bounds) for m in models]

    per_model = {}
    for mi, (m, d) in enumerate(zip(models, all_draws)):
        key = m.name if m.name not in per_model else f"{m.name}#{mi}"
        preds = []
        for qi, x in enumerate(queries):
            rng = np.random.default_rng([args.seed, mi, qi])
            if args.x_se is not None:
                pred = propagate_test_error(
                    m, d, MeasuredValue(float(x), args.x_se), n_x=args.n_x, rng=rng
                )
            else:
                pred = posterior_predictive(m, d, float(x), per_draw=args.per_draw, rng=rng)
            preds.append(pred)
        per_model[key] = preds

    combined = None
    if len(per_model) > 1 and args.combine in ("average", "pool"):
        combined = [
            average_predictions([per_model[k][qi] for k in per_model])
            for qi in range(len(queries))
        ]

    results = []
    for key, preds in per_model.items():
        for pred in preds:
            results.append(_summary_entry(pred, args.level, args.threshold, args.direction))
    if combined is not None:
        for pred in combined:
            results.append(_summary_entry(pred, args.level, args.threshold, args.direction))
    _write_atomic(
        args.out_summary,
        _json_text({"run_config": _run_config(args), "results": results}),
    )

    if args.out_samples:
        if combined is not None:
            series = combined
        elif len(per_model) == 1:
            series = next(iter(per_model.values()))
        else:
            raise UsageError("--out-samples with several models requires --combine")
        rows = [(float(p.x), float(s)) for p in series for s in p.samples]
        _write_atomic(args.out_samples, csv_text(["x", "sample"], rows))

    if args.out_widths:
        if len(queries) < 2:
            raise UsageError("--out-widths requires a grid of queries")
        try:
            table = pi_width_curve(per_model, args.level)
        except ValueError as err:
            raise UsageError(str(err)) from err
        rows = [(name, x, w) for name, x, w in table.rows()]
        _write_atomic(args.out_widths, csv_text(["model", "x", "width"], rows))
    return 0


# --------------------------------------------------------------------- #
# decompose
# --------------------------------------------------------------------- #


def cmd_decompose(args) -> int:
    model = ModelSpec.load(_require_file(args.model, "model spec"))
    if model.family != "bernoulli":
        raise UsageError("decompose requires a classification (bernoulli) model")
    draws = PosteriorDraws.from_csv(_require_file(args.draws, "draws file"))
    results = []
    for text in args.x:
        features = [float(v) for v in text.split(",")]
        p_draws, y_pred = classify_predictive(model, draws, features)
        out = decompose_uncertainty(p_draws)
        results.append({"x": features, "y_predictive": y_pred, **out.to_json()})
    _write_atomic(
        args.out,
        _json_text({"run_config": _run_config(args), "results": results}),
    )
    if args.boundary_grid:
        grid = _parse_grid(args.boundary_grid)
        band = decision_boundary_band(draws, model, grid, level=args.level)
        rows = list(zip(band.x1, band.lower, band.upper))
        _write_atomic(args.out_boundary, csv_text(["x1", "lower", "upper"], rows))
    return 0


# --------------------------------------------------------------------- #
# report
# --------------------------------------------------------------------- #


def _predictive_rng(seed, section, index):
    return np.random.default_rng([seed, section, index])


def cmd_report(args) -> int:
    """Run the whole demo pipeline into one directory of plot-ready files."""
    out = Path(args.out_dir)
    seed = args.seed
    level = 0.95
    artifacts = []

    def emit(rel, text):
        _write_atomic(out / rel, text)
        artifacts.append(rel)

    def emit_json(rel, payload):
        emit(rel, _json_text({"run_config": _run_config(args), **payload}))

    def emit_csv(rel, header, rows):
        emit(rel, csv_text(header, rows))

    # ---- datasets -----------------------------------------------------
    data = demo.running_example(seed=seed)
    sub = subsample_every_kth(data, 8)
    cls_data = simulate_classification(300, demo.CLASSIFICATION_COEF, seed=seed + 1)
    hetero = demo.heteroscedastic_example(seed=seed)
    err_data = demo.measurement_error_example(seed=seed)
    emit("data/running_example.csv", data.to_csv_text())
    emit("data/subsample_k8.csv", sub.to_csv_text())
    emit("data/classification.csv", cls_data.to_csv_text())
    emit("data/heteroscedastic.csv", hetero.to_csv_text())
    emit("data/running_example_with_errors.csv", err_data.to_csv_text())

    # ---- fits (independent; may run in parallel) ----------------------
    quad, exp2, exp3 = demo.candidate_models()
    generated = generate_datasets(err_data, args.m_datasets, np.random.default_rng([seed, 99]))
    var_model = demo.variance_trend_model()
    var_const_model = demo.regression_model("true_model")
    cls_model = demo.classification_model()
    jobs = [
        ("quadratic_full", quad, data),
        ("exp2_full", exp2, data),
        ("exp3_full", exp3, data),
        ("quadratic_sub", quad, sub),
        ("var_trend", var_model, hetero),
        ("var_const", var_const_model, hetero),
        ("logistic", cls_model, cls_data),
    ] + [(f"gen_{i}", exp3, g) for i, g in enumerate(generated)]
    names, models, datasets = zip(*jobs)
    configs = [
        demo.fit_settings(demo.preset_for(model), seed + 1000 * (i + 1), args.fast)
        for i, model in enumerate(models)
    ]
    if args.workers > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            fitted = list(pool.map(fit, models, datasets, configs))
    else:
        fitted = list(map(fit, models, datasets, configs))
    draws = dict(zip(names, fitted))
    convergence = {
        name: d.diagnostics.to_json() for name, d in draws.items() if d.diagnostics is not None
    }
    emit_json("convergence.json", {"fits": convergence})

    # ---- threshold decision (two-compound demo) -----------------------
    rng = _predictive_rng(seed, 1, 0)
    records = []
    for name, spec in (("A", demo.COMPOUND_A), ("B", demo.COMPOUND_B)):
        samples = spec.sample(rng, 200_000)
        records.append(
            {
                "compound": name,
                "mean": float(samples.mean()),
                "p_above_threshold": float(np.mean(samples > demo.SAFETY_THRESHOLD)),
            }
        )
    emit_json(
        "threshold_decision.json",
        {"threshold": demo.SAFETY_THRESHOLD, "compounds": records},
    )

    # ---- model averaging over an extended grid ------------------------
    grid = np.round(np.linspace(0.0, 3.0, 31), 10)
    per_model = {}
    for mi, (name, model) in enumerate([("quadratic", quad), ("exp2", exp2), ("exp3", exp3)]):
        per_model[name] = [
            posterior_predictive(model, draws[f"{name}_full"], float(x), per_draw=2,
                                 rng=_predictive_rng(seed, 10 + mi, qi))
            for qi, x in enumerate(grid)
        ]
    averaged = [
        average_predictions([per_model[k][qi] for k in per_model])
        for qi in range(len(grid))
    ]
    rows = []
    for name, preds in list(per_model.items()) + [("average", averaged)]:
        for p in preds:
            iv = interval(p, level)
            rows.append((name, p.x, p.mean(), iv.lower, iv.upper))
    emit_csv("model_averaging/predictions.csv",
             ["model", "x", "mean", "pi_lower", "pi_upper"], rows)
    table = pi_width_curve(per_model, level)
    emit_csv("model_averaging/width_table.csv", ["model", "x", "width"],
             [(n, x, w) for n, x, w in table.rows()])

    # ---- parameter uncertainty on the subsample -----------------------
    theta_hat = plug_in_fit(quad, sub, seed=seed)
    sub_grid = np.round(np.linspace(float(sub.x.min()), float(sub.x.max()), 25), 10)
    rows = []
    for qi, x in enumerate(sub_grid):
        bayes = posterior_predictive(quad, draws["quadratic_sub"], float(x), per_draw=10,
                                     rng=_predictive_rng(seed, 20, qi))
        biv = interval(bayes, level)
        civ = classical_interval(quad, theta_hat, sub, float(x), level)
        rows.append((float(x), biv.lower, biv.upper, civ.lower, civ.upper))
    emit_csv("parameter_uncertainty/pi_curves.csv",
             ["x", "bayes_lower", "bayes_upper", "classic_lower", "classic_upper"], rows)
    bayes_at = posterior_predictive(quad, draws["quadratic_sub"], 0.5, per_draw=25,
                                    rng=_predictive_rng(seed, 21, 0))
    p_bayes = prob_exceeds(bayes_at, 1.2, "above")
    p_classic = classical_exceedance(quad, theta_hat, sub, 0.5, 1.2, "above")
    emit_json(
        "parameter_uncertainty/tail_probabilities.json",
        {
            "x": 0.5,
            "threshold": 1.2,
            "p_bayes": p_bayes,
            "p_classic": p_classic,
            "ratio": p_bayes / p_classic,
            "plug_in_theta": list(theta_hat),
        },
    )

    # ---- measurement error --------------------------------------------
    base_pred = posterior_predictive(exp3, draws["exp3_full"], 0.15, per_draw=10,
                                     rng=_predictive_rng(seed, 30, 0))
    noisy_pred = propagate_test_error(
        exp3, draws["exp3_full"], MeasuredValue(0.15, 0.06), n_x=1000,
        rng=_predictive_rng(seed, 30, 1),
    )
    emit_json(
        "measurement_error/test_input_error.json",
        {
            "x": 0.15,
            "x_se": 0.06,
            "baseline": _summary_entry(base_pred, level),
            "with_input_error": _summary_entry(noisy_pred, level),
            "variance_ratio": noisy_pred.samples.var(ddof=1) / base_pred.samples.var(ddof=1),
        },
    )
    gen_fits = [draws[f"gen_{i}"] for i in range(args.m_datasets)]
    pooled = pool_ensemble_predictions(gen_fits, exp3, 0.15,
                                       rng=_predictive_rng(seed, 31, 0), per_draw=2)
    per_fit = [
        _summary_entry(
            posterior_predictive(exp3, g, 0.15, per_draw=2, rng=_predictive_rng(seed, 32, i)),
            level,
        )
        for i, g in enumerate(gen_fits)
    ]
    emit_json(
        "measurement_error/training_error.json",
        {
            "x": 0.15,
            "m_datasets": args.m_datasets,
            "baseline": _summary_entry(base_pred, level),
            "per_dataset": per_fit,
            "pooled": _summary_entry(pooled, level),
        },
    )

    # ---- truncated prediction ------------------------------------------
    exp2_trunc = dataclasses.replace(exp2, truncation=(0.0, None))
    untrunc = posterior_predictive(exp2, draws["exp2_full"], 0.05, per_draw=20,
                                   rng=_predictive_rng(seed, 40, 0))
    trunc = posterior_predictive(exp2_trunc, draws["exp2_full"], 0.05, per_draw=20,
                                 rng=_predictive_rng(seed, 40, 1))
    emit_json(
        "truncation/truncated_prediction.json",
        {
            "x": 0.05,
            "untruncated": _summary_entry(untrunc, level, threshold=0.0, direction="below"),
            "truncated": _summary_entry(trunc, level, threshold=0.0, direction="below"),
            "negative_fraction_untruncated": prob_exceeds(untrunc, 0.0, "below"),
            "negative_fraction_truncated": prob_exceeds(trunc, 0.0, "below"),
        },
    )

    # ---- link functions --------------------------------------------------
    u = np.linspace(-6.0, 6.0, 121)
    emit_csv(
        "link_functions.csv",
        ["u"] + list(ZERO_ONE_LINKS),
        [(float(ui),) + tuple(float(apply_link(l, ui)) for l in ZERO_ONE_LINKS) for ui in u],
    )

    # ---- variance function ----------------------------------------------
    x_grid = np.round(np.linspace(0.0, 1.0, 21), 10)
    trend_draws = draws["var_trend"].draws
    rows = []
    for qi, x in enumerate(x_grid):
        const_pred = posterior_predictive(var_const_model, draws["var_const"], float(x),
                                          per_draw=5, rng=_predictive_rng(seed, 50, qi))
        trend_pred = posterior_predictive(var_model, draws["var_trend"], float(x), per_draw=5,
                                          rng=_predictive_rng(seed, 51, qi))
        civ = interval(const_pred, level)
        tiv = interval(trend_pred, level)
        # posterior-mean scale at this x under the trend model
        sig = var_model.sigma(trend_draws, var_model.mu(trend_draws, float(x)))
        rows.append((float(x), civ.lower, civ.upper, tiv.lower, tiv.upper, float(np.mean(sig))))
    emit_csv(
        "variance_function/pi_curves.csv",
        ["x", "const_lower", "const_upper", "trend_lower", "trend_upper", "trend_sigma_mean"],
        rows,
    )

    # ---- classification ---------------------------------------------------
    cls_draws = draws["logistic"]
    rows = []
    for i in range(cls_data.n):
        p_draws, y_pred = classify_predictive(cls_model, cls_draws, cls_data.x[i])
        out_i = decompose_uncertainty(p_draws)
        rows.append(
            (
                float(cls_data.x[i, 0]),
                float(cls_data.x[i, 1]),
                float(cls_data.y[i]),
                out_i.mu_bar,
                out_i.sigma_mu,
                out_i.aleatoric,
                out_i.epistemic,
            )
        )
    emit_csv(
        "classification/mu_sigma.csv",
        ["x1", "x2", "y", "mu_bar", "sigma_mu", "aleatoric", "epistemic"], rows,
    )
    band = decision_boundary_band(cls_draws, cls_model, np.round(np.linspace(-3.0, 3.0, 25), 10),
                                  level=level)
    emit_csv("classification/boundary_band.csv", ["x1", "lower", "upper"],
             list(zip(band.x1, band.lower, band.upper)))
    # paired compounds: same predicted probability, twice the spread
    p_base, _ = classify_predictive(cls_model, cls_draws, [0.5, 0.5])
    p_pair = p_base.mean() + 2.0 * (p_base - p_base.mean())
    p_pair = np.clip(p_pair, 0.0, 1.0)
    d_base = decompose_uncertainty(p_base)
    d_pair = decompose_uncertainty(p_pair)
    emit_json(
        "classification/paired_compounds.json",
        {
            "query": [0.5, 0.5],
            "compound_narrow": {"y_predictive": float(p_base.mean()), **d_base.to_json()},
            "compound_wide": {"y_predictive": float(p_pair.mean()), **d_pair.to_json()},
            "epistemic_ratio": d_pair.epistemic / d_base.epistemic,
        },
    )

    emit_json("manifest.json", {"artifacts": sorted(artifacts)})
    return 0


# --------------------------------------------------------------------- #
# Argument parsing
# --------------------------------------------------------------------- #


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ppmkit",
        description="Probabilistic predictive models: simulate, fit, predict, decompose, report.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="write a simulated dataset CSV")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--theta1", type=float, default=demo.TRUE_THETA1)
    p.add_argument("--theta2", type=float, default=demo.TRUE_THETA2)
    p.add_argument("--sigma", type=float, default=demo.TRUE_SIGMA)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--classification", action="store_true")
    p.add_argument("--coef", default="0.4,1.2,-1.4",
                   help="classification coefficients theta0,theta1,theta2")
    p.add_argument("--subsample-k", type=int, default=None)
    p.add_argument("--random-x", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="sample the posterior (or --plug-in point fit)")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out-draws", required=True)
    p.add_argument("--out-diagnostics", default=None)
    p.add_argument("--chains", type=int, default=4)
    p.add_argument("--warmup", type=int, default=1000)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--thin", type=int, default=1)
    p.add_argument("--init-scale", type=float, default=0.5)
    p.add_argument("--target-accept", type=float, default=0.30)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--plug-in", action="store_true")
    p.add_argument("--allow-unconverged", action="store_true")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="predictive summaries from saved draws")
    p.add_argument("--draws", action="append", required=True)
    p.add_argument("--model", action="append", required=True)
    p.add_argument("--x", type=float, action="append", default=[])
    p.add_argument("--grid", default=None, help="start:stop:count")
    p.add_argument("--per-draw", type=int, default=1)
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--direction", choices=["above", "below"], default="above")
    p.add_argument("--truncate-lower", type=float, default=None)
    p.add_argument("--truncate-upper", type=float, default=None)
    p.add_argument("--x-se", type=float, default=None)
    p.add_argument("--n-x", type=int, default=1000)
    p.add_argument("--combine", choices=["none", "average", "pool"], default="average")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-summary", required=True)
    p.add_argument("--out-samples", default=None)
    p.add_argument("--out-widths", default=None)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("decompose", help="classification uncertainty decomposition")
    p.add_argument("--draws", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--x", action="append", required=True,
                   help="comma-separated feature values; repeatable")
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--boundary-grid", default=None, help="start:stop:count over x1")
    p.add_argument("--out", required=True)
    p.add_argument("--out-boundary", default="boundary_band.csv")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("report", help="run the full demo pipeline into a directory")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=demo.RUNNING_EXAMPLE_SEED)
    p.add_argument("--fast", action="store_true",
                   help="tiny sampler settings; for smoke tests only")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--m-datasets", type=int, default=5)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _resolve_seed(args)
        return args.func(args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except ValueError as err:
        # bad values in user-supplied files or flag combinations
        print(f"error: {err}", file=sys.stderr)
        return 2
    except FitError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
