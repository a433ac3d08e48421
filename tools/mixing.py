"""Mixing table of the sampler: how well ``ppmkit.fit`` mixes, and at what cost.

    python tools/mixing.py --kinds exp3,logistic --seeds 1009,2009 [--fast]
    python tools/mixing.py --kinds exp3 --seeds 109:6009:100
    python tools/mixing.py --flat-line

For each demo model kind and sampler seed, one fit at ``demo.fit_settings(kind,
seed, fast)`` on the kind's demo dataset (see :func:`case`), printed as one
row: min bulk ESS over the parameters, max split R-hat, the fit's
``Diagnostics.density_calls`` (``log_posterior`` calls, its starts included),
and ``FAIL`` when ``Diagnostics.flagged`` names a parameter below the convergence
floor, bulk ESS < ``MIN_BULK_ESS`` or R-hat > ``MAX_R_HAT`` (both from
``ppmkit.inference``).  A kind's seeds are fitted in lockstep by one
``fit_ensemble`` call, each seed's draws those of its lone fit, and the kind's
summary line gives the wall time of that one call.  A seed list takes
non-negative integers and ``start:stop:step`` ranges that include ``stop``
when a whole number of steps reaches it, whatever the step's sign.

``--flat-line`` counts the true_model chains that stay on its flat-line mode
(theta1 far below 0) under the default priors: 2 chains, warmup 400, samples
400, thin 1, sampler seeds 0-59, on ``simulate_dataset(100, seed=100)`` and
``simulate_dataset(200, seed=200)``, each dataset's 60 seeds in lockstep; a chain
is stuck when its mean theta1 < 0.

Every line but the summaries' wall times is deterministic for a given tree.
Run from the root of a checkout; the ``src`` beside this file is imported.
"""

import argparse
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import ppmkit as pk  # noqa: E402
from ppmkit import demo  # noqa: E402
from ppmkit.inference import MAX_R_HAT, MIN_BULK_ESS  # noqa: E402

KINDS = ("quadratic", "exp2", "exp3", "true_model", "michaelis_menten", "scale-trend",
         "logistic", "quadratic-sub")


def case(kind):
    """(model, data) of a demo kind: the report's classification or heteroscedastic
    dataset for logistic and scale-trend, the quadratic model on the report's
    every-8th-row subsample for quadratic-sub, the running example for the others."""
    if kind == "logistic":
        return demo.classification_model(), pk.simulate_classification(
            300, demo.CLASSIFICATION_COEF, seed=demo.RUNNING_EXAMPLE_SEED + 1)
    if kind == "scale-trend":
        return demo.variance_trend_model(), demo.heteroscedastic_example()
    if kind == "quadratic-sub":
        sub = pk.subsample_every_kth(demo.running_example(), 8)
        return demo.regression_model("quadratic"), sub
    return demo.regression_model(kind), demo.running_example()


def seed_list(text):
    """Integers of a comma-separated list of ``n`` and inclusive ``start:stop:step``;
    a malformed item or a negative seed raises ValueError."""
    seeds = []
    for item in text.split(","):
        start, stop, step = item.split(":") + [""] * (2 - item.count(":"))
        step = int(step or 1)
        seeds.extend(range(int(start), int(stop or start) + (1 if step > 0 else -1), step))
    if any(seed < 0 for seed in seeds):
        raise ValueError("a seed must be >= 0")
    return seeds


def mixing_table(kinds, seeds, fast):
    print(f"# FAIL: a parameter's bulk ESS < {MIN_BULK_ESS:.0f} or R-hat > {MAX_R_HAT}")
    print(f"{'kind':<17}{'seed':>7}{'min_ess':>9}{'max_rhat':>10}{'calls':>8}")
    for kind in kinds:
        model, data = case(kind)
        start = time.perf_counter()
        fits = pk.fit_ensemble(model, data, seeds, demo.fit_settings(kind, seeds[0], fast))
        wall = time.perf_counter() - start
        diags = [draws.diagnostics for draws in fits]
        ess = [min(d.ess.values()) for d in diags]
        calls = [d.density_calls for d in diags]
        fail = [bool(d.flagged) for d in diags]
        for seed, d, e, f in zip(seeds, diags, ess, fail):
            print(f"{kind:<17}{seed:>7}{e:>9.0f}{d.max_r_hat():>10.4f}{d.density_calls:>8}"
                  + ("  FAIL" if f else ""))
        print(f"# {kind}: {sum(fail)} of {len(fits)} fail; min ESS median "
              f"{statistics.median(ess):.0f}, worst {min(ess):.0f}; calls mean "
              f"{statistics.mean(calls):.0f}, range {min(calls)}-{max(calls)}; "
              f"wall {wall:.2f} s for the {len(fits)} fits", flush=True)


def flat_line_count():
    model = pk.ModelSpec(mean=pk.MeanFunctionSpec("true_model"),
                         variance=pk.VarianceFunctionSpec("constant"))
    config = pk.FitConfig(chains=2, warmup=400, samples=400, thin=1)
    total = 0
    for n, data_seed in ((100, 100), (200, 200)):
        fits = pk.fit_ensemble(model, pk.simulate_dataset(n, seed=data_seed), range(60), config)
        stuck = sum(int((d.by_chain()[:, :, 0].mean(axis=1) < 0.0).sum()) for d in fits)
        print(f"simulate_dataset({n}, seed={data_seed}): {stuck} of 120 chains stuck")
        total += stuck
    print(f"# true_model flat-line: {total} of 240 chains stuck")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kinds", default=",".join(KINDS),
                        help="comma-separated demo kinds (default: all)")
    parser.add_argument("--seeds", default="1009:4009:1000",
                        help="sampler seeds: n and start:stop:step items (default 1009:4009:1000)")
    parser.add_argument("--fast", action="store_true", help="the report's --fast settings")
    parser.add_argument("--flat-line", action="store_true",
                        help="count true_model flat-line chains instead")
    args = parser.parse_args(argv)
    if args.flat_line:
        flat_line_count()
        return
    kinds = args.kinds.split(",")
    unknown = sorted(set(kinds) - set(KINDS))
    if unknown:
        parser.error(f"unknown kind(s) {', '.join(unknown)}; choose from {', '.join(KINDS)}")
    try:
        seeds = seed_list(args.seeds)
    except ValueError as err:
        parser.error(f"--seeds {args.seeds!r}: {err}")
    if not seeds:
        parser.error(f"--seeds {args.seeds!r} names no seed")
    mixing_table(kinds, seeds, args.fast)


if __name__ == "__main__":
    main()
