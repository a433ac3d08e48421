"""Mixing table of the sampler: how well ``ppmkit.fit`` mixes, and at what cost.

    python tools/mixing.py --kinds exp3,logistic --seeds 1009,2009 [--fast]
    python tools/mixing.py --kinds exp3 --seeds 109:6009:100
    python tools/mixing.py --flat-line

For each demo model kind and sampler seed, one fit at ``demo.fit_settings(kind,
seed, fast)`` on the kind's demo dataset (see :func:`case`), printed as one
row: min bulk ESS over the parameters, max split R-hat, the ``log_posterior``
calls of the fit (its starts included), wall time, and ``FAIL`` when min ESS
< 400 or R-hat > 1.01.  A seed list takes integers and
inclusive ``start:stop:step`` ranges.  Each kind ends with a summary line.

``--flat-line`` counts the true_model chains that stay on its flat-line mode
(theta1 far below 0) under the default priors: 2 chains, warmup 400, samples
400, thin 1, sampler seeds 0-59, on ``simulate_dataset(100, seed=100)`` and
``simulate_dataset(200, seed=200)``; a chain is stuck when its mean theta1 < 0.

Counts, ESS and R-hat are deterministic for a given tree; wall times are not.
Run from the root of a checkout; the ``src`` beside this file is imported.
"""

import argparse
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import ppmkit as pk  # noqa: E402
from ppmkit import demo, inference  # noqa: E402

KINDS = ("quadratic", "exp2", "exp3", "true_model", "michaelis_menten", "scale-trend",
         "logistic", "quadratic-sub")
MIN_ESS, MAX_R_HAT = 400.0, 1.01


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
    """Integers of a comma-separated list of ``n`` and inclusive ``start:stop:step``."""
    seeds = []
    for item in text.split(","):
        start, _, rest = item.partition(":")
        if not rest:
            seeds.append(int(start))
            continue
        stop, _, step = rest.partition(":")
        seeds.extend(range(int(start), int(stop) + 1, int(step or 1)))
    return seeds


def counted_fit(model, data, config):
    """``fit(model, data, config)``, its ``log_posterior`` calls and wall time."""
    original, calls = inference.log_posterior, [0]

    def counting(*args):
        calls[0] += 1
        return original(*args)

    inference.log_posterior = counting
    try:
        start = time.perf_counter()
        draws = pk.fit(model, data, config)
        return draws, calls[0], time.perf_counter() - start
    finally:
        inference.log_posterior = original


def mixing_table(kinds, seeds, fast):
    print(f"{'kind':<17}{'seed':>7}{'min_ess':>9}{'max_rhat':>10}{'calls':>8}{'wall_s':>8}")
    for kind in kinds:
        model, data = case(kind)
        rows = []
        for seed in seeds:
            draws, calls, wall = counted_fit(model, data, demo.fit_settings(kind, seed, fast))
            ess, r_hat = min(draws.diagnostics.ess.values()), draws.diagnostics.max_r_hat()
            fail = ess < MIN_ESS or r_hat > MAX_R_HAT
            rows.append((ess, calls, wall, fail))
            print(f"{kind:<17}{seed:>7}{ess:>9.0f}{r_hat:>10.4f}{calls:>8}{wall:>8.2f}"
                  + ("  FAIL" if fail else ""), flush=True)
        ess, calls, wall, fail = zip(*rows)
        print(f"# {kind}: {sum(fail)} of {len(rows)} fail; min ESS median "
              f"{statistics.median(ess):.0f}, worst {min(ess):.0f}; calls mean "
              f"{statistics.mean(calls):.0f}, range {min(calls)}-{max(calls)}; "
              f"wall mean {statistics.mean(wall):.2f} s", flush=True)


def flat_line_count():
    model = pk.ModelSpec(mean=pk.MeanFunctionSpec("true_model"),
                         variance=pk.VarianceFunctionSpec("constant"))
    total = chains = 0
    for n, data_seed in ((100, 100), (200, 200)):
        data = pk.simulate_dataset(n, seed=data_seed)
        stuck = 0
        for seed in range(60):
            config = pk.FitConfig(chains=2, warmup=400, samples=400, thin=1, seed=seed)
            theta1 = pk.fit(model, data, config).by_chain()[:, :, 0]
            stuck += int((theta1.mean(axis=1) < 0.0).sum())
            chains += 2
        print(f"simulate_dataset({n}, seed={data_seed}): {stuck} of 120 chains stuck")
        total += stuck
    print(f"# true_model flat-line: {total} of {chains} chains stuck")


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
    mixing_table(kinds, seed_list(args.seeds), args.fast)


if __name__ == "__main__":
    main()
