"""Canonical datasets, models, and sampler settings for the demo pipeline.

The regression demos all run off one simulated assay-vs-outcome dataset
(saturating curve, unit interval, n=100).  The saturating mean forms get
a positivity-constrained prior on the rate parameter and data-scale
priors on amplitude terms: the flat defaults admit mirror modes
(negative rate with negative amplitude) and a low-rate ridge that
componentwise random-walk chains cannot cross in reasonable time.

Every demo kind fits at the ``FitConfig`` defaults (:func:`fit_settings`).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .distributions import normal, truncated_normal
from .functions import MeanFunctionSpec, VarianceFunctionSpec, softplus
from .inference import FitConfig, ModelSpec
from .simulate import Dataset, simulate_dataset, true_mean

# Generating parameters of the running regression example.
TRUE_THETA1 = 3.25
TRUE_THETA2 = 0.2
TRUE_SIGMA = 0.1
RUNNING_EXAMPLE_SEED = 9

# Two-feature classification demo.
CLASSIFICATION_COEF = (0.4, 1.2, -1.4)
CLASSIFICATION_SEED = 5

# Threshold-decision demo: compound A looks better on its best estimate
# but carries ~14% probability of crossing the safety threshold; compound
# B sits higher on average yet crosses with only ~2% probability.
SAFETY_THRESHOLD = 8.0
COMPOUND_A = normal(6.3795, 1.5)
COMPOUND_B = normal(7.1785, 0.4)


def running_example(n: int = 100, seed: int = RUNNING_EXAMPLE_SEED) -> Dataset:
    return simulate_dataset(n, TRUE_THETA1, TRUE_THETA2, TRUE_SIGMA, seed=seed)


def heteroscedastic_example(seed: int = RUNNING_EXAMPLE_SEED) -> Dataset:
    """Same mean curve over 100 rows, outcome spread growing linearly with the mean."""
    rng = np.random.default_rng(seed)
    x = np.linspace(0.0, 1.0, 100)
    mu = true_mean(x, TRUE_THETA1, TRUE_THETA2)
    sigma = softplus(-3.1 + 1.3 * mu)
    y = mu + sigma * rng.standard_normal(x.size)
    return Dataset(x=x, y=y)


def measurement_error_example(seed: int = RUNNING_EXAMPLE_SEED) -> Dataset:
    """Running example with per-row assay errors and a constant outcome error."""
    base = running_example(seed=seed)
    rng = np.random.default_rng(seed + 500_000)
    return Dataset(
        x=base.x,
        y=base.y,
        x_se=rng.uniform(0.01, 0.08, base.n),
        y_se=np.full(base.n, 0.05),
    )


def _saturating(model: ModelSpec) -> ModelSpec:
    """``model`` with Normal+(0, 5) on the rate and Normal(0, 2) on each other
    mean parameter; its scale priors stay as they are."""
    k = model.n_mean_params
    mean_priors = (truncated_normal(0.0, 5.0, lower=0.0),) + (normal(0.0, 2.0),) * (k - 1)
    return replace(model, priors=mean_priors + model.priors[k:])


def regression_model(form: str) -> ModelSpec:
    """A constant-scale normal regression with demo priors for ``form``: the
    saturating priors for a saturating form, the defaults for any other."""
    model = ModelSpec(mean=MeanFunctionSpec(form), variance=VarianceFunctionSpec("constant"))
    if form in ("exp2", "exp3", "true_model", "michaelis_menten"):
        return _saturating(model)
    return model


def variance_trend_model() -> ModelSpec:
    """The true mean form with the scale modelled as softplus-linear in the mean."""
    return _saturating(ModelSpec(
        mean=MeanFunctionSpec("true_model"),
        variance=VarianceFunctionSpec("linear_in_mu"),
        name="true_model+scale-trend",
    ))


def classification_model() -> ModelSpec:
    return ModelSpec(
        mean=MeanFunctionSpec("linear", n_features=2),
        family="bernoulli",
        mean_link="logit",
        name="logistic",
    )


def candidate_models() -> list[ModelSpec]:
    """The three averaging candidates of the model-uncertainty demo."""
    return [regression_model("quadratic"), regression_model("exp2"), regression_model("exp3")]


def fit_settings(kind: str, seed: int, fast: bool = False) -> FitConfig:
    """Sampler settings for a demo model kind: ``FitConfig(seed=seed)``, which
    ``fast`` shrinks for smoke runs where only determinism matters.

    Every kind fits at the same setting since exp2 and exp3 are sampled by
    their rise (see ``inference._Unconstrained``).  ``kind`` has no reader,
    but the benchmark harness passes it positionally, so it stays until the
    benchmark's next change."""
    cfg = FitConfig(seed=seed)
    if fast:
        cfg = replace(cfg, warmup=max(cfg.warmup // 10, 50),
                      samples=max(cfg.samples // 10, 50), thin=1)
    return cfg
