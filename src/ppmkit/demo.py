"""Canonical datasets, models, and sampler settings for the demo pipeline.

The regression demos all run off one simulated assay-vs-outcome dataset
(saturating curve, unit interval, n=100).  The saturating mean forms get
a positivity-constrained prior on the rate parameter and data-scale
priors on amplitude terms: the flat defaults admit mirror modes
(negative rate with negative amplitude) and a low-rate ridge that
componentwise random-walk chains cannot cross in reasonable time.

Every demo kind but exp3 fits at the ``FitConfig`` defaults (:func:`fit_settings`).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .distributions import DistributionSpec, normal, truncated_normal
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


def heteroscedastic_example(n: int = 100, seed: int = RUNNING_EXAMPLE_SEED) -> Dataset:
    """Same mean curve, outcome spread growing linearly with the mean."""
    rng = np.random.default_rng(seed)
    x = np.linspace(0.0, 1.0, n)
    mu = true_mean(x, TRUE_THETA1, TRUE_THETA2)
    sigma = softplus(-3.1 + 1.3 * mu)
    y = mu + sigma * rng.standard_normal(n)
    return Dataset(x=x, y=y, note=f"heteroscedastic n={n} seed={seed}")


def measurement_error_example(
    n: int = 100, seed: int = RUNNING_EXAMPLE_SEED
) -> Dataset:
    """Running example with per-row assay errors and a constant outcome error."""
    base = running_example(n, seed)
    rng = np.random.default_rng(seed + 500_000)
    return Dataset(
        x=base.x,
        y=base.y,
        x_se=rng.uniform(0.01, 0.08, n),
        y_se=np.full(n, 0.05),
        note=base.note + " with-errors",
    )


def _scale_prior() -> DistributionSpec:
    return truncated_normal(0.0, 2.0, lower=0.0)


def regression_model(form: str, truncation=None, name: str = "") -> ModelSpec:
    """A constant-scale normal regression with demo priors for ``form``."""
    mean = MeanFunctionSpec(form)
    if form in ("exp2", "exp3", "true_model", "michaelis_menten"):
        priors = (truncated_normal(0.0, 5.0, lower=0.0),)
        priors += tuple(normal(0.0, 2.0) for _ in range(mean.parameter_count - 1))
    else:
        priors = tuple(normal(0.0, 5.0) for _ in range(mean.parameter_count))
    priors += (_scale_prior(),)
    return ModelSpec(
        mean=mean,
        variance=VarianceFunctionSpec("constant"),
        priors=priors,
        truncation=truncation,
        name=name or form,
    )


def variance_trend_model(form: str = "true_model") -> ModelSpec:
    """Mean form with the scale modelled as softplus-linear in the mean."""
    mean = MeanFunctionSpec(form)
    priors = (truncated_normal(0.0, 5.0, lower=0.0),)
    priors += tuple(normal(0.0, 2.0) for _ in range(mean.parameter_count - 1))
    priors += (normal(0.0, 5.0), normal(0.0, 5.0))
    return ModelSpec(
        mean=mean,
        variance=VarianceFunctionSpec("linear_in_mu"),
        priors=priors,
        name=f"{form}+scale-trend",
    )


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
    """Sampler settings for a demo model kind: ``FitConfig(seed=seed)`` for every
    kind but exp3; ``fast`` shrinks them for smoke runs where only determinism
    matters."""
    cfg = FitConfig(seed=seed)
    if kind == "exp3":  # its theta1 -> 0 ridge needs longer, thinner chains
        cfg = replace(cfg, warmup=4000, samples=2000, thin=8)
    if fast:
        cfg = replace(cfg, warmup=max(cfg.warmup // 10, 50),
                      samples=max(cfg.samples // 10, 50), thin=1)
    return cfg
