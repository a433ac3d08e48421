"""Measurement-error propagation and classification-uncertainty decomposition.

Training-data error is handled by generating multiple datasets with every
measured cell redrawn from Normal(value, standard_error), fitting each,
and pooling the predictions.  Test-input error is propagated by drawing
inputs from the error distribution and pairing each input draw with one
posterior draw.  For binary outcomes the predictive-probability draws
decompose exactly into an outcome (aleatoric) term, the mean of p(1-p),
and a parameter (epistemic) term, the variance of p.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .inference import ModelSpec, PosteriorDraws
from .prediction import (
    PredictiveDistribution,
    _predictive_samples,
    _quantiles,
    average_predictions,
    posterior_predictive,
)
from .simulate import Dataset


@dataclass(frozen=True)
class MeasuredValue:
    """A measurement with its standard error; zero error means exactly known."""

    value: float
    standard_error: float = 0.0

    def __post_init__(self):
        for name in ("value", "standard_error"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.standard_error < 0.0:
            raise ValueError("standard_error must be >= 0")


@dataclass(frozen=True)
class ClassificationUncertainty:
    """Decomposition of predictive-probability draws for a binary outcome.

    ``aleatoric`` is mean(p*(1-p)) over draws, ``epistemic`` the population
    variance of the draws; the two always sum to mu_bar*(1-mu_bar).
    ``sigma_mu`` is the sample standard deviation (ddof=1), reported
    separately as the spread of the probability draws.
    """

    mu_bar: float
    sigma_mu: float
    aleatoric: float
    epistemic: float

    def to_json(self) -> dict:
        return {
            "mu_bar": self.mu_bar,
            "sigma_mu": self.sigma_mu,
            "aleatoric": self.aleatoric,
            "epistemic": self.epistemic,
        }


def generate_datasets(data: Dataset, m: int, rng: np.random.Generator) -> list[Dataset]:
    """``m`` datasets with each measured cell redrawn from its error model.

    Every cell draw is independent across rows, columns, and datasets;
    cells with zero standard error pass through unchanged.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    out = []
    for _ in range(m):
        x = data.x
        y = data.y
        if data.x_se is not None:
            x = x + data.x_se * rng.standard_normal(x.shape)
        if data.y_se is not None:
            y = y + data.y_se * rng.standard_normal(y.shape)
        out.append(Dataset(x=x, y=y))
    return out


def propagate_test_error(
    model: ModelSpec,
    draws: PosteriorDraws,
    x: MeasuredValue,
    n_x: int = 1000,
    rng: np.random.Generator | None = None,
) -> PredictiveDistribution:
    """Predictive at an error-carrying query input.

    Draws ``n_x`` input values from Normal(x.value, x.standard_error) and
    pairs each with one posterior draw (resampled with replacement), so the
    pooled outcome samples carry both input and parameter uncertainty.
    """
    if draws.n_draws == 0:
        raise ValueError("no posterior draws")
    if n_x < 1:
        raise ValueError("n_x must be >= 1")
    if rng is None:
        rng = np.random.default_rng(0)
    # draw order: input values, then draw indices, then outcomes
    x_draws = rng.normal(x.value, x.standard_error, n_x)
    idx = rng.integers(0, draws.n_draws, n_x)
    samples = _predictive_samples(model, draws.draws[idx], x_draws, 1, rng)
    return PredictiveDistribution(
        x=x.value, samples=samples, model=f"{model.name} (input +/- {x.standard_error})"
    )


def pool_ensemble_predictions(
    fits: list[PosteriorDraws],
    model: ModelSpec,
    x: float,
    rng: np.random.Generator | None = None,
    per_draw: int = 1,
) -> PredictiveDistribution:
    """Equal-weight pooling of the posterior predictive across several fits."""
    if len(fits) == 0:
        raise ValueError("need at least one fit")
    if rng is None:
        rng = np.random.default_rng(0)
    preds = [posterior_predictive(model, f, x, per_draw=per_draw, rng=rng) for f in fits]
    if len(preds) == 1:
        return preds[0]
    return average_predictions(preds)


def classify_predictive(model: ModelSpec, draws: PosteriorDraws, x):
    """Per-draw predicted probabilities and their mean at a feature point.

    The predictive probability for the observable outcome is the mean of
    the per-draw probabilities: two queries with equal means get identical
    predictions no matter how the draws spread.
    """
    if model.family != "bernoulli":
        raise ValueError("classification requires a bernoulli model")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if model.mean.n_features == 1:
        if x.size != 1:
            raise ValueError("model takes a single feature")
        x = float(x[0])
    elif x.shape != (model.mean.n_features,):
        raise ValueError(f"query must have {model.mean.n_features} features")
    p_draws = model.mu(draws.draws, x)
    return np.asarray(p_draws, dtype=float), float(np.mean(p_draws))


def decompose_uncertainty(p_draws) -> ClassificationUncertainty:
    """Split probability draws into outcome and parameter uncertainty."""
    p = np.asarray(p_draws, dtype=float)
    if p.size < 2:
        raise ValueError("need at least 2 probability draws")
    if np.any(p < 0.0) or np.any(p > 1.0):
        raise ValueError("probability draws must lie in [0, 1]")
    mu_bar = float(p.mean())
    return ClassificationUncertainty(
        mu_bar=mu_bar,
        sigma_mu=float(p.std(ddof=1)),
        aleatoric=float(np.mean(p * (1.0 - p))),
        epistemic=float(np.mean((p - mu_bar) ** 2)),
    )


@dataclass(frozen=True)
class BoundaryBand:
    """Central interval of the decision-boundary location along a feature grid."""

    x1: tuple[float, ...]
    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def widths(self) -> np.ndarray:
        return np.asarray(self.upper) - np.asarray(self.lower)


def decision_boundary_band(
    draws: PosteriorDraws, model: ModelSpec, grid, level: float = 0.95
) -> BoundaryBand:
    """Uncertainty band of the p = 0.5 boundary of a two-feature linear model.

    For a linear score the boundary solves theta0 + theta1*x1 + theta2*x2 = 0,
    so per draw x2 = -(theta0 + theta1*x1) / theta2.  Draws with theta2 = 0
    have no finite boundary and are skipped; if most draws are degenerate the
    band is meaningless and an error is raised.
    """
    if model.family != "bernoulli" or model.mean.form != "linear" or model.mean.n_features != 2:
        raise ValueError("boundary band requires a two-feature linear bernoulli model")
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    theta = draws.draws
    keep = theta[:, 2] != 0.0
    if keep.sum() <= 0.5 * theta.shape[0]:
        raise ValueError("boundary is degenerate for most draws (theta2 = 0)")
    t0, t1, t2 = theta[keep, 0], theta[keep, 1], theta[keep, 2]
    grid = np.asarray(grid, dtype=float)
    tail = (1.0 - level) / 2.0
    lower, upper = _quantiles(-(t0 + t1 * grid[:, None]) / t2, [tail, 1.0 - tail])
    return BoundaryBand(x1=tuple(grid.tolist()), lower=tuple(lower.tolist()),
                        upper=tuple(upper.tolist()))
