"""Predictive distributions, intervals, exceedance probabilities, averaging.

A predictive distribution here is an empirical sample of future outcomes
at one query input.  The posterior predictive pushes every retained
parameter draw through the model and samples the outcome family; the
plug-in predictive does the same from a single point estimate, which is
exactly what ignoring parameter uncertainty means.  Both, and the
noisy-input predictive of :func:`ppmkit.uncertainty.propagate_test_error`,
share one sampler, :func:`_predictive_samples`.  Model averaging pools
per-model samples into a mixture.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import stats

from . import distributions as dist
from .inference import ModelSpec, PosteriorDraws


@dataclass(frozen=True)
class PredictiveDistribution:
    """Empirical outcome samples at a query input, with provenance."""

    x: float
    samples: np.ndarray
    model: str = ""
    n_parameter_draws: int = 0
    truncated: bool = False
    sources: np.ndarray | None = None  # per-sample model tag for mixtures

    def __post_init__(self):
        s = np.array(self.samples, dtype=float)
        s.flags.writeable = False
        object.__setattr__(self, "samples", s)
        if self.sources is not None:
            src = np.array(self.sources)
            if src.shape != s.shape:
                raise ValueError("one source tag per sample required")
            src.flags.writeable = False
            object.__setattr__(self, "sources", src)

    @property
    def n(self) -> int:
        return self.samples.size

    def mean(self) -> float:
        return float(self.samples.mean())

    def median(self) -> float:
        return float(np.median(self.samples))

    def sd(self) -> float:
        return float(self.samples.std(ddof=1))


@dataclass(frozen=True)
class PredictionInterval:
    level: float
    lower: float
    upper: float

    def __post_init__(self):
        if not self.lower <= self.upper:
            raise ValueError("interval bounds out of order")

    @property
    def width(self) -> float:
        return self.upper - self.lower


def _predictive_samples(model: ModelSpec, theta, x, per_draw, rng):
    """``per_draw`` outcome samples for each theta row, flattened row by row;
    ``x`` is one query or one query per row."""
    if model.mean.n_features != 1:
        raise ValueError(f"model {model.name!r} takes {model.mean.n_features} features; "
                         "predictive sampling takes one scalar query")
    theta = np.atleast_2d(np.asarray(theta, dtype=float))
    rows = theta.shape[0]
    mu = np.broadcast_to(np.atleast_1d(model.mu(theta, x)), (rows,))
    sigma = model.sigma(theta, mu)
    if sigma is not None:
        if np.any(sigma <= 0.0):
            raise ValueError("model scale must be positive at every draw")
        sigma = sigma[:, None]
    size = (rows, per_draw)
    if model.truncation is not None:
        lo, hi = model.truncation
        return dist.sample_truncated(
            model.family, mu[:, None], sigma, model.df, lo, hi, rng, size
        ).ravel()
    return dist.sample_values(model.family, mu[:, None], sigma, model.df, rng, size).ravel()


def posterior_predictive(
    model: ModelSpec,
    draws: PosteriorDraws,
    x: float,
    per_draw: int = 1,
    rng: np.random.Generator | None = None,
) -> PredictiveDistribution:
    """Sample the posterior predictive at ``x``.

    Each retained parameter draw contributes ``per_draw`` outcome samples.
    When the model carries truncation bounds the out-of-bounds mass is
    redistributed by sampling the truncated family directly.
    """
    if draws.n_draws == 0:
        raise ValueError("no posterior draws")
    if per_draw < 1:
        raise ValueError("per_draw must be >= 1")
    if rng is None:
        rng = np.random.default_rng(0)
    samples = _predictive_samples(model, draws.draws, x, per_draw, rng)
    return PredictiveDistribution(
        x=float(x),
        samples=samples,
        model=model.name,
        n_parameter_draws=draws.n_draws,
        truncated=model.truncation is not None,
    )


def plug_in_predictive(
    model: ModelSpec,
    theta_hat,
    x: float,
    n: int = 10_000,
    rng: np.random.Generator | None = None,
) -> PredictiveDistribution:
    """Predictive from a single parameter vector: no parameter uncertainty."""
    theta_hat = np.asarray(theta_hat, dtype=float)
    if theta_hat.shape != (model.n_params,):
        raise ValueError(f"theta_hat must have length {model.n_params}")
    if n < 1:
        raise ValueError("n must be >= 1")
    if rng is None:
        rng = np.random.default_rng(0)
    samples = _predictive_samples(model, theta_hat[None, :], x, n, rng)
    return PredictiveDistribution(
        x=float(x),
        samples=samples,
        model=f"{model.name} (plug-in)",
        n_parameter_draws=1,
        truncated=model.truncation is not None,
    )


def interval(pred: PredictiveDistribution, level: float = 0.95) -> PredictionInterval:
    """Central (equal-tailed) interval from empirical quantiles."""
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    if pred.n < 100:
        raise ValueError("need at least 100 samples for a stable interval")
    tail = (1.0 - level) / 2.0
    lo, hi = np.quantile(pred.samples, [tail, 1.0 - tail], method="linear")
    return PredictionInterval(level=level, lower=float(lo), upper=float(hi))


def prob_exceeds(pred: PredictiveDistribution, threshold: float, direction: str = "above") -> float:
    """Fraction of samples strictly beyond the threshold."""
    if pred.n == 0:
        raise ValueError("empty predictive distribution")
    if direction == "above":
        return float(np.mean(pred.samples > threshold))
    if direction == "below":
        return float(np.mean(pred.samples < threshold))
    raise ValueError("direction must be 'above' or 'below'")


def average_predictions(
    preds: list[PredictiveDistribution], weights: list[float] | None = None
) -> PredictiveDistribution:
    """Pool per-model predictive samples into a mixture at a shared query.

    Equal weights downsample every model to a common size before pooling;
    explicit weights allocate sample counts proportionally.
    """
    if len(preds) == 0:
        raise ValueError("no predictions to average")
    x = preds[0].x
    if any(p.x != x for p in preds):
        raise ValueError("predictions must share the same query x")
    if weights is None:
        m = min(p.n for p in preds)
        counts = [m] * len(preds)
    else:
        if len(weights) != len(preds):
            raise ValueError("one weight per prediction required")
        w = np.asarray(weights, dtype=float)
        if np.any(w < 0.0) or abs(w.sum() - 1.0) > 1e-9:
            raise ValueError("weights must be nonnegative and sum to 1")
        total = min(int(p.n / wi) for p, wi in zip(preds, w) if wi > 0.0)
        counts = _proportional_counts(w, total)
    parts, tags = [], []
    for p, c in zip(preds, counts):
        c = min(c, p.n)
        parts.append(p.samples[:c])
        tags.append(np.full(c, p.model or "model", dtype=object))
    pooled = np.concatenate(parts)
    return PredictiveDistribution(
        x=x,
        samples=pooled,
        model="average(" + ", ".join(p.model or "model" for p in preds) + ")",
        n_parameter_draws=sum(p.n_parameter_draws for p in preds),
        truncated=all(p.truncated for p in preds),
        sources=np.concatenate(tags),
    )


def _proportional_counts(w, total):
    """Largest-remainder apportionment of ``total`` among weights ``w``."""
    raw = w * total
    counts = np.floor(raw).astype(int)
    short = total - counts.sum()
    if short > 0:
        order = np.argsort(-(raw - counts))
        counts[order[:short]] += 1
    return counts.tolist()


# --------------------------------------------------------------------- #
# Classical (normal-theory) intervals for the plug-in comparison
# --------------------------------------------------------------------- #


def _classical_center_scale_df(model: ModelSpec, theta_hat, data, x):
    if model.variance is None or (model.family, model.variance.form) != ("normal", "constant"):
        raise ValueError("classical intervals require constant-scale normal regression")
    theta_hat = np.asarray(theta_hat, dtype=float)
    fitted = model.mu(theta_hat, data.x)
    df = data.n - model.n_mean_params
    if df < 1:
        raise ValueError("need more observations than mean parameters")
    rss = float(np.sum((data.y - fitted) ** 2))
    return model.mu(theta_hat, x), math.sqrt(rss / df), df


def classical_interval(
    model: ModelSpec, theta_hat, data, x: float, level: float = 0.95
) -> PredictionInterval:
    """Textbook regression PI around the point fit, ignoring parameter
    uncertainty: center +/- t_{n-p} quantile times the unbiased residual
    scale, with no leverage term."""
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    center, scale, df = _classical_center_scale_df(model, theta_hat, data, x)
    half = stats.t.ppf(0.5 + level / 2.0, df) * scale
    return PredictionInterval(level=level, lower=float(center - half), upper=float(center + half))


def classical_exceedance(
    model: ModelSpec, theta_hat, data, x: float, threshold: float, direction: str = "above"
) -> float:
    """Tail probability of the classical plug-in predictive at ``x``."""
    center, scale, df = _classical_center_scale_df(model, theta_hat, data, x)
    z = (threshold - center) / scale
    if direction == "above":
        return float(stats.t.sf(z, df))
    if direction == "below":
        return float(stats.t.cdf(z, df))
    raise ValueError("direction must be 'above' or 'below'")


@dataclass(frozen=True)
class WidthTable:
    """Prediction-interval widths per model (plus the average) over a grid."""

    x: tuple[float, ...]
    level: float
    widths: dict[str, tuple[float, ...]]

    def rows(self):
        for name, ws in self.widths.items():
            for xi, wi in zip(self.x, ws):
                yield name, xi, wi


def pi_width_curve(
    models_preds: dict[str, list[PredictiveDistribution]], level: float = 0.95
) -> WidthTable:
    """Interval widths across a shared x grid for each model and their average."""
    names = list(models_preds)
    if not names:
        raise ValueError("no models given")
    grids = {name: tuple(p.x for p in preds) for name, preds in models_preds.items()}
    grid = grids[names[0]]
    if any(g != grid for g in grids.values()):
        raise ValueError("models evaluated on inconsistent x grids")
    widths: dict[str, tuple[float, ...]] = {}
    for name, preds in models_preds.items():
        widths[name] = tuple(interval(p, level).width for p in preds)
    averaged = [
        average_predictions([models_preds[name][i] for name in names])
        for i in range(len(grid))
    ]
    widths["average"] = tuple(interval(p, level).width for p in averaged)
    return WidthTable(x=grid, level=level, widths=widths)
