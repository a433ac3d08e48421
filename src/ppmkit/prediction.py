"""Predictive distributions, intervals, exceedance probabilities, averaging.

A predictive distribution here is an empirical sample of future outcomes
at one query input.  The posterior predictive pushes every retained
parameter draw through the model and samples the outcome family; the
plug-in predictive does the same from a single point estimate, which is
exactly what ignoring parameter uncertainty means.  Both, and the
noisy-input predictive of :func:`ppmkit.uncertainty.propagate_test_error`,
share one sampler, :func:`_predictive_samples`.  A distribution is only
its query, its samples and a model label; model averaging pools leading
slices of each model's samples, in model order, under the label
``average(a, b, c)``.  A query allocates its samples once: they are drawn in
place and handed over read-only, a distribution copies only an array it could
not keep as it is, and :func:`interval` partitions one scratch copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from . import distributions as dist
from .inference import ModelSpec, PosteriorDraws


@dataclass(frozen=True)
class PredictiveDistribution:
    """Empirical outcome samples, at least one, at a query input ``x``, labelled by
    the ``model`` that produced them (``average(a, b)`` for a mixture)."""

    x: float
    samples: np.ndarray
    model: str = ""

    def __post_init__(self):
        s = self.samples
        if not (type(s) is np.ndarray and s.dtype == np.float64 and not s.flags.writeable):
            s = np.array(s, dtype=float)  # no caller can change the copy
            s.flags.writeable = False
        if s.size == 0:
            raise ValueError("empty predictive distribution")
        object.__setattr__(self, "samples", s)

    @property
    def n(self) -> int:
        return self.samples.size

    def mean(self) -> float:
        return float(self.samples.mean())

    def median(self) -> float:
        """``np.median`` of the samples, to the bit."""
        lo, hi = _bracket(self.samples.copy(), (self.n - 1) // 2)
        if self.n % 2 == 0:
            return float((lo + hi) / 2.0)
        return float(hi if np.isnan(hi) else lo)  # NaN when any sample is NaN

    def sd(self) -> float:
        return float(self.samples.std(ddof=1))


@dataclass(frozen=True)
class PredictionInterval:
    lower: float
    upper: float

    def __post_init__(self):
        if not self.lower <= self.upper:
            raise ValueError("interval bounds out of order")

    @property
    def width(self) -> float:
        return self.upper - self.lower


def _bracket(a, j):
    """Order statistics ``j`` and ``j + 1`` of ``a`` along its last axis (``j``
    twice when it is the last), from one single-position partition of scratch ``a``
    in place: the first is a view, so read it before ``a`` moves again, and the
    next the least value above position ``j``, NaN whenever ``a`` holds one (NaN
    sorts last).  numpy partitions at one position several times faster than at two."""
    a.partition(j, axis=-1)
    if j + 1 == a.shape[-1]:
        return a[..., j], a[..., j]
    return a[..., j], a[..., j + 1:].min(axis=-1)


def _quantiles(a, levels):
    """``np.quantile(a, levels, axis=-1, method="linear")``, to the bit: each
    level's bracketing order statistics by :func:`_bracket`, then numpy's
    ``_lerp``, which interpolates down from the upper one when the weight is at
    least 1/2, on one scratch copy of ``a`` partitioned level by level.  NaN where
    ``a`` holds a NaN."""
    n = a.shape[-1]
    scratch = a.copy()
    out = []
    for q in levels:
        virtual = (n - 1) * q
        if virtual >= n - 1:  # numpy's previous index is then -1
            j, gamma = n - 1, virtual + 1.0
        else:
            j = math.floor(virtual)
            gamma = virtual - j
        lo, hi = _bracket(scratch, j)
        diff = hi - lo
        out.append(hi - diff * (1.0 - gamma) if gamma >= 0.5 else lo + diff * gamma)
    return out


def _predictive_samples(model: ModelSpec, theta, x, per_draw, rng):
    """``per_draw`` outcome samples for each theta row, flattened row by row;
    ``x`` is one query or one query per row."""
    if model.mean.n_features != 1:
        raise ValueError(f"model {model.name!r} takes {model.mean.n_features} features; "
                         "predictive sampling takes one scalar query")
    theta = np.atleast_2d(np.asarray(theta, dtype=float))
    rows = theta.shape[0]
    with np.errstate(all="ignore"):  # a non-finite mean or scale is refused below
        mu = np.broadcast_to(np.atleast_1d(model.mu(theta, x)), (rows,))
        sigma = model.sigma(theta, mu)
    finite = np.isfinite(mu) if sigma is None else np.isfinite(mu) & np.isfinite(sigma)
    if not finite.all():
        query = float(np.broadcast_to(x, (rows,))[np.argmin(finite)])
        raise ValueError(f"model {model.name!r} has a non-finite mean or scale at x = {query!r}")
    if sigma is not None:
        if np.any(sigma <= 0.0):
            raise ValueError("model scale must be positive at every draw")
        sigma = sigma[:, None]
    size = (rows, per_draw)
    if model.truncation is None:
        samples = dist.sample_values(model.family, mu[:, None], sigma, model.df, rng, size)
    else:
        samples = dist.sample_truncated(model.family, mu[:, None], sigma, model.df,
                                        *model.truncation, rng, size)
    samples = samples.ravel()
    samples.flags.writeable = False  # fresh: the distribution keeps it uncopied
    return samples


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
    return PredictiveDistribution(x=float(x), samples=samples, model=model.name)


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
    return PredictiveDistribution(x=float(x), samples=samples, model=f"{model.name} (plug-in)")


def interval(pred: PredictiveDistribution, level: float = 0.95) -> PredictionInterval:
    """Central (equal-tailed) interval from empirical quantiles."""
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    if pred.n < 100:
        raise ValueError("need at least 100 samples for a stable interval")
    tail = (1.0 - level) / 2.0
    lo, hi = _quantiles(pred.samples, [tail, 1.0 - tail])
    return PredictionInterval(lower=float(lo), upper=float(hi))


def prob_exceeds(pred: PredictiveDistribution, threshold: float, direction: str = "above") -> float:
    """Fraction of samples strictly beyond the threshold."""
    if direction == "above":
        return float(np.count_nonzero(pred.samples > threshold) / pred.n)
    if direction == "below":
        return float(np.count_nonzero(pred.samples < threshold) / pred.n)
    raise ValueError("direction must be 'above' or 'below'")


def average_predictions(preds: list[PredictiveDistribution]) -> PredictiveDistribution:
    """Pool per-model predictive samples into an equal-weight mixture at a
    shared query: each model's first ``m`` samples, ``m`` the smallest
    sample count, concatenated in model order.
    """
    if len(preds) == 0:
        raise ValueError("no predictions to average")
    x = preds[0].x
    if any(p.x != x for p in preds):
        raise ValueError("predictions must share the same query x")
    m = min(p.n for p in preds)
    samples = np.concatenate([p.samples[:m] for p in preds])
    samples.flags.writeable = False  # fresh: the distribution keeps it uncopied
    return PredictiveDistribution(
        x=x,
        samples=samples,
        model="average(" + ", ".join(p.model or "model" for p in preds) + ")",
    )


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
    scale, with no leverage term.  The quantile is ``special.stdtrit``, the
    kernel behind ``scipy.stats.t.ppf``, whose values it equals."""
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    center, scale, df = _classical_center_scale_df(model, theta_hat, data, x)
    half = special.stdtrit(df, 0.5 + level / 2.0) * scale
    return PredictionInterval(lower=float(center - half), upper=float(center + half))


def classical_exceedance(
    model: ModelSpec, theta_hat, data, x: float, threshold: float, direction: str = "above"
) -> float:
    """Tail probability of the classical plug-in predictive at ``x``: the
    t_{n-p} CDF by ``special.stdtr`` (``scipy.stats.t``'s kernel), of ``-z``
    above the threshold and of ``z`` below it."""
    center, scale, df = _classical_center_scale_df(model, theta_hat, data, x)
    z = (threshold - center) / scale
    if direction == "above":
        return float(special.stdtr(df, -z))
    if direction == "below":
        return float(special.stdtr(df, z))
    raise ValueError("direction must be 'above' or 'below'")


@dataclass(frozen=True)
class WidthTable:
    """Prediction-interval widths per model (plus the average) over a grid."""

    x: tuple[float, ...]
    widths: dict[str, tuple[float, ...]]


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
    return WidthTable(x=grid, widths=widths)
