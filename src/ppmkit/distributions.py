"""Data-generating distributions with log-density, CDF, quantile, and sampling.

The family table :data:`OUTCOMES` is the one place an outcome family
(``normal``, location-scale ``student_t``, ``bernoulli``) is defined; the
fourth spec family, ``truncated_normal``, keeps its own kernels.
Truncated densities are renormalized by the in-bounds probability mass,
and truncated sampling uses the inverse CDF of the renormalized
distribution, so draw count and determinism never depend on rejection
loops.  The vectorized kernels (``normal_logpdf`` etc.) serve the
likelihood in :mod:`ppmkit.inference`; table entries look them up by
module-level name at call time, so a wrapper installed on a kernel name
sees every call.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from scipy import special, stats

_LOG_2PI = math.log(2.0 * math.pi)
_NEG_INF = float("-inf")


# --------------------------------------------------------------------- #
# Vectorized density kernels
# --------------------------------------------------------------------- #


def normal_logpdf(y, mu, sigma):
    """Elementwise Normal(mu, sigma) log-density; broadcasts all arguments."""
    z = (np.asarray(y, dtype=float) - mu) / sigma
    return -0.5 * z * z - np.log(sigma) - 0.5 * _LOG_2PI


def student_t_logpdf(y, mu, sigma, df):
    """Elementwise location-scale Student-t log-density."""
    z = (np.asarray(y, dtype=float) - mu) / sigma
    c = (
        special.gammaln((df + 1.0) / 2.0)
        - special.gammaln(df / 2.0)
        - 0.5 * np.log(df * np.pi)
    )
    return c - np.log(sigma) - 0.5 * (df + 1.0) * np.log1p(z * z / df)


def bernoulli_logpmf(y, p):
    """Elementwise Bernoulli log-mass; -inf off the {0, 1} support."""
    y = np.asarray(y, dtype=float)
    p = np.asarray(p, dtype=float)
    with np.errstate(divide="ignore"):
        log_p = np.log(p)
        log_q = np.log1p(-p)
    out = np.where(y == 1.0, log_p, np.where(y == 0.0, log_q, _NEG_INF))
    return out if out.ndim else float(out)


def truncated_normal_logpdf(y, mu, sigma, lower, upper):
    """Normal log-density renormalized to [lower, upper]; -inf outside."""
    y = np.asarray(y, dtype=float)
    lo = -np.inf if lower is None else lower
    hi = np.inf if upper is None else upper
    mass = special.ndtr((hi - mu) / sigma) - special.ndtr((lo - mu) / sigma)
    if np.any(mass <= 0.0):
        raise ValueError("truncation interval carries no probability mass")
    out = normal_logpdf(y, mu, sigma) - np.log(mass)
    out = np.where((y < lo) | (y > hi), _NEG_INF, out)
    return out if out.ndim else float(out)


# --------------------------------------------------------------------- #
# The family table
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class Family:
    """An outcome family: ``logpdf``, ``cdf`` and ``ppf`` take ``(y or p, mu, sigma,
    df)`` and ``sample`` takes ``(mu, sigma, df, rng, size)``, ignoring unused ones."""

    logpdf: Callable
    cdf: Callable
    ppf: Callable
    sample: Callable
    continuous: bool = True  # can be truncated
    has_df: bool = False  # takes degrees of freedom df > 0


OUTCOMES = {
    "normal": Family(
        logpdf=lambda y, mu, sigma, df: normal_logpdf(y, mu, sigma),
        cdf=lambda y, mu, sigma, df: special.ndtr((y - mu) / sigma),
        ppf=lambda p, mu, sigma, df: mu + sigma * special.ndtri(p),
        sample=lambda mu, sigma, df, rng, size: mu + sigma * rng.standard_normal(size),
    ),
    "student_t": Family(
        logpdf=lambda y, mu, sigma, df: student_t_logpdf(y, mu, sigma, df),
        cdf=lambda y, mu, sigma, df: stats.t.cdf(y, df, loc=mu, scale=sigma),
        ppf=lambda p, mu, sigma, df: stats.t.ppf(p, df, loc=mu, scale=sigma),
        sample=lambda mu, sigma, df, rng, size: mu + sigma * rng.standard_t(df, size=size),
        has_df=True,
    ),
    "bernoulli": Family(
        logpdf=lambda y, mu, sigma, df: bernoulli_logpmf(y, mu),
        cdf=lambda y, mu, sigma, df: np.where(y < 0.0, 0.0, np.where(y < 1.0, 1.0 - mu, 1.0)),
        ppf=lambda p, mu, sigma, df: np.where(p <= 1.0 - mu, 0.0, 1.0),
        sample=lambda mu, sigma, df, rng, size: (rng.random(size) < mu).astype(float),
        continuous=False,
    ),
}

FAMILIES = (*OUTCOMES, "truncated_normal")


def sample_values(family, mu, sigma, df, rng, size):
    """Draw ``size`` values from an untruncated family; mu/sigma broadcast."""
    if family not in OUTCOMES:
        raise ValueError(f"unknown family {family!r}")
    return OUTCOMES[family].sample(mu, sigma, df, rng, size)


def sample_truncated(family, mu, sigma, df, lower, upper, rng, size):
    """Inverse-CDF draws from a continuous family truncated to [lower, upper].

    The uniform variate is mapped through the parent CDF restricted to
    [lower, upper], so every draw lands in bounds and the cost per draw is
    constant.
    """
    entry = OUTCOMES.get(family)
    if entry is None or not entry.continuous:
        raise ValueError(f"family {family!r} does not support truncation")
    lo = -np.inf if lower is None else lower
    hi = np.inf if upper is None else upper
    u = rng.random(size)
    f_lo = entry.cdf(lo, mu, sigma, df)
    mass = entry.cdf(hi, mu, sigma, df) - f_lo
    if np.any(mass <= 0.0):
        raise ValueError("truncation interval carries no probability mass")
    u = u * mass
    u += f_lo  # in place: a second array live across the ppf call costs page faults
    return np.clip(entry.ppf(u, mu, sigma, df), lo, hi)


# --------------------------------------------------------------------- #
# Spec surface
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class DistributionSpec:
    """A fully parameterized distribution from one of the four families.

    ``mu`` is the location (the success probability for ``bernoulli``),
    ``sigma`` the scale (absent for ``bernoulli``), ``df`` the Student-t
    degrees of freedom, and ``lower``/``upper`` the optional truncation
    bounds of a ``truncated_normal``.
    """

    family: str
    mu: float
    sigma: float | None = None
    df: float | None = None
    lower: float | None = None
    upper: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.family == "bernoulli":
            if not 0.0 <= self.mu <= 1.0:
                raise ValueError("bernoulli mu must lie in [0, 1]")
            if self.sigma is not None:
                raise ValueError("bernoulli takes no scale parameter")
        else:
            if self.sigma is None or not self.sigma > 0.0:
                raise ValueError("sigma must be a positive real")
        if self.family == "student_t":
            if self.df is None or not self.df > 0.0:
                raise ValueError("student_t requires df > 0")
        elif self.df is not None:
            raise ValueError("df only applies to student_t")
        if self.family == "truncated_normal":
            lo = -np.inf if self.lower is None else self.lower
            hi = np.inf if self.upper is None else self.upper
            if not lo < hi:
                raise ValueError("require lower < upper")
        elif self.lower is not None or self.upper is not None:
            raise ValueError("bounds only apply to truncated_normal")

    # ---------- densities ----------

    def log_density(self, y):
        """Natural-log density (or mass) at ``y``; -inf off the support."""
        if self.family == "truncated_normal":
            out = truncated_normal_logpdf(y, self.mu, self.sigma, self.lower, self.upper)
        else:
            out = OUTCOMES[self.family].logpdf(y, self.mu, self.sigma, self.df)
        return float(out) if np.ndim(out) == 0 else out

    def cdf(self, y):
        """P(Y <= y)."""
        y = np.asarray(y, dtype=float)
        if self.family == "truncated_normal":
            a, b = self._std_bounds()
            out = stats.truncnorm.cdf(y, a, b, loc=self.mu, scale=self.sigma)
        else:
            out = OUTCOMES[self.family].cdf(y, self.mu, self.sigma, self.df)
        return float(out) if np.ndim(out) == 0 else out

    def quantile(self, p):
        """Inverse CDF at ``p`` in the open interval (0, 1)."""
        p_arr = np.asarray(p, dtype=float)
        if np.any(p_arr <= 0.0) or np.any(p_arr >= 1.0):
            raise ValueError("quantile requires p in (0, 1)")
        if self.family == "truncated_normal":
            a, b = self._std_bounds()
            out = stats.truncnorm.ppf(p_arr, a, b, loc=self.mu, scale=self.sigma)
        else:
            out = OUTCOMES[self.family].ppf(p_arr, self.mu, self.sigma, self.df)
        return float(out) if np.ndim(out) == 0 else out

    def sample(self, rng, n):
        """``n`` independent draws using ``rng`` (numpy Generator)."""
        if n < 1:
            raise ValueError("n must be >= 1")
        if self.family == "truncated_normal":
            return sample_truncated(
                "normal", self.mu, self.sigma, None, self.lower, self.upper, rng, n
            )
        return sample_values(self.family, self.mu, self.sigma, self.df, rng, n)

    def _std_bounds(self):
        a = -np.inf if self.lower is None else (self.lower - self.mu) / self.sigma
        b = np.inf if self.upper is None else (self.upper - self.mu) / self.sigma
        return a, b

    # ---------- serialization ----------

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "mu": self.mu,
            "sigma": self.sigma,
            "df": self.df,
            "lower": self.lower,
            "upper": self.upper,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "DistributionSpec":
        return cls(
            family=obj["family"],
            mu=obj["mu"],
            sigma=obj.get("sigma"),
            df=obj.get("df"),
            lower=obj.get("lower"),
            upper=obj.get("upper"),
        )


def normal(mu: float, sigma: float) -> DistributionSpec:
    return DistributionSpec("normal", mu, sigma)


def student_t(mu: float, sigma: float, df: float) -> DistributionSpec:
    return DistributionSpec("student_t", mu, sigma, df=df)


def bernoulli(mu: float) -> DistributionSpec:
    return DistributionSpec("bernoulli", mu)


def truncated_normal(
    mu: float, sigma: float, lower: float | None = None, upper: float | None = None
) -> DistributionSpec:
    return DistributionSpec("truncated_normal", mu, sigma, lower=lower, upper=upper)
