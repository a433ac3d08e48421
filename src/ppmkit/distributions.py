"""Data-generating distributions with log-density, CDF, quantile, and sampling.

The family table :data:`OUTCOMES` is the one place an outcome family
(``normal``, location-scale ``student_t``, ``bernoulli``) is defined; a
``truncated_normal`` spec is the ``normal`` entry plus bounds and the
in-bounds mass, computed once.  Truncated quantiles and draws share one
inverse-CDF routine (no rejection loops).  It works on the mirror image
through ``mu`` of an interval above ``mu``, exact as every continuous entry
is symmetric, so a deep upper tail's mass is a lower-tail CDF value, not
``1 - F(lower)``, which rounds to 0 about 8 scales out.  A normal interval's
mass underflows about 37 scales out; such bounds are refused.  Entries call
the kernels (``normal_logpdf`` etc.) by module-level name, so a wrapper
installed on a kernel name sees every call.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from scipy import special

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
    """Elementwise location-scale Student-t log-density; broadcasts all arguments."""
    z = (np.asarray(y, dtype=float) - mu) / sigma
    c = (
        special.gammaln((df + 1.0) / 2.0)
        - special.gammaln(df / 2.0)
        - 0.5 * np.log(df * np.pi)
    )
    return c - np.log(sigma) - 0.5 * (df + 1.0) * np.log1p(z * z / df)


def bernoulli_logpmf(y, p):
    """Elementwise Bernoulli log-mass, one log of the outcome's probability
    ``p`` or ``1 - p``; -inf off the {0, 1} support."""
    y = np.asarray(y, dtype=float)
    p = np.asarray(p, dtype=float)
    one = y == 1.0
    with np.errstate(divide="ignore"):
        out = np.log(np.where(one, p, 1.0 - p))
    off = ~(one | (y == 0.0))
    if off.any():
        out = np.where(off, _NEG_INF, out)
    return out if out.ndim else float(out)


# --------------------------------------------------------------------- #
# The family table
# --------------------------------------------------------------------- #


def _locate(z, mu, sigma):
    """``mu + sigma * z`` to the bit (IEEE ``*`` and ``+`` commute), in ``z``'s buffer."""
    z *= sigma
    z += mu
    return z


@dataclass(frozen=True)
class Family:
    """An outcome family: ``logpdf``, ``cdf`` and ``ppf`` take ``(y or p, mu, sigma,
    df)`` and ``sample`` takes ``(mu, sigma, df, rng, size)``, ignoring unused ones; a
    continuous ``ppf`` also takes ``out``, the buffer its quantile is written to."""

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
        ppf=lambda p, mu, sigma, df, out=None: _locate(special.ndtri(p, out=out), mu, sigma),
        sample=lambda mu, sigma, df, rng, size: _locate(rng.standard_normal(size), mu, sigma),
    ),
    "student_t": Family(
        logpdf=lambda y, mu, sigma, df: student_t_logpdf(y, mu, sigma, df),
        cdf=lambda y, mu, sigma, df: special.stdtr(df, (y - mu) / sigma),
        # stdtrit(df, 0) reads +inf, so p == 0 (tested before out overwrites p) is -inf
        ppf=lambda p, mu, sigma, df, out=None: _locate(np.where(
            p == 0.0, -np.inf, special.stdtrit(df, p, out=out)), mu, sigma),
        sample=lambda mu, sigma, df, rng, size: _locate(rng.standard_t(df, size=size), mu, sigma),
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

# Each bounded spec family and the OUTCOMES entry it truncates.
BOUNDED = {"truncated_normal": "normal"}


def is_real(value) -> bool:
    """True for a real number (numpy scalars included), False for a bool or anything else."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def sample_values(family, mu, sigma, df, rng, size):
    """Draw ``size`` values from an untruncated family; mu/sigma broadcast."""
    if family not in OUTCOMES:
        raise ValueError(f"unknown family {family!r}")
    return OUTCOMES[family].sample(mu, sigma, df, rng, size)


def _bounded(y, out, lower, upper, log_mass):
    """A truncated log density from its untruncated one ``out`` at ``y``: ``out``
    less the log mass inside [lower, upper], and -inf outside."""
    return np.where((y < lower) | (y > upper), _NEG_INF, out - log_mass)


def _truncate(entry, mu, sigma, df, lower, upper):
    """(lo, hi, flip, f_lo, mass) of ``entry`` truncated to [lower, upper]; where the interval
    lies above ``mu`` (flip), f_lo and mass belong to its mirror image through ``mu``."""
    lo = -np.inf if lower is None else lower
    hi = np.inf if upper is None else upper
    if not lo < hi:
        raise ValueError("require lower < upper")
    flip = lo > mu  # exact: normal and student_t are symmetric about mu
    a, b = lo, hi
    if np.any(flip):
        a, b = np.where(flip, mu + (mu - hi), lo), np.where(flip, mu + (mu - lo), hi)
    f_lo = entry.cdf(a, mu, sigma, df)
    f_hi = entry.cdf(b, mu, sigma, df)
    mass = f_hi - f_lo
    if np.any(mass <= 0.0):
        raise ValueError("truncation interval carries no probability mass")
    # an interval below mu draws from the ppf's lower tail, which fails far out
    # (stdtrit reads +inf, or half the quantile, below p ~ 1e-160 at df=3): the
    # ppf must give back the interval's inner end b
    below = np.broadcast_to(b < mu, np.shape(f_hi))
    if below.any():
        z = np.broadcast_to((b - mu) / sigma, below.shape)[below]
        q = entry.ppf(np.asarray(f_hi)[below], 0.0, 1.0, df)
        if not np.isclose(q, z, rtol=1e-6, atol=1e-6).all():
            raise ValueError("truncation interval lies too deep in the tail "
                             "for the inverse CDF to reach")
    return lo, hi, flip, f_lo, mass


def _truncated_ppf(entry, u, mu, sigma, df, truncation):
    """Truncated inverse CDF at ``u``, an array in [0, 1) that each step overwrites."""
    lo, hi, flip, f_lo, mass = truncation
    mirror = np.any(flip)
    if mirror:
        np.subtract(1.0, u, out=u, where=flip)
    y = entry.ppf(_locate(u, f_lo, mass), mu, sigma, df, out=u)  # u onto [f_lo, f_lo + mass]
    if mirror:  # mu + (mu - y), rounded in that order
        np.subtract(mu, y, out=y, where=flip)
        np.add(mu, y, out=y, where=flip)
    return np.clip(y, lo, hi, out=y)


def sample_truncated(family, mu, sigma, df, lower, upper, rng, size):
    """Inverse-CDF draws from a continuous family truncated to [lower, upper]: every
    draw lands in bounds and the cost per draw is constant."""
    entry = OUTCOMES.get(family)
    if entry is None or not entry.continuous:
        raise ValueError(f"family {family!r} does not support truncation")
    truncation = _truncate(entry, mu, sigma, df, lower, upper)
    # an array even for size None, whose 0-d result [()] reads as a scalar
    return _truncated_ppf(entry, np.asarray(rng.random(size)), mu, sigma, df, truncation)[()]


# --------------------------------------------------------------------- #
# Spec surface
# --------------------------------------------------------------------- #


_JSON_KEYS = ("family", "mu", "sigma", "df", "lower", "upper")  # the field order


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
    _truncation = None  # not a field: __post_init__ sets it (and _log_mass) when bounded

    def __post_init__(self):
        if BOUNDED.get(self.family, self.family) not in OUTCOMES:
            raise ValueError(f"unknown family {self.family!r}")
        for key in _JSON_KEYS[1:]:
            value = getattr(self, key)
            if not (is_real(value) or value is None and key != "mu"):
                raise ValueError(f"{key} must be a real number, got {value!r}")
        if not np.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu}")
        if self.family == "bernoulli":
            if not 0.0 <= self.mu <= 1.0:
                raise ValueError("bernoulli mu must lie in [0, 1]")
            if self.sigma is not None:
                raise ValueError("bernoulli takes no scale parameter")
        elif self.sigma is None or not 0.0 < self.sigma < np.inf:
            raise ValueError(f"sigma must be a finite positive real, got {self.sigma}")
        if self.family == "student_t":
            if self.df is None or not 0.0 < self.df < np.inf:
                raise ValueError(f"student_t requires a finite df > 0, got {self.df}")
        elif self.df is not None:
            raise ValueError("df only applies to student_t")
        if self.family in BOUNDED:
            t = _truncate(self._entry, self.mu, self.sigma, None, self.lower, self.upper)
            object.__setattr__(self, "_truncation", t)
            object.__setattr__(self, "_log_mass", np.log(t[4]))
        elif self.lower is not None or self.upper is not None:
            raise ValueError("bounds only apply to truncated_normal")

    @property
    def _entry(self) -> Family:
        return OUTCOMES[BOUNDED.get(self.family, self.family)]

    # ---------- densities ----------

    def log_density(self, y):
        """Natural-log density (or mass) at ``y``; -inf off the support."""
        out = self._entry.logpdf(y, self.mu, self.sigma, self.df)
        if self._truncation is not None:
            out = _bounded(np.asarray(y, dtype=float), out, *self._truncation[:2], self._log_mass)
        return float(out) if np.ndim(out) == 0 else out

    def cdf(self, y):
        """P(Y <= y)."""
        y = np.asarray(y, dtype=float)
        if self._truncation is None:
            out = self._entry.cdf(y, self.mu, self.sigma, self.df)
        else:
            lo, hi, flip, f_lo, mass = self._truncation
            y = np.clip(y, lo, hi)
            if flip:
                y = self.mu + (self.mu - y)
            out = (self._entry.cdf(y, self.mu, self.sigma, self.df) - f_lo) / mass
            if flip:
                out = 1.0 - out
        return float(out) if np.ndim(out) == 0 else out

    def quantile(self, p):
        """Inverse CDF at ``p`` in the open interval (0, 1)."""
        p = np.array(p, dtype=float)
        if np.any(p <= 0.0) or np.any(p >= 1.0):
            raise ValueError("quantile requires p in (0, 1)")
        if self._truncation is None:
            out = self._entry.ppf(p, self.mu, self.sigma, self.df)
        else:
            out = _truncated_ppf(self._entry, p, self.mu, self.sigma, self.df, self._truncation)
        return float(out) if np.ndim(out) == 0 else out

    def sample(self, rng, n):
        """``n`` independent draws using ``rng`` (numpy Generator)."""
        if n < 1:
            raise ValueError("n must be >= 1")
        if self._truncation is not None:  # the draws of sample_truncated, from the stored mass
            return _truncated_ppf(self._entry, rng.random(n), self.mu, self.sigma, self.df,
                                  self._truncation)
        return sample_values(self.family, self.mu, self.sigma, self.df, rng, n)

    # ---------- serialization ----------

    def to_json(self) -> dict:
        return {key: getattr(self, key) for key in _JSON_KEYS}

    @classmethod
    def from_json(cls, obj: dict) -> "DistributionSpec":
        return cls(obj["family"], obj["mu"], *(obj.get(key) for key in _JSON_KEYS[2:]))


class PriorTable:
    """The priors of a parameter vector, built once: per ``OUTCOMES`` family its
    columns and ``mu``/``sigma``/``df`` vectors, and per column the
    bounds and log mass (+-inf and 0 where untruncated).  It holds family names,
    not :class:`Family` entries, so it pickles."""

    def __init__(self, priors):
        families = np.array([BOUNDED.get(p.family, p.family) for p in priors])
        self.groups = []  # (family, columns or a slice of all, mu, sigma, df)
        for family in dict.fromkeys(families.tolist()):
            cols = np.flatnonzero(families == family)
            params = (np.array([getattr(priors[j], key) for j in cols], dtype=float)
                      for key in ("mu", "sigma", "df"))
            self.groups.append((family, slice(None) if cols.size == len(priors) else cols, *params))
        self.lower = np.array([-np.inf if p.lower is None else p.lower for p in priors], float)
        self.upper = np.array([np.inf if p.upper is None else p.upper for p in priors], float)
        self.log_mass = np.array([getattr(p, "_log_mass", 0.0) for p in priors])
        self.bounded = bool(np.isfinite(self.lower).any() or np.isfinite(self.upper).any())

    def __call__(self, rows):
        """Log prior of each row of ``rows`` (m, k), (m,), one kernel call per family:
        bit for bit the sum of :meth:`DistributionSpec.log_density` over the columns,
        left to right from 0.0."""
        terms = np.empty(rows.shape)
        for family, cols, *params in self.groups:
            terms[:, cols] = OUTCOMES[family].logpdf(rows[:, cols], *params)
        if self.bounded:  # unbounded, x - 0.0 is x and no row is out of bounds
            terms = _bounded(rows, terms, self.lower, self.upper, self.log_mass)
        total = 0.0
        for column in terms.T:
            total = total + column
        return total


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
