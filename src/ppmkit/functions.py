"""Mean functions, link functions, and variance functions.

The mean forms are the saturating dose-response shapes used across the
regression demos plus polynomial baselines; all evaluate with numpy
broadcasting so a single call can cover one parameter vector over a grid
of inputs or a matrix of posterior draws at a single input.

Links map the unconstrained mean-function output into an allowable range:
the 0-1 links (``logit``, ``probit``, ``cauchit``, ``cloglog`` -- named by
convention, applied as inverse links) squash onto (0, 1) and ``softplus``
onto (0, inf).  ``logit`` is ``1 / (1 + exp(-u))``, scipy's ``expit``
formula on numpy's vector ``exp``: within 2 ulp of ``expit`` and twice as
fast on a 16-draw by 300-row array, as ``expit`` calls ``exp`` one element
at a time.  Like ``expit`` it is exactly 0.0 below ``u`` = -709.8,
where ``exp(-u)`` overflows, and 1.0 above 37.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np
from scipy import special

LINKS = ("identity", "logit", "probit", "cauchit", "cloglog", "softplus")
ZERO_ONE_LINKS = ("logit", "probit", "cauchit", "cloglog")

MEAN_FORMS = ("linear", "quadratic", "exp2", "exp3", "michaelis_menten", "true_model")
VARIANCE_FORMS = ("constant", "linear_in_mu")

_SOFTPLUS_CUTOFF = 30.0  # ln(1 + e^u) - u < 1e-13 beyond this


def softplus(u):
    u = np.asarray(u, dtype=float)
    out = np.where(u > _SOFTPLUS_CUTOFF, u, np.log1p(np.exp(np.minimum(u, _SOFTPLUS_CUTOFF))))
    return float(out) if out.ndim == 0 else out


def apply_link(link: str, u):
    """Evaluate a link at ``u`` (scalar or array)."""
    u = np.asarray(u, dtype=float)
    if link == "identity":
        out = u
    elif link == "logit":
        with np.errstate(over="ignore"):  # exp(-u) = inf gives 0.0
            out = 1.0 / (1.0 + np.exp(-u))
    elif link == "probit":
        out = special.ndtr(u)
    elif link == "cauchit":
        out = 0.5 + np.arctan(u) / np.pi
    elif link == "cloglog":
        with np.errstate(over="ignore"):
            out = -np.expm1(-np.exp(u))
    elif link == "softplus":
        return softplus(u)
    else:
        raise ValueError(f"unknown link {link!r}")
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class MeanFunctionSpec:
    """Structural form of the mean, with its trailing feature count.

    Parameter vector layout per form (feature count 1 unless noted):

    * ``linear``            (theta0, theta1): theta0 + theta1*x; with d
      features (theta0, ..., thetad): theta0 + sum_j thetaj*xj
    * ``quadratic``         (theta0, theta1, theta2): theta0 + theta1*x + theta2*x^2
    * ``exp2``              (theta1, theta2): theta2*(1 - exp(-theta1*x))
    * ``exp3``              (theta1, theta2, theta3): theta3 + theta2*(1 - exp(-theta1*x))
    * ``michaelis_menten``  (theta1, theta2): theta1*x / (theta2 + x)
    * ``true_model``        (theta1, theta2): theta2 + (1 - e^(-theta1*x)) / (1 + e^(-theta1*x))
    """

    form: str
    n_features: int = 1

    def __post_init__(self):
        if self.form not in MEAN_FORMS:
            raise ValueError(f"unknown mean form {self.form!r}")
        n = self.n_features
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
            raise ValueError(f"n_features must be an integer >= 1, got {n!r}")
        if self.n_features > 1 and self.form != "linear":
            raise ValueError(f"{self.form!r} only supports a single feature")

    @property
    def parameter_count(self) -> int:
        return len(self.parameter_names)

    @property
    def parameter_names(self) -> tuple[str, ...]:
        if self.form == "linear":
            return tuple(f"theta{j}" for j in range(self.n_features + 1))
        return {
            "quadratic": ("theta0", "theta1", "theta2"),
            "exp2": ("theta1", "theta2"),
            "exp3": ("theta1", "theta2", "theta3"),
            "michaelis_menten": ("theta1", "theta2"),
            "true_model": ("theta1", "theta2"),
        }[self.form]

    def to_json(self) -> dict:
        return {"form": self.form, "n_features": self.n_features}


def mean_values(spec: MeanFunctionSpec, theta, x):
    """Evaluate the mean form without domain checks; broadcasts freely.

    ``theta`` is a vector (k,) or a stack of them, (m, k) or (m, 1, k);
    ``x`` is a scalar or an array that broadcasts against the leading theta
    axes.  A ``linear`` form also scores a draw matrix (m, k) against its data
    as a design, :func:`design`'s (k, n), or one design per row, (m, k, n):
    one einsum gives the (m, n) means, each row's bits those of its lone call.
    Division by zero propagates as inf/nan for the caller to handle.
    """
    theta = np.asarray(theta, dtype=float)
    x = np.asarray(x, dtype=float)
    form = spec.form
    if form == "linear":
        if theta.ndim == 2 and x.ndim >= 2:  # a design: no BLAS, whose rows mix
            return np.einsum("mk,kn->mn" if x.ndim == 2 else "mk,mkn->mn", theta, x)
        if spec.n_features == 1:
            return theta[..., 0] + theta[..., 1] * x
        if x.ndim == 1:  # one query (d,) against a vector or a draw matrix
            return theta[..., 0] + np.inner(theta[..., 1:], x)
        # data rows (n, d) against a vector (k,) or a stack (m, 1, k): one
        # matrix-vector product per theta keeps each theta's lone-call bits
        t = np.swapaxes(np.atleast_2d(theta[..., 1:]), -1, -2)
        return theta[..., 0] + (x @ t)[..., 0]
    if form == "quadratic":
        return theta[..., 0] + theta[..., 1] * x + theta[..., 2] * x * x
    if form in ("exp2", "exp3"):
        # theta2 * -expm1(-theta1 * x) [+ theta3] in one buffer, the sign moved onto
        # the amplitude or the sum (exact); a 0-d buffer reads back as a scalar
        out = np.asarray(np.multiply(-theta[..., 0], x))
        np.expm1(out, out=out)
        if form == "exp2":
            return np.multiply(out, -theta[..., 1], out=out)[()]
        np.multiply(out, theta[..., 1], out=out)
        return np.subtract(theta[..., 2], out, out=out)[()]
    if form == "michaelis_menten":
        with np.errstate(divide="ignore", invalid="ignore"):
            return theta[..., 0] * x / (theta[..., 1] + x)
    # true_model: bounded between theta2 and theta2 + 1 for theta1 > 0, x >= 0
    return theta[..., 1] + np.tanh(theta[..., 0] * x / 2.0)


def design(x) -> np.ndarray:
    """A linear form's data rows ``x``, (n,) or (n, d), as :func:`mean_values`
    scores a draw matrix against them: the transposed features under a ones
    row, (d + 1, n), C-contiguous."""
    x = np.asarray(x, dtype=float)
    rows = x.reshape(x.shape[0], -1)
    x1t = np.ones((rows.shape[1] + 1, rows.shape[0]))
    x1t[1:] = rows.T
    return x1t


@dataclass(frozen=True)
class VarianceFunctionSpec:
    """Outcome-scale model: a constant scale or a linear trend in the mean.

    ``constant`` holds (sigma,) with an identity link and a positivity
    check; ``linear_in_mu`` holds (sigma0, sigma1) and passes
    sigma0 + sigma1*mu through softplus so the scale stays positive.
    """

    form: str
    link: str = ""

    def __post_init__(self):
        if self.form not in VARIANCE_FORMS:
            raise ValueError(f"unknown variance form {self.form!r}")
        expected = "identity" if self.form == "constant" else "softplus"
        if self.link == "":
            object.__setattr__(self, "link", expected)
        elif self.link != expected:
            raise ValueError(f"{self.form} variance requires the {expected} link")

    @property
    def parameter_count(self) -> int:
        return 1 if self.form == "constant" else 2

    @property
    def parameter_names(self) -> tuple[str, ...]:
        return ("sigma",) if self.form == "constant" else ("sigma0", "sigma1")

    def to_json(self) -> dict:
        return {"form": self.form, "link": self.link}


def sigma_values(spec: VarianceFunctionSpec, theta_sigma, mu):
    """Evaluate the scale without domain checks; broadcasts like the mean.  The
    constant scale is its parameter, ``theta_sigma[..., 0]``, which broadcasts
    against ``mu`` rather than taking its shape."""
    theta_sigma = np.asarray(theta_sigma, dtype=float)
    if spec.form == "constant":
        return theta_sigma[..., 0]
    return softplus(theta_sigma[..., 0] + theta_sigma[..., 1] * np.asarray(mu, dtype=float))

