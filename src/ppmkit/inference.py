"""Posterior sampling, plug-in estimation, and convergence diagnostics.

The sampler is adaptive Metropolis on an unconstrained parameterisation:
a parameter whose prior is bounded is sampled as the log or scaled logit
of its distance to the bounds, with the log-Jacobian added to the density,
and draws are returned in the constrained space.  Each chain starts from
the best of several prior draws.  Warmup opens with at most ``_INIT_SWEEPS``
sweeps of the parameters one at a time with adaptive scales, an initial
buffer as in Stan; the rest of warmup makes block moves whose covariance
each chain learns in doubling windows and whose scale is tuned toward a
target acceptance rate.  That kernel is then frozen, so retained draws come
from a fixed kernel.  Every phase runs one prefetched kernel,
:func:`_metropolis`: one :func:`log_posterior` call scores each chain's
next ``_PREFETCH`` moves as if it rejected them all, and the chain takes
them up to its first accepted one, so the draws are those of one move per
call and chains advance at their own pace; the accept tests run on Python
floats.  The kernel stays fixed within a run,
so warmup adapts its scales between runs of ``_RUN`` sweeps or steps.
:func:`log_posterior` scores the priors from the table that a
:class:`ModelSpec` builds once, one kernel call per prior family.  Chain
``c`` draws only from ``Generator(master_seed + c)``, so its draws do not
depend on the other chains.  That lets one sampler pass run several fits of
one model and setting, its members, each a dataset and a seed: every kernel
call scores all members' chains, each row against its own member's data, and
each member's draws are those of its lone fit.  :func:`fit_ensemble` is the
sampler, its seeds on one dataset or one each, and :func:`fit` its one-seed
case; a failure in it raises :class:`FitError` ``"seed s: reason"``.
:func:`fit` and :func:`plug_in_fit` refuse the same datasets.  Each fit
diagnoses the (chains, samples, params) stack of its chains once; draws read
from CSV carry no diagnostics, and :func:`diagnostics` computes them on
request.  The split draws, a (params, 2 * chains, samples // 2) array, are
ranked by one sort per parameter; split R-hat and bulk ESS then run once over
the whole array.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import special

from . import distributions as dist
from .distributions import DistributionSpec
from .functions import (
    ZERO_ONE_LINKS,
    LINKS,
    MeanFunctionSpec,
    VarianceFunctionSpec,
    apply_link,
    mean_values,
    sigma_values,
)
from .simulate import Dataset, csv_text, read_csv_rows

_NEG_INF = float("-inf")

# The convergence floor, every parameter's bulk ESS >= MIN_BULK_ESS and split R-hat <= MAX_R_HAT
# (Vehtari, Gelman, Simpson, Carpenter & Buerkner 2021, Bayesian Analysis 16(2), section 4)
MIN_BULK_ESS = 400.0
MAX_R_HAT = 1.01


class FitError(RuntimeError):
    """Raised when sampling fails, or when no prior draw has a finite log
    posterior to start a chain or a plug-in ascent from; may carry diagnostics."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics


class DiagnosticsError(ValueError):
    pass


# --------------------------------------------------------------------- #
# Model specification
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class ModelSpec:
    """The full generative bundle: family, mean, links, scale model, priors.

    ``family`` is ``normal`` or ``student_t`` for regression (with a
    variance function) and ``bernoulli`` for classification (0-1 mean link,
    no variance function).  ``truncation`` bounds, when set, apply to the
    predictive distribution only -- training rows are never truncated.
    Omitted priors default to Normal(0, 5) on unconstrained coefficients
    and half-Normal(2) on the constant scale.
    """

    mean: MeanFunctionSpec
    family: str = "normal"
    mean_link: str = "identity"
    variance: VarianceFunctionSpec | None = None
    priors: tuple[DistributionSpec, ...] | None = None
    df: float | None = None
    truncation: tuple[float | None, float | None] | None = None
    name: str = ""
    n_mean_params = n_params = 0  # not fields: the parameter counts, set by __post_init__
    prior_table = None  # not a field: the priors' PriorTable, set by __post_init__

    def __post_init__(self):
        if self.family not in dist.OUTCOMES:
            raise ValueError(f"unsupported outcome family {self.family!r}")
        if self.mean_link not in LINKS:
            raise ValueError(f"unknown link {self.mean_link!r}")
        for value in (self.df, *(self.truncation or ())):
            if not (value is None or dist.is_real(value)):
                raise ValueError(f"df and truncation bounds must be real numbers, got {value!r}")
        if self.family == "bernoulli":
            if self.mean_link not in ZERO_ONE_LINKS:
                raise ValueError("bernoulli outcomes need a 0-1 mean link")
            if self.variance is not None:
                raise ValueError("bernoulli outcomes take no variance function")
        else:
            if self.variance is None:
                raise ValueError(f"{self.family} outcomes need a variance function")
        if dist.OUTCOMES[self.family].has_df:
            if self.df is None or not 0.0 < self.df < np.inf:
                raise ValueError(f"{self.family} outcomes require a finite df > 0, got {self.df}")
        elif self.df is not None:
            raise ValueError("df only applies to student_t outcomes")
        if self.truncation is not None:
            if self.family == "bernoulli":
                raise ValueError("bernoulli outcomes cannot be truncated")
            lo, hi = self.truncation
            if lo is not None and hi is not None and not lo < hi:
                raise ValueError("require truncation lower < upper")
        extra = self.variance.parameter_count if self.variance is not None else 0
        object.__setattr__(self, "n_mean_params", self.mean.parameter_count)
        object.__setattr__(self, "n_params", self.n_mean_params + extra)
        if self.priors is not None:
            object.__setattr__(self, "priors", tuple(self.priors))
            if len(self.priors) != self.n_params:
                raise ValueError(
                    f"need {self.n_params} priors (one per parameter), got {len(self.priors)}"
                )
        else:
            object.__setattr__(self, "priors", default_priors(self))
        object.__setattr__(self, "prior_table", dist.PriorTable(self.priors))
        if not self.name:
            object.__setattr__(self, "name", self.mean.form)

    @property
    def parameter_names(self) -> tuple[str, ...]:
        names = self.mean.parameter_names
        if self.variance is not None:
            names = names + self.variance.parameter_names
        return names

    def mu(self, theta, x):
        """Outcome mean at ``x`` for a parameter vector (k,) or draw matrix (m, k);
        ``x`` broadcasts against the leading theta axes."""
        theta_mu = np.asarray(theta, dtype=float)[..., : self.n_mean_params]
        return apply_link(self.mean_link, mean_values(self.mean, theta_mu, x))

    def sigma(self, theta, mu):
        """Outcome scale at mean ``mu``; None for a family without a scale."""
        if self.variance is None:
            return None
        theta_sigma = np.asarray(theta, dtype=float)[..., self.n_mean_params :]
        return sigma_values(self.variance, theta_sigma, mu)

    # ---------- serialization ----------

    def to_json(self) -> dict:
        obj = {
            "distribution": {"family": self.family, "df": self.df},
            "mean": {**self.mean.to_json(), "link": self.mean_link},
            "variance": None if self.variance is None else self.variance.to_json(),
            "priors": [p.to_json() for p in self.priors],
            "truncation": None
            if self.truncation is None
            else {"lower": self.truncation[0], "upper": self.truncation[1]},
            "name": self.name,
        }
        return obj

    @classmethod
    def from_json(cls, obj) -> "ModelSpec":
        """The spec a JSON object describes; a missing key or a section that is not
        an object raises ValueError."""
        if not isinstance(obj, dict):
            raise ValueError(f"a model spec must be a JSON object, not {type(obj).__name__}")
        try:
            mean_obj, var_obj, priors = obj["mean"], obj.get("variance"), obj.get("priors")
            trunc_obj = obj.get("truncation")
            return cls(
                mean=MeanFunctionSpec(mean_obj["form"], mean_obj.get("n_features", 1)),
                family=obj["distribution"]["family"],
                mean_link=mean_obj.get("link", "identity"),
                variance=None if var_obj is None
                else VarianceFunctionSpec(var_obj["form"], var_obj.get("link", "")),
                priors=None if priors is None
                else tuple(DistributionSpec.from_json(p) for p in priors),
                df=obj["distribution"].get("df"),
                truncation=None if trunc_obj is None
                else (trunc_obj.get("lower"), trunc_obj.get("upper")),
                name=obj.get("name", ""),
            )
        except KeyError as err:
            raise ValueError(f"model spec has no {err} key") from None
        except (AttributeError, TypeError) as err:
            raise ValueError(f"malformed model spec: {err}") from None

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "ModelSpec":
        with open(path) as fh:
            return cls.from_json(json.load(fh))


def default_priors(model: ModelSpec) -> tuple[DistributionSpec, ...]:
    """Weakly informative defaults at the scale of the demo data."""
    priors = [dist.normal(0.0, 5.0) for _ in range(model.n_mean_params)]
    if model.variance is not None:
        if model.variance.form == "constant":
            priors.append(dist.truncated_normal(0.0, 2.0, lower=0.0))
        else:
            # softplus coefficients are unconstrained reals
            priors.extend(dist.normal(0.0, 5.0) for _ in range(2))
    return tuple(priors)


@dataclass(frozen=True)
class FitConfig:
    """Sampler settings; ``samples`` counts retained draws per chain, at
    least 4, the fewest split R-hat can diagnose.

    ``warmup`` counts adaptation steps: a sweep over every parameter in the
    first ``min(warmup // 2, 75)``, one block step in the rest.  ``thin``
    runs that many block steps per retained draw, which buys effective
    sample size on strongly correlated posteriors without changing the
    retained draw count.  The rest is fixed: every proposal scale starts at
    ``_INIT_SCALE`` (0.5) on the unconstrained space and is tuned toward a
    mean acceptance probability of ``_TARGET_ACCEPT`` (0.30) between runs
    of a few sweeps or block steps.  The defaults mix every demo kind to
    the convergence floor (``MIN_BULK_ESS``, ``MAX_R_HAT``) at seed 1009.
    """

    chains: int = 4
    warmup: int = 1000
    samples: int = 1000
    seed: int = 0
    thin: int = 4

    def __post_init__(self):
        if self.chains < 2:
            raise ValueError("need at least 2 chains for diagnostics")
        if self.warmup < 1 or self.samples < 4:
            raise ValueError("need warmup >= 1 and samples >= 4 (4 draws per chain for R-hat)")
        if self.thin < 1:
            raise ValueError("thin must be >= 1")


@dataclass(frozen=True)
class Diagnostics:
    """Split R-hat and bulk ESS by parameter name, the names below the floor (R-hat >
    ``MAX_R_HAT`` or bulk ESS < ``MIN_BULK_ESS``), each chain's retained-step acceptance
    rate and the fit's ``log_posterior`` calls, starts included; file draws lack the last two."""

    r_hat: dict[str, float]
    ess: dict[str, float]
    acceptance: tuple[float, ...]
    flagged: tuple[str, ...]
    density_calls: int | None = None

    def max_r_hat(self) -> float:
        return max(self.r_hat.values())

    def to_json(self) -> dict:
        return asdict(self)  # its tuples dump as JSON lists


@dataclass(frozen=True)
class PosteriorDraws:
    """Retained posterior draws with chain provenance; immutable."""

    draws: np.ndarray  # (chains * samples, n_params)
    chain: np.ndarray  # (chains * samples,)
    parameter_names: tuple[str, ...]
    diagnostics: Diagnostics | None = None

    def __post_init__(self):
        d = np.array(self.draws, dtype=float)
        c = np.array(self.chain, dtype=int)
        if d.ndim != 2 or d.shape[0] != c.shape[0]:
            raise ValueError("draws must be (rows, params) with one chain label per row")
        if d.shape[1] != len(self.parameter_names):
            raise ValueError("one parameter name per column required")
        d.flags.writeable = False
        c.flags.writeable = False
        object.__setattr__(self, "draws", d)
        object.__setattr__(self, "chain", c)
        object.__setattr__(self, "parameter_names", tuple(self.parameter_names))

    @property
    def n_draws(self) -> int:
        return self.draws.shape[0]

    def by_chain(self) -> np.ndarray:
        """Draws reshaped to (chains, samples, params); chains must be equal length."""
        return _stack_chains(self.draws, self.chain)

    # ---------- CSV ----------

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(self.to_csv_text())

    def to_csv_text(self) -> str:
        rows = ((*row, int(c)) for row, c in zip(self.draws, self.chain))
        return csv_text([*self.parameter_names, "chain"], rows)

    @classmethod
    def from_csv(cls, path) -> "PosteriorDraws":
        header, values = read_csv_rows(path)
        if header[-1] != "chain":
            raise ValueError(f"{path}, line 1: not a draws file (no final chain column)")
        draws, chain = values[:, :-1], values[:, -1]
        bad = chain != np.round(chain)
        if bad.any():
            i = np.argmax(bad)
            raise ValueError(f"{path}, line {i + 2}: chain label {chain[i]:g} is not an integer")
        return cls(draws=draws, chain=chain.astype(int), parameter_names=header[:-1])


# --------------------------------------------------------------------- #
# Log posterior
# --------------------------------------------------------------------- #


def log_posterior(model: ModelSpec, data: Dataset, theta):
    """Log likelihood plus log prior; -inf anywhere out of support.

    ``theta`` is one parameter vector (k,), giving a float, or a draw matrix
    (m, k), giving an (m,) array whose rows equal the vector calls exactly;
    a matrix's priors are scored by ``model.prior_table``.  ``data`` is a
    dataset every row scores against, or, in a lockstep fit, a matrix's
    :class:`_Rows`, one dataset's x and y per row.
    """
    if data.n == 0:
        raise ValueError("dataset is empty")
    theta = np.asarray(theta, dtype=float)
    if theta.ndim not in (1, 2) or theta.shape[-1] != model.n_params:
        raise ValueError(f"theta must be a vector or a draw matrix of {model.n_params} columns")
    rows = theta.reshape(-1, model.n_params)
    with np.errstate(all="ignore"):
        # (m, n) terms summed over the contiguous data axis, as a lone row would be
        mu = model.mu(rows[:, None, :], data.x)
        sigma = model.sigma(rows[:, None, :], mu)
        out = dist.OUTCOMES[model.family].logpdf(data.y, mu, sigma, model.df).sum(axis=-1)
        if theta.ndim == 2:
            logprior = model.prior_table(rows)
        else:  # the same bits prior by prior: bench/tests expects a log_density call each
            logprior = 0.0
            for prior, column in zip(model.priors, rows.T):
                logprior = logprior + prior.log_density(column)
        out = out + logprior
    # a scale <= 0 (or inf, nan) makes its row's likelihood non-finite, so one
    # mask covers the scale, the likelihood and the priors
    out[~np.isfinite(out)] = _NEG_INF
    return float(out[0]) if theta.ndim == 1 else out


# --------------------------------------------------------------------- #
# Adaptive Metropolis on an unconstrained parameterisation
# --------------------------------------------------------------------- #


class _Rows(NamedTuple):
    """The data of a lockstep density call: row ``i`` of theta scores against
    ``x[i]`` and ``y[i]``, its own member's dataset."""

    x: np.ndarray
    y: np.ndarray

    @property
    def n(self) -> int:
        return self.y.shape[-1]


class _Unconstrained:
    """:func:`log_posterior` of ``model`` on ``data`` over unconstrained reals.

    A parameter whose prior has one bound is ``lower + exp(u)`` or
    ``upper - exp(u)``; one with two bounds is ``lower + (upper - lower) *
    expit(u)``, a scaled logit; an unbounded one is ``u`` itself.  The bounds
    are each prior's ``DistributionSpec.lower/upper``, and the density of
    ``u`` adds the log Jacobian of that map.

    Under an exp2 or exp3 mean whose theta1 prior is bounded below at 0 or
    above and whose theta2 prior is unbounded, theta2's coordinate is the
    curve's rise ``A = theta2 * (1 - exp(-theta1))``, and ``theta2 = A /
    -expm1(-theta1)``.  Near theta1 -> 0 the data identify only theta1 *
    theta2, a curved ridge a random walk crosses slowly; A is what they
    identify (Bates and Watts 1988, ch. 7, on parameter-effects curvature).
    A row whose divisor is 0 or NaN scores -inf, never NaN.

    ``data`` may also be a list of datasets of one size, one per member of a
    lockstep fit, whose chains are consecutive blocks of ``chains`` rows.
    When they are one dataset every row scores against it; otherwise
    :meth:`gather` lays out each row's own member's data.
    """

    def __init__(self, model: ModelSpec, data, chains: int = 1):
        datasets = data if isinstance(data, list) else [data]
        self.model, self.data, self.chains = model, datasets[0], chains
        self.stack = None
        if any(d is not self.data for d in datasets):
            self.stack = _Rows(np.stack([d.x for d in datasets]), np.stack([d.y for d in datasets]))
        lower, upper = model.prior_table.lower, model.prior_table.upper
        has_lo, has_hi = np.isfinite(lower), np.isfinite(upper)
        self.one = np.flatnonzero(has_lo != has_hi)
        self.bound = np.where(has_lo, lower, upper)[self.one]
        self.sign = np.where(has_lo, 1.0, -1.0)[self.one]
        self.two = np.flatnonzero(has_lo & has_hi)
        self.lower = lower[self.two]
        self.width = (upper - lower)[self.two]
        self.log_width = np.log(self.width)
        # the divisor -expm1(-theta1) is positive only on theta1 > 0
        self.rise = (model.mean.form in ("exp2", "exp3") and lower[0] >= 0.0
                     and not (has_lo[1] or has_hi[1]))

    def __call__(self, u, rows=None):
        """Log density of unconstrained rows ``u`` (m, k), (m,), each row scored
        against its own data in ``rows`` or, without it, against the one dataset."""
        theta, log_jac = self.constrain(u)
        return log_posterior(self.model, self.data if rows is None else rows, theta) + log_jac

    def gather(self, depth):
        """Each row's data when each chain has ``depth`` consecutive rows, as
        :class:`_Rows`, or None when every member shares one dataset."""
        if self.stack is None:
            return None
        member = np.repeat(np.arange(len(self.stack.y)), self.chains * depth)
        return _Rows(self.stack.x[member], self.stack.y[member])

    def constrain(self, u):
        """Parameter rows of unconstrained rows ``u`` (m, k), and the log
        Jacobian ``log |d theta / d u|`` of each row, (m,), or 0.0 when no
        parameter is bounded."""
        theta, log_jac = (u.copy() if self.one.size or self.two.size else u), 0.0
        if self.one.size:
            one = u[:, self.one]
            with np.errstate(over="ignore"):
                theta[:, self.one] = self.bound + self.sign * np.exp(one)
            log_jac = one.sum(axis=1)
        if self.two.size:
            two = u[:, self.two]
            theta[:, self.two] = self.lower + self.width * special.expit(two)
            log_jac = log_jac + np.sum(self.log_width + special.log_expit(two)
                                       + special.log_expit(-two), axis=1)
        if self.rise:  # theta1 is bounded, so theta is a copy and log_jac an array
            with np.errstate(divide="ignore", invalid="ignore"):
                divisor = -np.expm1(-theta[:, 0])  # in [0, 1], or NaN
                theta[:, 1] = u[:, 1] / divisor
                log_jac = log_jac - np.where(divisor > 0.0, np.log(divisor), np.inf)
        return theta, log_jac

    def unconstrain(self, theta):
        """Unconstrained rows of parameter rows (m, k) strictly inside the supports."""
        u = np.array(theta, dtype=float)
        if self.rise:  # before theta1's own column is mapped
            u[:, 1] *= -np.expm1(-u[:, 0])
        u[:, self.one] = np.log(self.sign * (u[:, self.one] - self.bound))
        u[:, self.two] = special.logit((u[:, self.two] - self.lower) / self.width)
        return u


def _init_from_priors(model: ModelSpec, data: Dataset, rngs, candidates=1):
    """For each generator, the best of ``candidates`` prior draws by log posterior,
    as a (len(rngs), k) matrix, its log posteriors and the density calls made; a
    generator draws again only while all its candidates are out of support."""
    k = model.n_params
    theta = np.empty((len(rngs), k))
    lp = np.full(len(rngs), _NEG_INF)
    for calls in range(1, 101):
        redraw = np.flatnonzero(~np.isfinite(lp))
        draws = np.stack([np.column_stack([p.sample(rngs[c], candidates) for p in model.priors])
                          for c in redraw])  # (redraw, candidates, k)
        draw_lp = log_posterior(model, data, draws.reshape(-1, k)).reshape(len(redraw), -1)
        best = np.argmax(draw_lp, axis=1)
        theta[redraw] = draws[np.arange(len(redraw)), best]
        lp[redraw] = draw_lp[np.arange(len(redraw)), best]
        if np.isfinite(lp).all():
            return theta, lp, calls
    raise FitError("could not find a prior draw with finite log posterior")


# Each chain starts from the best of this many prior draws: a start far from the
# data can settle in a local mode.  Under the default priors a true_model chain can
# stick on a flat line (theta1 far below 0); at warmup 400, over generator seeds
# 0-119 on simulate_dataset seeds 100 and 200, 59 of 240 chains stuck when each
# started from one prior draw and 17 when each started from the best of 32.
_INIT_CANDIDATES = 32

_NOISE_CHUNK = 1024  # retained steps of noise each generator draws at a time

# Exploration sweeps at the start of a long warmup, Stan's initial buffer (75
# iterations); a warmup of under 152 steps sweeps in its first half.
_INIT_SWEEPS = 75

# Sweeps of an exploration run, or steps of a block-adaptation run: the proposal
# scales stay fixed within a run, which prefetching needs, and adapt between runs.
_RUN = 10

# Steps each chain scores per density call: its next proposals along the path on
# which it rejects them all.
_PREFETCH = 4

# Every parameter's starting proposal scale on the unconstrained space, and the mean
# acceptance probability warmup tunes each proposal scale toward.
_INIT_SCALE = 0.5
_TARGET_ACCEPT = 0.30


def _noise(rngs, steps, width):
    """Each chain's ``steps`` rows of ``width`` standard normals and its ``steps``
    log uniforms, (chains, steps, width) and (chains, steps); chain ``c``'s come
    from ``rngs[c]`` alone."""
    z = np.stack([rng.standard_normal((steps, width)) for rng in rngs])
    log_u = np.log(np.stack([rng.random(steps) for rng in rngs]))
    return z, log_u


def _metropolis(density, u, lp, incr, log_u):
    """Run each chain (row of ``u``, log density ``lp``) through the steps of
    ``incr`` (chains, n, k): step ``t`` of chain ``c`` proposes the chain's state
    plus ``incr[c, t]`` and moves there when ``log_u[c, t]`` is below the log
    density ratio.  Returns the state after every step, (chains, n, k), each
    step's acceptance probability ``min(1, ratio)``, (chains, n), and each
    chain's accepted count, final log density and number of ``density`` calls
    that held a row of it.

    One ``density`` call scores each chain's next ``_PREFETCH`` proposals as if
    it rejected them all.  The chain takes the first that its uniform accepts,
    or rejects them all, so its path is the one-step kernel's exactly.  Chains
    advance by different step counts and meet again at the end.  Accept tests
    run on Python floats, which for a few chains costs less than numpy calls.
    A ``density`` with a ``gather`` method (a lockstep :class:`_Unconstrained`)
    scores each row against its own data, gathered once a run."""
    chains, n, k = incr.shape
    depth, rows = _PREFETCH, np.arange(chains)
    gathered = density.gather(depth) if hasattr(density, "gather") else None
    # padded with zero steps, which are never scored, so that a window starts
    # at every step and at the end
    padded = np.concatenate([incr, np.zeros((chains, depth, k))], axis=1)
    windows = sliding_window_view(padded, depth, axis=1).swapaxes(2, 3)  # [c, t] -> (depth, k)
    log_ratios = [[] for _ in rows]
    # per chain, its start and each proposal it moved to, and the step from which each holds
    states, since = [[s] for s in u], [[0] for _ in rows]
    u, lp, log_u, pos = u.copy(), lp.tolist(), log_u.tolist(), [0] * chains
    ahead = [depth] * chains  # each chain's steps to score in a call
    calls = [0] * chains  # each chain's calls that held a row of it
    while min(pos) < n:
        proposal = (u[:, None] + windows[rows, pos]).reshape(-1, k)
        data = gathered
        if max(pos) > n - depth:  # near the end: score no step past it
            ahead = [min(depth, n - t) for t in pos]
            keep = (np.arange(depth) < np.array(ahead)[:, None]).ravel()
            proposal = proposal[keep]
            if data is not None:
                data = _Rows(data.x[keep], data.y[keep])
        lp_new = (density(proposal) if data is None else density(proposal, data)).tolist()
        first = 0  # the chain's first row in lp_new
        for c, t in enumerate(pos):
            lp_c, log_u_c, ratios = lp[c], log_u[c], log_ratios[c]
            calls[c] += t < n
            for i, step in enumerate(range(t, t + ahead[c]), first):
                log_ratio = lp_new[i] - lp_c
                ratios.append(log_ratio)
                if log_u_c[step] < log_ratio:
                    u[c], lp[c] = proposal[i], lp_new[i]
                    states[c].append(proposal[i])
                    since[c].append(step)
                    break
            pos[c] = len(ratios)
            first += ahead[c]
    # each state repeats from the step it was reached up to the next one's
    lengths = [b - a for steps in since for a, b in zip(steps, [*steps[1:], n])]
    path = np.repeat(np.array([s for chain in states for s in chain]), lengths, axis=0)
    return (path.reshape(chains, n, k), np.exp(np.minimum(log_ratios, 0.0)),
            np.array([len(steps) - 1 for steps in since]), np.array(lp), np.array(calls))


_FIRST_WINDOW = 25  # block steps in the first covariance window; each next one doubles


def _window_ends(steps):
    """The block steps after which a chain re-estimates its covariance: the ends
    of windows of 25, 50, 100, ... steps, the last window stretched to end a
    tenth of ``steps`` before the end.  That last tenth tunes the scale alone."""
    stop, ends, end, size = steps - steps // 10, [], 0, _FIRST_WINDOW
    while end + size <= stop:
        end = end + size if end + 3 * size <= stop else stop  # no room for the next window
        ends.append(end)
        size *= 2
    return ends


def _regularised_cov(draws):
    """Each chain's covariance of its ``draws`` (chains, n, k), shrunk towards
    ``1e-3 I`` as Stan's windowed adaptation does."""
    n, k = draws.shape[1:]
    cov = np.stack([np.cov(d, rowvar=False) for d in draws])
    return n / (n + 5.0) * cov + 1e-3 * 5.0 / (n + 5.0) * np.eye(k)


def _check_data(model: ModelSpec, data: Dataset) -> None:
    """Refuse, by ValueError, a dataset ``model`` cannot be fitted to: an empty one,
    one with another feature count, or bernoulli outcomes other than 0 and 1."""
    if data.n == 0:
        raise ValueError("dataset is empty")
    if data.n_features != model.mean.n_features:
        raise ValueError(f"model {model.name!r} takes {model.mean.n_features} feature(s), "
                         f"the dataset has {data.n_features}")
    if model.family == "bernoulli" and not np.all(np.isin(data.y, (0.0, 1.0))):
        raise ValueError("bernoulli outcomes must be 0/1")


def fit(model: ModelSpec, data: Dataset, config: FitConfig | None = None) -> PosteriorDraws:
    """Sample the posterior over all model parameters: :func:`fit_ensemble` with
    the one seed ``config.seed``."""
    return fit_ensemble(model, data, [(config or FitConfig()).seed], config)[0]


def fit_ensemble(
    model: ModelSpec, data: Dataset | list[Dataset], seeds: list[int],
    config: FitConfig | None = None,
) -> list[PosteriorDraws]:
    """One posterior fit per seed, in seed order, under ``model`` and ``config``
    with its seed unread; ``data`` is one dataset for every seed, or a list of
    datasets of one size, one per seed.

    The sampler is the module's adaptive Metropolis on the parameterisation
    of :class:`_Unconstrained`: block moves as in Haario, Saksman and
    Tamminen (2001), their covariance estimated from each doubling window's
    own draws as in Stan, their scale tuned as in Roberts and Rosenthal
    (2009).  Warmup opens with at most ``_INIT_SWEEPS`` one-coordinate
    sweeps, whose per-coordinate scales are the first window's diagonal,
    and spends the rest on block moves.  Every phase runs
    :func:`_metropolis`, prefetched along each chain's reject path
    (Brockwell 2006); warmup adapts between its runs.

    The fits run in lockstep, sharing every :func:`_metropolis` call.  Chain
    ``c`` of the fit with seed ``s`` draws from ``Generator(s + c)`` alone and
    keeps its own start, scales, covariance and accept tests, so each fit, its
    diagnostics and ``density_calls`` included, is its lone :func:`fit`.  A
    failing fit raises :class:`FitError` ``"seed s: reason"``: all chains stuck
    after warmup (diagnostics attached), a proposal covariance that cannot be
    factored, undiagnosable draws, or no finite prior draw to start from.
    """
    if config is None:
        config = FitConfig()
    if len(seeds) == 0:
        raise ValueError("need at least one seed")
    datasets = list(data) if isinstance(data, (list, tuple)) else [data] * len(seeds)
    if len(datasets) != len(seeds):
        raise ValueError(f"need one dataset per seed, got {len(datasets)} for {len(seeds)}")
    for dataset in datasets:
        _check_data(model, dataset)
    if len({dataset.n for dataset in datasets}) > 1:
        raise ValueError("lockstep fits need datasets of one size")

    seeds = [int(s) for s in seeds]
    members = [slice(i * config.chains, (i + 1) * config.chains) for i in range(len(seeds))]
    rngs = [np.random.default_rng(s + c) for s in seeds for c in range(config.chains)]
    density = _Unconstrained(model, datasets, config.chains)
    starts = []
    for dataset, seed, member in zip(datasets, seeds, members):
        try:
            starts.append(_init_from_priors(model, dataset, rngs[member], _INIT_CANDIDATES))
        except FitError as err:
            raise FitError(f"seed {seed}: {err}") from None
    theta, _, calls = zip(*starts)
    calls = np.array(calls) + 1  # and the shared first call
    u = density.unconstrain(np.concatenate(theta))
    lp = density(u, density.gather(1))
    chains, k = u.shape

    def run(incr, log_u):
        """:func:`_metropolis` from the current state, which it advances, adding
        each member's calls, those of its slowest chain, to ``calls``."""
        nonlocal u, lp, calls
        path, alpha, accepted, lp, chain_calls = _metropolis(density, u, lp, incr, log_u)
        u, calls = path[:, -1], calls + chain_calls.reshape(-1, config.chains).max(axis=1)
        return path, alpha, accepted

    # exploration: sweeps of one-coordinate moves, each coordinate with its own scale
    sweeps = min(config.warmup // 2, _INIT_SWEEPS)
    log_scale = np.full((chains, k), math.log(_INIT_SCALE))
    one_hot = np.tile(np.eye(k), (_RUN, 1))  # step t moves coordinate t % k
    for first in range(0, sweeps, _RUN):
        n = min(_RUN, sweeps - first)
        z, log_u = _noise(rngs, n * k, 1)
        incr = np.tile(np.exp(log_scale), n)[:, :, None] * z * one_hot[: n * k]
        _, alpha, _ = run(incr, log_u)
        gain = sum((t + 1) ** -0.6 for t in range(first, first + n))
        log_scale += gain * (alpha.reshape(-1, n, k).mean(axis=1) - _TARGET_ACCEPT)

    # adaptation: block moves for the rest of warmup, starting from the exploration
    # scales, in doubling windows; each window's scale adaptation starts afresh
    chol = np.exp(log_scale)[:, None, :] * np.eye(k)  # Cholesky factor of each covariance
    reset = math.log(2.38 / math.sqrt(k))
    history = np.empty((chains, config.warmup - sweeps, k))
    ends = _window_ends(history.shape[1])
    for start, end in zip([0, *ends], [*ends, history.shape[1]]):
        log_lam = np.full(chains, reset)
        for first in range(start, end, _RUN):
            stop = min(first + _RUN, end)
            z, log_u = _noise(rngs, stop - first, k)
            incr = np.exp(log_lam)[:, None, None] * np.einsum("cij,cnj->cni", chol, z)
            history[:, first:stop], alpha, _ = run(incr, log_u)
            gain = sum((t + 1) ** -0.6 for t in range(first - start, stop - start))
            log_lam += gain * (alpha.mean(axis=1) - _TARGET_ACCEPT)
        if end in ends:  # estimate from the window's own draws, as Stan does
            cov = _regularised_cov(history[:, start:end])
            for seed, member in zip(seeds, members):
                try:
                    chol[member] = np.linalg.cholesky(cov[member])
                except np.linalg.LinAlgError as err:  # a ValueError: would read as bad input
                    raise FitError(f"seed {seed}: cannot factor a proposal covariance: {err}"
                                   ) from None

    # sampling: the frozen kernel, keeping every thin-th state
    step = np.exp(log_lam)[:, None, None] * chol
    steps, thin = config.samples * config.thin, config.thin
    kept, accepted = [], 0
    for first in range(0, steps, _NOISE_CHUNK):
        z, log_u = _noise(rngs, min(_NOISE_CHUNK, steps - first), k)
        incr = np.einsum("cij,cnj->cni", step, z)
        path, _, count = run(incr, log_u)
        kept.append(path[:, (thin - 1 - first) % thin :: thin])
        accepted = accepted + count
    draws = np.concatenate(kept, axis=1)
    stacked = density.constrain(draws.reshape(-1, k))[0].reshape(draws.shape)

    # the stuck check and the diagnostics, member by member
    names = model.parameter_names
    chain = np.repeat(np.arange(config.chains), config.samples)
    fits = []
    for seed, member, made in zip(seeds, members, calls.tolist()):
        acceptance = tuple((accepted[member] / steps).tolist())
        if not any(acceptance):
            nan = dict.fromkeys(names, float("nan"))
            diag = Diagnostics(nan, nan, acceptance, flagged=names, density_calls=made)
            raise FitError(f"seed {seed}: all chains stuck: zero acceptance after warmup", diag)
        try:
            diag = compute_diagnostics(stacked[member], None, names, acceptance=acceptance,
                                       density_calls=made)
        except DiagnosticsError as err:
            raise FitError(f"seed {seed}: cannot diagnose the fit: {err}") from None
        fits.append(PosteriorDraws(draws=stacked[member].reshape(-1, k), chain=chain,
                                   parameter_names=names, diagnostics=diag))
    return fits


# --------------------------------------------------------------------- #
# Plug-in (MAP) estimation
# --------------------------------------------------------------------- #


_PLUG_IN_RESTARTS = 12
_STENCIL_H = 1e-4  # central-difference step on the unconstrained space
_HALVINGS = 10  # a Newton iteration scores the step lengths 1, 1/2, ..., 2**-9
_NEWTON_ITERS = 100
_MIN_GAIN = 1e-10  # a start stops once its Newton step promises or gains no more
_EIG_FLOOR = 1e-8  # least curvature a Newton step divides by


def _stencil(density, u):
    """Value, central-difference gradient and Hessian of ``density`` at each
    row of ``u`` (m, k): (m,), (m, k) and (m, k, k), from one density call over
    1 + 2k + 2k(k - 1) points per row, with step ``_STENCIL_H``.  The Hessian
    uses every point, so a row with a non-finite point gets a non-finite one."""
    m, k = u.shape
    h = _STENCIL_H
    e = h * np.eye(k)
    i, j = np.triu_indices(k, 1)
    offsets = np.concatenate([np.zeros((1, k)), e, -e, e[i] + e[j], e[i] - e[j],
                              e[j] - e[i], -e[i] - e[j]])
    f = density((u[:, None, :] + offsets).reshape(-1, k)).reshape(m, -1)
    f0, fp, fm = f[:, :1], f[:, 1:k + 1], f[:, k + 1:2 * k + 1]
    fpp, fpm, fmp, fmm = np.split(f[:, 2 * k + 1:], 4, axis=1)
    hess = np.empty((m, k, k))
    with np.errstate(all="ignore"):
        grad = (fp - fm) / (2 * h)
        hess[:, np.arange(k), np.arange(k)] = (fp - 2 * f0 + fm) / h**2
        hess[:, i, j] = hess[:, j, i] = (fpp - fpm - fmp + fmm) / (4 * h**2)
    return f0[:, 0], grad, hess


def plug_in_fit(model: ModelSpec, data: Dataset, seed: int = 0) -> np.ndarray:
    """Maximum a-posteriori point estimate by multi-start damped Newton ascent.

    ``_PLUG_IN_RESTARTS`` starts are drawn from the priors and mapped to the
    unconstrained space of :class:`_Unconstrained`, where each climbs
    ``log_posterior`` (no Jacobian, so the optimum is the mode in the
    parameters, inside the priors' bounds).  Every iteration takes the
    derivatives of all moving starts from one :func:`_stencil` call, and
    scores ``_HALVINGS`` lengths of each start's Newton step, whose Hessian
    eigenvalues are made positive, in one more call; a start moves to its best
    length only when that gains.  A start stops when its step promises or gains
    at most ``_MIN_GAIN``, or its stencil is not finite.  The best start's
    parameters are returned.  Deterministic for a given seed.  A dataset
    that :func:`fit` refuses is refused here with the same ValueError.
    """
    _check_data(model, data)
    rng = np.random.default_rng(seed)
    space = _Unconstrained(model, data)

    def density(u):
        return log_posterior(model, data, space.constrain(u)[0])

    u = space.unconstrain(_init_from_priors(model, data, [rng] * _PLUG_IN_RESTARTS)[0])
    lp = np.empty(len(u))
    lengths = 0.5 ** np.arange(_HALVINGS)[:, None]
    moving = np.arange(len(u))
    for _ in range(_NEWTON_ITERS):
        lp[moving], grad, hess = _stencil(density, u[moving])
        finite = np.isfinite(hess).all(axis=(1, 2))
        moving, grad, hess = moving[finite], grad[finite], hess[finite]
        w, v = np.linalg.eigh(-hess)
        step = np.einsum("mij,mj->mi", v, np.einsum("mij,mi->mj", v, grad)
                         / np.maximum(np.abs(w), _EIG_FLOOR))
        # where the Hessian is negative definite, a Newton step gains about grad . step / 2
        promising = np.einsum("mi,mi->m", grad, step) > 2 * _MIN_GAIN
        moving, step = moving[promising], step[promising]
        if moving.size == 0:
            break
        trial = u[moving, None, :] + lengths * step[:, None, :]
        trial_lp = density(trial.reshape(-1, u.shape[1])).reshape(len(moving), _HALVINGS)
        at = np.arange(len(moving)), np.argmax(trial_lp, axis=1)
        moved = trial_lp[at] - lp[moving] > _MIN_GAIN
        u[moving[moved]], lp[moving[moved]] = trial[at][moved], trial_lp[at][moved]
        moving = moving[moved]
        if moving.size == 0:
            break
    best = np.argmax(lp)
    return space.constrain(u[best:best + 1])[0][0]


# --------------------------------------------------------------------- #
# Convergence diagnostics
# --------------------------------------------------------------------- #


def diagnostics(draws: PosteriorDraws) -> Diagnostics:
    """Split R-hat and bulk ESS per parameter (rank-normalized)."""
    return compute_diagnostics(draws.draws, draws.chain, draws.parameter_names)


def compute_diagnostics(draws, chain, names, acceptance=(), density_calls=None):
    """Diagnostics of (rows, params) ``draws`` with one ``chain`` label per row, or,
    with ``chain=None``, of ``draws`` stacked as (chains, samples, params); the fit's
    ``acceptance`` and ``density_calls`` pass through."""
    stacked = np.asarray(draws) if chain is None else _stack_chains(draws, chain)
    if stacked.shape[0] < 2:
        raise DiagnosticsError("need at least 2 chains")
    x = np.moveaxis(stacked, 2, 0)  # (params, chains, samples)
    finite = np.isfinite(x).all(axis=(1, 2))
    bad = ~finite | (x == x[:, :1, :1]).all(axis=(1, 2))
    if bad.any():
        j = int(np.argmax(bad))
        fault = "is constant across all draws" if finite[j] else "has a non-finite draw"
        raise DiagnosticsError(f"parameter {names[j]!r} {fault}")
    n = x.shape[2]
    if n < 4:
        raise DiagnosticsError("need at least 4 draws per chain")
    # split chains: each chain's first and last n // 2 draws, dropping an odd middle one
    z = _rank_normalize(np.concatenate([x[:, :, :n // 2], x[:, :, n - n // 2:]], axis=1))
    r_hat, ess = _rhat(z), _ess_bulk(z)
    return Diagnostics(
        r_hat=dict(zip(names, r_hat.tolist())), ess=dict(zip(names, ess.tolist())),
        acceptance=tuple(acceptance), density_calls=density_calls,
        flagged=tuple(n for n, r, e in zip(names, r_hat, ess) if r > MAX_R_HAT or e < MIN_BULK_ESS))


def _stack_chains(draws, chain):
    """Rows grouped by chain label, in label order, as (chains, samples, params)."""
    labels, counts = np.unique(chain, return_counts=True)
    if len(set(counts)) != 1:
        raise DiagnosticsError("chains have unequal lengths")
    return np.stack([np.asarray(draws)[chain == c] for c in labels])


def _rank_normalize(x):
    """Fractional ranks pooled over the last two axes of ``x``, mapped through the
    normal quantile function (Vehtari et al. 2021): the rank r of N values maps to
    ``ndtri((r - 3/8) / (N + 1/4))``.  Each parameter row is sorted once into ``s``,
    and a value v has ``searchsorted(s, v, "left")`` values below it and ``"right"``
    at or below it, so tied values share their average rank, half the sum plus 1/2:
    a whole number or a half, exact in float64."""
    rows = x.reshape(-1, x.shape[-2] * x.shape[-1])
    ranks = np.empty(rows.shape)
    for r, row in enumerate(rows):
        order = np.argsort(row)
        s = row[order]
        ranks[r, order] = 0.5 * (np.searchsorted(s, s, "left") + np.searchsorted(s, s, "right") + 1)
    return special.ndtri((ranks - 3.0 / 8.0) / (rows.shape[1] + 0.25)).reshape(x.shape)


def _rhat(z):
    """Split R-hat of each parameter of a (params, chains, draws) array."""
    n = z.shape[-1]
    w = z.var(axis=-1, ddof=1).mean(axis=-1)
    if (w == 0.0).any():
        raise DiagnosticsError("zero within-chain variance")
    b = n * z.mean(axis=-1).var(axis=-1, ddof=1)
    var_hat = (n - 1) / n * w + b / n
    # sampling noise can push the estimate below 1; clamp to the floor
    return np.maximum(1.0, np.sqrt(var_hat / w))


def _ess_bulk(z):
    """Bulk ESS of each parameter of a (params, chains, draws) array, from per-chain
    FFT autocovariances and Geyer's initial monotone sequence."""
    m, n = z.shape[-2:]
    size = 2 ** math.ceil(math.log2(2 * n))
    means = z.mean(axis=-1)
    # one transform per (parameter, chain) row, each centred on its own: one along
    # the whole array's last axis rounds differently
    spectra = (np.fft.rfft(row - mean, size) for row, mean in zip(z.reshape(-1, n), means.flat))
    acov = np.array([np.fft.irfft(f * np.conj(f), size)[:n] for f in spectra]).reshape(z.shape) / n
    w = acov[..., 0].mean(axis=-1) * n / (n - 1)  # within-chain variance, ddof=1
    var_hat = (n - 1) / n * w + means.var(axis=-1, ddof=1)
    if (var_hat <= 0.0).any():
        raise DiagnosticsError("zero pooled variance")
    rho = 1.0 - (w[..., None] - acov.mean(axis=-2)) / var_hat[..., None]
    rho[..., 0] = 1.0
    # Geyer: the paired autocorrelation sums up to the first that is not
    # positive, each lowered to the least before it, summed left to right
    pairs = rho[..., 0:n - 1:2] + rho[..., 1:n:2]
    kept = np.logical_and.accumulate(pairs > 0.0, axis=-1)
    monotone = np.where(kept, np.minimum.accumulate(pairs, axis=-1), 0.0)
    tau = np.maximum(2.0 * monotone.cumsum(axis=-1)[..., -1] - 1.0, 1e-3)
    total = m * n
    return np.minimum(total / tau, total * math.log10(max(total, 10)))
