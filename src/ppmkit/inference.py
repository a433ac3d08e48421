"""Posterior sampling, plug-in estimation, and convergence diagnostics.

The sampler is adaptive Metropolis on an unconstrained parameterisation:
a parameter whose prior is bounded is sampled as the log or scaled logit
of its distance to the bounds, with the log-Jacobian added to the density,
and draws are returned in the constrained space.  Each chain starts from
the best of several prior draws.  The first half of warmup sweeps the
parameters one at a time with adaptive scales; the second half makes block
moves whose covariance each chain learns in doubling windows and whose
scale is tuned toward a target acceptance rate.  That kernel is then
frozen, so retained draws come from a fixed kernel.  The block moves of
warmup step the chains in lockstep, one :func:`log_posterior` call scoring
every chain's proposal.  The sweeps and the retained steps are prefetched:
one call scores each chain's next moves as if it rejected them all (the
rest of its sweep, or its next ``_PREFETCH`` steps), and the chain takes
them up to its first accepted one, so the draws are those of one move per
call and chains advance at their own pace; those accept tests run on Python
floats.  :func:`log_posterior` scores the priors from the table that a
:class:`ModelSpec` builds once, one kernel call per prior family.  Chain
``c`` draws only from ``Generator(master_seed + c)``, so its draws do not
depend on the other chains.  ``fit`` diagnoses the (chains, samples,
params) stack of its chains once; draws read from CSV carry no
diagnostics, and :func:`diagnostics` computes them on request.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import optimize, special, stats

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


class FitError(RuntimeError):
    """Raised when sampling or optimization fails; may carry diagnostics."""

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

    ``warmup`` counts adaptation steps: a sweep over every parameter in its
    first half, one block step in its second.  ``thin`` runs that many
    block steps per retained draw, which buys effective sample size on
    strongly correlated posteriors without changing the retained draw
    count.  ``init_scale`` is each parameter's starting proposal scale on
    the unconstrained space, and ``target_accept`` the acceptance rate
    every proposal scale is tuned toward.
    """

    chains: int = 4
    warmup: int = 1000
    samples: int = 1000
    init_scale: float = 0.5
    target_accept: float = 0.30
    seed: int = 0
    thin: int = 1

    def __post_init__(self):
        if self.chains < 2:
            raise ValueError("need at least 2 chains for diagnostics")
        if self.warmup < 1 or self.samples < 4:
            raise ValueError("need warmup >= 1 and samples >= 4 (4 draws per chain for R-hat)")
        if not self.init_scale > 0.0:
            raise ValueError("init_scale must be > 0")
        if not 0.0 < self.target_accept < 1.0:
            raise ValueError("target_accept must lie in (0, 1)")
        if self.thin < 1:
            raise ValueError("thin must be >= 1")


@dataclass(frozen=True)
class Diagnostics:
    r_hat: dict[str, float]
    ess: dict[str, float]
    acceptance: tuple[float, ...]
    flagged: tuple[str, ...]

    def max_r_hat(self) -> float:
        return max(self.r_hat.values())

    def to_json(self) -> dict:
        return {
            "r_hat": self.r_hat,
            "ess": self.ess,
            "acceptance": list(self.acceptance),
            "flagged": list(self.flagged),
        }


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

    @property
    def n_chains(self) -> int:
        return len(np.unique(self.chain))

    def by_chain(self) -> np.ndarray:
        """Draws reshaped to (chains, samples, params); chains must be equal length."""
        return _stack_chains(self.draws, self.chain)

    def column(self, name: str) -> np.ndarray:
        return self.draws[:, self.parameter_names.index(name)]

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
    a matrix's priors are scored by ``model.prior_table``.
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


class _Unconstrained:
    """:func:`log_posterior` of ``model`` on ``data`` over unconstrained reals.

    A parameter whose prior has one bound is ``lower + exp(u)`` or
    ``upper - exp(u)``; one with two bounds is ``lower + (upper - lower) *
    expit(u)``, a scaled logit; an unbounded one is ``u`` itself.  The bounds
    are each prior's ``DistributionSpec.lower/upper``, and the density of
    ``u`` adds the log Jacobian of that map.
    """

    def __init__(self, model: ModelSpec, data: Dataset):
        self.model, self.data = model, data
        lower, upper = model.prior_table.lower, model.prior_table.upper
        has_lo, has_hi = np.isfinite(lower), np.isfinite(upper)
        self.one = np.flatnonzero(has_lo != has_hi)
        self.bound = np.where(has_lo, lower, upper)[self.one]
        self.sign = np.where(has_lo, 1.0, -1.0)[self.one]
        self.two = np.flatnonzero(has_lo & has_hi)
        self.lower = lower[self.two]
        self.width = (upper - lower)[self.two]
        self.log_width = np.log(self.width)

    def __call__(self, u):
        """Log density of unconstrained rows ``u`` (m, k), (m,)."""
        theta, log_jac = self.constrain(u)
        return log_posterior(self.model, self.data, theta) + log_jac

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
        return theta, log_jac

    def unconstrain(self, theta):
        """Unconstrained rows of parameter rows (m, k) strictly inside the supports."""
        u = np.array(theta, dtype=float)
        u[:, self.one] = np.log(self.sign * (u[:, self.one] - self.bound))
        u[:, self.two] = special.logit((u[:, self.two] - self.lower) / self.width)
        return u


def _init_from_priors(model: ModelSpec, data: Dataset, rngs, candidates=1):
    """For each generator, the best of ``candidates`` prior draws by log posterior,
    as a (len(rngs), k) matrix and its log posteriors; a generator draws again only
    while all its candidates are out of support."""
    k = model.n_params
    theta = np.empty((len(rngs), k))
    lp = np.full(len(rngs), _NEG_INF)
    for _ in range(100):
        redraw = np.flatnonzero(~np.isfinite(lp))
        draws = np.stack([np.column_stack([p.sample(rngs[c], candidates) for p in model.priors])
                          for c in redraw])  # (redraw, candidates, k)
        draw_lp = log_posterior(model, data, draws.reshape(-1, k)).reshape(len(redraw), -1)
        best = np.argmax(draw_lp, axis=1)
        theta[redraw] = draws[np.arange(len(redraw)), best]
        lp[redraw] = draw_lp[np.arange(len(redraw)), best]
        if np.isfinite(lp).all():
            return theta, lp
    raise FitError("could not find a prior draw with finite log posterior")


# Each chain starts from the best of this many prior draws: a start far from the
# data can settle in a local mode.  Under the default priors a true_model chain can
# stick on a flat line (theta1 far below 0); at warmup 400, over generator seeds
# 0-119 on simulate_dataset seeds 100 and 200, 59 of 240 chains stuck when each
# started from one prior draw and 17 when each started from the best of 32.
_INIT_CANDIDATES = 32

_NOISE_CHUNK = 1024  # steps of noise each generator draws at a time

# Retained steps each chain scores per density call: its next proposals along the
# path on which it rejects them all.
_PREFETCH = 4


def _noise(rngs, steps, k):
    """Blocks of at most ``_NOISE_CHUNK`` steps of the chains' standard normals
    and log uniforms, each (block steps, chains, k) (a block step uses the first
    uniform only); chain ``c``'s come from ``rngs[c]`` alone."""
    for start in range(0, steps, _NOISE_CHUNK):
        n = min(_NOISE_CHUNK, steps - start)
        z = np.stack([rng.standard_normal((n, k)) for rng in rngs], axis=1)
        log_u = np.log(np.stack([rng.random((n, k)) for rng in rngs], axis=1))
        yield z, log_u


def _noise_steps(rngs, steps, k):
    """Per step, the (chains, k) normals and log uniforms of :func:`_noise`."""
    for z, log_u in _noise(rngs, steps, k):
        yield from zip(z, log_u)


def _metropolis(density, u, lp, proposal, log_u):
    """Move each chain (row of ``u``, updated in place with ``lp``) to its
    proposal row when ``log_u`` is below the log density ratio; returns each
    row's acceptance probability."""
    lp_new = density(proposal)
    log_ratio = lp_new - lp
    accept = log_u < log_ratio
    u[accept] = proposal[accept]
    lp[accept] = lp_new[accept]
    return np.exp(np.minimum(log_ratio, 0.0))


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


def _explore(density, u, lp, log_scale, rngs, sweeps, target):
    """Run each chain (row of ``u``, log density ``lp``) ``sweeps`` sweeps of
    one-coordinate moves; returns the chains' ``u``, ``lp`` and ``log_scale``.

    Move ``j`` of sweep ``t`` proposes ``u_j + exp(log_scale_j) z_j`` and then
    moves ``log_scale_j`` by ``(t + 1) ** -0.6 (alpha - target)``, ``alpha``
    its acceptance probability.  No scale changes until its own move, so one
    ``density`` call scores the rest of a chain's sweep as if it rejected every
    move; the chain takes moves up to its first accepted one.  Chains advance
    by different move counts and meet again at the end of each noise block."""
    chains, k = u.shape
    rows = np.arange(chains)
    u, lp, log_scale = u.copy(), lp.tolist(), log_scale.tolist()
    # Python's pow: numpy's vector power differs in the last bit
    gains = [(t + 1) ** -0.6 for t in range(sweeps)]
    done = 0
    for z, log_u in _noise(rngs, sweeps, k):
        n = len(z)
        # padded by a zero step: a chain that has finished the block proposes
        # its own state until the others finish it too
        z = np.concatenate([z, np.zeros((1, chains, k))])
        log_u = log_u.tolist()
        t, j = [0] * chains, [0] * chains  # each chain's sweep and next move
        while min(t) < n:
            proposal = np.repeat(u[:, None], k, axis=1)  # row j moves coordinate j
            proposal.reshape(chains, -1)[:, :: k + 1] += np.exp(log_scale) * z[t, rows]
            lp_new = density(proposal.reshape(-1, k)).reshape(chains, k)
            log_ratio = lp_new - np.array(lp)[:, None]
            alpha = np.exp(np.minimum(log_ratio, 0.0)).tolist()
            log_ratio = log_ratio.tolist()
            for c in range(chains):
                if t[c] == n:
                    continue
                gain, scale = gains[done + t[c]], log_scale[c]
                for m in range(j[c], k):
                    scale[m] = scale[m] + gain * (alpha[c][m] - target)
                    if log_u[t[c]][c][m] < log_ratio[c][m]:
                        u[c], lp[c] = proposal[c, m], lp_new[c, m]
                        break
                j[c] = (m + 1) % k
                t[c] += j[c] == 0
        done += n
    return u, np.array(lp), np.array(log_scale)


def _frozen_kernel(density, u, lp, step, rngs, samples, thin):
    """Run each chain (row of ``u``, log density ``lp``) ``samples * thin`` steps of
    the block kernel whose proposal is ``u + step[c] @ z``; returns the state after
    every ``thin``-th step, (chains, samples, k), and each chain's accepted count.

    One ``density`` call scores ``_PREFETCH`` proposals per chain: the chain's
    next proposals as if it rejected them all.  The chain takes the first that
    its uniform accepts, or rejects them all, so its path is the one-step
    kernel's exactly.  Chains advance by different step counts and meet again
    at the end of each noise block.  Accept tests run on Python floats, which
    for a few chains costs less than numpy calls."""
    chains, k = u.shape
    depth, rows = _PREFETCH, np.arange(chains)
    u, lp, accepted = u.copy(), lp.tolist(), [0] * chains
    kept = np.arange(1, samples + 1) * thin - 1  # the step each retained draw follows
    draws = np.empty((chains, samples, k))
    done = 0  # steps before the block
    for z, log_u in _noise(rngs, samples * thin, k):
        # padded with proposals that a log uniform of +inf never accepts: a chain
        # that has finished the block scores those until the others finish it too
        n = len(z)
        incr = np.zeros((chains, n + depth, k))
        incr[:, :n] = np.einsum("cij,ncj->cni", step, z)
        windows = sliding_window_view(incr, depth, axis=1)  # [c, t] -> (k, depth)
        log_u = np.concatenate([log_u[:, :, 0], np.full((depth, chains), np.inf)]).T.tolist()
        pos = [0] * chains
        positions, states = [pos], [u.copy()]  # after each call, each chain's position and state
        while min(pos) < n:
            proposal = u[:, None] + windows[rows, pos].swapaxes(1, 2)
            lp_new = density(proposal.reshape(-1, k)).tolist()
            pos = pos.copy()
            for c, t in enumerate(pos):
                for i in range(depth):
                    if log_u[c][t + i] < lp_new[c * depth + i] - lp[c]:
                        u[c], lp[c] = proposal[c, i], lp_new[c * depth + i]
                        accepted[c] += 1
                        break
                pos[c] = min(t + i + 1, n)  # past its accepted step, or all ``depth``
            positions.append(pos)
            states.append(u.copy())
        # a draw is the state after the last call whose last step is not past the draw's
        taken = np.array(positions) + (done - 1)  # (calls + 1, chains) last steps
        states = np.array(states)
        lo, hi = np.searchsorted(kept, [done, done + n])
        for c in range(chains):
            draws[c, lo:hi] = states[np.searchsorted(taken[:, c], kept[lo:hi], side="right") - 1, c]
        done += n
    return draws, np.array(accepted)


def fit(model: ModelSpec, data: Dataset, config: FitConfig | None = None) -> PosteriorDraws:
    """Sample the posterior over all model parameters.

    The sampler is the module's adaptive Metropolis on the parameterisation
    of :class:`_Unconstrained`: block moves as in Haario, Saksman and
    Tamminen (2001), their scale tuned as in Roberts and Rosenthal (2009).
    The sweeps and the frozen kernel's retained steps are prefetched along
    each chain's reject path (Brockwell 2006), several moves per
    :func:`log_posterior` call, with the draws of one move per call.
    Raises :class:`FitError` if every chain is stuck after warmup (with
    diagnostics attached), if a learned proposal covariance cannot be
    factored, or if the draws cannot be diagnosed.
    """
    if config is None:
        config = FitConfig()
    if data.n == 0:
        raise ValueError("dataset is empty")
    if data.n_features != model.mean.n_features:
        raise ValueError(f"model {model.name!r} takes {model.mean.n_features} feature(s), "
                         f"the dataset has {data.n_features}")
    if model.family == "bernoulli" and not np.all(np.isin(data.y, (0.0, 1.0))):
        raise ValueError("bernoulli outcomes must be 0/1")

    rngs = [np.random.default_rng(config.seed + c) for c in range(config.chains)]
    density = _Unconstrained(model, data)
    u = density.unconstrain(_init_from_priors(model, data, rngs, _INIT_CANDIDATES)[0])
    lp = density(u)
    k = model.n_params
    target = config.target_accept

    # exploration: one coordinate at a time, each with its own adaptive scale
    explore = config.warmup // 2
    log_scale = np.full((config.chains, k), math.log(config.init_scale))
    u, lp, log_scale = _explore(density, u, lp, log_scale, rngs, explore, target)

    # adaptation: block moves, starting from the exploration scales
    chol = np.exp(log_scale)[:, None, :] * np.eye(k)  # Cholesky factor of each covariance
    reset = math.log(2.38 / math.sqrt(k))
    log_lam = np.full(config.chains, reset)
    history = np.empty((config.chains, config.warmup - explore, k))
    ends, start = _window_ends(history.shape[1]), 0
    for t, (z, log_u) in enumerate(_noise_steps(rngs, history.shape[1], k)):
        proposal = u + np.exp(log_lam)[:, None] * np.einsum("cij,cj->ci", chol, z)
        alpha = _metropolis(density, u, lp, proposal, log_u[:, 0])
        log_lam += (t + 1 - start) ** -0.6 * (alpha - target)
        history[:, t] = u
        if t + 1 in ends:  # estimate from all block draws so far, as adaptive Metropolis does
            try:
                chol = np.linalg.cholesky(_regularised_cov(history[:, :t + 1]))
            except np.linalg.LinAlgError as err:  # a ValueError, which would read as bad input
                raise FitError(f"cannot factor a proposal covariance: {err}") from None
            log_lam[:] = reset
            start = t + 1

    # sampling: the frozen kernel, prefetched
    draws, accepted = _frozen_kernel(density, u, lp, np.exp(log_lam)[:, None, None] * chol,
                                     rngs, config.samples, config.thin)
    stacked = density.constrain(draws.reshape(-1, k))[0].reshape(draws.shape)

    names = model.parameter_names
    acceptance = tuple((accepted / (config.samples * config.thin)).tolist())
    if not any(acceptance):
        nan = dict.fromkeys(names, float("nan"))
        diag = Diagnostics(r_hat=nan, ess=nan, acceptance=acceptance, flagged=names)
        raise FitError("all chains stuck: zero acceptance after warmup", diagnostics=diag)
    try:
        diag = compute_diagnostics(stacked, None, names, acceptance=acceptance)
    except DiagnosticsError as err:
        raise FitError(f"cannot diagnose the fit: {err}") from None
    chain = np.repeat(np.arange(config.chains), config.samples)
    return PosteriorDraws(draws=stacked.reshape(-1, k), chain=chain,
                          parameter_names=names, diagnostics=diag)


def fit_ensemble(
    model: ModelSpec, data: Dataset, seeds: list[int], config: FitConfig | None = None
) -> list[PosteriorDraws]:
    """One independent fit per seed, in seed order."""
    if config is None:
        config = FitConfig()
    if len(seeds) == 0:
        raise ValueError("need at least one seed")
    fits = []
    for s in seeds:
        try:
            fits.append(fit(model, data, replace(config, seed=int(s))))
        except FitError as err:
            raise FitError(f"ensemble member with seed {s} failed: {err}", err.diagnostics) from err
    return fits


# --------------------------------------------------------------------- #
# Plug-in (MAP) estimation
# --------------------------------------------------------------------- #


_PLUG_IN_RESTARTS = 12


def plug_in_fit(model: ModelSpec, data: Dataset, seed: int = 0) -> np.ndarray:
    """Maximum a-posteriori point estimate by multi-start bounded L-BFGS-B.

    ``_PLUG_IN_RESTARTS`` starts are drawn from the priors; each gets one
    L-BFGS-B search inside the priors' own bounds (``DistributionSpec.lower``
    and ``upper``), and the best optimum is kept.  Each finite-difference
    gradient scores all of its points in one draw-matrix call.  Deterministic
    for a given seed.
    """
    rng = np.random.default_rng(seed)
    bounds = [(p.lower, p.upper) for p in model.priors]

    def objective(theta):
        """Negative log posterior of a vector or of each row of a draw matrix;
        1e100 stands in for +inf, which L-BFGS-B cannot take."""
        lp = log_posterior(model, data, theta)
        return np.where(np.isfinite(lp), -lp, 1e100)

    # L-BFGS-B maps its function over the difference points with ``workers``
    options = {"workers": lambda _, points: objective(np.array(list(points)))}
    best_theta, best_val = None, np.inf
    for _ in range(_PLUG_IN_RESTARTS):
        start = _init_from_priors(model, data, [rng])[0][0]
        res = optimize.minimize(lambda theta: float(objective(theta)), start,
                                method="L-BFGS-B", bounds=bounds, options=options)
        if res.fun < best_val:
            best_theta, best_val = res.x, res.fun
    if best_val >= 1e100:
        raise FitError("plug-in optimization failed to find a finite posterior mode")
    return np.asarray(best_theta, dtype=float)


# --------------------------------------------------------------------- #
# Convergence diagnostics
# --------------------------------------------------------------------- #


def diagnostics(draws: PosteriorDraws) -> Diagnostics:
    """Split R-hat and bulk ESS per parameter (rank-normalized)."""
    return compute_diagnostics(draws.draws, draws.chain, draws.parameter_names)


def compute_diagnostics(draws, chain, names, acceptance=()):
    """Diagnostics of (rows, params) ``draws`` with one ``chain`` label per row, or,
    with ``chain=None``, of ``draws`` already stacked as (chains, samples, params)."""
    stacked = np.asarray(draws) if chain is None else _stack_chains(draws, chain)
    if stacked.shape[0] < 2:
        raise DiagnosticsError("need at least 2 chains")
    r_hat, ess, flagged = {}, {}, []
    for j, name in enumerate(names):
        col = stacked[:, :, j]
        if np.allclose(col, col.flat[0], rtol=0.0, atol=0.0):
            raise DiagnosticsError(f"parameter {name!r} is constant across all draws")
        z = _rank_normalize(_split_chains(col))
        r = _rhat(z)
        r_hat[name] = r
        ess[name] = _ess_bulk(z)
        if r > 1.01:
            flagged.append(name)
    return Diagnostics(
        r_hat=r_hat, ess=ess, acceptance=tuple(acceptance), flagged=tuple(flagged)
    )


def _stack_chains(draws, chain):
    """Rows grouped by chain label, in label order, as (chains, samples, params)."""
    labels, counts = np.unique(chain, return_counts=True)
    if len(set(counts)) != 1:
        raise DiagnosticsError("chains have unequal lengths")
    return np.stack([np.asarray(draws)[chain == c] for c in labels])


def _split_chains(col):
    """(chains, samples) -> (2*chains, samples//2), dropping an odd tail."""
    m, n = col.shape
    if n < 4:
        raise DiagnosticsError("need at least 4 draws per chain")
    half = n // 2
    return np.vstack([col[:, :half], col[:, n - half:]])


def _rank_normalize(col):
    """Pooled fractional ranks mapped through the normal quantile function."""
    flat = col.reshape(-1)
    ranks = stats.rankdata(flat, method="average")
    z = stats.norm.ppf((ranks - 3.0 / 8.0) / (flat.size + 0.25))
    return z.reshape(col.shape)


def _rhat(z):
    m, n = z.shape
    chain_means = z.mean(axis=1)
    w = z.var(axis=1, ddof=1).mean()
    if w == 0.0:
        raise DiagnosticsError("zero within-chain variance")
    b = n * chain_means.var(ddof=1)
    var_hat = (n - 1) / n * w + b / n
    # sampling noise can push the estimate below 1; clamp to the floor
    return float(max(1.0, math.sqrt(var_hat / w)))


def _ess_bulk(z):
    """Effective sample size via per-chain FFT autocovariance and Geyer pairing."""
    m, n = z.shape
    acov = np.empty((m, n))
    for c in range(m):
        acov[c] = _autocov(z[c])
    w = acov[:, 0].mean() * n / (n - 1)  # within-chain variance, ddof=1
    b_over_n = z.mean(axis=1).var(ddof=1) if m > 1 else 0.0
    var_hat = (n - 1) / n * w + b_over_n
    if var_hat <= 0.0:
        raise DiagnosticsError("zero pooled variance")
    rho = 1.0 - (w - acov.mean(axis=0)) / var_hat
    rho[0] = 1.0
    # Geyer initial monotone positive sequence on paired autocorrelation sums
    tau_sum = 0.0
    prev_pair = np.inf
    k = 0
    while 2 * k + 1 < n:
        pair = rho[2 * k] + rho[2 * k + 1]
        if pair <= 0.0:
            break
        pair = min(pair, prev_pair)
        tau_sum += pair
        prev_pair = pair
        k += 1
    tau = max(2.0 * tau_sum - 1.0, 1e-3)
    total = m * n
    return float(min(total / tau, total * math.log10(max(total, 10))))


def _autocov(x):
    n = x.size
    xc = x - x.mean()
    size = 2 ** math.ceil(math.log2(2 * n))
    f = np.fft.rfft(xc, size)
    acov = np.fft.irfft(f * np.conj(f), size)[:n].real / n
    return acov
