"""Posterior sampling, plug-in estimation, and convergence diagnostics.

The sampler is adaptive random-walk Metropolis with componentwise Gaussian
proposals: during warmup each component's proposal scale is tuned toward a
target acceptance rate and then frozen, so retained draws come from a
fixed kernel.  Chains start from prior draws and step in lockstep, one
:func:`log_posterior` call scoring every chain's proposal for a component;
chain ``c`` draws only from ``Generator(master_seed + c)``, so its draws do
not depend on the other chains.  ``fit`` diagnoses the (chains, samples,
params) stack of its chains once; draws read from CSV carry no diagnostics,
and :func:`diagnostics` computes them on request.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import optimize, stats

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
        if self.priors is not None:
            object.__setattr__(self, "priors", tuple(self.priors))
            if len(self.priors) != self.n_params:
                raise ValueError(
                    f"need {self.n_params} priors (one per parameter), got {len(self.priors)}"
                )
        else:
            object.__setattr__(self, "priors", default_priors(self))
        if not self.name:
            object.__setattr__(self, "name", self.mean.form)

    @property
    def n_mean_params(self) -> int:
        return self.mean.parameter_count

    @property
    def n_params(self) -> int:
        extra = self.variance.parameter_count if self.variance is not None else 0
        return self.mean.parameter_count + extra

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

    ``thin`` runs that many sweeps per retained draw, which buys effective
    sample size on strongly correlated posteriors without changing the
    retained draw count.
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
    (m, k), giving an (m,) array whose rows equal the vector calls exactly.
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
        out = np.sum(dist.OUTCOMES[model.family].logpdf(data.y, mu, sigma, model.df), axis=-1)
        logprior = 0.0
        for prior, column in zip(model.priors, rows.T):
            logprior = logprior + prior.log_density(column)
        out = out + logprior
    # a scale <= 0 (or inf, nan) makes its row's likelihood non-finite, so one
    # mask covers the scale, the likelihood and the priors
    out[~np.isfinite(out)] = _NEG_INF
    return float(out[0]) if theta.ndim == 1 else out


# --------------------------------------------------------------------- #
# Adaptive random-walk Metropolis
# --------------------------------------------------------------------- #


def _init_from_priors(model: ModelSpec, data: Dataset, rngs):
    """One prior draw per generator with a finite log posterior, as a (len(rngs), k)
    matrix and its log posteriors; a row is redrawn only while it is out of support."""
    theta = np.empty((len(rngs), model.n_params))
    lp = np.full(len(rngs), _NEG_INF)
    for _ in range(100):
        redraw = np.flatnonzero(~np.isfinite(lp))
        for c in redraw:
            theta[c] = [p.sample(rngs[c], 1)[0] for p in model.priors]
        lp[redraw] = log_posterior(model, data, theta[redraw])
        if np.isfinite(lp).all():
            return theta, lp
    raise FitError("could not find a prior draw with finite log posterior")


def fit(model: ModelSpec, data: Dataset, config: FitConfig | None = None) -> PosteriorDraws:
    """Sample the posterior over all model parameters.

    One :func:`log_posterior` call scores every chain's proposal for a
    component; each chain draws, accepts and adapts on its own.  Raises
    :class:`FitError` if every chain is stuck after warmup (with diagnostics
    attached) or if the draws cannot be diagnosed.
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
    theta, lp = _init_from_priors(model, data, rngs)
    lp = lp.tolist()
    k = model.n_params
    log_scale = [[math.log(config.init_scale)] * k for _ in rngs]
    accepted = [0] * config.chains
    stacked = np.empty((config.chains, config.samples, k))  # (chains, samples, params)
    for t in range(config.warmup + config.samples * config.thin):
        adapt_step = (t + 1) ** -0.6 if t < config.warmup else None
        for j in range(k):
            proposal = theta.copy()
            proposal[:, j] += [math.exp(scale[j]) * rng.standard_normal()
                               for scale, rng in zip(log_scale, rngs)]
            lp_new = log_posterior(model, data, proposal).tolist()
            for c, rng in enumerate(rngs):
                # math.exp, not np.exp, whose SIMD path may move the adaptation by an ulp
                log_ratio = lp_new[c] - lp[c]
                alpha = 1.0 if log_ratio >= 0.0 else math.exp(max(log_ratio, -745.0))
                if rng.random() < alpha:
                    theta[c], lp[c] = proposal[c], lp_new[c]
                    accepted[c] += adapt_step is None  # counted after warmup only
                if adapt_step is not None:
                    log_scale[c][j] += adapt_step * (alpha - config.target_accept)
        s, r = divmod(t + 1 - config.warmup, config.thin)
        if s > 0 and r == 0:
            stacked[:, s - 1] = theta

    names = model.parameter_names
    acceptance = tuple(a / (config.samples * config.thin * k) for a in accepted)
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
    and ``upper``), and the best optimum is kept.  Deterministic for a given
    seed.
    """
    rng = np.random.default_rng(seed)
    bounds = [(p.lower, p.upper) for p in model.priors]

    def objective(theta):
        lp = log_posterior(model, data, theta)
        return -lp if np.isfinite(lp) else 1e100

    best_theta, best_val = None, np.inf
    for _ in range(_PLUG_IN_RESTARTS):
        start = _init_from_priors(model, data, [rng])[0][0]
        res = optimize.minimize(objective, start, method="L-BFGS-B", bounds=bounds)
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
