"""Posterior sampling, plug-in estimation, and convergence diagnostics.

The sampler is adaptive random-walk Metropolis with componentwise Gaussian
proposals: during warmup each component's proposal scale is tuned toward a
target acceptance rate and then frozen, so retained draws come from a
fixed kernel.  Chains are initialized from the priors and chain ``c`` is
seeded with ``master_seed + c``, which makes every fit reproducible and
lets chains run independently (in any order, or in parallel) with results
identical to sequential execution.
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
        if self.family == "bernoulli":
            if self.mean_link not in ZERO_ONE_LINKS:
                raise ValueError("bernoulli outcomes need a 0-1 mean link")
            if self.variance is not None:
                raise ValueError("bernoulli outcomes take no variance function")
        else:
            if self.variance is None:
                raise ValueError(f"{self.family} outcomes need a variance function")
        if dist.OUTCOMES[self.family].has_df:
            if self.df is None or not self.df > 0.0:
                raise ValueError(f"{self.family} outcomes require df > 0")
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
    def from_json(cls, obj: dict) -> "ModelSpec":
        mean_obj = obj["mean"]
        mean = MeanFunctionSpec(mean_obj["form"], mean_obj.get("n_features", 1))
        var_obj = obj.get("variance")
        variance = (
            None
            if var_obj is None
            else VarianceFunctionSpec(var_obj["form"], var_obj.get("link", ""))
        )
        priors = obj.get("priors")
        trunc_obj = obj.get("truncation")
        truncation = (
            None
            if trunc_obj is None
            else (trunc_obj.get("lower"), trunc_obj.get("upper"))
        )
        return cls(
            mean=mean,
            family=obj["distribution"]["family"],
            mean_link=mean_obj.get("link", "identity"),
            variance=variance,
            priors=None
            if priors is None
            else tuple(DistributionSpec.from_json(p) for p in priors),
            df=obj["distribution"].get("df"),
            truncation=truncation,
            name=obj.get("name", ""),
        )

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
    """Sampler settings; ``samples`` counts retained draws per chain.

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
        if self.warmup < 1 or self.samples < 1:
            raise ValueError("warmup and samples must be >= 1")
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
        labels = np.unique(self.chain)
        per = [self.draws[self.chain == c] for c in labels]
        if len({p.shape[0] for p in per}) != 1:
            raise ValueError("chains have unequal lengths")
        return np.stack(per)

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
        names = tuple(header[:-1])
        draws, chain = values[:, :-1], values[:, -1]
        bad = chain != np.round(chain)
        if bad.any():
            i = np.argmax(bad)
            raise ValueError(f"{path}, line {i + 2}: chain label {chain[i]:g} is not an integer")
        chain = chain.astype(int)
        diag = None
        try:
            diag = compute_diagnostics(draws, chain, names)
        except DiagnosticsError:
            pass
        return cls(draws=draws, chain=chain, parameter_names=names, diagnostics=diag)


# --------------------------------------------------------------------- #
# Log posterior
# --------------------------------------------------------------------- #


def log_posterior(model: ModelSpec, data: Dataset, theta) -> float:
    """Log likelihood plus log prior; -inf anywhere out of support."""
    if data.n == 0:
        raise ValueError("dataset is empty")
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (model.n_params,):
        raise ValueError(f"theta must have length {model.n_params}")
    with np.errstate(all="ignore"):
        mu = model.mu(theta, data.x)
        sigma = model.sigma(theta, mu)
        if sigma is not None and (np.any(~np.isfinite(sigma)) or np.any(sigma <= 0.0)):
            return _NEG_INF
        loglik = np.sum(dist.OUTCOMES[model.family].logpdf(data.y, mu, sigma, model.df))
    if not np.isfinite(loglik):
        return _NEG_INF
    logprior = 0.0
    for value, prior in zip(theta, model.priors):
        lp = prior.log_density(value)
        if not np.isfinite(lp):
            return _NEG_INF
        logprior += lp
    return float(loglik + logprior)


# --------------------------------------------------------------------- #
# Adaptive random-walk Metropolis
# --------------------------------------------------------------------- #


def _init_from_priors(model: ModelSpec, logpost, rng, max_tries: int = 100):
    for _ in range(max_tries):
        theta = np.array([p.sample(rng, 1)[0] for p in model.priors])
        lp = logpost(theta)
        if np.isfinite(lp):
            return theta, lp
    raise FitError("could not find a prior draw with finite log posterior")


def _run_chain(model: ModelSpec, logpost, config: FitConfig, seed: int):
    rng = np.random.default_rng(seed)
    k = model.n_params
    theta, lp = _init_from_priors(model, logpost, rng)
    log_scale = np.full(k, math.log(config.init_scale))

    def sweep(adapt_step=None):
        nonlocal theta, lp
        accepted = 0
        for j in range(k):
            proposal = theta.copy()
            proposal[j] += math.exp(log_scale[j]) * rng.standard_normal()
            lp_new = logpost(proposal)
            log_ratio = lp_new - lp
            alpha = 1.0 if log_ratio >= 0.0 else math.exp(max(log_ratio, -745.0))
            if rng.random() < alpha:
                theta, lp = proposal, lp_new
                accepted += 1
            if adapt_step is not None:
                log_scale[j] += adapt_step * (alpha - config.target_accept)
        return accepted

    for t in range(config.warmup):
        sweep(adapt_step=(t + 1) ** -0.6)

    draws = np.empty((config.samples, k))
    accepted = 0
    for s in range(config.samples):
        for _ in range(config.thin):
            accepted += sweep()
        draws[s] = theta
    return draws, accepted / (config.samples * config.thin * k)


def fit(model: ModelSpec, data: Dataset, config: FitConfig | None = None) -> PosteriorDraws:
    """Sample the posterior over all model parameters.

    Raises :class:`FitError` (with diagnostics attached) if every chain is
    stuck after warmup.
    """
    if config is None:
        config = FitConfig()
    if data.n == 0:
        raise ValueError("dataset is empty")
    if model.family == "bernoulli" and not np.all(np.isin(data.y, (0.0, 1.0))):
        raise ValueError("bernoulli outcomes must be 0/1")

    def logpost(theta):
        return log_posterior(model, data, theta)

    chains, acceptances = [], []
    for c in range(config.chains):
        draws_c, acc_c = _run_chain(model, logpost, config, config.seed + c)
        chains.append(draws_c)
        acceptances.append(acc_c)

    draws = np.concatenate(chains)
    chain = np.repeat(np.arange(config.chains), config.samples)
    names = model.parameter_names
    if all(a == 0.0 for a in acceptances):
        nan = float("nan")
        diag = Diagnostics(
            r_hat={n: nan for n in names},
            ess={n: nan for n in names},
            acceptance=tuple(acceptances),
            flagged=names,
        )
        raise FitError("all chains stuck: zero acceptance after warmup", diagnostics=diag)
    diag = None
    try:
        diag = compute_diagnostics(draws, chain, names, acceptance=tuple(acceptances))
    except DiagnosticsError:
        pass
    return PosteriorDraws(draws=draws, chain=chain, parameter_names=names, diagnostics=diag)


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


def plug_in_fit(
    model: ModelSpec, data: Dataset, seed: int = 0, restarts: int = 12
) -> np.ndarray:
    """Maximum a-posteriori point estimate by multi-start Nelder-Mead.

    Starts are drawn from the priors; the best optimum is polished with
    repeated restarts so the simplex can re-expand.  Deterministic for a
    given seed.
    """
    if data.n == 0:
        raise ValueError("dataset is empty")
    rng = np.random.default_rng(seed)

    def objective(theta):
        lp = log_posterior(model, data, theta)
        return -lp if np.isfinite(lp) else 1e100

    best_theta, best_val = None, np.inf
    for _ in range(restarts):
        start, _ = _init_from_priors(model, lambda th: log_posterior(model, data, th), rng)
        res = optimize.minimize(
            objective, start, method="Nelder-Mead",
            options={"maxiter": 400 * model.n_params, "xatol": 1e-9, "fatol": 1e-10},
        )
        if res.fun < best_val:
            best_theta, best_val = res.x, res.fun
    if best_theta is None or best_val >= 1e100:
        raise FitError("plug-in optimization failed to find a finite posterior mode")
    for _ in range(3):  # polish: restart the simplex at the incumbent
        res = optimize.minimize(
            objective, best_theta, method="Nelder-Mead",
            options={"maxiter": 400 * model.n_params, "xatol": 1e-10, "fatol": 1e-12},
        )
        if res.fun < best_val:
            best_theta, best_val = res.x, res.fun
    return np.asarray(best_theta, dtype=float)


# --------------------------------------------------------------------- #
# Convergence diagnostics
# --------------------------------------------------------------------- #


def diagnostics(draws: PosteriorDraws) -> Diagnostics:
    """Split R-hat and bulk ESS per parameter (rank-normalized)."""
    return compute_diagnostics(draws.draws, draws.chain, draws.parameter_names)


def compute_diagnostics(draws, chain, names, acceptance=()):
    labels = np.unique(chain)
    if len(labels) < 2:
        raise DiagnosticsError("need at least 2 chains")
    per = [np.asarray(draws)[chain == c] for c in labels]
    if len({p.shape[0] for p in per}) != 1:
        raise DiagnosticsError("chains have unequal lengths")
    stacked = np.stack(per)  # (chains, samples, params)
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
