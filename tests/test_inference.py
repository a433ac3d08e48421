"""Sampler, MAP, and diagnostics tests.

The heavier end-to-end recovery checks live in the acceptance suite; these
tests pin the contracts: log-posterior arithmetic, seed determinism,
warmup exclusion, diagnostics behavior on engineered chains, and MAP
domination of the sampled posterior.
"""

import dataclasses
import math
import pickle
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats

from ppmkit import (
    Dataset,
    DiagnosticsError,
    FitConfig,
    FitError,
    MeanFunctionSpec,
    ModelSpec,
    PosteriorDraws,
    VarianceFunctionSpec,
    demo,
    diagnostics,
    fit,
    fit_ensemble,
    log_posterior,
    normal,
    plug_in_fit,
    posterior_predictive,
    simulate_classification,
    simulate_dataset,
    student_t,
    subsample_every_kth,
    truncated_normal,
)
from ppmkit import distributions, inference
from ppmkit.inference import _NOISE_CHUNK, _PREFETCH, _Unconstrained, compute_diagnostics

HALF_LOG_2PI = 0.9189385332046727
FINITE = st.floats(allow_nan=False, allow_infinity=False)


def constant_mean_model(sigma_prior=None):
    """Linear mean with slope pinned near zero: y ~ Normal(theta0, sigma)."""
    return ModelSpec(
        mean=MeanFunctionSpec("linear"),
        variance=VarianceFunctionSpec("constant"),
        priors=(normal(0.0, 5.0), normal(0.0, 5.0),
                sigma_prior or truncated_normal(0.0, 2.0, lower=0.0)),
    )


def true_model_spec():
    return ModelSpec(
        mean=MeanFunctionSpec("true_model"),
        variance=VarianceFunctionSpec("constant"),
    )


def density_case(kind):
    """(model, data) of a demo model kind, or of a student_t outcome model."""
    if kind == "logistic":
        return demo.classification_model(), simulate_classification(
            300, demo.CLASSIFICATION_COEF, seed=10)
    if kind == "scale-trend":
        return demo.variance_trend_model(), demo.heteroscedastic_example()
    if kind == "student_t":
        model = ModelSpec(mean=MeanFunctionSpec("true_model"), family="student_t", df=4.0,
                          variance=VarianceFunctionSpec("constant"))
        return model, demo.running_example()
    return demo.regression_model(kind), demo.running_example()


class TestModelSpec:
    def test_prior_count_enforced(self):
        with pytest.raises(ValueError):
            ModelSpec(
                mean=MeanFunctionSpec("true_model"),
                variance=VarianceFunctionSpec("constant"),
                priors=(normal(0.0, 5.0),),
            )

    def test_default_priors_fill_in(self):
        m = true_model_spec()
        assert len(m.priors) == 3
        assert m.priors[2].family == "truncated_normal"

    def test_bernoulli_requires_zero_one_link(self):
        with pytest.raises(ValueError):
            ModelSpec(mean=MeanFunctionSpec("linear", n_features=2), family="bernoulli",
                      mean_link="identity")

    def test_bernoulli_takes_no_variance(self):
        with pytest.raises(ValueError):
            ModelSpec(
                mean=MeanFunctionSpec("linear", n_features=2),
                family="bernoulli",
                mean_link="logit",
                variance=VarianceFunctionSpec("constant"),
            )

    def test_regression_requires_variance(self):
        with pytest.raises(ValueError):
            ModelSpec(mean=MeanFunctionSpec("true_model"))

    def test_student_t_needs_df(self):
        with pytest.raises(ValueError):
            ModelSpec(
                mean=MeanFunctionSpec("true_model"),
                family="student_t",
                variance=VarianceFunctionSpec("constant"),
            )

    def test_student_t_df_must_be_finite(self):
        with pytest.raises(ValueError, match="finite df"):
            ModelSpec(
                mean=MeanFunctionSpec("true_model"),
                family="student_t",
                df=math.inf,
                variance=VarianceFunctionSpec("constant"),
            )

    def test_parameter_names(self):
        m = ModelSpec(
            mean=MeanFunctionSpec("quadratic"),
            variance=VarianceFunctionSpec("linear_in_mu"),
        )
        assert m.parameter_names == ("theta0", "theta1", "theta2", "sigma0", "sigma1")

    def test_json_round_trip(self, tmp_path):
        m = ModelSpec(
            mean=MeanFunctionSpec("exp2"),
            mean_link="identity",
            variance=VarianceFunctionSpec("constant"),
            truncation=(0.0, None),
            name="exp2-demo",
        )
        p = tmp_path / "model.json"
        m.save(p)
        back = ModelSpec.load(p)
        assert back == m


class TestLogPosterior:
    def test_single_point_at_the_mean(self):
        # likelihood term of one observation sitting exactly on the mean of
        # a unit-scale normal is -0.5*ln(2*pi)
        model = constant_mean_model()
        data = Dataset(x=np.array([0.7]), y=np.array([0.4]))
        theta = np.array([0.4, 0.0, 1.0])
        lp = log_posterior(model, data, theta)
        prior_part = sum(p.log_density(v) for p, v in zip(model.priors, theta))
        assert lp - prior_part == pytest.approx(-HALF_LOG_2PI, abs=1e-12)

    def test_additive_over_rows(self):
        model = true_model_spec()
        a = simulate_dataset(10, seed=1)
        b = simulate_dataset(7, seed=2)
        both = Dataset(x=np.concatenate([a.x, b.x]), y=np.concatenate([a.y, b.y]))
        theta = np.array([3.0, 0.25, 0.12])
        prior_part = sum(p.log_density(v) for p, v in zip(model.priors, theta))
        lp_a = log_posterior(model, a, theta)
        lp_b = log_posterior(model, b, theta)
        lp_ab = log_posterior(model, both, theta)
        assert lp_ab == pytest.approx(lp_a + lp_b - prior_part, abs=1e-9)

    def test_nonpositive_scale_gives_neg_inf(self):
        model = true_model_spec()
        data = simulate_dataset(10, seed=0)
        assert log_posterior(model, data, np.array([3.0, 0.2, 0.0])) == -math.inf
        assert log_posterior(model, data, np.array([3.0, 0.2, -0.5])) == -math.inf

    def test_empty_dataset_is_an_error(self):
        model = true_model_spec()
        empty = Dataset(x=np.array([]), y=np.array([]))
        with pytest.raises(ValueError):
            log_posterior(model, empty, np.array([3.0, 0.2, 0.1]))

    def test_wrong_length_theta(self):
        model = true_model_spec()
        data = simulate_dataset(5, seed=0)
        with pytest.raises(ValueError):
            log_posterior(model, data, np.array([3.0, 0.2]))

    @pytest.mark.parametrize("kind", ["quadratic", "exp3", "exp2", "true_model",
                                      "michaelis_menten", "logistic", "scale-trend",
                                      "student_t"])
    def test_draw_matrix_rows_equal_vector_calls(self, kind):
        model, data = density_case(kind)
        rows = np.random.default_rng(5).normal(0.5, 1.0, size=(40, model.n_params))
        rows[0, -1] = 0.0  # a zero constant scale
        rows[1, -1] = -0.3  # a negative constant scale
        rows[2, 0] = -1.0  # theta1 < 0, outside a lower-bounded prior
        rows[3] = 60.0  # logistic: probability exactly 1 at rows with y = 0
        matrix = log_posterior(model, data, rows)
        assert matrix.shape == (40,)
        np.testing.assert_array_equal(matrix, [log_posterior(model, data, r) for r in rows])
        assert np.isneginf(matrix[:4]).any() and np.isfinite(matrix).any()

    def test_three_dimensional_theta_is_an_error(self):
        model = true_model_spec()
        data = simulate_dataset(5, seed=0)
        with pytest.raises(ValueError, match="draw matrix"):
            log_posterior(model, data, np.full((2, 2, 3), 0.5))


DEMO_KINDS = ["quadratic", "exp3", "exp2", "true_model", "michaelis_menten", "logistic",
              "scale-trend"]


def mixed_prior_case():
    """(model, data) whose priors mix families and every kind of truncation."""
    model = ModelSpec(
        mean=MeanFunctionSpec("quadratic"),
        variance=VarianceFunctionSpec("linear_in_mu"),
        priors=(student_t(0.5, 2.0, 3.0), truncated_normal(0.0, 5.0, lower=0.0),
                truncated_normal(1.0, 2.0, upper=3.0), normal(0.0, 5.0),
                truncated_normal(0.0, 2.0, lower=-1.0, upper=2.0)),
    )
    return model, demo.running_example()


def per_prior_log_posterior(model, data, rows):
    """The likelihood plus each prior's ``log_density`` of its column, added left
    to right; -inf where that is not finite."""
    with np.errstate(all="ignore"):
        mu = model.mu(rows[:, None, :], data.x)
        family = distributions.OUTCOMES[model.family]
        out = family.logpdf(data.y, mu, model.sigma(rows[:, None, :], mu), model.df).sum(axis=-1)
        logprior = 0.0
        for j, prior in enumerate(model.priors):
            logprior = logprior + prior.log_density(rows[:, j])
        out = out + logprior
    return np.where(np.isfinite(out), out, -np.inf)


class TestPriorTable:
    @pytest.mark.parametrize("kind", DEMO_KINDS + ["student_t", "mixed"])
    def test_equals_the_per_prior_sum(self, kind):
        model, data = mixed_prior_case() if kind == "mixed" else density_case(kind)
        rng = np.random.default_rng(11)
        rows = np.column_stack([p.sample(rng, 60) for p in model.priors])
        rows[:4, 0] = [-1.0, -1e-300, 0.0, 1e-300]  # either side of a lower bound at 0
        rows[4:6, -1] = [-0.5, 0.0]  # a constant scale at or below 0
        if kind == "mixed":
            rows[6:9, 2] = [3.0, 3.0 + 1e-15, 50.0]  # at and above the upper bound
            rows[9:12, 4] = [-1.0, -1.5, 2.5]  # at and outside the two-sided bounds
        expected = per_prior_log_posterior(model, data, rows)
        assert np.isfinite(expected).sum() > 40
        np.testing.assert_array_equal(log_posterior(model, data, rows), expected)
        for row, value in zip(rows, expected):
            got = log_posterior(model, data, row)
            assert isinstance(got, float) and np.array_equal(got, value)

    def test_groups_columns_by_family(self):
        table = mixed_prior_case()[0].prior_table
        assert [(family, list(cols)) for family, cols, *_ in table.groups] == [
            ("student_t", [0]), ("normal", [1, 2, 3, 4])]
        np.testing.assert_array_equal(table.lower, [-np.inf, 0.0, -np.inf, -np.inf, -1.0])
        np.testing.assert_array_equal(table.upper, [np.inf, np.inf, 3.0, np.inf, 2.0])
        assert table.log_mass[0] == table.log_mass[3] == 0.0 and table.log_mass[1] < 0.0

    @pytest.mark.parametrize("kind", DEMO_KINDS + ["mixed"])
    def test_model_pickles_with_its_table(self, kind):
        # report --workers sends the specs to worker processes by pickle
        model, data = mixed_prior_case() if kind == "mixed" else density_case(kind)
        back = pickle.loads(pickle.dumps(model))
        assert back == model
        rows = np.random.default_rng(3).normal(0.5, 1.0, size=(20, model.n_params))
        np.testing.assert_array_equal(log_posterior(back, data, rows),
                                      log_posterior(model, data, rows))


class TestFit:
    def test_config_holds_only_the_settings_callers_vary(self):
        # the starting proposal scale and the target acceptance are module constants
        assert [f.name for f in dataclasses.fields(FitConfig)] == [
            "chains", "warmup", "samples", "seed", "thin"]

    def test_recovers_generating_parameters(self):
        data = simulate_dataset(100, 3.25, 0.2, 0.1, seed=0)
        draws = fit(true_model_spec(), data, FitConfig(chains=4, warmup=800, samples=800, seed=1))
        m = draws.draws.mean(axis=0)
        s = draws.draws.std(axis=0, ddof=1)
        z = np.abs(m - np.array([3.25, 0.2, 0.1])) / s
        assert np.all(z < 3.0)

    def test_deterministic_given_seed(self):
        data = simulate_dataset(30, seed=3)
        cfg = FitConfig(chains=2, warmup=100, samples=100, seed=5)
        a = fit(true_model_spec(), data, cfg)
        b = fit(true_model_spec(), data, cfg)
        np.testing.assert_array_equal(a.draws, b.draws)

    def test_chain_seed_is_master_plus_index(self):
        # chain 1 of a seed-4 run replays as chain 0 of a seed-5 run
        data = simulate_dataset(30, seed=3)
        a = fit(true_model_spec(), data, FitConfig(chains=2, warmup=100, samples=100, seed=4))
        b = fit(true_model_spec(), data, FitConfig(chains=2, warmup=100, samples=100, seed=5))
        np.testing.assert_array_equal(a.by_chain()[1], b.by_chain()[0])

    def test_retained_draw_count_exact_and_no_warmup(self):
        data = simulate_dataset(30, seed=3)
        cfg = FitConfig(chains=3, warmup=50, samples=40, seed=0)
        draws = fit(true_model_spec(), data, cfg)
        assert draws.draws.shape == (120, 3)
        assert len(np.unique(draws.chain)) == 3
        counts = np.bincount(draws.chain)
        assert np.all(counts == 40)

    def test_log_posterior_finite_at_every_retained_draw(self):
        data = simulate_dataset(30, seed=3)
        model = true_model_spec()
        draws = fit(model, data, FitConfig(chains=2, warmup=200, samples=150, seed=2))
        lps = [log_posterior(model, data, th) for th in draws.draws]
        assert np.all(np.isfinite(lps))

    def test_all_chains_stuck_raises_with_diagnostics(self, monkeypatch):
        data = simulate_dataset(20, seed=1)
        # an absurd frozen proposal scale rejects every sampling move
        monkeypatch.setattr(inference, "_INIT_SCALE", 1e12)
        cfg = FitConfig(chains=2, warmup=1, samples=50, seed=0)
        with pytest.raises(FitError) as err:
            fit(true_model_spec(), data, cfg)
        assert err.value.diagnostics is not None
        assert err.value.diagnostics.acceptance == (0.0, 0.0)

    def test_thinning_keeps_count(self):
        data = simulate_dataset(30, seed=3)
        draws = fit(true_model_spec(), data, FitConfig(chains=2, warmup=100, samples=60, thin=3, seed=0))
        assert draws.draws.shape == (120, 3)

    def test_exp3_converges_at_its_preset(self):
        # the long setting exp3 used before it was sampled by its rise
        draws = fit(demo.regression_model("exp3"), demo.running_example(),
                    FitConfig(warmup=4000, samples=2000, thin=8, seed=1009))
        assert draws.diagnostics.max_r_hat() <= 1.01
        assert min(draws.diagnostics.ess.values()) >= 400

    @pytest.mark.parametrize("kind", ["quadratic", "exp2", "exp3", "true_model",
                                      "michaelis_menten", "scale-trend", "logistic",
                                      "quadratic-sub"])
    def test_every_kind_converges_at_the_default(self, kind):
        # quadratic-sub is the report's every-8th-row subsample, the thinnest margin
        if kind == "logistic":
            model = demo.classification_model()
            data = simulate_classification(300, demo.CLASSIFICATION_COEF,
                                           seed=demo.RUNNING_EXAMPLE_SEED + 1)
        elif kind == "scale-trend":
            model, data = demo.variance_trend_model(), demo.heteroscedastic_example()
        elif kind == "quadratic-sub":
            model = demo.regression_model("quadratic")
            data = subsample_every_kth(demo.running_example(), 8)
        else:
            model, data = demo.regression_model(kind), demo.running_example()
        config = demo.fit_settings(kind, 1009)
        assert config == FitConfig(seed=1009)
        draws = fit(model, data, config)
        assert draws.diagnostics.max_r_hat() <= 1.01
        assert min(draws.diagnostics.ess.values()) >= 400

    def test_no_scale_trend_chain_gets_stuck(self):
        # the main mode sits near a log posterior of 54; a chain caught in a
        # local mode averages far below it
        model, data = demo.variance_trend_model(), demo.heteroscedastic_example(seed=3)
        for seed in range(100, 140, 2):
            draws = fit(model, data, FitConfig(chains=2, warmup=1500, samples=800, thin=3,
                                               seed=seed))
            lp = log_posterior(model, data, draws.by_chain().reshape(-1, model.n_params))
            chain_means = lp.reshape(2, -1).mean(axis=1)
            assert np.all(chain_means > 50.0), (seed, chain_means)

    def test_posterior_contraction_with_more_data(self):
        # doubling n must not widen the theta1 posterior beyond noise
        sds_small, sds_big = [], []
        cfg = FitConfig(chains=2, warmup=400, samples=400, seed=0)
        for rep in range(5):
            small = simulate_dataset(100, seed=100 + rep)
            big = simulate_dataset(200, seed=200 + rep)
            for sds, data in ((sds_small, small), (sds_big, big)):
                draws = fit(true_model_spec(), data, cfg)
                sds.append(draws.draws[:, draws.parameter_names.index("theta1")].std(ddof=1))
        assert np.mean(sds_big) <= np.mean(sds_small) * 1.10


BOUNDED_THETA1 = {
    "one-sided": truncated_normal(0.0, 5.0, lower=0.0),
    "two-sided": truncated_normal(0.0, 5.0, lower=0.0, upper=2.0),
}


def bounded_model(theta1_prior):
    return ModelSpec(
        mean=MeanFunctionSpec("true_model"),
        variance=VarianceFunctionSpec("constant"),
        priors=(theta1_prior, normal(0.0, 2.0), truncated_normal(0.0, 2.0, lower=0.0)),
    )


class TestUnconstrainedSampling:
    @pytest.mark.parametrize("bounds", sorted(BOUNDED_THETA1))
    def test_draws_lie_strictly_inside_their_bounds(self, bounds):
        # the data want theta1 near 3.25, so the two-sided prior piles mass at 2
        model = bounded_model(BOUNDED_THETA1[bounds])
        draws = fit(model, simulate_dataset(40, seed=4),
                    FitConfig(chains=2, warmup=400, samples=400, seed=1))
        theta1, sigma = (draws.draws[:, draws.parameter_names.index(name)]
                         for name in ("theta1", "sigma"))
        assert np.all(theta1 > 0.0) and np.all(sigma > 0.0)
        if bounds == "two-sided":
            assert np.all(theta1 < 2.0)
            assert theta1.max() > 1.9

    @pytest.mark.parametrize("bounds", sorted(BOUNDED_THETA1))
    def test_density_adds_the_log_jacobian(self, bounds):
        model = bounded_model(BOUNDED_THETA1[bounds])
        data = simulate_dataset(40, seed=4)
        density = _Unconstrained(model, data)
        u = np.random.default_rng(2).normal(0.0, 1.5, size=(6, 3))
        theta = density.constrain(u)[0]
        np.testing.assert_allclose(density.unconstrain(theta), u, rtol=0.0, atol=1e-9)
        h = 1e-6
        slope = np.empty_like(u)
        for j in range(3):
            step = np.zeros(3)
            step[j] = h
            slope[:, j] = (density.constrain(u + step)[0][:, j]
                           - density.constrain(u - step)[0][:, j]) / (2.0 * h)
        expected = log_posterior(model, data, theta) + np.log(np.abs(slope)).sum(axis=1)
        np.testing.assert_allclose(density(u), expected, rtol=0.0, atol=1e-6)

    @pytest.mark.parametrize("m", [1, 4, 24])
    @pytest.mark.parametrize("bounds", sorted(BOUNDED_THETA1))
    def test_rows_equal_lone_row_calls(self, bounds, m):
        # prefetching scores many proposals in one call, so a row's density
        # must not depend on the rows beside it
        model = bounded_model(BOUNDED_THETA1[bounds])
        density = _Unconstrained(model, simulate_dataset(40, seed=4))
        u = np.random.default_rng(m).normal(0.0, 1.5, size=(m, 3))
        u[0, 2] = 800.0  # exp(u) overflows: sigma is inf, so the row scores -inf
        matrix = density(u)
        assert matrix.shape == (m,)
        assert np.isneginf(matrix[0])
        np.testing.assert_array_equal(matrix, [density(row[None])[0] for row in u])


class TestRiseCoordinate:
    """exp2 and exp3 sample theta2 by the rise ``theta2 * (1 - exp(-theta1))``."""

    @pytest.mark.parametrize("form", ["exp2", "exp3"])
    def test_log_jacobian_is_the_log_determinant_of_the_map(self, form):
        density = _Unconstrained(demo.regression_model(form), demo.running_example())
        k = density.model.n_params
        u = np.random.default_rng(5).normal(0.0, 1.5, size=(5, k))
        theta, log_jac = density.constrain(u)
        h = 1e-6
        for row, expected in zip(u, log_jac):
            # column j: d theta / d u_j, by central differences
            jac = np.column_stack([
                (density.constrain((row + h * e)[None])[0][0]
                 - density.constrain((row - h * e)[None])[0][0]) / (2.0 * h)
                for e in np.eye(k)])
            sign, log_det = np.linalg.slogdet(jac)
            assert sign != 0.0
            assert log_det == pytest.approx(expected, abs=1e-6)
        np.testing.assert_allclose(density.constrain(density.unconstrain(theta))[0], theta,
                                   rtol=1e-12, atol=1e-12)
        # theta2's coordinate is the rise, not theta2
        np.testing.assert_allclose(density.unconstrain(theta)[:, 1],
                                   theta[:, 1] * -np.expm1(-theta[:, 0]), rtol=1e-12)

    def test_theta1_unbounded_below_keeps_the_identity_coordinate(self):
        # there the divisor -expm1(-theta1) crosses 0
        exp3 = demo.regression_model("exp3")
        model = dataclasses.replace(exp3, priors=(normal(0.0, 5.0),) + exp3.priors[1:])
        density = _Unconstrained(model, demo.running_example())
        u = np.random.default_rng(6).normal(0.0, 1.5, size=(4, 4))
        theta = density.constrain(u)[0]
        np.testing.assert_array_equal(theta[:, 1], u[:, 1])
        np.testing.assert_array_equal(density.unconstrain(theta)[:, 1], theta[:, 1])

    @pytest.mark.parametrize("form", ["exp2", "exp3"])
    def test_theta1_at_its_bound_scores_minus_inf_quietly(self, form):
        density = _Unconstrained(demo.regression_model(form), demo.running_example())
        u = np.zeros((3, density.model.n_params))
        u[0, 0] = -800.0  # exp(u) underflows: theta1 is 0, the divisor 0
        u[1, :2] = -800.0, 0.0  # and the rise 0 too
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scores = density(u)
        assert np.isneginf(scores[:2]).all()
        assert np.isfinite(scores[2])


def prefetch_case(name):
    """(model, data, config) of a fit the prefetch depth must not change."""
    if name == "exp3":
        return (demo.regression_model("exp3"), demo.running_example(),
                FitConfig(chains=4, warmup=600, samples=600, thin=2, seed=1009))
    if name == "logistic":
        return (*density_case("logistic"), FitConfig(chains=4, warmup=400, samples=1100, seed=3))
    if name == "scale-trend":
        return (demo.variance_trend_model(), demo.heteroscedastic_example(seed=3),
                FitConfig(chains=2, warmup=600, samples=400, thin=3, seed=7))
    if name == "two-sided":
        return (bounded_model(BOUNDED_THETA1["two-sided"]), simulate_dataset(40, seed=4),
                FitConfig(chains=3, warmup=400, samples=400, seed=1))
    # thin 3: 1041 retained steps cross a noise block and are no multiple of the depth
    return (true_model_spec(), simulate_dataset(30, seed=3),
            FitConfig(chains=3, warmup=100, samples=347, thin=3, seed=0))


class TestPrefetch:
    @pytest.mark.parametrize("name", ["exp3", "logistic", "scale-trend", "two-sided", "thin-3"])
    def test_depth_changes_no_draw(self, name, monkeypatch):
        model, data, cfg = prefetch_case(name)
        if name == "thin-3":
            steps = cfg.samples * cfg.thin
            assert steps > _NOISE_CHUNK and steps % _PREFETCH != 0
        calls = []
        original = inference.log_posterior
        monkeypatch.setattr(inference, "log_posterior",
                            lambda *args: calls.append(1) or original(*args))
        default = fit(model, data, cfg)
        default_calls = len(calls)
        monkeypatch.setattr(inference, "_PREFETCH", 1)  # one step per call
        one_step = fit(model, data, cfg)
        np.testing.assert_array_equal(default.draws, one_step.draws)
        assert default.diagnostics.acceptance == one_step.diagnostics.acceptance
        assert default_calls < len(calls) - default_calls

    @pytest.mark.parametrize("thin", [1, 3])
    def test_kernel_replays_the_one_step_loop(self, thin):
        # the one-step Metropolis loop written out, on a correlated Gaussian, over
        # runs of block increments and of one-coordinate increments
        def density(u):
            return -0.5 * np.sum(u * u, axis=1) + 0.8 * u[:, 0] * u[:, 1]

        rng = np.random.default_rng(thin)
        block = np.einsum("cij,cnj->cni", rng.normal(0.0, 0.7, size=(3, 2, 2)),
                          rng.normal(size=(3, 41 * thin, 2)))
        one_coordinate = rng.normal(0.0, 1.5, size=(3, 30 * thin, 1)) * np.tile(np.eye(2),
                                                                              (15 * thin, 1))
        runs = [(incr, np.log(rng.random(incr.shape[:2])))
                for incr in (block, one_coordinate, block[:, :7], one_coordinate[:, :5])]
        start = rng.normal(size=(3, 2))
        u, lp = start.copy(), density(start)
        expected, alphas, accepted = [], [], np.zeros(3)
        for incr, log_u in runs:
            for t in range(incr.shape[1]):
                proposal = u + incr[:, t]
                lp_new = density(proposal)
                log_ratio = lp_new - lp
                alphas.append(np.exp(np.minimum(log_ratio, 0.0)))
                accept = log_u[:, t] < log_ratio
                u[accept], lp[accept] = proposal[accept], lp_new[accept]
                accepted += accept
                expected.append(u.copy())
        paths, alpha, count, state = [], [], 0, (start, density(start))
        for incr, log_u in runs:
            path, run_alpha, run_count, run_lp = inference._metropolis(density, *state, incr, log_u)
            paths.append(path)
            alpha.append(run_alpha)
            count = count + run_count
            state = path[:, -1], run_lp
        kept = np.concatenate(paths, axis=1)[:, thin - 1 :: thin]
        np.testing.assert_array_equal(kept, np.stack(expected, axis=1)[:, thin - 1 :: thin])
        np.testing.assert_array_equal(np.concatenate(alpha, axis=1), np.transpose(alphas))
        np.testing.assert_array_equal(count, accepted)
        np.testing.assert_array_equal(state[1], lp)
        assert 0 < count.min() and count.max() < len(expected)

    def test_depth_keeps_the_stuck_fit_error(self, monkeypatch):
        data = simulate_dataset(20, seed=1)
        monkeypatch.setattr(inference, "_INIT_SCALE", 1e12)
        cfg = FitConfig(chains=2, warmup=1, samples=50, seed=0)
        errors = []
        for depth in (_PREFETCH, 1):
            monkeypatch.setattr(inference, "_PREFETCH", depth)
            with pytest.raises(FitError, match="all chains stuck") as err:
                fit(true_model_spec(), data, cfg)
            errors.append(err.value.diagnostics)
        assert errors[0].acceptance == errors[1].acceptance == (0.0, 0.0)


class TestWarmupSchedule:
    @pytest.mark.parametrize("warmup", [1, 100, 151, 152, 4000])
    def test_sweeps_fill_at_most_the_initial_buffer(self, warmup, monkeypatch):
        # each kernel run is one-coordinate steps (one moved coordinate) or block
        # steps (all k); warmup sweeps min(warmup // 2, 75) times, then steps blocks
        k, runs = 3, []
        original = inference._metropolis

        def recording(density, u, lp, incr, log_u):
            moved = np.unique(np.count_nonzero(incr, axis=2))
            assert moved.tolist() in ([1], [k])
            runs.append((int(moved[0]), incr.shape[1]))
            return original(density, u, lp, incr, log_u)

        monkeypatch.setattr(inference, "_metropolis", recording)
        cfg = FitConfig(chains=2, warmup=warmup, samples=40, thin=3, seed=0)
        fit(true_model_spec(), simulate_dataset(30, seed=3), cfg)
        sweeps = min(warmup // 2, 75)
        assert [moved for moved, _ in runs] == sorted(moved for moved, _ in runs)
        assert sum(n for moved, n in runs if moved == 1) == sweeps * k
        *adaptation, retained = [n for moved, n in runs if moved == k]
        assert sum(adaptation) == warmup - sweeps
        assert max(adaptation, default=0) <= inference._RUN
        assert retained == cfg.samples * cfg.thin


class TestHeavyTailedOutcome:
    def test_student_t_likelihood_matches_scalar_sum(self):
        from ppmkit import student_t

        model = ModelSpec(
            mean=MeanFunctionSpec("true_model"),
            family="student_t",
            df=4.0,
            variance=VarianceFunctionSpec("constant"),
        )
        data = simulate_dataset(15, seed=8)
        theta = np.array([3.1, 0.22, 0.12])
        mu = 0.22 + np.tanh(3.1 * data.x / 2.0)
        expected = sum(
            student_t(m, 0.12, df=4.0).log_density(y) for m, y in zip(mu, data.y)
        ) + sum(p.log_density(v) for p, v in zip(model.priors, theta))
        assert log_posterior(model, data, theta) == pytest.approx(expected, abs=1e-9)

    def test_student_t_fit_runs_and_recovers(self):
        data = simulate_dataset(80, seed=6)
        model = ModelSpec(
            mean=MeanFunctionSpec("true_model"),
            family="student_t",
            df=30.0,
            variance=VarianceFunctionSpec("constant"),
        )
        draws = fit(model, data, FitConfig(chains=2, warmup=600, samples=600, seed=4))
        m = draws.draws.mean(axis=0)
        s = draws.draws.std(axis=0, ddof=1)
        assert np.all(np.abs(m - np.array([3.25, 0.2, 0.1])) < 4.0 * s)


class TestVarianceTrend:
    def test_detects_scale_growing_with_mean(self):
        from ppmkit import demo

        data = demo.heteroscedastic_example(seed=3)
        model = demo.variance_trend_model()
        draws = fit(model, data, FitConfig(chains=2, warmup=1500, samples=800, thin=3, seed=7))
        # the generator's scale rises with the mean; the fitted trend
        # coefficient should be decisively positive
        slope = draws.draws[:, draws.parameter_names.index("sigma1")]
        assert np.quantile(slope, 0.05) > 0.0


class TestMichaelisMenten:
    def test_plug_in_recovers_noiseless_curve(self):
        x = np.linspace(0.05, 1.0, 15)
        t1, t2 = 1.6, 0.25
        y = t1 * x / (t2 + x)
        model = ModelSpec(
            mean=MeanFunctionSpec("michaelis_menten"),
            variance=VarianceFunctionSpec("constant"),
        )
        theta = plug_in_fit(model, Dataset(x=x, y=y), seed=1)
        np.testing.assert_allclose(theta[:2], [t1, t2], atol=1e-3)


class TestPushforward:
    def test_mean_link_and_scale_over_a_draw_matrix(self):
        m = ModelSpec(mean=MeanFunctionSpec("linear"), mean_link="softplus",
                      variance=VarianceFunctionSpec("linear_in_mu"))
        theta = np.array([[0.5, 2.0, -1.0, 0.3], [1.0, -1.0, 0.0, 1.0]])
        mu = m.mu(theta, 0.25)
        np.testing.assert_allclose(mu, np.log1p(np.exp(theta[:, 0] + 0.25 * theta[:, 1])))
        np.testing.assert_allclose(m.sigma(theta, mu),
                                   np.log1p(np.exp(theta[:, 2] + theta[:, 3] * mu)))

    def test_bernoulli_has_no_scale(self):
        m = ModelSpec(mean=MeanFunctionSpec("linear"), family="bernoulli", mean_link="logit")
        theta = np.array([0.0, 1.0])
        assert m.mu(theta, 0.0) == 0.5
        assert m.sigma(theta, 0.5) is None


class TestPosteriorDrawsContainer:
    def test_immutable(self):
        data = simulate_dataset(20, seed=1)
        draws = fit(true_model_spec(), data, FitConfig(chains=2, warmup=50, samples=50, seed=0))
        with pytest.raises(ValueError):
            draws.draws[0, 0] = 1.0

    def test_csv_round_trip(self, tmp_path):
        data = simulate_dataset(20, seed=1)
        draws = fit(true_model_spec(), data, FitConfig(chains=2, warmup=50, samples=50, seed=0))
        p = tmp_path / "draws.csv"
        draws.to_csv(p)
        back = PosteriorDraws.from_csv(p)
        np.testing.assert_array_equal(back.draws, draws.draws)
        np.testing.assert_array_equal(back.chain, draws.chain)
        assert back.parameter_names == draws.parameter_names

    def test_loaded_draws_carry_no_diagnostics(self, tmp_path):
        data = simulate_dataset(20, seed=1)
        draws = fit(true_model_spec(), data, FitConfig(chains=2, warmup=50, samples=50, seed=0))
        draws.to_csv(tmp_path / "draws.csv")
        assert PosteriorDraws.from_csv(tmp_path / "draws.csv").diagnostics is None

    def test_diagnosing_loaded_draws_reproduces_the_fit_exactly(self, tmp_path):
        # fit diagnoses its own chain stack; a reload diagnoses by chain label
        data = simulate_dataset(30, seed=3)
        draws = fit(true_model_spec(), data, FitConfig(chains=3, warmup=100, samples=80, seed=2))
        assert draws.diagnostics is not None
        draws.to_csv(tmp_path / "draws.csv")
        again = diagnostics(PosteriorDraws.from_csv(tmp_path / "draws.csv"))
        assert again.acceptance == ()  # acceptance rates are not in the draws file
        assert dataclasses.replace(again, acceptance=draws.diagnostics.acceptance) == \
            draws.diagnostics

    def test_by_chain_refuses_unequal_chains(self):
        d = PosteriorDraws(draws=np.zeros((5, 1)), chain=[0, 0, 0, 1, 1], parameter_names=("a",))
        with pytest.raises(ValueError, match="unequal lengths"):
            d.by_chain()

    @settings(deadline=None, max_examples=100)
    @given(
        st.integers(1, 3).flatmap(lambda k: st.tuples(
            arrays(np.float64, st.tuples(st.integers(1, 12), st.just(k)), elements=FINITE),
            st.lists(st.integers(-5, 5), min_size=12, max_size=12),
        ))
    )
    def test_csv_round_trip_is_bit_exact(self, case):
        values, labels = case
        draws = PosteriorDraws(draws=values, chain=labels[:len(values)],
                               parameter_names=("a", "b", "c")[:values.shape[1]])
        with tempfile.TemporaryDirectory() as tmp:
            p = Path(tmp) / "draws.csv"
            p.write_text(draws.to_csv_text())
            back = PosteriorDraws.from_csv(p)
        assert back.draws.tobytes() == draws.draws.tobytes()
        np.testing.assert_array_equal(back.chain, draws.chain)
        assert back.parameter_names == draws.parameter_names

    def test_csv_reader_rejects_an_empty_file(self, tmp_path):
        p = tmp_path / "draws.csv"
        p.write_text("")
        with pytest.raises(ValueError, match=r"draws\.csv, line 1: no data rows"):
            PosteriorDraws.from_csv(p)

    def test_csv_reader_rejects_a_ragged_row(self, tmp_path):
        p = tmp_path / "draws.csv"
        p.write_text("theta1,sigma,chain\n0.1,0.2,0\n0.3,1\n")
        with pytest.raises(ValueError, match=r"draws\.csv, line 3: expected 3 cells"):
            PosteriorDraws.from_csv(p)

    @pytest.mark.parametrize("text, message", [
        ("theta1,chain\n0.1,0\n0.2,1.5\n", "line 3: chain label 1.5 is not an integer"),
        ("theta1,chain\n0.1,zero\n", "line 2: non-numeric cell"),
        ("theta1,sigma\n0.1,0.2\n", "line 1: not a draws file"),
    ])
    def test_csv_reader_rejects_malformed_input(self, tmp_path, text, message):
        p = tmp_path / "draws.csv"
        p.write_text(text)
        with pytest.raises(ValueError, match=r"draws\.csv, " + message):
            PosteriorDraws.from_csv(p)


class TestPlugInFit:
    def test_noiseless_quadratic_interpolation(self):
        x = np.linspace(0.0, 1.0, 20)
        coef = (0.3, 1.8, -0.9)
        y = coef[0] + coef[1] * x + coef[2] * x**2
        model = ModelSpec(
            mean=MeanFunctionSpec("quadratic"), variance=VarianceFunctionSpec("constant")
        )
        theta = plug_in_fit(model, Dataset(x=x, y=y), seed=0)
        np.testing.assert_allclose(theta[:3], coef, atol=1e-4)

    def test_deterministic(self):
        data = simulate_dataset(25, seed=2)
        model = true_model_spec()
        a = plug_in_fit(model, data, seed=3)
        b = plug_in_fit(model, data, seed=3)
        np.testing.assert_array_equal(a, b)

    def test_map_dominates_posterior_draws(self):
        data = simulate_dataset(40, seed=4)
        model = true_model_spec()
        draws = fit(model, data, FitConfig(chains=2, warmup=400, samples=400, seed=1))
        theta = plug_in_fit(model, data, seed=0)
        lp_hat = log_posterior(model, data, theta)
        lp_draws = np.array([log_posterior(model, data, th) for th in draws.draws])
        assert lp_hat >= lp_draws.max() - 1e-6

    @pytest.mark.parametrize("kind", ["exp2", "exp3", "quadratic", "michaelis_menten",
                                      "scale-trend"])
    def test_mode_dominates_posterior_draws_of_demo_kind(self, kind):
        model, data = density_case(kind)
        draws = fit(model, data, FitConfig(chains=2, warmup=400, samples=400, seed=1))
        lp_hat = log_posterior(model, data, plug_in_fit(model, data, seed=0))
        assert lp_hat >= log_posterior(model, data, draws.draws).max() - 1e-6

    def test_mode_stops_at_a_prior_upper_bound(self):
        # the data want theta1 near 3.25; the prior allows at most 2
        model = ModelSpec(
            mean=MeanFunctionSpec("true_model"),
            variance=VarianceFunctionSpec("constant"),
            priors=(truncated_normal(0.0, 5.0, lower=0.0, upper=2.0), normal(0.0, 2.0),
                    truncated_normal(0.0, 2.0, lower=0.0)),
        )
        theta = plug_in_fit(model, simulate_dataset(40, seed=4), seed=0)
        assert theta[0] <= 2.0
        assert theta[0] == pytest.approx(2.0, abs=1e-6)

    # log posteriors that a multi-start bounded L-BFGS-B search (scipy.optimize)
    # reached at seed 0, recorded as references
    @pytest.mark.parametrize("kind, reference", [
        ("quadratic", 81.3788817403985),
        ("exp2", 71.70055045808591),
        ("exp3", 84.42792520720879),
        ("true_model", 83.79853276445046),
        ("michaelis_menten", 76.18710350427303),
        ("scale-trend", 61.841568805243114),
        ("logistic", -114.83001223636738),
        ("student_t", 79.78640462036539),
    ])
    def test_mode_matches_the_lbfgsb_reference(self, kind, reference):
        model, data = density_case(kind)
        assert log_posterior(model, data, plug_in_fit(model, data, seed=0)) >= reference - 1e-8

    @pytest.mark.parametrize("form, mode", [("true_model", 82.41223840333053),
                                            ("michaelis_menten", 74.80080914315523)])
    def test_mode_found_under_an_unbounded_scale_prior(self, form, mode):
        # sigma ~ Normal(0, 2) with no bound: the log posterior is -inf at sigma <= 0
        model = ModelSpec(mean=MeanFunctionSpec(form), variance=VarianceFunctionSpec("constant"),
                          priors=(normal(0.0, 5.0), normal(0.0, 2.0), normal(0.0, 2.0)))
        data = demo.running_example()
        lp = [log_posterior(model, data, plug_in_fit(model, data, seed=s)) for s in range(20)]
        assert min(lp) >= mode - 1e-8

    def test_stencil_differences_a_quadratic_and_flags_infinite_points(self):
        a = np.array([[2.0, 0.5], [0.5, 1.0]])

        def density(u):  # -0.5 u'Au, and -inf where u0 < 0
            return np.where(u[:, 0] < 0.0, -np.inf, -0.5 * np.einsum("mi,ij,mj->m", u, a, u))

        u = np.array([[1.0, -2.0], [0.5 * inference._STENCIL_H, 3.0]])
        value, grad, hess = inference._stencil(density, u)
        np.testing.assert_allclose(value[0], -0.5 * u[0] @ a @ u[0])
        np.testing.assert_allclose(grad[0], -a @ u[0], rtol=1e-8)
        np.testing.assert_allclose(hess[0], -a, rtol=1e-5)
        assert np.isfinite(value[1]) and not np.isfinite(hess[1]).all()


class TestDiagnostics:
    def _draws_from_chains(self, chains, names=("a",)):
        chains = np.asarray(chains, dtype=float)
        c, s = chains.shape[:2]
        flat = chains.reshape(c * s, -1)
        labels = np.repeat(np.arange(c), s)
        return PosteriorDraws(draws=flat, chain=labels, parameter_names=names)

    def test_iid_chains_near_one(self):
        rng = np.random.default_rng(0)
        d = self._draws_from_chains(rng.standard_normal((4, 500, 1)))
        out = diagnostics(d)
        assert 0.99 <= out.r_hat["a"] <= 1.02
        assert out.ess["a"] > 1000.0

    def test_identical_chains_with_repeated_halves_give_exactly_one(self):
        # all split chains coincide, so the between-chain term vanishes and
        # the clamped statistic is exactly 1
        rng = np.random.default_rng(1)
        half = rng.standard_normal(250)
        chain = np.concatenate([half, half])
        d = self._draws_from_chains(np.stack([chain, chain])[:, :, None])
        assert diagnostics(d).r_hat["a"] == 1.0

    def test_shifted_chain_flags_divergence(self):
        rng = np.random.default_rng(2)
        chains = rng.standard_normal((2, 400, 1))
        chains[1] += 100.0
        out = diagnostics(self._draws_from_chains(chains))
        assert out.r_hat["a"] > 1.1
        assert "a" in out.flagged

    def test_constant_chains_error_not_division_by_zero(self):
        chains = np.ones((2, 100, 1))
        with pytest.raises(DiagnosticsError):
            diagnostics(self._draws_from_chains(chains))

    def test_non_finite_draw_error(self):
        chains = np.random.default_rng(5).standard_normal((4, 100, 1))
        chains[1, 7, 0] = np.nan
        with pytest.raises(DiagnosticsError, match="non-finite"):
            diagnostics(self._draws_from_chains(chains))

    @pytest.mark.parametrize("case", ["no_ties", "heavy_ties", "all_but_one_tied"])
    def test_rank_normalize_equals_scipy_stats(self, case):
        # numpy average ranks and special.ndtri equal scipy.stats' rankdata and norm.ppf
        chains, samples = 4, 1000
        rng = np.random.default_rng(11)
        col = rng.standard_normal((chains, samples))
        if case == "heavy_ties":
            col = np.round(col, 1)
        elif case == "all_but_one_tied":
            col = np.full((chains, samples), 0.25)
            col[2, 17] = -3.0
        split = np.concatenate([col[:, :samples // 2], col[:, samples // 2:]])
        assert split.shape == (2 * chains, samples // 2)
        flat = split.reshape(-1)
        ref = stats.norm.ppf((stats.rankdata(flat, method="average") - 3.0 / 8.0)
                             / (flat.size + 0.25)).reshape(split.shape)
        assert np.array_equal(inference._rank_normalize(split), ref)

    # split R-hat, bulk ESS and flagged names as the per-parameter code computed them,
    # to the bit: an (m, n, k) stack of AR(1) chains from a seed, with an AR coefficient
    PINNED = {
        "min_2x4": ((2, 4, 2), 21, 0.5, {"p0": 1.0, "p1": 1.8602846212026998},
                    {"p0": 8.0, "p1": 3.512478192347912}, ("p1",)),
        "odd_3x101": ((3, 101, 2), 22, 0.7, {"p0": 1.0841906556626453, "p1": 1.0172989844748095},
                      {"p0": 55.852945471179844, "p1": 64.06976281309753}, ("p0", "p1")),
        "heavy_ties": ((4, 200, 2), 23, 0.5,
                       {"p0": 1.0122675364044844, "p1": 1.0135695441769468},
                       {"p0": 312.17895476750397, "p1": 292.25245132812137}, ("p0", "p1")),
        "eight_chains": ((8, 250, 3), 24, 0.9,
                         {"p0": 1.0541688930031425, "p1": 1.1582167595403352,
                          "p2": 1.0993241623513152},
                         {"p0": 142.93206653471788, "p1": 38.33222561861981,
                          "p2": 94.57014259968676}, ("p0", "p1", "p2")),
        "default_fit": (None, 1, None,
                        {"p0": 1.0023551809767517, "p1": 1.000066436216403,
                         "p2": 1.0004349908277588},
                        {"p0": 1354.6201786810127, "p1": 1366.4785923557515,
                         "p2": 1283.0168976157106}, ()),
    }

    @pytest.mark.parametrize("case", list(PINNED))
    def test_diagnostics_bits_are_pinned_and_scale_free(self, case):
        shape, seed, phi, r_hat, ess, flagged = self.PINNED[case]
        if shape is None:  # the chains of a default fit
            stack = fit(demo.regression_model("true_model"), demo.running_example(),
                        FitConfig(seed=seed)).by_chain()
        else:
            stack = np.random.default_rng(seed).standard_normal(shape)
            for t in range(1, shape[1]):
                stack[:, t] += phi * stack[:, t - 1]
        if case == "heavy_ties":
            stack = np.round(stack, 1)
        if case == "eight_chains":  # one chain sits off in the last parameter
            stack[5, :, 2] += 1.0
        names = tuple(f"p{j}" for j in range(stack.shape[2]))
        out = compute_diagnostics(stack, None, names)
        assert (out.r_hat, out.ess, out.flagged) == (r_hat, ess, flagged)
        # only ranks enter, and scaling by a power of two is exact
        assert compute_diagnostics(stack * 2.0**-7, None, names) == out

    def test_single_chain_error(self):
        rng = np.random.default_rng(3)
        d = PosteriorDraws(
            draws=rng.standard_normal((100, 1)),
            chain=np.zeros(100, dtype=int),
            parameter_names=("a",),
        )
        with pytest.raises(DiagnosticsError):
            diagnostics(d)

    def test_compute_diagnostics_on_arrays(self):
        rng = np.random.default_rng(4)
        draws = rng.standard_normal((200, 2))
        chain = np.repeat([0, 1], 100)
        out = compute_diagnostics(draws, chain, ("p0", "p1"))
        assert set(out.r_hat) == {"p0", "p1"}


class TestFitEnsemble:
    def test_duplicate_seeds_give_identical_fits(self):
        data = simulate_dataset(25, seed=0)
        cfg = FitConfig(chains=2, warmup=100, samples=100, seed=0)
        fits = fit_ensemble(true_model_spec(), data, [1, 1], cfg)
        np.testing.assert_array_equal(fits[0].draws, fits[1].draws)

    def test_empty_seed_list_rejected(self):
        data = simulate_dataset(25, seed=0)
        with pytest.raises(ValueError):
            fit_ensemble(true_model_spec(), data, [])

    def test_results_follow_seed_order(self):
        data = simulate_dataset(25, seed=0)
        cfg = FitConfig(chains=2, warmup=100, samples=100, seed=0)
        fits = fit_ensemble(true_model_spec(), data, [7, 3], cfg)
        again = fit_ensemble(true_model_spec(), data, [3, 7], cfg)
        np.testing.assert_array_equal(fits[0].draws, again[1].draws)
        np.testing.assert_array_equal(fits[1].draws, again[0].draws)

    def test_pooled_predictive_consistent_with_single_seed(self):
        data = simulate_dataset(100, seed=0)
        model = true_model_spec()
        cfg = FitConfig(chains=4, warmup=400, samples=400, seed=0)
        fits = fit_ensemble(model, data, [1, 2], cfg)
        solo = posterior_predictive(model, fits[0], 0.5, per_draw=4,
                                    rng=np.random.default_rng(0))
        pooled_samples = np.concatenate([
            posterior_predictive(model, f, 0.5, per_draw=4,
                                 rng=np.random.default_rng(i)).samples
            for i, f in enumerate(fits)
        ])
        # Monte Carlo standard error from between-chain spread of the solo fit
        chain_means = [
            solo.samples[i::cfg.chains].mean() for i in range(cfg.chains)
        ]
        se = np.std(chain_means, ddof=1) / math.sqrt(cfg.chains)
        assert abs(pooled_samples.mean() - solo.samples.mean()) < 2.0 * se + 1e-3
