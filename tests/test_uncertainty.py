"""Measurement-error propagation and classification decomposition tests."""

import numpy as np
import pytest
from scipy import stats

from ppmkit import (
    Dataset,
    FitConfig,
    MeasuredValue,
    MeanFunctionSpec,
    ModelSpec,
    PosteriorDraws,
    VarianceFunctionSpec,
    classify_predictive,
    decision_boundary_band,
    decompose_uncertainty,
    fit,
    generate_datasets,
    normal,
    plug_in_predictive,
    pool_ensemble_predictions,
    posterior_predictive,
    propagate_test_error,
    simulate_classification,
    simulate_dataset,
    demo,
    truncated_normal,
)


def logistic_model():
    return ModelSpec(
        mean=MeanFunctionSpec("linear", n_features=2),
        family="bernoulli",
        mean_link="logit",
        name="logistic",
    )


def exp3_model():
    return ModelSpec(
        mean=MeanFunctionSpec("exp3"),
        variance=VarianceFunctionSpec("constant"),
        priors=(
            truncated_normal(0.0, 5.0, lower=0.0),
            normal(0.0, 2.0),
            normal(0.0, 2.0),
            truncated_normal(0.0, 2.0, lower=0.0),
        ),
        name="exp3",
    )


def degenerate_logistic_draws(theta, n=1000):
    theta = np.asarray(theta, dtype=float)
    return PosteriorDraws(
        draws=np.tile(theta, (n, 1)),
        chain=np.repeat([0, 1], n // 2),
        parameter_names=("theta0", "theta1", "theta2"),
    )


@pytest.fixture(scope="module")
def exp3_fit():
    data = simulate_dataset(100, seed=9)
    model = exp3_model()
    draws = fit(model, data, FitConfig(chains=2, warmup=1500, samples=1500, thin=2, seed=3))
    return model, draws


@pytest.fixture(scope="module")
def logistic_fit():
    data = simulate_classification(300, (0.4, 1.2, -1.4), seed=5)
    model = logistic_model()
    draws = fit(model, data, FitConfig(chains=2, warmup=1200, samples=1200, thin=2, seed=6))
    return model, draws


class TestMeasuredValue:
    def test_negative_error_rejected(self):
        with pytest.raises(ValueError):
            MeasuredValue(0.5, -0.01)

    def test_zero_error_means_exact(self):
        assert MeasuredValue(0.5).standard_error == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["value", "standard_error"])
    def test_non_finite_field_rejected(self, field, bad):
        kwargs = {"value": 0.3, "standard_error": 0.1, field: bad}
        with pytest.raises(ValueError, match=field):
            MeasuredValue(**kwargs)


class TestGenerateDatasets:
    def test_zero_errors_give_identical_copies(self):
        base = simulate_dataset(20, seed=0)
        data = Dataset(x=base.x, y=base.y, x_se=np.zeros(20), y_se=np.zeros(20))
        out = generate_datasets(data, 5, np.random.default_rng(0))
        assert len(out) == 5
        for d in out:
            np.testing.assert_array_equal(d.x, data.x)
            np.testing.assert_array_equal(d.y, data.y)

    def test_cell_redraw_statistics(self):
        # one measured cell 0.5 +/- 0.06 redrawn many times
        data = Dataset(x=np.array([0.5]), y=np.array([1.0]),
                       x_se=np.array([0.06]), y_se=np.array([0.0]))
        out = generate_datasets(data, 10_000, np.random.default_rng(1))
        vals = np.array([d.x[0] for d in out])
        assert vals.mean() == pytest.approx(0.5, abs=0.002)
        assert vals.std(ddof=1) == pytest.approx(0.06, abs=0.003)

    def test_rows_with_zero_error_pass_through(self):
        data = Dataset(x=np.array([0.1, 0.2]), y=np.array([1.0, 2.0]),
                       x_se=np.array([0.0, 0.1]), y_se=np.array([0.05, 0.0]))
        out = generate_datasets(data, 200, np.random.default_rng(2))
        for d in out:
            assert d.x[0] == 0.1
            assert d.y[1] == 2.0
        assert len({d.x[1] for d in out}) > 100  # redrawn cell varies

    def test_independent_across_datasets(self):
        data = Dataset(x=np.array([0.5]), y=np.array([1.0]),
                       x_se=np.array([0.06]), y_se=np.array([0.0]))
        out = generate_datasets(data, 5, np.random.default_rng(3))
        assert len({d.x[0] for d in out}) == 5

    def test_m_must_be_positive(self):
        data = simulate_dataset(5, seed=0)
        with pytest.raises(ValueError):
            generate_datasets(data, 0, np.random.default_rng(0))


class TestPropagateTestError:
    def test_zero_error_matches_plain_predictive(self, exp3_fit):
        model, draws = exp3_fit
        direct = posterior_predictive(model, draws, 0.15, per_draw=10,
                                      rng=np.random.default_rng(4))
        via = propagate_test_error(model, draws, MeasuredValue(0.15, 0.0),
                                   n_x=30_000, rng=np.random.default_rng(5))
        assert stats.ks_2samp(direct.samples, via.samples).statistic < 0.02

    def test_input_error_inflates_variance(self, exp3_fit):
        model, draws = exp3_fit
        base = posterior_predictive(model, draws, 0.15, per_draw=20,
                                    rng=np.random.default_rng(6))
        noisy = propagate_test_error(model, draws, MeasuredValue(0.15, 0.06),
                                     n_x=100_000, rng=np.random.default_rng(7))
        assert noisy.samples.var(ddof=1) > base.samples.var(ddof=1)

    def test_variance_lower_bound_with_slack(self, exp3_fit):
        # total-variance decomposition: adding input noise cannot shrink
        # the predictive variance beyond Monte Carlo slack
        model, draws = exp3_fit
        base = posterior_predictive(model, draws, 0.15, per_draw=20,
                                    rng=np.random.default_rng(8))
        noisy = propagate_test_error(model, draws, MeasuredValue(0.15, 0.02),
                                     n_x=100_000, rng=np.random.default_rng(9))
        assert noisy.samples.var(ddof=1) >= base.samples.var(ddof=1) * 0.99

    def test_n_x_must_be_positive(self, exp3_fit):
        model, draws = exp3_fit
        with pytest.raises(ValueError):
            propagate_test_error(model, draws, MeasuredValue(0.15, 0.06), n_x=0)

    def test_zero_draws_rejected_as_in_posterior_predictive(self):
        model = demo.regression_model("quadratic")
        draws = PosteriorDraws(np.empty((0, 4)), np.empty(0, int), model.parameter_names)
        with pytest.raises(ValueError, match="no posterior draws"):
            posterior_predictive(model, draws, 0.15)
        with pytest.raises(ValueError, match="no posterior draws"):
            propagate_test_error(model, draws, MeasuredValue(0.15, 0.06))

    def test_non_positive_scale_rejected(self):
        model = exp3_model()
        draws = PosteriorDraws(
            draws=np.tile([3.0, 1.0, 0.2, -0.5], (500, 1)),
            chain=np.repeat([0, 1], 250),
            parameter_names=model.parameter_names,
        )
        with pytest.raises(ValueError, match="model scale must be positive at every draw"):
            propagate_test_error(model, draws, MeasuredValue(0.15, 0.06), n_x=500)

    def test_draw_order_inputs_then_indices_then_outcomes(self, exp3_fit):
        model, draws = exp3_fit
        got = propagate_test_error(model, draws, MeasuredValue(0.15, 0.06), n_x=200,
                                   rng=np.random.default_rng(3))
        rng = np.random.default_rng(3)
        x = rng.normal(0.15, 0.06, 200)
        theta = draws.draws[rng.integers(0, draws.n_draws, 200)]
        mu = theta[:, 2] + theta[:, 1] * -np.expm1(-theta[:, 0] * x)
        expected = mu + theta[:, 3] * rng.standard_normal(200)
        np.testing.assert_allclose(got.samples, expected, rtol=1e-12)


class TestPoolEnsemble:
    def test_single_fit_is_identity(self):
        data = simulate_dataset(40, seed=1)
        model = ModelSpec(mean=MeanFunctionSpec("true_model"),
                          variance=VarianceFunctionSpec("constant"))
        draws = fit(model, data, FitConfig(chains=2, warmup=300, samples=300, seed=2))
        pooled = pool_ensemble_predictions([draws], model, 0.5,
                                           rng=np.random.default_rng(10))
        direct = posterior_predictive(model, draws, 0.5,
                                      rng=np.random.default_rng(10))
        np.testing.assert_array_equal(pooled.samples, direct.samples)

    def test_identical_fits_pool_to_same_distribution(self):
        data = simulate_dataset(40, seed=1)
        model = ModelSpec(mean=MeanFunctionSpec("true_model"),
                          variance=VarianceFunctionSpec("constant"))
        cfg = FitConfig(chains=2, warmup=300, samples=300, seed=2)
        draws = fit(model, data, cfg)
        pooled = pool_ensemble_predictions([draws, draws, draws], model, 0.5,
                                           per_draw=10, rng=np.random.default_rng(11))
        direct = posterior_predictive(model, draws, 0.5, per_draw=10,
                                      rng=np.random.default_rng(12))
        assert stats.ks_2samp(pooled.samples, direct.samples).statistic < 0.02

    def test_empty_fit_list_rejected(self):
        model = ModelSpec(mean=MeanFunctionSpec("true_model"),
                          variance=VarianceFunctionSpec("constant"))
        with pytest.raises(ValueError):
            pool_ensemble_predictions([], model, 0.5)


class TestClassifyPredictive:
    def test_scalar_predictive_paths_name_the_feature_count(self):
        model = logistic_model()
        draws = degenerate_logistic_draws([0.0, 1.0, -1.0])
        for call in (
            lambda: posterior_predictive(model, draws, 0.5),
            lambda: plug_in_predictive(model, draws.draws[0], 0.5),
            lambda: propagate_test_error(model, draws, MeasuredValue(0.5, 0.1)),
        ):
            with pytest.raises(ValueError, match="model 'logistic' takes 2 features"):
                call()

    def test_concentrated_draws_coin_analogy(self):
        # probability draws concentrated at 0.75 predict 0.75 for the outcome
        draws = degenerate_logistic_draws([np.log(3.0), 0.0, 0.0])
        p_draws, y_pred = classify_predictive(logistic_model(), draws, [1.0, 1.0])
        np.testing.assert_allclose(p_draws, 0.75, atol=1e-12)
        assert y_pred == pytest.approx(0.75, abs=1e-12)

    def test_zero_parameters_give_half(self):
        draws = degenerate_logistic_draws([0.0, 0.0, 0.0])
        _, y_pred = classify_predictive(logistic_model(), draws, [2.0, -1.0])
        assert y_pred == 0.5

    def test_prediction_depends_only_on_mean(self):
        # a mean-preserving dilation of the probability draws leaves the
        # outcome prediction unchanged while doubling the draw spread
        rng = np.random.default_rng(13)
        raw = rng.normal(0.7, 0.03, 2000)
        assert np.all((raw >= 0.0) & (raw <= 1.0))
        dilated = raw.mean() + 2.0 * (raw - raw.mean())
        assert np.all((dilated >= 0.0) & (dilated <= 1.0))
        assert dilated.mean() == pytest.approx(raw.mean(), abs=1e-12)
        assert dilated.std() == pytest.approx(2 * raw.std(), rel=1e-9)
        shuffled = rng.permutation(raw)
        assert shuffled.mean() == pytest.approx(raw.mean(), abs=1e-15)

    def test_feature_count_checked(self):
        draws = degenerate_logistic_draws([0.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            classify_predictive(logistic_model(), draws, [1.0])

    def test_regression_model_rejected(self):
        model = ModelSpec(mean=MeanFunctionSpec("true_model"),
                          variance=VarianceFunctionSpec("constant"))
        draws = PosteriorDraws(
            draws=np.tile([3.0, 0.2, 0.1], (10, 1)),
            chain=np.repeat([0, 1], 5),
            parameter_names=("theta1", "theta2", "sigma"),
        )
        with pytest.raises(ValueError):
            classify_predictive(model, draws, [1.0, 1.0])


class TestDecomposeUncertainty:
    def test_all_half_draws(self):
        out = decompose_uncertainty(np.full(100, 0.5))
        assert out.aleatoric == pytest.approx(0.25, abs=1e-15)
        assert out.epistemic == 0.0
        assert out.mu_bar == 0.5

    def test_extreme_draws(self):
        out = decompose_uncertainty(np.array([0.0, 1.0] * 50))
        assert out.aleatoric == 0.0
        assert out.epistemic == pytest.approx(0.25, abs=1e-15)

    def test_identity_aleatoric_plus_epistemic(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            p = rng.beta(rng.uniform(0.5, 5.0), rng.uniform(0.5, 5.0), size=500)
            out = decompose_uncertainty(p)
            assert out.aleatoric + out.epistemic == pytest.approx(
                out.mu_bar * (1.0 - out.mu_bar), abs=1e-12
            )

    def test_dilating_draws_shifts_uncertainty_to_epistemic(self):
        rng = np.random.default_rng(15)
        p = np.clip(rng.normal(0.6, 0.04, 2000), 0.0, 1.0)
        base = decompose_uncertainty(p)
        dilated = decompose_uncertainty(p.mean() + 2.0 * (p - p.mean()))
        assert dilated.epistemic > base.epistemic
        assert dilated.aleatoric < base.aleatoric
        assert dilated.mu_bar == pytest.approx(base.mu_bar, abs=1e-12)

    def test_two_to_one_spread_gives_fourfold_epistemic(self):
        rng = np.random.default_rng(16)
        p = np.clip(rng.normal(0.65, 0.03, 4000), 0.0, 1.0)
        pair = p.mean() + 2.0 * (p - p.mean())
        ratio = decompose_uncertainty(pair).epistemic / decompose_uncertainty(p).epistemic
        assert 3.9 < ratio < 4.1

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            decompose_uncertainty([0.5])
        with pytest.raises(ValueError):
            decompose_uncertainty([0.5, 1.2])

    def test_json_fields(self):
        out = decompose_uncertainty([0.4, 0.6])
        assert set(out.to_json()) == {"mu_bar", "sigma_mu", "aleatoric", "epistemic"}


class TestMuSigmaRelationship:
    def test_inverted_u_over_training_points(self, logistic_fit):
        # draw spread is largest where the predicted probability is ambiguous
        model, draws = logistic_fit
        data = simulate_classification(300, (0.4, 1.2, -1.4), seed=5)
        mu_bars, sigmas = [], []
        for i in range(data.n):
            p_draws, _ = classify_predictive(model, draws, data.x[i])
            d = decompose_uncertainty(p_draws)
            mu_bars.append(d.mu_bar)
            sigmas.append(d.sigma_mu)
        mu_bars = np.array(mu_bars)
        sigmas = np.array(sigmas)
        middle = (mu_bars > 0.35) & (mu_bars < 0.65)
        extreme = (mu_bars < 0.1) | (mu_bars > 0.9)
        assert middle.sum() > 10 and extreme.sum() > 10
        assert sigmas[middle].mean() > 2.0 * sigmas[extreme].mean()


class TestBoundaryBand:
    def test_point_mass_posterior_zero_width(self):
        theta = [0.5, 1.0, -2.0]
        draws = degenerate_logistic_draws(theta)
        band = decision_boundary_band(draws, logistic_model(), [-1.0, 0.0, 1.0], 0.9)
        for x1, lo, hi in zip(band.x1, band.lower, band.upper):
            expect = -(theta[0] + theta[1] * x1) / theta[2]
            assert lo == pytest.approx(expect, abs=1e-12)
            assert hi == pytest.approx(expect, abs=1e-12)

    def test_band_wider_at_data_edges(self, logistic_fit):
        model, draws = logistic_fit
        band = decision_boundary_band(draws, model, [-3.0, 0.0, 3.0], 0.95)
        w = band.widths()
        assert w[0] > w[1]
        assert w[2] > w[1]

    def test_flip_equivariance(self):
        # mirroring the labels' geometry flips the boundary band
        data = simulate_classification(250, (0.0, 1.0, -1.0), seed=7)
        flipped = Dataset(x=np.column_stack([data.x[:, 0], -data.x[:, 1]]), y=data.y)
        model = logistic_model()
        cfg = FitConfig(chains=2, warmup=800, samples=800, seed=8)
        band = decision_boundary_band(fit(model, data, cfg), model, [-1.0, 0.0, 1.0], 0.9)
        band_f = decision_boundary_band(fit(model, flipped, cfg), model, [-1.0, 0.0, 1.0], 0.9)
        np.testing.assert_allclose(band_f.lower, [-u for u in band.upper], atol=0.15)
        np.testing.assert_allclose(band_f.upper, [-l for l in band.lower], atol=0.15)

    @pytest.mark.parametrize("level", [0.95, 0.9, 0.5])
    @pytest.mark.parametrize("grid", [np.linspace(-3.0, 3.0, 25), [0.7]])
    def test_matches_per_point_quantiles(self, logistic_fit, level, grid):
        model, draws = logistic_fit
        band = decision_boundary_band(draws, model, grid, level)
        t0, t1, t2 = draws.draws.T
        tail = (1.0 - level) / 2.0
        expect = np.array([np.quantile(-(t0 + t1 * x1) / t2, [tail, 1.0 - tail])
                           for x1 in np.asarray(grid, dtype=float)])
        assert np.array_equal(band.x1, np.asarray(grid, dtype=float))
        assert np.array_equal(band.lower, expect[:, 0])
        assert np.array_equal(band.upper, expect[:, 1])

    def test_degenerate_theta2_majority_is_an_error(self):
        theta = np.tile([0.5, 1.0, 0.0], (100, 1))
        theta[:40, 2] = 1.0  # only 40% of draws carry a finite boundary
        draws = PosteriorDraws(draws=theta, chain=np.repeat([0, 1], 50),
                               parameter_names=("theta0", "theta1", "theta2"))
        with pytest.raises(ValueError):
            decision_boundary_band(draws, logistic_model(), [0.0], 0.9)

    def test_requires_two_feature_logistic(self, logistic_fit):
        model = ModelSpec(mean=MeanFunctionSpec("true_model"),
                          variance=VarianceFunctionSpec("constant"))
        draws = PosteriorDraws(
            draws=np.tile([3.0, 0.2, 0.1], (10, 1)),
            chain=np.repeat([0, 1], 5),
            parameter_names=("theta1", "theta2", "sigma"),
        )
        with pytest.raises(ValueError):
            decision_boundary_band(draws, model, [0.0], 0.9)
