"""Predictive distribution, interval, exceedance, and averaging tests."""

import dataclasses
import math

import numpy as np
import pytest
from scipy import stats

from ppmkit import (
    FitConfig,
    MeasuredValue,
    MeanFunctionSpec,
    ModelSpec,
    PosteriorDraws,
    PredictiveDistribution,
    VarianceFunctionSpec,
    average_predictions,
    demo,
    fit,
    interval,
    pi_width_curve,
    plug_in_predictive,
    posterior_predictive,
    prob_exceeds,
    propagate_test_error,
    simulate_dataset,
)
from ppmkit.prediction import _quantiles, classical_exceedance, classical_interval

Z_975 = 1.959963984540054


def constant_model(**kwargs):
    return ModelSpec(
        mean=MeanFunctionSpec("linear"),
        variance=VarianceFunctionSpec("constant"),
        **kwargs,
    )


def degenerate_draws(theta, n=2000):
    """A posterior collapsed onto a single parameter vector."""
    theta = np.asarray(theta, dtype=float)
    return PosteriorDraws(
        draws=np.tile(theta, (n, 1)),
        chain=np.repeat([0, 1], n // 2),
        parameter_names=("theta0", "theta1", "sigma"),
    )


def ks_two_sample(a, b):
    return stats.ks_2samp(a, b).statistic


@pytest.mark.parametrize("predict", [
    lambda model, draws: posterior_predictive(model, draws, -1000.0),
    lambda model, draws: plug_in_predictive(model, draws.draws[0], -1000.0),
    lambda model, draws: propagate_test_error(model, draws, MeasuredValue(-1000.0, 0.5)),
], ids=["posterior", "plug_in", "noisy_input"])
def test_non_finite_predictive_mean_is_refused_naming_model_and_query(predict):
    # exp2's mean overflows to -inf far left of the data
    draws = PosteriorDraws(draws=np.tile([3.0, 1.0, 0.1], (10, 1)), chain=np.repeat([0, 1], 5),
                           parameter_names=("theta1", "theta2", "sigma"))
    with pytest.raises(ValueError, match=r"model 'exp2' has a non-finite mean or scale at x = -"):
        predict(demo.regression_model("exp2"), draws)


class TestPosteriorPredictive:
    def test_degenerate_draws_reduce_to_plain_sampling(self):
        model = constant_model()
        theta = np.array([1.0, 0.0, 0.5])
        draws = degenerate_draws(theta, n=2000)
        pred = posterior_predictive(model, draws, 0.3, per_draw=50,
                                    rng=np.random.default_rng(0))
        assert pred.n == 100_000
        assert pred.samples.std(ddof=1) == pytest.approx(0.5, rel=0.02)
        assert pred.samples.mean() == pytest.approx(1.0, abs=0.02)

    def test_truncated_model_keeps_samples_in_bounds(self):
        model = constant_model(truncation=(0.0, None))
        draws = degenerate_draws([0.1, 0.0, 0.5])
        pred = posterior_predictive(model, draws, 0.0, per_draw=20,
                                    rng=np.random.default_rng(1))
        assert np.all(pred.samples >= 0.0)

    def test_truncation_redistributes_rather_than_clips(self):
        # the truncated predictive mean exceeds the untruncated one when
        # mass is cut from below
        base = constant_model()
        trunc = dataclasses.replace(base, truncation=(0.0, None))
        draws = degenerate_draws([0.2, 0.0, 0.4])
        p_base = posterior_predictive(base, draws, 0.0, per_draw=50,
                                      rng=np.random.default_rng(2))
        p_trunc = posterior_predictive(trunc, draws, 0.0, per_draw=50,
                                       rng=np.random.default_rng(3))
        assert p_trunc.samples.mean() > p_base.samples.mean()

    def test_per_draw_must_be_positive(self):
        model = constant_model()
        with pytest.raises(ValueError):
            posterior_predictive(model, degenerate_draws([0.0, 0.0, 1.0]), 0.0, per_draw=0)

    def test_deterministic_given_rng_seed(self):
        model = constant_model()
        draws = degenerate_draws([0.0, 1.0, 0.3])
        a = posterior_predictive(model, draws, 0.5, rng=np.random.default_rng(9))
        b = posterior_predictive(model, draws, 0.5, rng=np.random.default_rng(9))
        np.testing.assert_array_equal(a.samples, b.samples)


class TestPlugInPredictive:
    def test_matches_degenerate_posterior_predictive(self):
        model = constant_model()
        theta = np.array([0.8, 0.0, 0.25])
        pp = posterior_predictive(model, degenerate_draws(theta, n=2000), 0.1,
                                  per_draw=50, rng=np.random.default_rng(4))
        pi = plug_in_predictive(model, theta, 0.1, n=100_000,
                                rng=np.random.default_rng(5))
        assert ks_two_sample(pp.samples, pi.samples) < 0.02

    def test_zero_samples_rejected(self):
        with pytest.raises(ValueError):
            plug_in_predictive(constant_model(), [0.0, 0.0, 1.0], 0.0, n=0)

    def test_narrower_than_bayesian_at_same_x(self):
        data = simulate_dataset(100, seed=9)
        model = ModelSpec(mean=MeanFunctionSpec("true_model"),
                          variance=VarianceFunctionSpec("constant"))
        draws = fit(model, data, FitConfig(chains=2, warmup=500, samples=500, seed=1))
        # the posterior mean as the point estimate; any fixed vector works
        theta_hat = draws.draws.mean(axis=0)
        bayes = posterior_predictive(model, draws, 0.5, per_draw=20,
                                     rng=np.random.default_rng(6))
        plug = plug_in_predictive(model, theta_hat, 0.5, n=20_000,
                                  rng=np.random.default_rng(7))
        assert interval(plug, 0.95).width < interval(bayes, 0.95).width


class TestInterval:
    def test_point_mass(self):
        pred = PredictiveDistribution(x=0.0, samples=np.full(500, 3.0))
        iv = interval(pred, 0.95)
        assert iv.lower == iv.upper == 3.0

    def test_standard_normal_quantiles(self):
        rng = np.random.default_rng(8)
        pred = PredictiveDistribution(x=0.0, samples=rng.standard_normal(100_000))
        iv = interval(pred, 0.95)
        assert iv.lower == pytest.approx(-Z_975, abs=0.03)
        assert iv.upper == pytest.approx(Z_975, abs=0.03)

    def test_uniform_interquartile(self):
        rng = np.random.default_rng(10)
        pred = PredictiveDistribution(x=0.0, samples=rng.random(100_000))
        iv = interval(pred, 0.5)
        assert iv.lower == pytest.approx(0.25, abs=0.01)
        assert iv.upper == pytest.approx(0.75, abs=0.01)

    def test_needs_enough_samples(self):
        pred = PredictiveDistribution(x=0.0, samples=np.arange(99.0))
        with pytest.raises(ValueError):
            interval(pred, 0.95)

    def test_level_domain(self):
        pred = PredictiveDistribution(x=0.0, samples=np.arange(500.0))
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                interval(pred, bad)

    def test_nested_levels(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            pred = PredictiveDistribution(
                x=0.0, samples=rng.standard_t(5, 5000) * rng.uniform(0.5, 2.0)
            )
            inner = interval(pred, 0.5)
            outer = interval(pred, 0.95)
            assert outer.lower <= inner.lower <= inner.upper <= outer.upper


class TestSelection:
    """Interval endpoints and medians from single-position partitions carry
    numpy's bits."""

    @staticmethod
    def samples(n, ties):
        rng = np.random.default_rng(n)
        a = rng.standard_t(4, n)
        return np.round(a) if ties else a  # a handful of distinct values when tied

    @pytest.mark.parametrize("ties", [False, True], ids=["distinct", "ties"])
    @pytest.mark.parametrize("n", [100, 101, 2000, 24_001, 100_000])
    def test_matches_numpy_quantile_and_median(self, n, ties):
        a = self.samples(n, ties)
        for level in (0.5, 0.9, 0.95, 0.999):
            tail = (1.0 - level) / 2.0
            levels = [tail, 1.0 - tail, level]
            assert np.array_equal(_quantiles(a, levels), np.quantile(a, levels, method="linear"))
        pred = PredictiveDistribution(x=0.0, samples=a)
        assert pred.median() == np.median(a)
        assert np.array_equal(_quantiles(a, [0.0, 1.0]), [a.min(), a.max()])

    def test_median_of_an_even_count_averages_the_middle_pair(self):
        # interpolating between the pair, as np.quantile does, rounds differently here
        a = np.random.default_rng(3).permutation(np.repeat([-1.3, 2.9], 50))
        median = PredictiveDistribution(x=0.0, samples=a).median()
        assert median == np.median(a) != np.quantile(a, 0.5)

    @pytest.mark.parametrize("ties", [False, True], ids=["distinct", "ties"])
    def test_rows_match_numpy_along_the_last_axis(self, ties):
        a = self.samples(100_000, ties)[:25 * 4000].reshape(25, 4000)
        levels = [0.025, 0.975]
        assert np.array_equal(_quantiles(a, levels), np.quantile(a, levels, axis=1))

    def test_infinite_samples_match_numpy(self):
        a = np.concatenate([np.full(5, -np.inf), np.arange(190.0), np.full(5, np.inf)])
        levels = [0.0, 0.01, 0.025, 0.5, 0.975, 0.99, 1.0]
        with np.errstate(invalid="ignore"):  # inf - inf, in numpy's interpolation as here
            got, expected = _quantiles(a, levels), np.quantile(a, levels)
        assert np.array_equal(got, expected, equal_nan=True)

    @pytest.mark.parametrize("n", [100, 101])
    def test_a_nan_sample_gives_nan_endpoints(self, n):
        a = self.samples(n, False)
        a[n // 3] = np.nan
        levels = [0.025, 0.5, 0.975, 1.0]
        assert np.isnan(_quantiles(a, levels)).all() and np.isnan(np.quantile(a, levels)).all()
        pred = PredictiveDistribution(x=0.0, samples=a)
        assert math.isnan(pred.median()) and math.isnan(np.median(a))
        with pytest.raises(ValueError, match="interval bounds out of order"):
            interval(pred, 0.95)

    @pytest.mark.parametrize("shape", [(4000,), (25, 400)])
    def test_input_is_left_unchanged(self, shape):
        a = self.samples(10_000, False)[:math.prod(shape)].reshape(shape)
        before = a.copy()
        levels = [0.025, 0.975, 0.5]
        # the scratch copy's endpoint rows are read before the next level moves them
        assert np.array_equal(_quantiles(a, levels), np.quantile(before, levels, axis=-1))
        assert np.array_equal(a, before)
        pred = PredictiveDistribution(x=0.0, samples=a.ravel())
        interval(pred)
        pred.median()
        assert np.array_equal(pred.samples, before.ravel())


class TestSampleOwnership:
    """A distribution copies a caller's writeable array and shares a read-only one."""

    def test_a_writeable_input_is_copied(self):
        a = np.linspace(0.0, 1.0, 200)
        pred = PredictiveDistribution(x=0.0, samples=a)
        a[:] = 7.0
        assert np.array_equal(pred.samples, np.linspace(0.0, 1.0, 200))
        assert not pred.samples.flags.writeable

    def test_a_read_only_input_is_shared(self):
        a = np.linspace(0.0, 1.0, 200)
        a.flags.writeable = False
        assert np.shares_memory(PredictiveDistribution(x=0.0, samples=a).samples, a)

    def test_other_inputs_become_read_only_float64(self):
        for samples in ([0.5, 1.5], np.arange(3), np.ones(3, dtype=np.float32)):
            s = PredictiveDistribution(x=0.0, samples=samples).samples
            assert s.dtype == np.float64 and not s.flags.writeable

    def test_library_samples_are_handed_over_read_only(self):
        model = constant_model()
        draws = degenerate_draws([0.0, 1.0, 0.5])
        preds = [posterior_predictive(model, draws, 0.0, rng=np.random.default_rng(1)),
                 propagate_test_error(model, draws, MeasuredValue(0.0, 0.1), n_x=200)]
        preds.append(average_predictions(preds))
        for pred in preds:
            assert not pred.samples.flags.writeable


class TestProbExceeds:
    def test_two_compound_threshold_decision(self):
        # compound A looks better on the mean but carries far more risk of
        # crossing the safety threshold than compound B
        rng = np.random.default_rng(12)
        a = PredictiveDistribution(x=0.0, samples=rng.normal(6.3795, 1.5, 200_000), model="A")
        b = PredictiveDistribution(x=0.0, samples=rng.normal(7.1785, 0.4, 200_000), model="B")
        assert a.mean() < b.mean()
        pa = prob_exceeds(a, 8.0, "above")
        pb = prob_exceeds(b, 8.0, "above")
        assert pa > pb
        assert pb == pytest.approx(0.02, abs=0.005)

    def test_threshold_below_all_samples(self):
        pred = PredictiveDistribution(x=0.0, samples=np.linspace(1.0, 2.0, 500))
        assert prob_exceeds(pred, 0.0, "above") == 1.0
        assert prob_exceeds(pred, 0.0, "below") == 0.0

    def test_normal_tail(self):
        rng = np.random.default_rng(13)
        pred = PredictiveDistribution(x=0.0, samples=rng.normal(1.0, 0.1, 100_000))
        assert prob_exceeds(pred, 1.2, "above") == pytest.approx(0.0228, abs=0.005)

    def test_directions_partition_unity(self):
        samples = np.array([0.0, 1.0, 1.0, 2.0, 3.0])
        pred = PredictiveDistribution(x=0.0, samples=samples)
        t = 1.0
        above = prob_exceeds(pred, t, "above")
        below = prob_exceeds(pred, t, "below")
        at = np.mean(samples == t)
        assert above + below + at == 1.0

    def test_bad_direction(self):
        pred = PredictiveDistribution(x=0.0, samples=np.arange(500.0))
        with pytest.raises(ValueError):
            prob_exceeds(pred, 1.0, "sideways")

    def test_empty_predictive_is_refused_at_construction(self):
        # so median(), interval() and prob_exceeds never see zero samples
        with pytest.raises(ValueError, match="empty predictive distribution"):
            PredictiveDistribution(x=0.0, samples=np.empty(0))


class TestAveragePredictions:
    def test_self_average_is_identity_in_distribution(self):
        rng = np.random.default_rng(14)
        pred = PredictiveDistribution(x=0.2, samples=rng.standard_normal(20_000), model="m")
        avg = average_predictions([pred, pred])
        assert ks_two_sample(avg.samples, pred.samples) < 0.02

    def test_mixture_widens_interval(self):
        rng = np.random.default_rng(15)
        a = PredictiveDistribution(x=0.0, samples=rng.normal(0.0, 1.0, 50_000), model="a")
        b = PredictiveDistribution(x=0.0, samples=rng.normal(4.0, 1.0, 50_000), model="b")
        avg = average_predictions([a, b])
        w = interval(avg, 0.95).width
        assert w > interval(a, 0.95).width
        assert w > interval(b, 0.95).width

    def test_mismatched_query_rejected(self):
        rng = np.random.default_rng(16)
        a = PredictiveDistribution(x=0.0, samples=rng.standard_normal(1000))
        b = PredictiveDistribution(x=0.1, samples=rng.standard_normal(1000))
        with pytest.raises(ValueError):
            average_predictions([a, b])

    def test_samples_tagged_with_source(self):
        rng = np.random.default_rng(17)
        a = PredictiveDistribution(x=0.0, samples=rng.standard_normal(1000), model="a")
        b = PredictiveDistribution(x=0.0, samples=rng.standard_normal(500), model="b")
        avg = average_predictions([a, b])
        assert avg.model == "average(a, b)"
        # equal weighting takes each model's first m samples, m the smallest count
        expected = np.concatenate([a.samples[:500], b.samples[:500]])
        np.testing.assert_array_equal(avg.samples, expected)


class TestWidthCurve:
    def _preds(self, rng, center, spread, grid, model):
        return [
            PredictiveDistribution(x=float(x), samples=rng.normal(center, spread, 4000), model=model)
            for x in grid
        ]

    def test_identical_models_identical_widths(self):
        grid = np.linspace(0.0, 1.0, 5)
        rng = np.random.default_rng(20)
        preds = {name: self._preds(np.random.default_rng(42), 0.0, 1.0, grid, name)
                 for name in ("m1", "m2")}
        table = pi_width_curve(preds, 0.95)
        np.testing.assert_allclose(table.widths["m1"], table.widths["m2"], rtol=1e-12)

    def test_widths_nonnegative(self):
        grid = np.linspace(0.0, 1.0, 4)
        rng = np.random.default_rng(21)
        preds = {
            "m1": self._preds(rng, 0.0, 1.0, grid, "m1"),
            "m2": self._preds(rng, 2.0, 0.5, grid, "m2"),
        }
        table = pi_width_curve(preds, 0.95)
        for ws in table.widths.values():
            assert all(w >= 0.0 for w in ws)

    def test_disagreeing_means_make_average_widest(self):
        grid = [0.0, 1.0]
        rng = np.random.default_rng(22)
        preds = {
            "m1": self._preds(rng, 0.0, 0.3, grid, "m1"),
            "m2": self._preds(rng, 5.0, 0.3, grid, "m2"),
        }
        table = pi_width_curve(preds, 0.95)
        for i in range(len(grid)):
            assert table.widths["average"][i] > table.widths["m1"][i]
            assert table.widths["average"][i] > table.widths["m2"][i]

    def test_inconsistent_grids_rejected(self):
        rng = np.random.default_rng(23)
        preds = {
            "m1": self._preds(rng, 0.0, 1.0, [0.0, 1.0], "m1"),
            "m2": self._preds(rng, 0.0, 1.0, [0.0, 2.0], "m2"),
        }
        with pytest.raises(ValueError):
            pi_width_curve(preds, 0.95)


class TestClassicalInterval:
    def test_matches_textbook_formula(self):
        data = simulate_dataset(20, seed=5)
        model = ModelSpec(mean=MeanFunctionSpec("linear"),
                          variance=VarianceFunctionSpec("constant"))
        theta = np.array([0.3, 0.9, 0.1])
        fitted = theta[0] + theta[1] * data.x
        rss = float(np.sum((data.y - fitted) ** 2))
        scale = math.sqrt(rss / (data.n - 2))
        iv = classical_interval(model, theta, data, 0.5, 0.95)
        expect_half = stats.t.ppf(0.975, data.n - 2) * scale
        assert iv.upper - iv.lower == pytest.approx(2 * expect_half, rel=1e-12)
        assert 0.5 * (iv.upper + iv.lower) == pytest.approx(theta[0] + theta[1] * 0.5)

    def test_exceedance_consistent_with_interval(self):
        data = simulate_dataset(30, seed=6)
        model = ModelSpec(mean=MeanFunctionSpec("linear"),
                          variance=VarianceFunctionSpec("constant"))
        theta = np.array([0.2, 1.0, 0.1])
        iv = classical_interval(model, theta, data, 0.4, 0.95)
        # exactly 2.5% beyond each interval endpoint by construction
        assert classical_exceedance(model, theta, data, 0.4, iv.upper, "above") == pytest.approx(
            0.025, abs=1e-10
        )
        assert classical_exceedance(model, theta, data, 0.4, iv.lower, "below") == pytest.approx(
            0.025, abs=1e-10
        )

    def test_equal_to_scipy_stats_t(self):
        # the helpers call scipy.special kernels; the values equal scipy.stats' bit for bit
        model = ModelSpec(mean=MeanFunctionSpec("linear"),
                          variance=VarianceFunctionSpec("constant"))
        theta = np.array([0.2, 1.0, 0.1])
        for n in (3, 4, 12, 200):
            data = simulate_dataset(n, seed=n)
            df = n - 2
            fitted = model.mu(theta, data.x)
            scale = math.sqrt(float(np.sum((data.y - fitted) ** 2)) / df)
            for x in (-0.3, 0.4, 2.0):
                center = model.mu(theta, x)
                for level in (1e-6, 0.5, 0.9, 0.95, 0.999999):
                    iv = classical_interval(model, theta, data, x, level)
                    half = stats.t.ppf(0.5 + level / 2.0, df) * scale
                    assert (iv.lower, iv.upper) == (float(center - half), float(center + half))
                for threshold in (-np.inf, -50.0, -1.0, center, 0.7, 3.0, 1e3, np.inf):
                    z = (threshold - center) / scale
                    above = classical_exceedance(model, theta, data, x, threshold, "above")
                    below = classical_exceedance(model, theta, data, x, threshold, "below")
                    assert above == float(stats.t.sf(z, df))
                    assert below == float(stats.t.cdf(z, df))

    def test_requires_constant_scale_normal(self):
        model = ModelSpec(mean=MeanFunctionSpec("linear", n_features=2),
                          family="bernoulli", mean_link="logit")
        data = simulate_dataset(10, seed=0)
        with pytest.raises(ValueError):
            classical_interval(model, np.zeros(3), data, 0.0, 0.95)
