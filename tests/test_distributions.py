"""Distribution family tests: frozen closed-form oracles, quadrature
normalization, CDF/quantile round trips, and sampling consistency."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats
from scipy.integrate import quad

from ppmkit import DistributionSpec, bernoulli, distributions, normal, student_t, truncated_normal
from ppmkit.distributions import OUTCOMES, sample_truncated, sample_values

# Frozen high-precision oracle values (mpmath, 30 digits).
NORM01_LOGPDF_AT_0 = -0.91893853320467274178
LOG_075 = -0.28768207245178092744
PHI_2 = 0.9772498680518207928
Z_975 = 1.9599639845400542355
HALF_NORMAL_MEAN = 0.79788456080286535588  # sqrt(2/pi)
T5_LOGPDF_ORACLE = -1.3081938441750471777  # StudentT(0.3, 0.7, df=5) at y=1.1
T3_CDF_AT_15 = 0.88470806737758847386  # quadrature of the df=3 density
TRUNC_LOGPDF_ORACLE = -0.35079135264472743236  # TruncatedNormal(0,1,lower=0) at 0.5


class TestConstruction:
    def test_sigma_must_be_positive(self):
        with pytest.raises(ValueError):
            normal(0.0, 0.0)
        with pytest.raises(ValueError):
            normal(0.0, -1.0)

    def test_student_t_needs_positive_df(self):
        with pytest.raises(ValueError):
            student_t(0.0, 1.0, df=0.0)
        with pytest.raises(ValueError):
            student_t(0.0, 1.0, df=-3.0)

    def test_bernoulli_mu_in_unit_interval(self):
        with pytest.raises(ValueError):
            bernoulli(1.2)
        with pytest.raises(ValueError):
            bernoulli(-0.1)
        bernoulli(0.0)
        bernoulli(1.0)

    def test_truncation_bounds_ordered(self):
        with pytest.raises(ValueError):
            truncated_normal(0.0, 1.0, lower=1.0, upper=1.0)
        with pytest.raises(ValueError):
            truncated_normal(0.0, 1.0, lower=2.0, upper=-2.0)
        truncated_normal(0.0, 1.0, lower=0.0)  # one-sided is the common case

    def test_bounds_rejected_off_family(self):
        with pytest.raises(ValueError):
            DistributionSpec("normal", 0.0, 1.0, lower=0.0)
        with pytest.raises(ValueError):
            DistributionSpec("normal", 0.0, 1.0, df=3.0)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            DistributionSpec("poisson", 1.0)

    @pytest.mark.parametrize("make, field", [
        (lambda: normal(math.nan, 1.0), "mu"),
        (lambda: normal(math.inf, 1.0), "mu"),
        (lambda: normal(0.0, math.inf), "sigma"),
        (lambda: student_t(0.0, 1.0, df=math.inf), "df"),
        (lambda: truncated_normal(-math.inf, 1.0, lower=0.0), "mu"),
        (lambda: bernoulli(math.nan), "mu"),
    ], ids=["normal-nan-mu", "normal-inf-mu", "normal-inf-sigma", "student-t-inf-df",
            "truncated-normal-minus-inf-mu", "bernoulli-nan-mu"])
    def test_non_finite_parameter_is_refused_by_name(self, make, field):
        with pytest.raises(ValueError, match=field):
            make()


class TestLogDensity:
    def test_standard_normal_at_zero(self):
        assert normal(0.0, 1.0).log_density(0.0) == pytest.approx(
            NORM01_LOGPDF_AT_0, abs=1e-14
        )

    def test_bernoulli_mass(self):
        d = bernoulli(0.75)
        assert d.log_density(1.0) == pytest.approx(LOG_075, abs=1e-14)
        assert d.log_density(0.0) == pytest.approx(math.log(0.25), abs=1e-14)

    def test_bernoulli_off_support_is_neg_inf_not_error(self):
        assert bernoulli(0.75).log_density(0.5) == -math.inf
        assert bernoulli(0.75).log_density(2.0) == -math.inf

    def test_bernoulli_kernel_matches_both_logs(self):
        p = np.concatenate([np.linspace(0.0, 1.0, 1001), np.geomspace(1e-300, 0.5, 300),
                            1.0 - np.geomspace(1e-16, 0.5, 300)])
        for y in (0.0, 1.0):
            with np.errstate(divide="ignore"):
                expected = np.log(p) if y == 1.0 else np.log1p(-p)
            np.testing.assert_allclose(distributions.bernoulli_logpmf(np.full_like(p, y), p),
                                       expected, rtol=1e-14, atol=1e-15)

    def test_bernoulli_kernel_off_support_is_neg_inf_without_warning(self):
        y = np.array([0.5, 2.0, 1.0, 0.0, 0.5])
        p = np.array([0.3, 0.3, 0.0, 1.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = distributions.bernoulli_logpmf(y, p)
        np.testing.assert_array_equal(out, np.full(5, -np.inf))

    def test_truncated_outside_bounds_is_neg_inf(self):
        d = truncated_normal(0.0, 1.0, lower=0.0)
        assert d.log_density(-0.5) == -math.inf
        assert d.log_density(0.5) == pytest.approx(TRUNC_LOGPDF_ORACLE, abs=1e-12)

    def test_student_t_matches_oracle(self):
        assert student_t(0.3, 0.7, df=5.0).log_density(1.1) == pytest.approx(
            T5_LOGPDF_ORACLE, abs=1e-12
        )

    def test_vectorized_input(self):
        d = normal(1.0, 2.0)
        ys = np.array([0.0, 1.0, 3.0])
        out = d.log_density(ys)
        assert out.shape == (3,)
        assert out[1] == pytest.approx(d.log_density(1.0))


class TestCdf:
    def test_normal_symmetry(self):
        assert normal(0.0, 1.0).cdf(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_normal_exceedance(self):
        assert normal(1.0, 0.1).cdf(1.2) == pytest.approx(PHI_2, abs=1e-12)

    def test_truncated_mass_below_bound_is_zero(self):
        d = truncated_normal(0.0, 1.0, lower=0.0)
        assert d.cdf(0.0) == 0.0
        assert d.cdf(-1.0) == 0.0
        assert d.cdf(np.inf) == pytest.approx(1.0)

    def test_student_t_cdf_against_quadrature_oracle(self):
        assert student_t(0.0, 1.0, df=3.0).cdf(1.5) == pytest.approx(
            T3_CDF_AT_15, abs=1e-10
        )

    def test_monotone_nondecreasing(self):
        grid = np.linspace(-6.0, 6.0, 201)
        for d in [
            normal(0.3, 1.2),
            student_t(0.0, 1.0, df=4.0),
            truncated_normal(0.0, 1.0, lower=-1.0, upper=2.0),
            bernoulli(0.4),
        ]:
            vals = np.asarray(d.cdf(grid))
            assert np.all(np.diff(vals) >= 0.0)
            assert np.all((vals >= 0.0) & (vals <= 1.0))


class TestQuantile:
    def test_normal_median_and_upper_tail(self):
        d = normal(0.0, 1.0)
        assert d.quantile(0.5) == pytest.approx(0.0, abs=1e-12)
        assert d.quantile(0.975) == pytest.approx(Z_975, abs=1e-9)

    def test_cauchy_quartile(self):
        # df=1 Student-t is Cauchy: quartile at tan(pi/4) = 1
        assert student_t(0.0, 1.0, df=1.0).quantile(0.75) == pytest.approx(1.0, abs=1e-9)

    def test_domain_error_outside_open_interval(self):
        d = normal(0.0, 1.0)
        for p in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValueError):
                d.quantile(p)

    def test_bernoulli_quantile_steps(self):
        d = bernoulli(0.75)
        assert d.quantile(0.2) == 0.0
        assert d.quantile(0.25) == 0.0
        assert d.quantile(0.3) == 1.0

    @pytest.mark.parametrize(
        "d",
        [
            normal(0.5, 2.0),
            student_t(1.0, 0.5, df=6.0),
            truncated_normal(0.2, 1.0, lower=0.0),
            truncated_normal(0.0, 1.0, lower=-1.5, upper=1.0),
        ],
    )
    def test_roundtrip_quantile_of_cdf(self, d):
        # central 99% region of each family
        ps = np.linspace(0.005, 0.995, 41)
        ys = np.asarray(d.quantile(ps))
        back = np.asarray(d.quantile(np.asarray(d.cdf(ys))))
        np.testing.assert_allclose(back, ys, atol=1e-6)

    def test_cdf_of_quantile_roundtrip(self):
        d = normal(0.0, 1.0)
        ps = np.linspace(0.005, 0.995, 41)
        np.testing.assert_allclose(np.asarray(d.cdf(d.quantile(ps))), ps, atol=1e-9)

    def test_bernoulli_roundtrip_at_zero(self):
        d = bernoulli(0.6)
        assert d.quantile(d.cdf(0.0)) == 0.0


class TestNormalization:
    def test_truncated_normal_density_integrates_to_one(self):
        cases = [
            truncated_normal(0.0, 1.0, lower=0.0),
            truncated_normal(0.3, 0.7, lower=-0.5, upper=1.4),
            truncated_normal(-1.0, 2.0, upper=0.5),
        ]
        for d in cases:
            lo = d.lower if d.lower is not None else -np.inf
            hi = d.upper if d.upper is not None else np.inf
            total, err = quad(lambda y: math.exp(d.log_density(y)), lo, hi)
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_bernoulli_mass_sums_to_one(self):
        d = bernoulli(0.3)
        assert math.exp(d.log_density(0.0)) + math.exp(d.log_density(1.0)) == pytest.approx(1.0)


class TestStudentTNesting:
    def test_large_df_matches_normal(self):
        mu, sigma = 0.4, 1.3
        t_big = student_t(mu, sigma, df=1e6)
        gauss = normal(mu, sigma)
        ys = np.linspace(mu - 4 * sigma, mu + 4 * sigma, 81)
        gap = np.abs(np.asarray(t_big.log_density(ys)) - np.asarray(gauss.log_density(ys)))
        assert gap.max() < 1e-3


class TestSampling:
    def test_requires_at_least_one_draw(self):
        with pytest.raises(ValueError):
            normal(0.0, 1.0).sample(np.random.default_rng(0), 0)

    def test_deterministic_given_seed(self):
        d = student_t(0.0, 1.0, df=5.0)
        a = d.sample(np.random.default_rng(123), 50)
        b = d.sample(np.random.default_rng(123), 50)
        np.testing.assert_array_equal(a, b)

    def test_bernoulli_sample_mean(self):
        draws = bernoulli(0.75).sample(np.random.default_rng(7), 100_000)
        assert set(np.unique(draws)) <= {0.0, 1.0}
        assert draws.mean() == pytest.approx(0.75, abs=0.01)

    def test_half_normal_sample_mean(self):
        d = truncated_normal(0.0, 1.0, lower=0.0)
        draws = d.sample(np.random.default_rng(11), 100_000)
        assert np.all(draws >= 0.0)
        assert draws.mean() == pytest.approx(HALF_NORMAL_MEAN, abs=0.01)

    @pytest.mark.parametrize(
        "d",
        [
            normal(0.6, 0.8),
            student_t(0.0, 1.0, df=4.0),
            truncated_normal(0.1, 1.0, lower=0.0, upper=2.5),
        ],
    )
    def test_empirical_cdf_matches_cdf(self, d):
        n = 100_000
        draws = np.sort(d.sample(np.random.default_rng(29), n))
        ecdf_hi = np.arange(1, n + 1) / n
        ecdf_lo = np.arange(0, n) / n
        cdf_vals = np.asarray(d.cdf(draws))
        ks = max(np.abs(ecdf_hi - cdf_vals).max(), np.abs(cdf_vals - ecdf_lo).max())
        assert ks < 0.01

    def test_bernoulli_ks(self):
        p = 0.37
        draws = bernoulli(p).sample(np.random.default_rng(3), 100_000)
        # empirical CDF only jumps at 0 and 1
        assert abs((draws == 0.0).mean() - (1.0 - p)) < 0.01


class TestJson:
    def test_round_trip_all_families(self):
        for d in [
            normal(0.5, 2.0),
            student_t(0.0, 1.0, df=7.0),
            bernoulli(0.25),
            truncated_normal(0.0, 1.0, lower=0.0, upper=3.0),
        ]:
            assert DistributionSpec.from_json(d.to_json()) == d

    def test_json_keys(self):
        obj = truncated_normal(0.0, 1.0, lower=0.0).to_json()
        assert set(obj) == {"family", "mu", "sigma", "df", "lower", "upper"}


class TestFamilyTable:
    def test_continuous_cdf_inverts_ppf(self):
        p = np.linspace(0.01, 0.99, 9)
        for entry in OUTCOMES.values():
            if entry.continuous:
                y = entry.ppf(p, 0.4, 1.7, 5.0)
                np.testing.assert_allclose(entry.cdf(y, 0.4, 1.7, 5.0), p, atol=1e-12)

    def test_truncated_draws_land_in_bounds_for_every_continuous_family(self):
        for name, entry in OUTCOMES.items():
            rng = np.random.default_rng(2)
            if not entry.continuous:
                with pytest.raises(ValueError, match="does not support truncation"):
                    sample_truncated(name, 0.5, None, None, 0.0, 1.0, rng, 10)
                continue
            s = sample_truncated(name, 0.0, 1.0, 3.0, -0.5, 2.0, rng, 2000)
            assert s.min() >= -0.5 and s.max() <= 2.0


class TestStudentTMatchesScipyStats:
    """The student_t entry calls scipy.special kernels; its values equal the
    scipy.stats location-scale t's bit for bit."""

    dfs = (0.5, 1.0, 3.0, 30.0, 1e6)

    def test_cdf(self):
        z = np.concatenate([[-np.inf, np.inf, 0.0, -0.0], np.linspace(-40.0, 40.0, 161),
                            -np.logspace(-8.0, 300.0, 40), np.logspace(-8.0, 300.0, 40)])
        for df in self.dfs:
            for mu, sigma in ((0.0, 1.0), (-2.5, 0.3), (4.0, 7.0)):
                y = mu + sigma * z
                assert np.array_equal(OUTCOMES["student_t"].cdf(y, mu, sigma, df),
                                      stats.t.cdf(y, df, loc=mu, scale=sigma))

    def test_ppf(self):
        tiny = np.logspace(-300.0, -1.0, 60)
        p = np.concatenate([[0.0, 1.0, 0.5], tiny, 1.0 - tiny, np.linspace(0.01, 0.99, 99),
                            [np.nextafter(1.0, 0.0), 5e-324]])
        for df in self.dfs:
            for mu, sigma in ((0.0, 1.0), (-2.5, 0.3), (4.0, 7.0)):
                assert np.array_equal(OUTCOMES["student_t"].ppf(p, mu, sigma, df),
                                      stats.t.ppf(p, df, loc=mu, scale=sigma), equal_nan=True)

    def test_scalars(self):
        entry = OUTCOMES["student_t"]
        assert entry.cdf(1.3, 0.2, 2.0, 3.0) == stats.t.cdf(1.3, 3.0, loc=0.2, scale=2.0)
        for p in (0.0, 0.9, 1.0):
            assert entry.ppf(p, 0.2, 2.0, 3.0) == stats.t.ppf(p, 3.0, loc=0.2, scale=2.0)

    @pytest.mark.parametrize("lower, upper", [(0.5, None), (None, -0.5), (-1.0, 2.0),
                                              (3.0, 9.0), (-9.0, -3.0), (25.0, None)])
    def test_truncated_draws(self, lower, upper):
        mu, sigma, df = 0.3, 1.4, 4.0
        u = np.random.default_rng(7).random(500)
        got = sample_truncated("student_t", mu, sigma, df, lower, upper,
                               np.random.default_rng(7), 500)
        # the same inverse-CDF draw from scipy.stats, mirrored through mu above it
        lo = -np.inf if lower is None else lower
        hi = np.inf if upper is None else upper
        t = stats.t(df, loc=mu, scale=sigma)
        if lo > mu:
            u = 1.0 - u
            lo_m, hi_m = mu + (mu - hi), mu + (mu - lo)
            f_lo = t.cdf(lo_m)
            y = mu + (mu - t.ppf(u * (t.cdf(hi_m) - f_lo) + f_lo))
        else:
            f_lo = t.cdf(lo)
            y = t.ppf(u * (t.cdf(hi) - f_lo) + f_lo)
        assert np.array_equal(got, np.clip(y, lo, hi))


# Intervals from deep in the lower tail to deep in the upper tail, in scales
# from the location: (offset of the lower end or None, width or None).
_scales = st.floats(-30.0, 30.0)
_widths = st.one_of(st.none(), st.floats(0.01, 10.0))


def _bounds(mu, sigma, offset, width):
    if offset is None:  # upper bound only
        return None, mu + sigma * width
    lower = mu + sigma * offset
    return lower, None if width is None else lower + sigma * width


class TestSharedTruncation:
    @settings(deadline=None, max_examples=200)
    @given(
        family=st.sampled_from(["normal", "student_t"]),
        mu=st.floats(-10.0, 10.0),
        sigma=st.floats(0.1, 10.0),
        df=st.floats(1.0, 30.0),
        offset=st.one_of(st.none(), _scales),
        width=_widths,
        seed=st.integers(0, 2**32 - 1),
    )
    def test_truncated_draws_land_in_bounds(self, family, mu, sigma, df, offset, width, seed):
        if offset is None and width is None:
            width = 1.0
        lower, upper = _bounds(mu, sigma, offset, width)
        draws = sample_truncated(family, mu, sigma, df, lower, upper,
                                 np.random.default_rng(seed), 50)
        assert np.all(draws >= (-np.inf if lower is None else lower))
        assert np.all(draws <= (np.inf if upper is None else upper))

    @settings(deadline=None, max_examples=200)
    @given(
        mu=st.floats(-10.0, 10.0),
        sigma=st.floats(0.1, 10.0),
        offset=st.one_of(st.none(), _scales),
        width=_widths,
    )
    def test_bounded_spec_quantile_inverts_cdf(self, mu, sigma, offset, width):
        if offset is None and width is None:
            width = 1.0
        lower, upper = _bounds(mu, sigma, offset, width)
        d = truncated_normal(mu, sigma, lower=lower, upper=upper)
        ys = np.asarray(d.quantile(np.linspace(0.01, 0.99, 21)))
        assert np.all(np.diff(ys) >= 0.0)
        np.testing.assert_allclose(d.quantile(d.cdf(ys)), ys, atol=1e-6 * sigma)

    def test_deep_upper_tail_draws(self):
        draws = sample_truncated("normal", 0.2, 1.0, None, 9.0, None,
                                 np.random.default_rng(0), 5)
        assert draws.shape == (5,) and np.all(draws >= 9.0)

    def test_deep_upper_tail_spec(self):
        d = truncated_normal(0.0, 1.0, lower=9.0)
        assert math.isfinite(d.log_density(9.5))
        total, _ = quad(lambda y: math.exp(d.log_density(y)), 9.0, np.inf)
        assert total == pytest.approx(1.0, abs=1e-6)
        assert np.all(d.sample(np.random.default_rng(1), 100) >= 9.0)
        ys = np.array([9.001, 9.05, 9.2, 9.6])
        np.testing.assert_allclose(d.quantile(d.cdf(ys)), ys, atol=1e-6)

    def test_interval_without_representable_mass_is_refused(self):
        with pytest.raises(ValueError, match="no probability mass"):
            truncated_normal(0.0, 1.0, lower=50.0)

    @pytest.mark.parametrize("lower, upper", [(None, -1e80), (None, -1e60), (1e60, None)])
    def test_interval_beyond_the_inverse_cdf_is_refused(self, lower, upper):
        # the mass is positive, but stdtrit(3, p) reads +inf below p ~ 1e-240 and
        # about half the quantile below 1e-160, so every draw would be the bound
        with pytest.raises(ValueError, match="too deep in the tail"):
            sample_truncated("student_t", 0.0, 1.0, 3.0, lower, upper,
                             np.random.default_rng(0), 4)
        draws = sample_truncated("student_t", 0.0, 1.0, 3.0, None, -1e50,
                                 np.random.default_rng(0), 4)
        assert np.all(draws <= -1e50) and np.unique(draws).size == 4

    def test_log_density_reuses_the_mass_from_construction(self, monkeypatch):
        calls = []
        entry = OUTCOMES["normal"]

        def counting_cdf(y, mu, sigma, df):
            calls.append(y)
            return entry.cdf(y, mu, sigma, df)

        monkeypatch.setitem(OUTCOMES, "normal", dataclasses.replace(entry, cdf=counting_cdf))
        d = truncated_normal(0.0, 2.0, lower=0.0)
        assert len(calls) == 2
        calls.clear()
        for y in np.linspace(-1.0, 5.0, 1000):
            d.log_density(y)
        assert calls == []

    @pytest.mark.parametrize("d", [
        truncated_normal(0.0, 2.0, lower=0.0),
        truncated_normal(1.0, 0.5, upper=0.2),
        truncated_normal(0.0, 5.0, lower=0.0, upper=2.0),
        truncated_normal(0.2, 1.0, lower=9.0),  # mirrored through mu
    ])
    def test_spec_sample_reuses_the_truncation_from_construction(self, d, monkeypatch):
        expected = sample_truncated("normal", d.mu, d.sigma, None, d.lower, d.upper,
                                    np.random.default_rng(7), 500)
        calls = []
        truncate = distributions._truncate
        monkeypatch.setattr(distributions, "_truncate",
                            lambda *args: calls.append(args) or truncate(*args))
        draws = d.sample(np.random.default_rng(7), 500)
        assert np.array_equal(draws, expected)
        assert calls == []


def _fresh_ppf(family, p, mu, sigma, df):
    """The family quantile with every step in a fresh array."""
    if family == "normal":
        return mu + sigma * special.ndtri(p)
    return mu + sigma * np.where(p == 0.0, -np.inf, special.stdtrit(df, p))


def _fresh_truncated_ppf(family, u, mu, sigma, df, lower, upper):
    """The truncated inverse CDF with every step in a fresh array."""
    lo, hi, flip, f_lo, mass = distributions._truncate(OUTCOMES[family], mu, sigma, df,
                                                       lower, upper)
    y = _fresh_ppf(family, np.where(flip, 1.0 - u, u) * mass + f_lo, mu, sigma, df)
    return np.clip(np.where(flip, mu + (mu - y), y), lo, hi)


class TestInPlaceBits:
    """Draws and quantiles are transformed in their own buffer; every value
    equals the fresh-array formula to the bit."""

    mu = np.array([[-1.2], [0.4], [3.0]])
    sigma = np.array([[0.3], [1.1], [2.5]])
    families = pytest.mark.parametrize("family, df", [("normal", None), ("student_t", 4.0)])
    # a lower bound (mirrored in the row below it), two bounds, an interval above
    # every row's mu (all rows mirrored) and an upper bound
    bounds = pytest.mark.parametrize("lower, upper", [(0.0, None), (-1.0, 2.0), (5.0, None),
                                                      (None, -3.0)])

    @families
    def test_sample_values(self, family, df):
        got = sample_values(family, self.mu, self.sigma, df, np.random.default_rng(5), (3, 400))
        rng = np.random.default_rng(5)
        z = rng.standard_normal((3, 400)) if df is None else rng.standard_t(df, size=(3, 400))
        assert np.array_equal(got, self.mu + self.sigma * z)

    @families
    @bounds
    def test_sample_truncated(self, family, df, lower, upper):
        got = sample_truncated(family, self.mu, self.sigma, df, lower, upper,
                               np.random.default_rng(9), (3, 400))
        u = np.random.default_rng(9).random((3, 400))
        expected = _fresh_truncated_ppf(family, u, self.mu, self.sigma, df, lower, upper)
        assert np.array_equal(got, expected)
        if lower is not None:
            assert np.all(got >= lower)

    @families
    def test_sample_truncated_without_a_size_is_a_scalar(self, family, df):
        got = sample_truncated(family, 0.3, 1.4, df, 0.5, None, np.random.default_rng(4), None)
        u = np.random.default_rng(4).random()
        assert type(got) is np.float64
        assert got == _fresh_truncated_ppf(family, u, 0.3, 1.4, df, 0.5, None)

    @pytest.mark.parametrize("d", [
        normal(0.7, 1.3),
        student_t(-0.4, 2.0, df=3.0),
        truncated_normal(0.0, 2.0, lower=0.0),
        truncated_normal(0.0, 5.0, lower=-1.0, upper=2.0),
        truncated_normal(0.2, 1.0, lower=3.0),  # mirrored through mu
    ])
    def test_spec_sample_and_quantile(self, d):
        family = distributions.BOUNDED.get(d.family, d.family)
        p = np.linspace(0.01, 0.99, 99)
        u = np.random.default_rng(3).random(500)
        if d.family == "truncated_normal":
            quantiles = _fresh_truncated_ppf(family, p, d.mu, d.sigma, d.df, d.lower, d.upper)
            draws = _fresh_truncated_ppf(family, u, d.mu, d.sigma, d.df, d.lower, d.upper)
        else:
            quantiles = _fresh_ppf(family, p, d.mu, d.sigma, d.df)
            rng = np.random.default_rng(3)
            z = rng.standard_normal(500) if d.df is None else rng.standard_t(d.df, size=500)
            draws = d.mu + d.sigma * z
        assert np.array_equal(d.quantile(p), quantiles)
        assert d.quantile(0.3) == float(quantiles[29])
        assert np.array_equal(d.sample(np.random.default_rng(3), 500), draws)

    def test_student_t_zero_probability_is_minus_infinity_in_place(self):
        p = np.array([0.0, 0.25, 0.0, 0.5, 0.99])
        expected = _fresh_ppf("student_t", p, 0.3, 1.4, 4.0)
        assert expected[0] == expected[2] == -np.inf
        buffer = p.copy()
        got = OUTCOMES["student_t"].ppf(buffer, 0.3, 1.4, 4.0, out=buffer)
        assert np.array_equal(got, expected)
        # a truncated draw at u == 0 with no lower bound is the -inf lower end
        truncation = distributions._truncate(OUTCOMES["student_t"], 0.3, 1.4, 4.0, None, 2.0)
        got = distributions._truncated_ppf(OUTCOMES["student_t"], p.copy(), 0.3, 1.4, 4.0,
                                           truncation)
        assert np.array_equal(got, _fresh_truncated_ppf("student_t", p, 0.3, 1.4, 4.0,
                                                        None, 2.0))
        assert got[0] == -np.inf
