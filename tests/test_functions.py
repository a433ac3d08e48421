"""Mean-form, link, and variance-function tests."""

import math
import warnings

import numpy as np
import pytest
from scipy import special

from ppmkit import (
    MeanFunctionSpec,
    VarianceFunctionSpec,
    apply_link,
    softplus,
)
from ppmkit.functions import ZERO_ONE_LINKS, mean_values, sigma_values

TM_AT_1 = 1.1253462253117410796  # 0.2 + tanh(1.625), mpmath
CLOGLOG_AT_0 = 0.6321205588285576784  # 1 - 1/e
LN_2 = 0.69314718055994530942


class TestMeanForms:
    def test_parameter_counts(self):
        counts = {
            "linear": 2,
            "quadratic": 3,
            "exp2": 2,
            "exp3": 3,
            "michaelis_menten": 2,
            "true_model": 2,
        }
        for form, k in counts.items():
            assert MeanFunctionSpec(form).parameter_count == k

    def test_saturating_curve_values(self):
        spec = MeanFunctionSpec("true_model")
        theta = [3.25, 0.2]
        assert mean_values(spec, theta, 0.0) == pytest.approx(0.2, abs=1e-15)
        assert mean_values(spec, theta, 1.0) == pytest.approx(TM_AT_1, abs=1e-12)
        # upper limit theta2 + 1 as x grows
        assert mean_values(spec, theta, 1e6) == pytest.approx(1.2, abs=1e-12)

    def test_polynomials(self):
        assert mean_values(MeanFunctionSpec("linear"), [1.5, -2.0], 3.0) == pytest.approx(-4.5)
        quadratic = MeanFunctionSpec("quadratic")
        assert mean_values(quadratic, [1.0, 0.5, 0.25], 2.0) == pytest.approx(3.0)

    def test_exponential_forms(self):
        t1, t2, t3 = 2.0, 1.2, 0.3
        x = 0.7
        sat = 1.0 - math.exp(-t1 * x)
        assert mean_values(MeanFunctionSpec("exp2"), [t1, t2], x) == pytest.approx(t2 * sat)
        exp3 = MeanFunctionSpec("exp3")
        assert mean_values(exp3, [t1, t2, t3], x) == pytest.approx(t3 + t2 * sat)

    def test_michaelis_menten_half_saturation(self):
        t1, t2 = 4.0, 0.35
        assert mean_values(MeanFunctionSpec("michaelis_menten"), [t1, t2], t2) == pytest.approx(
            t1 / 2.0
        )

    def test_vectorized_over_grid_and_draws(self):
        spec = MeanFunctionSpec("true_model")
        grid = np.linspace(0.0, 1.0, 11)
        vals = mean_values(spec, [3.25, 0.2], grid)
        assert vals.shape == grid.shape
        draws = np.array([[3.25, 0.2], [1.0, 0.0]])
        at_one = mean_values(spec, draws, 1.0)
        assert at_one.shape == (2,)
        assert at_one[0] == pytest.approx(TM_AT_1)

    def test_two_feature_linear(self):
        spec = MeanFunctionSpec("linear", n_features=2)
        assert spec.parameter_count == 3
        assert mean_values(spec, [0.5, 1.0, -2.0], np.array([2.0, 3.0])) == pytest.approx(-3.5)

    def test_multi_feature_only_for_linear(self):
        with pytest.raises(ValueError):
            MeanFunctionSpec("quadratic", n_features=2)

    def test_saturating_curve_is_bounded(self):
        # strict upper bound tested where tanh has not yet saturated to 1.0
        # in float64 (argument below ~19)
        spec = MeanFunctionSpec("true_model")
        rng = np.random.default_rng(5)
        for _ in range(200):
            t1 = rng.uniform(0.1, 10.0)
            t2 = rng.uniform(-2.0, 2.0)
            x = rng.uniform(0.0, 30.0 / t1)
            v = mean_values(spec, [t1, t2], x)
            assert t2 <= v < t2 + 1.0


class TestLinks:
    def test_logistic_midpoint(self):
        assert apply_link("logit", 0.0) == pytest.approx(0.5)

    def test_logit_within_two_ulp_of_scipy_expit(self):
        u = np.linspace(-745.0, 745.0, 20001)
        np.testing.assert_array_max_ulp(apply_link("logit", u), special.expit(u), maxulp=2)

    def test_logit_saturates_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert apply_link("logit", -1000.0) == 0.0
            assert apply_link("logit", 1000.0) == 1.0
            np.testing.assert_array_equal(apply_link("logit", np.array([-1000.0, 1000.0])),
                                          [0.0, 1.0])

    def test_logit_of_a_scalar_is_a_float(self):
        assert type(apply_link("logit", 0.3)) is float

    def test_cloglog_at_zero(self):
        assert apply_link("cloglog", 0.0) == pytest.approx(CLOGLOG_AT_0, abs=1e-12)

    def test_softplus_at_zero(self):
        assert apply_link("softplus", 0.0) == pytest.approx(LN_2, abs=1e-12)

    def test_softplus_overflow_guard(self):
        assert apply_link("softplus", 40.0) == 40.0
        assert apply_link("softplus", 800.0) == 800.0
        # continuity at the cutoff: ln(1+e^30) - 30 < 1e-13
        assert abs(apply_link("softplus", 30.0 - 1e-9) - (30.0 - 1e-9)) < 1e-12

    def test_probit_is_normal_cdf(self):
        assert apply_link("probit", 1.959963984540054) == pytest.approx(0.975, abs=1e-9)

    def test_cauchit(self):
        assert apply_link("cauchit", 1.0) == pytest.approx(0.75, abs=1e-12)

    def test_unknown_link(self):
        with pytest.raises(ValueError):
            apply_link("relu", 1.0)

    def test_zero_one_links_bounded_and_increasing(self):
        # float64-representable ranges: beyond them the links saturate to
        # exactly 0.0 or 1.0
        ranges = {
            "logit": (-700.0, 36.0),
            "probit": (-37.0, 8.0),
            "cauchit": (-1e6, 1e6),
            "cloglog": (-700.0, 3.5),
        }
        for link in ZERO_ONE_LINKS:
            lo, hi = ranges[link]
            vals = apply_link(link, np.linspace(lo, hi, 4001))
            assert np.all((vals > 0.0) & (vals < 1.0)), link
            assert np.all(np.diff(vals) >= 0.0), link
            # strict on a coarser grid where float resolution allows
            coarse = apply_link(link, np.linspace(-5.0, min(hi, 5.0), 101))
            assert np.all(np.diff(coarse) > 0.0), link

    def test_symmetric_links(self):
        u = np.linspace(-8.0, 8.0, 201)
        for link in ("logit", "probit", "cauchit"):
            np.testing.assert_allclose(
                apply_link(link, u) + apply_link(link, -u), 1.0, atol=1e-12
            )

    def test_cloglog_is_asymmetric(self):
        u = 1.3
        assert apply_link("cloglog", u) + apply_link("cloglog", -u) != pytest.approx(1.0, abs=1e-3)

    def test_softplus_positive_and_increasing(self):
        u = np.linspace(-40.0, 40.0, 801)
        vals = apply_link("softplus", u)
        assert np.all(vals > 0.0)
        assert np.all(np.diff(vals) > 0.0)


class TestVarianceFunctions:
    def test_constant_returns_its_parameter(self):
        spec = VarianceFunctionSpec("constant")
        assert spec.link == "identity"
        for mu in (-3.0, 0.0, 7.5):
            assert sigma_values(spec, [0.1], mu) == pytest.approx(0.1)

    def test_linear_in_mu_softplus(self):
        spec = VarianceFunctionSpec("linear_in_mu")
        assert spec.link == "softplus"
        assert sigma_values(spec, [0.0, 0.0], 123.0) == pytest.approx(LN_2, abs=1e-12)
        assert sigma_values(spec, [-1.0, 2.0], 0.5) == pytest.approx(LN_2, abs=1e-12)

    def test_link_pairing_enforced(self):
        with pytest.raises(ValueError):
            VarianceFunctionSpec("constant", link="softplus")
        with pytest.raises(ValueError):
            VarianceFunctionSpec("linear_in_mu", link="identity")

    def test_always_positive(self):
        spec = VarianceFunctionSpec("linear_in_mu")
        rng = np.random.default_rng(17)
        for _ in range(500):
            theta = rng.normal(0.0, 3.0, 2)
            mu = rng.normal(0.0, 5.0)
            assert sigma_values(spec, theta, mu) > 0.0

    def test_vectorized_over_draws(self):
        spec = VarianceFunctionSpec("linear_in_mu")
        theta = np.array([[0.0, 0.0], [1.0, 1.0]])
        out = sigma_values(spec, theta, 0.0)
        assert out.shape == (2,)
        assert out[0] == pytest.approx(LN_2)
        assert out[1] == pytest.approx(softplus(1.0))
