"""The public surface: every result field and constructor parameter has a reader,
and the demo models carry their documented priors."""

import dataclasses
import inspect

import pytest

from ppmkit import Dataset, PosteriorDraws, demo
from ppmkit.distributions import normal, normal_logpdf, student_t_logpdf, truncated_normal
from ppmkit.functions import MEAN_FORMS, MeanFunctionSpec, VarianceFunctionSpec
from ppmkit.inference import ModelSpec
from ppmkit.prediction import PredictionInterval, WidthTable
from ppmkit.uncertainty import BoundaryBand

SATURATING_FORMS = ("exp2", "exp3", "true_model", "michaelis_menten")


@pytest.mark.parametrize("cls, names", [
    (Dataset, ["x", "y", "x_se", "y_se"]),
    (PredictionInterval, ["lower", "upper"]),
    (WidthTable, ["x", "widths"]),
    (BoundaryBand, ["x1", "lower", "upper"]),
], ids=lambda v: v.__name__ if isinstance(v, type) else None)
def test_result_fields(cls, names):
    assert [f.name for f in dataclasses.fields(cls)] == names


def test_posterior_draws_has_no_test_only_members():
    assert not hasattr(PosteriorDraws, "n_chains")
    assert not hasattr(PosteriorDraws, "column")
    assert hasattr(PosteriorDraws, "by_chain")


@pytest.mark.parametrize("func, params", [
    (Dataset.from_csv, ["path"]),
    (demo.running_example, ["n", "seed"]),
    (demo.heteroscedastic_example, ["seed"]),
    (demo.measurement_error_example, ["seed"]),
    (demo.regression_model, ["form"]),
    (demo.variance_trend_model, []),
    (normal_logpdf, ["y", "mu", "sigma"]),
    (student_t_logpdf, ["y", "mu", "sigma", "df"]),
], ids=lambda v: getattr(v, "__name__", None))
def test_constructor_parameters(func, params):
    assert list(inspect.signature(func).parameters) == params


def test_demo_datasets_have_a_hundred_rows():
    assert demo.heteroscedastic_example().n == 100
    assert demo.measurement_error_example().n == 100


@pytest.mark.parametrize("form", MEAN_FORMS)
def test_regression_model_priors(form):
    k = MeanFunctionSpec(form).parameter_count
    if form in SATURATING_FORMS:
        mean_priors = (truncated_normal(0.0, 5.0, lower=0.0),) + (normal(0.0, 2.0),) * (k - 1)
        if form == "michaelis_menten":  # Km is bounded at 0
            mean_priors = mean_priors[:1] + (truncated_normal(0.0, 2.0, lower=0.0),)
    else:
        mean_priors = (normal(0.0, 5.0),) * k
    expected = ModelSpec(
        mean=MeanFunctionSpec(form),
        variance=VarianceFunctionSpec("constant"),
        priors=mean_priors + (truncated_normal(0.0, 2.0, lower=0.0),),
        name=form,
    )
    assert demo.regression_model(form) == expected


def test_variance_trend_model_priors():
    expected = ModelSpec(
        mean=MeanFunctionSpec("true_model"),
        variance=VarianceFunctionSpec("linear_in_mu"),
        priors=(truncated_normal(0.0, 5.0, lower=0.0), normal(0.0, 2.0),
                normal(0.0, 5.0), normal(0.0, 5.0)),
        name="true_model+scale-trend",
    )
    assert demo.variance_trend_model() == expected
