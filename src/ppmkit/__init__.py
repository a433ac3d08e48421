"""Probabilistic predictive models for regression and classification.

Fit nonlinear models by adaptive MCMC, push the full parameter posterior
into predictive distributions, and quantify where the uncertainty comes
from: the mean function (model averaging), the parameters (Bayesian vs
plug-in), the hyperparameters and seeds (ensembles), the data (measurement
error in training rows and test inputs), the outcome distribution
(Student-t and truncated variants), the link, and the variance function.
"""

from .distributions import (
    DistributionSpec,
    bernoulli,
    normal,
    student_t,
    truncated_normal,
)
from .functions import (
    LINKS,
    MEAN_FORMS,
    MeanFunctionSpec,
    VarianceFunctionSpec,
    apply_link,
    softplus,
)
from .inference import (
    Diagnostics,
    DiagnosticsError,
    FitConfig,
    FitError,
    ModelSpec,
    PosteriorDraws,
    default_priors,
    diagnostics,
    fit,
    fit_ensemble,
    log_posterior,
    plug_in_fit,
)
from .prediction import (
    PredictionInterval,
    PredictiveDistribution,
    WidthTable,
    average_predictions,
    interval,
    pi_width_curve,
    plug_in_predictive,
    posterior_predictive,
    prob_exceeds,
)
from .simulate import (
    Dataset,
    simulate_classification,
    simulate_dataset,
    subsample_every_kth,
    true_mean,
)
from .uncertainty import (
    BoundaryBand,
    ClassificationUncertainty,
    MeasuredValue,
    classify_predictive,
    decision_boundary_band,
    decompose_uncertainty,
    generate_datasets,
    pool_ensemble_predictions,
    propagate_test_error,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryBand",
    "ClassificationUncertainty",
    "Dataset",
    "Diagnostics",
    "DiagnosticsError",
    "DistributionSpec",
    "FitConfig",
    "FitError",
    "LINKS",
    "MEAN_FORMS",
    "MeanFunctionSpec",
    "MeasuredValue",
    "ModelSpec",
    "PosteriorDraws",
    "PredictionInterval",
    "PredictiveDistribution",
    "VarianceFunctionSpec",
    "WidthTable",
    "apply_link",
    "average_predictions",
    "bernoulli",
    "classify_predictive",
    "decision_boundary_band",
    "decompose_uncertainty",
    "default_priors",
    "diagnostics",
    "fit",
    "fit_ensemble",
    "generate_datasets",
    "interval",
    "log_posterior",
    "normal",
    "pi_width_curve",
    "plug_in_fit",
    "plug_in_predictive",
    "pool_ensemble_predictions",
    "posterior_predictive",
    "prob_exceeds",
    "propagate_test_error",
    "simulate_classification",
    "simulate_dataset",
    "softplus",
    "student_t",
    "subsample_every_kth",
    "true_mean",
    "truncated_normal",
]
