"""Marginal-likelihood information criteria for variable selection in
Gaussian linear regression with general error covariance.

The package scores every column subset of a design matrix with a family of
information criteria built on the Bayesian marginal likelihood (normal or
flat coefficient prior) next to the classical comparators, picks the argmin,
and ships a reproducible Monte Carlo harness for consistency and
prediction-error experiments.
"""

__version__ = "0.1.0"

from .covariance import (
    CovarianceSpec,
    PriorScale,
    ScalarEstimate,
    estimate_lambda,
    estimate_phi_full_model,
)
from .criteria import (
    CRITERION_NAMES,
    NEEDS_PRIOR,
    aic,
    bic,
    dic,
    ic_pi1,
    ic_pi1_star,
    ic_pi2,
    ic_r,
    ic_r_star,
    ml,
    neg2_log_residual,
    ric,
    score,
)
from .exceptions import (
    BmlselectError,
    CandidateExplosionError,
    CovarianceError,
    DataParseError,
    DegenerateVarianceError,
    LambdaEstimationError,
    NoAdmissibleCandidateError,
    PenaltyUndefinedError,
    SaturatedModelError,
    SingularDesignError,
)
from .model_core import (
    CandidateModel,
    Dataset,
    WhitenedData,
    WhitenedFit,
    gls_fit,
    whiten,
)
from .selection import (
    SelectionOptions,
    enumerate_candidates,
    prediction_error,
    score_candidates,
    select,
)
from .simulation import (
    BETA_PATTERNS,
    DEFAULT_CRITERIA,
    Cell,
    CriterionSummary,
    ExperimentResult,
    ExperimentSpec,
    SimTruth,
    generate_dataset,
    run_experiment,
)

__all__ = [
    "__version__",
    "CovarianceSpec",
    "PriorScale",
    "ScalarEstimate",
    "estimate_lambda",
    "estimate_phi_full_model",
    "CRITERION_NAMES",
    "NEEDS_PRIOR",
    "aic",
    "bic",
    "dic",
    "ic_pi1",
    "ic_pi1_star",
    "ic_pi2",
    "ic_r",
    "ic_r_star",
    "ml",
    "ric",
    "score",
    "BmlselectError",
    "CandidateExplosionError",
    "CovarianceError",
    "DataParseError",
    "DegenerateVarianceError",
    "LambdaEstimationError",
    "NoAdmissibleCandidateError",
    "PenaltyUndefinedError",
    "SaturatedModelError",
    "SingularDesignError",
    "CandidateModel",
    "Dataset",
    "WhitenedData",
    "WhitenedFit",
    "gls_fit",
    "neg2_log_residual",
    "whiten",
    "SelectionOptions",
    "enumerate_candidates",
    "prediction_error",
    "score_candidates",
    "select",
    "BETA_PATTERNS",
    "DEFAULT_CRITERIA",
    "Cell",
    "CriterionSummary",
    "ExperimentResult",
    "ExperimentSpec",
    "SimTruth",
    "generate_dataset",
    "run_experiment",
]
