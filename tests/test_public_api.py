import bmlselect

# Every public name, in the order of ``bmlselect.__all__``.  Adding or
# removing one is an API change and must show in this list.
PUBLIC_API = [
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


def test_public_api_is_pinned():
    assert bmlselect.__all__ == PUBLIC_API
    missing = [name for name in PUBLIC_API if not hasattr(bmlselect, name)]
    assert missing == []
