"""Exhaustive candidate enumeration, scoring, and argmin selection."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from operator import itemgetter

import numpy as np

from . import criteria as _criteria
from .covariance import PriorScale, ScalarEstimate, check_prior, known_scale
from .covariance import estimate_lambda, estimate_phi_full_model
from .exceptions import (
    CandidateExplosionError,
    DegenerateVarianceError,
    LambdaEstimationError,
    NoAdmissibleCandidateError,
    PenaltyUndefinedError,
    SingularDesignError,
)
from .model_core import CandidateModel, Dataset, WhitenedData, WhitenedFit, gls_fit, whiten

MAX_P_OMEGA = 20


@dataclass(frozen=True)
class SelectionOptions:
    """Knobs shared by select(), score_candidates() and the CLI.

    ``lam=None`` re-estimates the prior scale per candidate (the default);
    a float fixes it for every candidate.  The prior choice is checked
    (:func:`~bmlselect.covariance.check_prior`) whatever criteria use it.
    """

    prior_kind: str = "ridge"
    lam: float | None = None
    include_null: bool = True

    def __post_init__(self):
        check_prior(self.prior_kind, self.lam)


@dataclass
class CandidateScores:
    """One scored candidate: criterion values plus per-criterion exclusions."""

    model: CandidateModel
    scores: dict[str, float] = field(default_factory=dict)
    excluded: dict[str, str] = field(default_factory=dict)
    beta_hat: np.ndarray | None = None
    lambda_hat: float | None = None
    lambda_at_boundary: bool = False


@dataclass
class ScoreTable:
    """Every candidate's scores, ``rows`` in :func:`enumerate_candidates` order."""

    rows: list[CandidateScores]
    criteria: tuple[str, ...]
    phi_hat: float | None = None
    phi_at_boundary: bool = False


@dataclass
class SelectionReport:
    """Selection outcome for one criterion.

    ``ranked`` is ascending in score, ties in candidate order (fewer columns,
    then lexicographic indices); ``selected`` is its first entry; candidates
    that could not be scored appear in ``excluded``, in candidate order, with
    a reason.
    """

    criterion: str
    ranked: list[tuple[CandidateModel, float]]
    selected: CandidateModel
    excluded: list[tuple[CandidateModel, str]]
    phi_hat: float | None = None
    phi_at_boundary: bool = False


def enumerate_candidates(p_omega: int, include_null: bool = True) -> list[CandidateModel]:
    """All column subsets of {1, ..., p_omega}, ordered by size then lexicographically.

    This order is the tie-break between equal scores.
    """
    if p_omega > MAX_P_OMEGA:
        raise CandidateExplosionError(
            f"candidate explosion: 2^{p_omega} subsets; restrict the design "
            f"to at most {MAX_P_OMEGA} columns"
        )
    start = 0 if include_null else 1
    out = []
    for size in range(start, p_omega + 1):
        for combo in itertools.combinations(range(1, p_omega + 1), size):
            out.append(CandidateModel(combo))
    return out


def resolve_whitened(dataset: Dataset) -> tuple[WhitenedData, ScalarEstimate | None]:
    """Estimate phi if needed and whiten; returns (whitened, phi_estimate)."""
    phi_est = estimate_phi_full_model(dataset)
    if phi_est is not None:
        dataset = replace(dataset, cov=dataset.cov.with_phi(phi_est.value))
    return whiten(dataset), phi_est


def fit_candidate(
    wd: WhitenedData,
    cand: CandidateModel,
    options: SelectionOptions,
    needs_prior: bool,
) -> tuple[WhitenedFit, ScalarEstimate | None]:
    """Fit one candidate, then estimate lambda on that fit, then apply the prior.

    Returns (fit, lambda_estimate); the fit records its prior scale, and the
    estimate is None where :func:`~bmlselect.covariance.known_scale` gives
    the scale.  Without ``needs_prior`` the fit carries no prior quantities.
    """
    fit = gls_fit(wd, cand)
    if not needs_prior:
        return fit, None
    prior, est = known_scale(fit, options.prior_kind, options.lam), None
    if prior is None:
        est = estimate_lambda(fit, options.prior_kind)
        prior = PriorScale(options.prior_kind, est.value)
    return fit.with_prior(prior), est


def score_candidates(
    dataset: Dataset,
    criteria: tuple[str, ...] | list[str],
    options: SelectionOptions | None = None,
) -> ScoreTable:
    """Score every candidate with every requested criterion.

    Rank-deficient candidates are excluded for all criteria; candidates with
    n - p - 2 <= 0 are excluded for the criteria whose penalty is undefined
    there.  Degenerate (interpolating) fits raise, naming the candidate.
    """
    criteria = _criteria.check_names(criteria)
    opts = options or SelectionOptions()
    wd, phi_est = resolve_whitened(dataset)
    needs_prior = _criteria.needs_prior(criteria)
    rows: list[CandidateScores] = []
    for cand in enumerate_candidates(dataset.p_omega, opts.include_null):
        row = CandidateScores(model=cand)
        rows.append(row)
        try:
            fit, lam_est = fit_candidate(wd, cand, opts, needs_prior)
            if lam_est is not None:
                row.lambda_hat, row.lambda_at_boundary = lam_est
            row.beta_hat = fit.beta_hat
            for name in criteria:
                try:
                    row.scores[name] = _criteria.score(name, fit)
                except PenaltyUndefinedError:
                    row.excluded[name] = "penalty undefined"
        except SingularDesignError:
            row.excluded = {name: "singular design" for name in criteria}
        except (DegenerateVarianceError, LambdaEstimationError) as exc:
            raise type(exc)(f"candidate {cand.label()}: {exc}") from exc
    return ScoreTable(
        rows=rows,
        criteria=criteria,
        phi_hat=None if phi_est is None else phi_est.value,
        phi_at_boundary=False if phi_est is None else phi_est.at_boundary,
    )


def report_from_table(table: ScoreTable, criterion: str) -> SelectionReport:
    """Build the single-criterion report; a stable sort keeps ties in table order."""
    scored = [
        (row.model, row.scores[criterion]) for row in table.rows if criterion in row.scores
    ]
    excluded = [
        (row.model, row.excluded[criterion]) for row in table.rows if criterion in row.excluded
    ]
    if not scored:
        raise NoAdmissibleCandidateError(f"no admissible candidate for {criterion}")
    ranked = sorted(scored, key=itemgetter(1))
    return SelectionReport(
        criterion=criterion,
        ranked=ranked,
        selected=ranked[0][0],
        excluded=excluded,
        phi_hat=table.phi_hat,
        phi_at_boundary=table.phi_at_boundary,
    )


def select(
    dataset: Dataset,
    criterion: str,
    options: SelectionOptions | None = None,
) -> SelectionReport:
    """Score the power set of columns and pick the criterion's argmin."""
    table = score_candidates(dataset, (criterion,), options)
    return report_from_table(table, criterion)


def prediction_error(
    selected: CandidateModel,
    dataset: Dataset,
    truth: tuple[np.ndarray, np.ndarray],
    phi_hat: float | None = None,
) -> float:
    """Quadratic loss ||X_j beta_hat_j - X* beta*||^2 / n of the selected model.

    ``beta_hat_j`` is the GLS estimator under V(phi_hat); the loss itself is
    the plain Euclidean norm on the original (unwhitened) scale.
    """
    x_true, beta_true = truth
    x_true = np.asarray(x_true, dtype=float)
    beta_true = np.asarray(beta_true, dtype=float).reshape(-1)
    if x_true.shape != (dataset.n, beta_true.shape[0]):
        raise ValueError("truth dimensions do not conform to the dataset")
    cov = dataset.cov
    if phi_hat is not None and cov.kind in ("ar1", "nerm"):
        cov = cov.with_phi(phi_hat)
    fit = gls_fit(whiten(replace(dataset, cov=cov)), selected)
    return _quadratic_loss(dataset.x_full, selected, fit.beta_hat, x_true @ beta_true)


def _quadratic_loss(
    x_full: np.ndarray, model: CandidateModel, beta_hat: np.ndarray, mu_true: np.ndarray
) -> float:
    """||X_j beta_hat_j - mu*||^2 / n for candidate j's columns of ``x_full``."""
    diff = x_full[:, model.zero_based] @ beta_hat - mu_true if model.p else -mu_true
    return float(diff @ diff) / x_full.shape[0]
