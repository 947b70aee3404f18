"""Exhaustive candidate enumeration, scoring, and argmin selection.

:func:`score_candidates` is a batched all-subsets engine: it whitens the
data and reduces it to one R factor once, then fits, estimates lambda for
and scores the candidates of each size as stacked batches, so the work per
candidate is array arithmetic rather than Python calls.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from operator import itemgetter

import numpy as np

from . import covariance as _covariance
from . import criteria as _criteria
from .covariance import BATCH_ELEMENTS, PriorScale, ScalarEstimate, check_prior, known_scale
from .covariance import estimate_phi_full_model
# Importable from here for code that wraps the single-candidate lambda step;
# fit_candidate reads the covariance module's function, which also takes batches.
from .covariance import estimate_lambda  # noqa: F401
from .exceptions import (
    CandidateExplosionError,
    DegenerateVarianceError,
    LambdaEstimationError,
    NoAdmissibleCandidateError,
    PenaltyUndefinedError,
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
    lambda_hat: float | None = None
    lambda_at_boundary: bool = False


@dataclass
class ScoreTable:
    """Every candidate's scores, ``rows`` in :func:`enumerate_candidates` order,
    and the whitened data (at phi_hat) they were computed from."""

    rows: list[CandidateScores]
    criteria: tuple[str, ...]
    phi_hat: float | None = None
    phi_at_boundary: bool = False
    whitened: WhitenedData | None = None


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
    cand: CandidateModel | list[CandidateModel],
    options: SelectionOptions,
    needs_prior: bool,
) -> tuple[WhitenedFit, ScalarEstimate | None]:
    """Fit one candidate, or a batch of same-size candidates (see
    :func:`~bmlselect.model_core.gls_fit`), then estimate lambda on that
    fit, then apply the prior.

    Returns (fit, lambda_estimate); the fit records its prior scale, and the
    estimate is None where :func:`~bmlselect.covariance.known_scale` gives
    the scale.  Without ``needs_prior`` the fit carries no prior quantities.
    """
    fit = gls_fit(wd, cand)
    if not needs_prior:
        return fit, None
    prior, est = known_scale(fit, options.prior_kind, options.lam), None
    if prior is None:
        est = _covariance.estimate_lambda(fit, options.prior_kind)
        prior = PriorScale(options.prior_kind, est.value)
    return fit.with_prior(prior), est


def _batches(rows: list[CandidateScores], p_omega: int):
    """Runs of same-size rows in table order, each small enough that its
    stacked (p_omega + 1) x (p + 1) QR inputs fit in ``BATCH_ELEMENTS``."""
    for size, run in itertools.groupby(rows, key=lambda row: row.model.p):
        run = list(run)
        step = max(1, BATCH_ELEMENTS // ((p_omega + 1) * (size + 1)))
        for lo in range(0, len(run), step):
            yield run[lo : lo + step]


def _score_batch(
    wd: WhitenedData,
    rows: list[CandidateScores],
    criteria: tuple[str, ...],
    options: SelectionOptions,
    needs_prior: bool,
) -> None:
    """Fill the rows of one batch of same-size candidates.

    Rank-deficient candidates are excluded for all criteria; a penalty that
    is undefined at this size excludes its criterion for the whole batch.
    A degenerate fit or a failed lambda search raises; the batch is then
    scored again one candidate at a time so that the error names the first
    candidate that fails.
    """
    try:
        fit, lam_est = fit_candidate(wd, [row.model for row in rows], options, needs_prior)
        scores = {}
        for name in criteria:
            try:
                scores[name] = _criteria.score(name, fit).tolist()
            except PenaltyUndefinedError:
                pass
    except (DegenerateVarianceError, LambdaEstimationError) as exc:
        if len(rows) == 1:
            raise type(exc)(f"candidate {rows[0].model.label()}: {exc}") from exc
        for row in rows:
            _score_batch(wd, [row], criteria, options, needs_prior)
        raise
    undefined = [name for name in criteria if name not in scores]
    lam = None if lam_est is None else (lam_est.value.tolist(), lam_est.at_boundary.tolist())
    held = {i: j for j, i in enumerate(fit.kept.tolist())}
    for i, row in enumerate(rows):
        j = held.get(i)
        if j is None:
            row.excluded = dict.fromkeys(criteria, "singular design")
            continue
        row.scores = {name: values[j] for name, values in scores.items()}
        row.excluded = dict.fromkeys(undefined, "penalty undefined")
        if lam is not None:
            row.lambda_hat, row.lambda_at_boundary = lam[0][j], lam[1][j]


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
    rows = [CandidateScores(model=cand)
            for cand in enumerate_candidates(dataset.p_omega, opts.include_null)]
    for batch in _batches(rows, dataset.p_omega):
        _score_batch(wd, batch, criteria, opts, needs_prior)
    return ScoreTable(
        rows=rows,
        criteria=criteria,
        phi_hat=None if phi_est is None else phi_est.value,
        phi_at_boundary=False if phi_est is None else phi_est.at_boundary,
        whitened=wd,
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
    return _quadratic_loss(whiten(replace(dataset, cov=cov)), dataset.x_full, selected,
                           x_true @ beta_true)


def _quadratic_loss(
    wd: WhitenedData, x_full: np.ndarray, model: CandidateModel, mu_true: np.ndarray
) -> float:
    """||X_j beta_hat_j - mu*||^2 / n for candidate j's columns of ``x_full``,
    with beta_hat_j the GLS fit of j on the whitened data ``wd``."""
    beta_hat = gls_fit(wd, model).beta_hat
    diff = x_full[:, model.zero_based] @ beta_hat - mu_true if model.p else -mu_true
    return float(diff @ diff) / x_full.shape[0]
