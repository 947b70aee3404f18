"""Exhaustive candidate enumeration, scoring, and argmin selection.

:func:`score_candidates` is a batched all-subsets engine: it whitens the
data and reduces it to one R factor once, then fits, estimates lambda for
and scores the candidates of each size as stacked batches, so the work per
candidate is array arithmetic rather than Python calls.  Each batch writes
straight into the (candidates x criteria) arrays of a :class:`ScoreTable`.
:meth:`ScoreTable.rank`, a stable sort of one criterion's admissible scores,
is the one ranking: :func:`report_from_table` takes its first position as the
selection, and the CLI's CSV writer reads it whole.  ``ScoreTable.rows`` is a
per-candidate view for the benchmark only.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

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


EXCLUSION_REASONS = ("", "singular design", "penalty undefined")
_SINGULAR, _UNDEFINED = 1, 2


@dataclass(frozen=True)
class CandidateScores:
    """One candidate of the :attr:`ScoreTable.rows` view."""

    model: CandidateModel
    scores: dict[str, float]
    excluded: dict[str, str]
    lambda_hat: float | None
    lambda_at_boundary: bool


@dataclass
class ScoreTable:
    """Every candidate's scores, in :func:`enumerate_candidates` order, and the
    whitened data (at phi_hat) they were computed from.  ``scores[i, j]`` is
    ``candidates[i]``'s ``criteria[j]`` where the code ``exclusion[i, j]`` is 0;
    ``EXCLUSION_REASONS`` decodes any other code.  ``lambda_hat`` is NaN where
    no scale was estimated."""

    candidates: list[CandidateModel]
    criteria: tuple[str, ...]
    scores: np.ndarray
    exclusion: np.ndarray
    lambda_hat: np.ndarray
    lambda_at_boundary: np.ndarray
    phi_hat: float | None = None
    phi_at_boundary: bool = False
    whitened: WhitenedData | None = None

    def rank(self, criterion: str) -> tuple[np.ndarray, np.ndarray]:
        """(ranked, excluded) positions for ``criterion``: the admissible ones
        ascending in score, ties and the excluded ones in candidate order."""
        if criterion not in self.criteria:
            raise ValueError(f"criterion {criterion!r} is not among the table's {self.criteria}")
        j = self.criteria.index(criterion)
        admissible = np.flatnonzero(self.exclusion[:, j] == 0)
        ranked = admissible[np.argsort(self.scores[admissible, j], kind="stable")]
        return ranked, np.flatnonzero(self.exclusion[:, j])

    @property
    def rows(self) -> list[CandidateScores]:
        """Per-candidate records built from the arrays on each read.  Only the
        benchmark reads them; the view goes with the next benchmark change."""
        rows = []
        for i, model in enumerate(self.candidates):
            codes = self.exclusion[i].tolist()
            named = list(zip(self.criteria, self.scores[i].tolist(), codes))
            lam = float(self.lambda_hat[i])
            rows.append(CandidateScores(
                model=model,
                scores={name: value for name, value, code in named if not code},
                excluded={name: EXCLUSION_REASONS[code] for name, _, code in named if code},
                lambda_hat=None if np.isnan(lam) else lam,
                lambda_at_boundary=bool(self.lambda_at_boundary[i]),
            ))
        return rows


@dataclass
class SelectionReport:
    """Selection outcome for one criterion: the candidate that
    :meth:`ScoreTable.rank` puts first, and phi_hat.  The report carries only
    the selection; the full ranking and the exclusions stay in the table.
    """

    criterion: str
    selected: CandidateModel
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


def _score_batch(table: ScoreTable, batch: slice, options: SelectionOptions) -> None:
    """Score one batch of same-size candidates from ``table.whitened`` into
    ``table`` at the batch's positions.

    Rank-deficient candidates keep the "singular design" code the table
    starts with; a penalty that is undefined at this size excludes its
    criterion for the whole batch.  A degenerate fit or a failed lambda
    search raises; the batch is then scored again one position at a time,
    so that the error names the first candidate that fails.
    """
    models = table.candidates[batch]
    try:
        fit, lam_est = fit_candidate(table.whitened, models, options,
                                     _criteria.needs_prior(table.criteria))
        held = batch.start + fit.kept
        table.exclusion[held] = 0
        for j, name in enumerate(table.criteria):
            try:
                table.scores[held, j] = _criteria.score(name, fit)
            except PenaltyUndefinedError:
                table.exclusion[held, j] = _UNDEFINED
    except (DegenerateVarianceError, LambdaEstimationError) as exc:
        if len(models) == 1:
            raise type(exc)(f"candidate {models[0].label()}: {exc}") from exc
        for i in range(batch.start, batch.stop):
            _score_batch(table, slice(i, i + 1), options)
        raise
    if lam_est is not None:
        table.lambda_hat[held] = lam_est.value
        table.lambda_at_boundary[held] = lam_est.at_boundary


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
    candidates = enumerate_candidates(dataset.p_omega, opts.include_null)
    m = len(candidates)
    table = ScoreTable(
        candidates=candidates,
        criteria=criteria,
        scores=np.full((m, len(criteria)), np.nan),
        exclusion=np.full((m, len(criteria)), _SINGULAR, dtype=np.int8),
        lambda_hat=np.full(m, np.nan),
        lambda_at_boundary=np.zeros(m, dtype=bool),
        phi_hat=None if phi_est is None else phi_est.value,
        phi_at_boundary=False if phi_est is None else phi_est.at_boundary,
        whitened=wd,
    )
    # Each size is a run of positions, scored in batches whose stacked
    # (p_omega + 1) x (p + 1) QR inputs fit in BATCH_ELEMENTS.
    start = 0
    for size, run in itertools.groupby(candidates, key=lambda cand: cand.p):
        stop = start + sum(1 for _ in run)
        step = max(1, BATCH_ELEMENTS // ((dataset.p_omega + 1) * (size + 1)))
        for lo in range(start, stop, step):
            _score_batch(table, slice(lo, min(lo + step, stop)), opts)
        start = stop
    return table


def report_from_table(table: ScoreTable, criterion: str) -> SelectionReport:
    """Build the single-criterion report from :meth:`ScoreTable.rank`."""
    ranked, _ = table.rank(criterion)
    if not ranked.size:
        raise NoAdmissibleCandidateError(f"no admissible candidate for {criterion}")
    return SelectionReport(
        criterion=criterion,
        selected=table.candidates[ranked[0]],
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
    diff = x_full[:, list(model.zero_based)] @ beta_hat - mu_true
    return float(diff @ diff) / x_full.shape[0]
