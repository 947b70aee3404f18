"""Exhaustive candidate enumeration, scoring, and argmin selection.

The candidates are the rows of one boolean membership array: every subset
(:func:`enumerate_candidates`), or any rows a caller passes, such as the
full model alone that ``bmlselect criteria`` scores.  :func:`score_candidates`
estimates phi, whitens the data and reduces it to one R factor once, then
fits, estimates lambda for and scores each run of same-size rows as stacked
batches, writing straight into the (candidates x criteria) arrays of a
:class:`ScoreTable`, the one record of a selection.  This is the one
scoring path.  :meth:`ScoreTable.rank` is the one ranking,
:meth:`ScoreTable.candidate` the one decoder of a row into a
:class:`~bmlselect.model_core.CandidateModel`, and
:meth:`ScoreTable.excluded` the one decoder of the exclusion codes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from . import covariance as _covariance
from . import criteria as _criteria
from .covariance import BATCH_ELEMENTS, PriorScale, check_prior, known_scale
from .covariance import estimate_phi_full_model
# Kept importable from here because perfbench/spans.py wraps this name;
# _score_batch reads the covariance module's function, which also takes batches.
from .covariance import estimate_lambda  # noqa: F401
from .exceptions import (
    CandidateExplosionError,
    DegenerateVarianceError,
    LambdaEstimationError,
    NoAdmissibleCandidateError,
    PenaltyUndefinedError,
)
from .model_core import CandidateModel, Dataset, WhitenedData, gls_fit, whiten

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


@dataclass
class ScoreTable:
    """Every candidate's scores and the whitened data (at phi_hat) they were
    computed from.  Row ``i`` of every array is one candidate: ``members[i]``
    marks its columns (:func:`enumerate_candidates` order, decoded by
    :meth:`candidate`), and ``scores[i, j]`` is its ``criteria[j]`` where the
    code ``exclusion[i, j]`` is 0; :meth:`excluded` decodes any other code.
    ``lambda_hat`` is NaN where no scale was estimated."""

    members: np.ndarray
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

    def candidate(self, i: int) -> CandidateModel:
        """The candidate of row ``i``."""
        return CandidateModel(tuple((np.flatnonzero(self.members[i]) + 1).tolist()))

    def excluded(self, i: int) -> dict[str, str]:
        """{criterion: reason} for each criterion that excludes candidate ``i``."""
        codes = self.exclusion[i].tolist()
        return {name: EXCLUSION_REASONS[code] for name, code in zip(self.criteria, codes) if code}

    @property
    def rows(self) -> list[SimpleNamespace]:
        """One record per candidate, holding only ``excluded``, built on each
        read.  Only the benchmark reads them."""
        return [SimpleNamespace(excluded=self.excluded(i)) for i in range(len(self.scores))]


def enumerate_candidates(p_omega: int, include_null: bool = True) -> np.ndarray:
    """The (candidates x p_omega) boolean membership array of all column
    subsets of {1, ..., p_omega}, ordered by size then lexicographically.

    This order is the tie-break between equal scores.
    """
    if p_omega > MAX_P_OMEGA:
        raise CandidateExplosionError(
            f"candidate explosion: 2^{p_omega} subsets; restrict the design "
            f"to at most {MAX_P_OMEGA} columns"
        )
    # The null row stands apart: fromiter refuses a zero-width subarray dtype.
    blocks = [np.zeros((int(include_null), p_omega), dtype=bool)]
    for size in range(1, p_omega + 1):
        cols = np.fromiter(itertools.combinations(range(p_omega), size),
                           dtype=(np.intp, size), count=math.comb(p_omega, size))
        blocks.append(np.zeros((len(cols), p_omega), dtype=bool))
        np.put_along_axis(blocks[-1], cols, True, axis=1)
    return np.concatenate(blocks)


def _score_batch(table: ScoreTable, batch: slice, options: SelectionOptions) -> None:
    """Score one batch of same-size candidates from ``table.whitened`` into
    ``table`` at the batch's positions: fit them, then give the fit its
    prior scale (:func:`~bmlselect.covariance.known_scale`, else the
    estimate), then score it.

    Rank-deficient candidates keep the "singular design" code the table
    starts with; a penalty that is undefined at this size excludes its
    criterion for the whole batch.  A degenerate fit or a failed lambda
    search raises; the batch is then scored again one position at a time,
    so that the error names the first candidate that fails.
    """
    cols = table.members[batch].nonzero()[1].reshape(batch.stop - batch.start, -1) + 1
    try:
        fit, lam_est = gls_fit(table.whitened, cols), None
        if _criteria.needs_prior(table.criteria):
            prior = known_scale(fit, options.prior_kind, options.lam)
            if prior is None:
                lam_est = _covariance.estimate_lambda(fit, options.prior_kind)
                prior = PriorScale(options.prior_kind, lam_est.value)
            fit = fit.with_prior(prior)
        held = batch.start + fit.kept
        table.exclusion[held] = 0
        for j, name in enumerate(table.criteria):
            try:
                table.scores[held, j] = _criteria.score(name, fit)
            except PenaltyUndefinedError:
                table.exclusion[held, j] = _UNDEFINED
    except (DegenerateVarianceError, LambdaEstimationError) as exc:
        if len(cols) == 1:
            raise type(exc)(f"candidate {table.candidate(batch.start).label()}: {exc}") from exc
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
    members: np.ndarray | None = None,
) -> ScoreTable:
    """Score every candidate with every requested criterion.

    The candidates are the rows of ``members``, by default every subset
    (:func:`enumerate_candidates`, with or without the null model as
    ``options.include_null`` says).  A given ``members`` must be a 2-D
    boolean array with ``dataset.p_omega`` columns, at least one row, and
    row sizes that never decrease, since each size is scored as one run of
    rows; else ``ValueError``.  Rank-deficient candidates are excluded for
    all criteria; candidates with n - p - 2 <= 0 are excluded for the
    criteria whose penalty is undefined there.  Degenerate (interpolating)
    fits raise, naming the candidate.
    """
    criteria = _criteria.check_names(criteria)
    opts = options or SelectionOptions()
    if members is None:
        members = enumerate_candidates(dataset.p_omega, opts.include_null)
    members = np.asarray(members)
    if members.dtype != bool or members.ndim != 2 or members.shape[1] != dataset.p_omega:
        raise ValueError(f"members must be a 2-D boolean array with {dataset.p_omega} "
                         f"columns, not {members.dtype} of shape {members.shape}")
    sizes = members.sum(axis=1)
    if not sizes.size or np.any(np.diff(sizes) < 0):
        raise ValueError("members must hold at least one row, with sizes that never decrease")
    phi_est = estimate_phi_full_model(dataset)
    if phi_est is not None:
        dataset = replace(dataset, cov=dataset.cov.with_phi(phi_est.value))
    m = len(members)
    table = ScoreTable(
        members=members,
        criteria=criteria,
        scores=np.full((m, len(criteria)), np.nan),
        exclusion=np.full((m, len(criteria)), _SINGULAR, dtype=np.int8),
        lambda_hat=np.full(m, np.nan),
        lambda_at_boundary=np.zeros(m, dtype=bool),
        phi_hat=None if phi_est is None else phi_est.value,
        phi_at_boundary=False if phi_est is None else phi_est.at_boundary,
        whitened=whiten(dataset),
    )
    # Each size is a run of rows, scored in batches whose stacked
    # (p_omega + 1) x (p + 1) QR inputs fit in BATCH_ELEMENTS.
    sizes, starts, counts = np.unique(sizes, return_index=True, return_counts=True)
    for size, start, count in zip(sizes.tolist(), starts.tolist(), counts.tolist()):
        step = max(1, BATCH_ELEMENTS // ((dataset.p_omega + 1) * (size + 1)))
        for lo in range(start, start + count, step):
            _score_batch(table, slice(lo, min(lo + step, start + count)), opts)
    return table


def report_from_table(table: ScoreTable, criterion: str) -> CandidateModel:
    """The candidate that :meth:`ScoreTable.rank` puts first for ``criterion``."""
    ranked, _ = table.rank(criterion)
    if not ranked.size:
        raise NoAdmissibleCandidateError(f"no admissible candidate for {criterion}")
    return table.candidate(int(ranked[0]))


def select(
    dataset: Dataset,
    criterion: str,
    options: SelectionOptions | None = None,
) -> CandidateModel:
    """Score the power set of columns and return the criterion's argmin."""
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
