"""Exhaustive candidate enumeration, scoring, and argmin selection.

The candidates are the rows of one boolean membership array: every subset
(:func:`enumerate_candidates`), or any rows a caller passes, such as the
full model alone that ``bmlselect criteria`` scores.  :func:`_score_block`
estimates phi, whitens the data and reduces it to one R factor once per
dataset of a block (one dataset for :func:`score_candidates`, a cell's
replications for the simulation), stacks the factors into one
:class:`~bmlselect.model_core.WhitenedData`, then fits, estimates
lambda for and scores each run of same-size rows across the block as
stacked batches, writing straight into the (candidates x criteria) arrays
of one :class:`ScoreTable` per dataset, the one record of a selection.
This is the one scoring path.  :meth:`ScoreTable.rank` is the one ranking and
:meth:`ScoreTable.excluded` the one decoder of the exclusion codes.  One
decoder turns a run of same-size membership rows into their column
indices; the engine, :meth:`ScoreTable.candidate` and
:meth:`ScoreTable.labels` all read rows through it.  :func:`prediction_error`
is the one loss, read from the table's one-dataset whitened data.
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
from .model_core import (
    CandidateModel,
    Dataset,
    WhitenedData,
    candidate_label,
    gls_fit,
    whiten,
)

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
    ``lambda_hat`` is NaN where no scale was estimated.  The block table of
    :func:`_score_block` holds the rows of several datasets, one after
    another, and their stacked :class:`~bmlselect.model_core.WhitenedData`."""

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
        return CandidateModel(tuple(_columns(self.members[i][None])[0].tolist()))

    def labels(self) -> list[str]:
        """Every row's label, decoded one run of same-size rows at a time."""
        runs = np.flatnonzero(np.diff(self.members.sum(axis=1))) + 1
        return [candidate_label(row) for run in np.split(self.members, runs)
                for row in _columns(run).tolist()]

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


def _columns(members: np.ndarray) -> np.ndarray:
    """The (rows x k) 1-based column indices of membership rows of k columns each."""
    return members.nonzero()[1].reshape(len(members), -1) + 1


def _score_batch(table: ScoreTable, pos: np.ndarray, options: SelectionOptions) -> None:
    """Score one batch of same-size candidates into the rows ``pos`` of a
    block table (:func:`_score_block`), whose row r m + i holds candidate i
    of its m ``members`` on dataset r of its ``whitened`` record: fit them, then
    give the fit its prior scale (:func:`~bmlselect.covariance.known_scale`,
    else the estimate), then score it.

    Rank-deficient candidates keep the "singular design" code the table
    starts with; a penalty that is undefined at this size excludes its
    criterion for the whole batch.  A degenerate fit or a failed lambda
    search raises; the batch is then scored again one row at a time,
    so that the error names the first candidate that fails.
    """
    rep, cand = np.divmod(pos, len(table.members))
    cols = _columns(table.members[cand])
    try:
        fit, lam_est = gls_fit(table.whitened, cols, rep), None
        if _criteria.needs_prior(table.criteria):
            prior = known_scale(fit, options.prior_kind, options.lam)
            if prior is None:
                lam_est = _covariance.estimate_lambda(fit, options.prior_kind)
                prior = PriorScale(options.prior_kind, lam_est.value)
            fit = fit.with_prior(prior)
        held = pos[fit.kept]
        table.exclusion[held] = 0
        for j, name in enumerate(table.criteria):
            try:
                table.scores[held, j] = _criteria.score(name, fit)
            except PenaltyUndefinedError:
                table.exclusion[held, j] = _UNDEFINED
    except (DegenerateVarianceError, LambdaEstimationError) as exc:
        if len(cols) == 1:
            raise type(exc)(f"candidate {table.candidate(int(cand[0])).label()}: {exc}") from exc
        for i in range(len(pos)):
            _score_batch(table, pos[i : i + 1], options)
        raise
    if lam_est is not None:
        table.lambda_hat[held] = lam_est.value
        table.lambda_at_boundary[held] = lam_est.at_boundary


def _score_block(
    datasets: tuple[Dataset, ...] | list[Dataset],
    criteria: tuple[str, ...] | list[str],
    options: SelectionOptions | None = None,
    members: np.ndarray | None = None,
) -> list[ScoreTable]:
    """:func:`score_candidates` for each of a block of datasets of one n and
    p_omega, such as the replications of one simulation cell, in one pass.

    Each dataset gets its own phi estimate, whitening and R factor; the
    factors are stacked (:meth:`~bmlselect.model_core.WhitenedData.stack`), and
    the arrays of the block table hold every dataset's rows one after
    another, the same ``members`` for each.  Each candidate size is then
    fitted, given its lambda and scored as one run of rows across the block.
    Every step acts row by row, so each dataset's table, a view of its rows,
    is the one :func:`score_candidates` gives it alone, bit for bit.
    """
    criteria = _criteria.check_names(criteria)
    opts = options or SelectionOptions()
    p_omega = datasets[0].p_omega
    if members is None:
        members = enumerate_candidates(p_omega, opts.include_null)
    members = np.asarray(members)
    if members.dtype != bool or members.ndim != 2 or members.shape[1] != p_omega:
        raise ValueError(f"members must be a 2-D boolean array with {p_omega} "
                         f"columns, not {members.dtype} of shape {members.shape}")
    sizes = members.sum(axis=1)
    if not sizes.size or np.any(np.diff(sizes) < 0):
        raise ValueError("members must hold at least one row, with sizes that never decrease")
    phi_ests, whitened = [], []
    for dataset in datasets:
        phi_ests.append(estimate_phi_full_model(dataset))
        if phi_ests[-1] is not None:
            dataset = replace(dataset, cov=dataset.cov.with_phi(phi_ests[-1].value))
        whitened.append(whiten(dataset))
    reps, m, c = len(datasets), len(members), len(criteria)
    block = ScoreTable(
        members=members,
        criteria=criteria,
        scores=np.full((reps * m, c), np.nan),
        exclusion=np.full((reps * m, c), _SINGULAR, dtype=np.int8),
        lambda_hat=np.full(reps * m, np.nan),
        lambda_at_boundary=np.zeros(reps * m, dtype=bool),
        whitened=WhitenedData.stack(whitened),
    )
    # Each size is a run of rows per dataset, scored across the block in
    # batches whose stacked (p_omega + 1) x (p + 1) QR inputs fit in BATCH_ELEMENTS.
    sizes, starts, counts = np.unique(sizes, return_index=True, return_counts=True)
    for size, start, count in zip(sizes.tolist(), starts.tolist(), counts.tolist()):
        pos = (np.arange(reps)[:, None] * m + np.arange(start, start + count)).ravel()
        step = max(1, BATCH_ELEMENTS // ((p_omega + 1) * (size + 1)))
        for lo in range(0, len(pos), step):
            _score_batch(block, pos[lo : lo + step], opts)
    return [
        ScoreTable(
            members=members,
            criteria=criteria,
            scores=block.scores[r * m : (r + 1) * m],
            exclusion=block.exclusion[r * m : (r + 1) * m],
            lambda_hat=block.lambda_hat[r * m : (r + 1) * m],
            lambda_at_boundary=block.lambda_at_boundary[r * m : (r + 1) * m],
            phi_hat=None if est is None else est.value,
            phi_at_boundary=False if est is None else est.at_boundary,
            whitened=wd,
        )
        for r, (est, wd) in enumerate(zip(phi_ests, whitened))
    ]


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
    fits raise, naming the candidate.  This is the block of one dataset of
    :func:`_score_block`.
    """
    return _score_block((dataset,), criteria, options, members)[0]


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


def prediction_error(whitened: WhitenedData, x_full: np.ndarray, selected: CandidateModel,
                     mu_true: np.ndarray) -> float:
    """Quadratic loss ||X_j beta_hat_j - mu*||^2 / n of candidate j on the original
    scale: X_j is its columns of ``x_full``, beta_hat_j its GLS fit on
    ``whitened``, the data whitened at phi_hat (a table's ``whitened``).
    The loss reads one dataset, so a record of more than one is refused."""
    if len(whitened.r0) != 1:
        raise ValueError(f"the loss reads one dataset, but the whitened record holds "
                         f"{len(whitened.r0)}")
    x_full = np.asarray(x_full, dtype=float)
    mu_true = np.asarray(mu_true, dtype=float).reshape(-1)
    if x_full.shape != (whitened.n, whitened.p_omega) or mu_true.shape != (whitened.n,):
        raise ValueError(f"x_full {x_full.shape} and mu_true {mu_true.shape} do not conform "
                         f"to the whitened data ({whitened.n} x {whitened.p_omega})")
    diff = x_full[:, list(selected.zero_based)] @ gls_fit(whitened, selected).beta_hat - mu_true
    return float(diff @ diff) / whitened.n
