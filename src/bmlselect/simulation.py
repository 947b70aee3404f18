"""Monte Carlo harness: data generation with SNR control, replication loops,
true-model selection counts, and mean prediction error per criterion.

Determinism contract: the RNG stream of every replication is derived from
(master_seed, cell_index, replication_index) through ``numpy``'s
SeedSequence.  ``_run_block`` is the one path from a draw to an outcome: it
scores consecutive replications of one cell as a block (at most
``REPLICATION_BLOCK``, fewer with a pool) with one engine call per
candidate size (:func:`~bmlselect.selection._score_block`), whose every
step acts row by row; so a replication's outcome is bit-identical whatever
block holds it, and results are bit-identical for any worker count.  A
single replication is the block of one (``_run_replication``).  Worker
processes are capped by the BMLSELECT_THREADS environment variable and by
the number of blocks; one pool serves every block of a grid.  If a package
error stops a block, its replications run again as blocks of one, and the
first that fails raises the same type with (master_seed, cell, replication)
prepended, so a single ``_run_replication`` call reproduces it.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from itertools import product
from multiprocessing import get_context

import numpy as np

from .covariance import CovarianceSpec, check_prior, is_int, make_whitener
from .criteria import check_names
from .exceptions import BmlselectError
from .model_core import CandidateModel, Dataset
from .selection import SelectionOptions, _score_block, prediction_error, report_from_table
# Kept importable from here because perfbench/spans.py wraps this name.
from .selection import score_candidates  # noqa: F401

MODEL_KINDS = ("constant_variance", "ar1", "nerm")

BETA_PATTERNS = {
    "four_ones": (1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0),
    "two_ones": (1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0),
}

# Most replications of one cell that run_experiment scores as one block.
REPLICATION_BLOCK = 64

# The comparison set used by the experiment defaults.
DEFAULT_CRITERIA = ("ic_pi1", "ic_r", "aic", "bic", "dic", "ml")


def _real(value, name: str) -> float:
    """``value`` as a float, refusing None and bools (as :func:`is_int` refuses bools)."""
    if value is None or isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class Cell:
    n: int
    snr: float
    index: int


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment grid: model kind x n_grid x snr_grid, fixed truth pattern."""

    model_kind: str = "constant_variance"
    n_grid: tuple[int, ...] = (20, 40, 80)
    snr_grid: tuple[float, ...] = (1.0, 3.0, 5.0)
    beta_pattern: str = "four_ones"
    replications: int = 1000
    criteria: tuple[str, ...] = DEFAULT_CRITERIA
    master_seed: int = 0
    phi_true: float = 0.5
    nerm_group_size: int = 4
    include_null: bool = True
    prior_kind: str = "ridge"

    def __post_init__(self):
        if self.model_kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.model_kind!r}")
        if self.beta_pattern not in BETA_PATTERNS:
            raise ValueError(f"unknown beta pattern {self.beta_pattern!r}")
        for name, low in (("replications", 1), ("master_seed", 0), ("nerm_group_size", 1)):
            value = getattr(self, name)
            if not is_int(value) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value}")
            object.__setattr__(self, name, int(value))
        # n <= p_omega leaves the full design rank deficient or interpolating,
        # and an infinite SNR leaves no noise: every replication would fail.
        bad_n = [n for n in self.n_grid if not is_int(n) or n <= self.p_omega]
        if bad_n:
            raise ValueError(
                f"n_grid values must be integers greater than p_omega = {self.p_omega}, "
                f"got {bad_n}"
            )
        object.__setattr__(self, "phi_true", _real(self.phi_true, "phi_true"))
        snr_grid = tuple(_real(s, "snr_grid") for s in self.snr_grid)
        bad_snr = [s for s in snr_grid if not (math.isfinite(s) and s > 0)]
        if bad_snr:
            raise ValueError(f"snr_grid values must be finite and positive, got {bad_snr}")
        # An empty grid writes no result row; a repeated value, rows no reader tells apart.
        for name, grid in (("n_grid", self.n_grid), ("snr_grid", snr_grid)):
            if not grid or len(set(grid)) < len(grid):
                raise ValueError(f"{name} must hold at least one value, none repeated, got {grid}")
        check_prior(self.prior_kind)
        object.__setattr__(self, "criteria", check_names(self.criteria))
        object.__setattr__(self, "n_grid", tuple(int(n) for n in self.n_grid))
        object.__setattr__(self, "snr_grid", snr_grid)
        if self.model_kind == "nerm":
            bad = [n for n in self.n_grid if n % self.nerm_group_size != 0]
            if bad:
                raise ValueError(
                    f"nerm group size {self.nerm_group_size} does not divide n in {bad}"
                )
        # Build the true covariance spec at every n, so a bad phi_true fails
        # before any replication (V itself is built per replication).
        for n in self.n_grid:
            self.covariance(n, self.phi_true)

    @property
    def beta_true_full(self) -> np.ndarray:
        return np.asarray(BETA_PATTERNS[self.beta_pattern], dtype=float)

    @property
    def p_omega(self) -> int:
        return len(BETA_PATTERNS[self.beta_pattern])

    def cells(self) -> tuple[Cell, ...]:
        grid = product(self.n_grid, self.snr_grid)
        return tuple(Cell(n=n, snr=snr, index=i) for i, (n, snr) in enumerate(grid))

    def covariance(self, n: int, phi: float | None) -> CovarianceSpec:
        """Error covariance at sample size n.

        ``phi_true`` gives the V that draws the noise; ``None`` gives the V
        handed to selection, which re-estimates phi.
        """
        if self.model_kind == "constant_variance":
            return CovarianceSpec.identity()
        if self.model_kind == "ar1":
            return CovarianceSpec.ar1(phi)
        return CovarianceSpec.nerm((self.nerm_group_size,) * (n // self.nerm_group_size), phi)


@dataclass(frozen=True)
class SimTruth:
    j_star: CandidateModel
    x_true: np.ndarray
    beta_true: np.ndarray
    sigma2: float
    cov_true: CovarianceSpec


@dataclass(frozen=True)
class CriterionSummary:
    true_model_count: int
    mean_prediction_error: float
    standard_error: float


@dataclass(frozen=True)
class ExperimentResult:
    """Aggregate for one grid cell: per-criterion counts and mean losses."""

    model_kind: str
    n: int
    snr: float
    beta_pattern: str
    replications: int
    by_criterion: dict[str, CriterionSummary] = field(default_factory=dict)


def generate_dataset(spec: ExperimentSpec, cell: Cell, replication_index: int):
    """Draw one replication: fresh standard-normal X, correlated noise.

    sigma^2 = beta'beta / SNR^2, which makes var(x'beta) / var(eps) = SNR^2
    for standard-normal regressors; the noise is sigma * L w for V = L L'.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence((spec.master_seed, cell.index, replication_index))
    )
    beta = spec.beta_true_full
    n = cell.n
    x = rng.standard_normal((n, beta.shape[0]))
    sigma2 = float(beta @ beta) / (cell.snr * cell.snr)
    cov_true = spec.covariance(n, spec.phi_true)
    eps = math.sqrt(sigma2) * make_whitener(cov_true, n).color(rng.standard_normal(n))
    y = x @ beta + eps
    dataset = Dataset(y=y, x_full=x, cov=spec.covariance(n, None))
    nonzero = tuple(int(i) + 1 for i in np.flatnonzero(beta))
    truth = SimTruth(
        j_star=CandidateModel(nonzero),
        x_true=x[:, [i - 1 for i in nonzero]],
        beta_true=beta[[i - 1 for i in nonzero]],
        sigma2=sigma2,
        cov_true=cov_true,
    )
    return dataset, truth


def _run_replication(spec: ExperimentSpec, cell: Cell, replication_index: int):
    """One replication: returns {criterion: (selected_is_true, prediction_error)}."""
    return _run_block(spec, cell, range(replication_index, replication_index + 1))[0]


def _run_block(spec: ExperimentSpec, cell: Cell, replications: range):
    """{criterion: (selected_is_true, prediction_error)} for each of
    consecutive replications of one cell, drawn and then scored as one block
    (:func:`~bmlselect.selection._score_block`); each selected model's loss
    is refitted once from its table's whitened data.  If a package error
    stops a block of several, each replication runs again as a block of one
    (:func:`_run_replication`), and a block of one re-raises the error with
    (master_seed, cell, replication) prepended."""
    try:
        drawn = [generate_dataset(spec, cell, rep) for rep in replications]
        options = SelectionOptions(prior_kind=spec.prior_kind, include_null=spec.include_null)
        tables = _score_block([dataset for dataset, _ in drawn], spec.criteria, options)
        outcomes = []
        for table, (dataset, truth) in zip(tables, drawn):
            mu_true = truth.x_true @ truth.beta_true
            best = {name: report_from_table(table, name) for name in spec.criteria}
            loss = {m: prediction_error(table.whitened, dataset.x_full, m, mu_true)
                    for m in set(best.values())}
            outcomes.append({name: (m == truth.j_star, loss[m]) for name, m in best.items()})
        return outcomes
    except BmlselectError as exc:
        if len(replications) > 1:
            return [_run_replication(spec, cell, rep) for rep in replications]
        raise type(exc)(
            f"seed {spec.master_seed}, cell {cell.index} (n={cell.n}, snr={cell.snr}), "
            f"replication {replications[0]}: {exc}"
        ) from exc


def resolve_workers(requested: int | None = None) -> int:
    """Worker count: requested (an integer >= 1) or cpu_count, capped by
    BMLSELECT_THREADS."""
    if requested is not None and not (is_int(requested) and requested >= 1):
        raise ValueError(f"workers must be an integer >= 1, got {requested!r}")
    workers = requested if requested is not None else (os.cpu_count() or 1)
    cap_env = os.environ.get("BMLSELECT_THREADS", "").strip()
    if cap_env:
        try:
            workers = min(workers, max(1, int(cap_env)))
        except ValueError:
            raise ValueError(f"BMLSELECT_THREADS must be an integer, got {cap_env!r}") from None
    return int(workers)


def _plan_blocks(spec: ExperimentSpec, workers: int | None = None):
    """(tasks, processes): the ``_run_block`` arguments of each block that
    :func:`run_experiment` runs for ``workers`` (:func:`resolve_workers`),
    and the number of processes it runs them on, at most one per block."""
    workers = resolve_workers(workers)
    cells = spec.cells()
    # Blocks of at most REPLICATION_BLOCK replications of one cell; with a
    # pool, small enough that every worker gets about four.
    size = REPLICATION_BLOCK
    if workers > 1:
        size = min(size, math.ceil(len(cells) * spec.replications / (4 * workers)))
    tasks = [(spec, cell, range(lo, min(lo + size, spec.replications)))
             for cell in cells for lo in range(0, spec.replications, size)]
    return tasks, min(workers, len(tasks))


def run_experiment(spec: ExperimentSpec, workers: int | None = None) -> list[ExperimentResult]:
    """Run the full grid; aggregation is independent of worker scheduling."""
    cells = spec.cells()
    tasks, processes = _plan_blocks(spec, workers)
    if processes > 1:
        with get_context("fork").Pool(processes=processes) as pool:
            blocks = pool.starmap(_run_block, tasks, chunksize=1)
    else:
        blocks = [_run_block(*task) for task in tasks]
    outcomes = [outcome for block in blocks for outcome in block]
    results = []
    for i, cell in enumerate(cells):
        rows = outcomes[i * spec.replications : (i + 1) * spec.replications]
        by_criterion = {}
        for name in spec.criteria:
            hits = sum(1 for r in rows if r[name][0])
            losses = np.array([r[name][1] for r in rows])
            se = float(losses.std(ddof=1) / math.sqrt(len(losses))) if len(losses) > 1 else 0.0
            by_criterion[name] = CriterionSummary(
                true_model_count=hits,
                mean_prediction_error=float(losses.mean()),
                standard_error=se,
            )
        results.append(
            ExperimentResult(
                model_kind=spec.model_kind,
                n=cell.n,
                snr=cell.snr,
                beta_pattern=spec.beta_pattern,
                replications=spec.replications,
                by_criterion=by_criterion,
            )
        )
    return results
