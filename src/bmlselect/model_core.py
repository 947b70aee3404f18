"""Whitened generalized-least-squares core.

Every selection criterion reads one :class:`WhitenedFit` and nothing else:
the quadratic forms y'Py and y'Ay, the log-determinants of V, of X'V^{-1}X
and of W X'V^{-1}X + I, and the two variance estimates computed here.  The
production path whitens the data once per error covariance (a Cholesky
factor, or an O(n) recursion for AR(1)) and then factors each candidate's
whitened design with exactly one QR and keeps R and Q'y, plus the SVD of R
on demand (:attr:`WhitenedFit.spectrum`).  The prior terms read only these
(:class:`~bmlselect.covariance.PriorScale` holds their formulas), so the
lambda search, the prior step (:meth:`WhitenedFit.with_prior`) and ``dic``
factor nothing more; the n x n projection matrices are never formed (test
oracles do form them).

One rank rule, :func:`_full_rank_pivots`, judges every QR factor: a pivot
below ``RANK_PIVOT_RTOL`` times the largest one, or more columns than rows,
marks the design as rank deficient.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from .covariance import CovarianceSpec, PriorScale, make_whitener
from .exceptions import SaturatedModelError, SingularDesignError

# Shared relative pivot rule: a QR pivot below this fraction of the largest
# pivot marks the column as linearly dependent.
RANK_PIVOT_RTOL = 1e-10


@dataclass(frozen=True)
class CandidateModel:
    """A candidate regression model: a subset of full-model columns.

    Indices are 1-based (column 1 is the first predictor), strictly
    increasing, and may be empty for the null model.
    """

    indices: tuple[int, ...] = ()

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        if any(b <= a for a, b in zip(idx, idx[1:])) or (idx and idx[0] < 1):
            raise ValueError(f"candidate indices must be strictly increasing and >= 1: {idx}")
        object.__setattr__(self, "indices", idx)

    @property
    def p(self) -> int:
        return len(self.indices)

    @property
    def zero_based(self) -> tuple[int, ...]:
        return tuple(i - 1 for i in self.indices)

    def label(self) -> str:
        return " ".join(str(i) for i in self.indices) if self.indices else "(null)"


@dataclass(frozen=True, eq=False)
class Dataset:
    """Response vector, full design matrix, and an error-covariance descriptor."""

    y: np.ndarray
    x_full: np.ndarray
    cov: CovarianceSpec

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float).reshape(-1)
        x = np.asarray(self.x_full, dtype=float)
        if x.ndim != 2:
            raise ValueError("x_full must be a 2-D matrix")
        if y.shape[0] != x.shape[0]:
            raise ValueError(f"y has {y.shape[0]} rows but x_full has {x.shape[0]}")
        if y.shape[0] < 1 or x.shape[1] < 1:
            raise ValueError("need n >= 1 observations and p_omega >= 1 predictors")
        if not np.all(np.isfinite(y)):
            raise ValueError("y contains non-finite values")
        if not np.all(np.isfinite(x)):
            raise ValueError("x_full contains non-finite values")
        self.cov.check_size(y.shape[0])
        _full_rank_pivots(np.linalg.qr(x, mode="r"), "full design matrix is rank deficient")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x_full", x)

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def p_omega(self) -> int:
        return self.x_full.shape[1]


@dataclass(frozen=True, eq=False)
class WhitenedData:
    """Design and response premultiplied by L^{-1} for V = L L^t."""

    x: np.ndarray
    y: np.ndarray
    logdet_v: float

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def p_omega(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True, eq=False)
class WhitenedFit:
    """Per-candidate GLS computation cache.

    ``ypy`` is the GLS residual quadratic form y'Py; both variance estimates
    derive from this one stored scalar.  ``yay`` and ``logdet_wxvx_plus_i``
    are present only once a prior scale was applied (:meth:`with_prior`).
    ``yty`` is the whitened total sum of squares y'V^{-1}y, kept for
    degeneracy checks.  ``r`` and ``qty`` are the candidate's QR factor R
    and Q'y, kept so that later steps never factor the columns again.
    ``prior`` is the scale that :meth:`with_prior` applied.
    """

    p: int
    n: int
    beta_hat: np.ndarray
    ypy: float
    yty: float
    logdet_v: float
    logdet_xvx: float
    yay: float | None = None
    logdet_wxvx_plus_i: float | None = None
    r: np.ndarray | None = None
    qty: np.ndarray | None = None
    prior: PriorScale | None = None
    # Cache of ``spectrum``; a field, so that ``replace`` carries it along.
    _spectrum: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def sigma2_hat(self) -> float:
        return self.ypy / self.n

    @property
    def sigma2_tilde(self) -> float:
        if self.n - self.p <= 0:
            raise SaturatedModelError(f"saturated model: p = {self.p} >= n = {self.n}")
        return self.ypy / (self.n - self.p)

    @property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """(d, w2) from the SVD R = P S V^t, computed once: d = s^2 are the
        eigenvalues of G = X'V^{-1}X and w2 = (P^t Q'y)^2."""
        if self._spectrum is None:
            u, s, _ = np.linalg.svd(self.r)
            object.__setattr__(self, "_spectrum", (s * s, (u.T @ self.qty) ** 2))
        return self._spectrum

    def with_prior(self, prior: PriorScale) -> "WhitenedFit":
        """This fit with y'Ay and log|W G + I| of a prior scale
        (:meth:`PriorScale.marginal_terms`)."""
        yay, logdet = prior.marginal_terms(self)
        return replace(self, yay=yay, logdet_wxvx_plus_i=logdet, prior=prior)


def _full_rank_pivots(r: np.ndarray, message: str) -> np.ndarray:
    """|diag(R)| of a QR factor whose columns are linearly independent.

    Raises ``SingularDesignError(message)`` when a pivot falls below
    ``RANK_PIVOT_RTOL`` times the largest, or when R has more columns than
    rows: ``diag`` then holds only min(n, p) pivots, and p > n columns are
    dependent whatever those pivots are.
    """
    rd = np.abs(np.diag(r))
    if r.shape[1] > r.shape[0] or rd.max() == 0.0 or rd.min() < RANK_PIVOT_RTOL * rd.max():
        raise SingularDesignError(message)
    return rd


def whiten(dataset: Dataset) -> WhitenedData:
    """Apply the lower-triangular whitening factor of V to y and X.

    Returns the transformed data together with log|V|; y'V^{-1}y equals the
    squared norm of the whitened response.
    """
    wh = make_whitener(dataset.cov, dataset.n)
    return WhitenedData(
        x=wh.whiten(dataset.x_full), y=wh.whiten(dataset.y), logdet_v=float(wh.logdet)
    )


def gls_fit(whitened: WhitenedData, model: CandidateModel) -> WhitenedFit:
    """GLS fit of one candidate on whitened data, from one QR of its columns.

    :meth:`WhitenedFit.with_prior` adds the marginal-likelihood quantities.
    """
    yt = whitened.y
    n = whitened.n
    yty = float(yt @ yt)
    if model.indices and model.indices[-1] > whitened.p_omega:
        raise ValueError(
            f"candidate {model.label()} uses column {model.indices[-1]} "
            f"but the design has {whitened.p_omega}"
        )
    if model.p == 0:
        # The QR of no columns: R is 0 x 0 and Q'y is empty, so every prior term is 0.
        return WhitenedFit(p=0, n=n, beta_hat=np.zeros(0), ypy=yty, yty=yty,
                           logdet_v=whitened.logdet_v, logdet_xvx=0.0,
                           r=np.zeros((0, 0)), qty=np.zeros(0))
    xj = whitened.x[:, model.zero_based]
    q, r = np.linalg.qr(xj, mode="reduced")
    rd = _full_rank_pivots(r, f"singular design for candidate {model.label()}")
    c = q.T @ yt
    return WhitenedFit(
        p=model.p,
        n=n,
        beta_hat=scipy.linalg.solve_triangular(r, c, lower=False, check_finite=False),
        ypy=max(float(yty - c @ c), 0.0),
        yty=yty,
        logdet_v=whitened.logdet_v,
        logdet_xvx=2.0 * float(np.sum(np.log(rd))),
        r=r,
        qty=c,
    )

