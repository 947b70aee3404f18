"""Whitened generalized-least-squares core.

Every selection criterion reads one :class:`WhitenedFit` and nothing else:
the quadratic forms y'Py and y'Ay, the log-determinants of V, of X'V^{-1}X
and of W X'V^{-1}X + I, and the two variance estimates computed here.  The
production path whitens the data once per error covariance (a Cholesky
factor, or an O(n) recursion for AR(1)) and reduces the whitened [X y] to
one (p_omega + 1) x (p_omega + 1) R factor, ``WhitenedData.r0``; no later
step reads the n rows again.  A candidate with columns S is one small QR of
R0[:, S + [y]], which yields its R factor, Q'y and y'Py (Furnival & Wilson
1974); :func:`gls_fit` stacks a batch of same-size candidates (one row of
column indices each) into one such call, and the SVD of R
(:attr:`WhitenedFit.spectrum`) is one batched call too.  Every field of a
fit is then an array over the batch, and a single candidate is the batch
of one with the batch axis dropped, so one set of formulas serves both.
The prior terms read only these (:class:`~bmlselect.covariance.PriorScale`
holds their formulas), so the lambda search, the prior step
(:meth:`WhitenedFit.with_prior`) and ``dic`` factor nothing more; the
n x n projection matrices are never formed (test oracles do form them).

One rank rule, :func:`_full_rank`, judges every QR factor: a pivot below
``RANK_PIVOT_RTOL`` times the largest one, or more columns than rows,
marks the design as rank deficient.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .covariance import CovarianceSpec, PriorScale, make_whitener
from .exceptions import SaturatedModelError, SingularDesignError

# Shared relative pivot rule: a QR pivot below this fraction of the largest
# pivot marks the column as linearly dependent.
RANK_PIVOT_RTOL = 1e-10


@dataclass(frozen=True)
class CandidateModel:
    """A candidate regression model: a subset of full-model columns.

    Indices are whole numbers, 1-based (column 1 is the first predictor),
    strictly increasing, and may be empty for the null model.
    """

    indices: tuple[int, ...] = ()

    def __post_init__(self):
        try:
            idx = tuple(int(i) for i in self.indices)
        except (TypeError, ValueError, OverflowError):
            idx = None
        if idx != tuple(self.indices):
            raise ValueError(f"candidate indices must be whole numbers: {self.indices}")
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
        if not _full_rank(np.linalg.qr(x, mode="r")):
            raise SingularDesignError("full design matrix is rank deficient")
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
    """Design and response premultiplied by L^{-1} for V = L L^t, and ``r0``,
    the square R factor of the whitened [X y] that every candidate fit reads."""

    x: np.ndarray
    y: np.ndarray
    logdet_v: float
    r0: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        # Zero rows leave R0'R0 = [X y]'[X y] as it is and make R0 square for any n.
        width = self.x.shape[1] + 1
        xy = np.vstack([np.column_stack([self.x, self.y]), np.zeros((width, width))])
        object.__setattr__(self, "r0", np.linalg.qr(xy, mode="r"))

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def p_omega(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True, eq=False)
class WhitenedFit:
    """GLS computation cache of one candidate, or of a batch of candidates
    with the same number of columns ``p``.

    ``ypy`` is the GLS residual quadratic form y'Py; both variance estimates
    derive from this one stored value.  ``yay`` and ``logdet_wxvx_plus_i``
    are present only once a prior scale was applied (:meth:`with_prior`).
    ``yty`` is the whitened total sum of squares y'V^{-1}y, kept for
    degeneracy checks.  ``r`` and ``qty`` are the candidate's QR factor R
    and Q'y, kept so that later steps never factor the columns again.
    ``prior`` is the scale that :meth:`with_prior` applied; ``beta_hat``
    is solved from ``r`` and ``qty`` only when read.  In a batch,
    every per-candidate field has a leading batch axis (``yty``,
    ``logdet_v``, ``p`` and ``n`` are shared), and ``kept`` holds the
    positions, in the batch :func:`gls_fit` was given, of the candidates
    the fit holds.
    """

    p: int
    n: int
    ypy: float | np.ndarray
    yty: float
    logdet_v: float
    logdet_xvx: float | np.ndarray
    yay: float | np.ndarray | None = None
    logdet_wxvx_plus_i: float | np.ndarray | None = None
    r: np.ndarray | None = None
    qty: np.ndarray | None = None
    prior: PriorScale | None = None
    kept: np.ndarray | None = None
    # Cache of ``spectrum``; a field, so that ``replace`` carries it along.
    _spectrum: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def beta_hat(self) -> np.ndarray:
        return np.linalg.solve(self.r, self.qty[..., None])[..., 0]

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
            w = (np.swapaxes(u, -1, -2) @ self.qty[..., None])[..., 0]
            object.__setattr__(self, "_spectrum", (s * s, w * w))
        return self._spectrum

    def with_prior(self, prior: PriorScale) -> "WhitenedFit":
        """This fit with y'Ay and log|W G + I| of a prior scale
        (:meth:`PriorScale.marginal_terms`)."""
        yay, logdet = prior.marginal_terms(self)
        return replace(self, yay=yay, logdet_wxvx_plus_i=logdet, prior=prior)


def _full_rank(r: np.ndarray) -> np.ndarray:
    """Whether the columns behind a QR factor (or each of a stack) are
    linearly independent.

    They are not when a pivot |diag(R)| falls below ``RANK_PIVOT_RTOL``
    times the largest, or when R has more columns than rows: ``diag`` then
    holds only min(n, p) pivots, and p > n columns are dependent whatever
    those pivots are.  The empty set of columns counts as independent.
    """
    rd = np.abs(np.diagonal(r, axis1=-2, axis2=-1))
    top = rd.max(axis=-1, initial=0.0, keepdims=True)
    independent = np.all((rd > 0.0) & (rd >= RANK_PIVOT_RTOL * top), axis=-1)
    return independent & (r.shape[-1] <= r.shape[-2])


def whiten(dataset: Dataset) -> WhitenedData:
    """Apply the lower-triangular whitening factor of V to y and X.

    Returns the transformed data together with log|V|; y'V^{-1}y equals the
    squared norm of the whitened response.
    """
    wh = make_whitener(dataset.cov, dataset.n)
    return WhitenedData(
        x=wh.whiten(dataset.x_full), y=wh.whiten(dataset.y), logdet_v=float(wh.logdet)
    )


def gls_fit(whitened: WhitenedData, model: CandidateModel | np.ndarray) -> WhitenedFit:
    """GLS fit of one candidate, or of a batch of same-size candidates.

    ``model`` is a :class:`CandidateModel`, or a (batch x p) array of
    1-based column indices, each row strictly increasing within 1..p_omega
    (else ``ValueError``, naming the first bad row).  For the columns S of
    each, one QR of R0[:, S + [y]] (``whitened.r0``) gives R, Q'y and y'Py,
    the square of its last pivot; a batch stacks all of them into one call.
    A single rank-deficient candidate raises ``SingularDesignError``; a
    batch fit drops such candidates and records the positions of those it
    holds in ``kept``.  :meth:`WhitenedFit.with_prior` adds the
    marginal-likelihood quantities.
    """
    single = isinstance(model, CandidateModel)
    cols = np.array([model.indices] if single else model, dtype=np.intp)
    (b, k), p_omega = cols.shape, whitened.p_omega
    # Bracketed by 0 and p_omega + 1, a valid row strictly increases.
    steps = np.diff(cols, axis=1, prepend=0, append=p_omega + 1) <= 0
    bad = np.flatnonzero(steps.any(axis=1))
    if bad.size:
        row = cols[bad[0]].tolist()
        raise ValueError(f"candidate {' '.join(map(str, row))} uses column "
                         f"{row[min(int(np.argmax(steps[bad[0]])), k - 1)]}, but its "
                         f"columns must increase strictly within 1..{p_omega}")
    stacked = whitened.r0[:, np.column_stack([cols - 1, np.full(b, p_omega)])]
    rf = np.linalg.qr(stacked.transpose(1, 0, 2), mode="r")
    # Each R here is square whatever n is, so more columns than rows is k > n.
    full = _full_rank(rf[:, :k, :k]) & (k <= whitened.n)
    if single and not full[0]:
        raise SingularDesignError(f"singular design for candidate {model.label()}")
    take = 0 if single else np.flatnonzero(full)
    rf = rf[take]
    r, qty = rf[..., :k, :k], rf[..., :k, k]
    rd = np.abs(np.diagonal(r, axis1=-2, axis2=-1))
    return WhitenedFit(
        p=k,
        n=whitened.n,
        ypy=rf[..., k, k] ** 2,
        yty=float(whitened.y @ whitened.y),
        logdet_v=whitened.logdet_v,
        logdet_xvx=2.0 * np.sum(np.log(rd), axis=-1),
        r=r,
        qty=qty,
        kept=None if single else take,
    )
