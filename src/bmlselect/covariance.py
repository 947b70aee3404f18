"""Error-covariance families V(phi) and coefficient prior scales W(lambda).

The regression model treats the error covariance as sigma^2 * V, where V is
known up to a scalar parameter phi.  Three structured families are provided
(identity, AR(1), nested-error blocks) plus an escape hatch for any fixed
symmetric positive-definite matrix.  :func:`make_whitener` is the one entry
point from a :class:`CovarianceSpec` to an operator: it holds the only
dispatch on the spec's kind and returns the action of L^{-1} for the
Cholesky factor V = L L^t, which is all the fitting layer ever needs; the
AR(1) operator runs in O(n) via the innovations recursion instead of a
dense factorization.

Hyperparameters are estimated by plug-in rules: phi by profile maximum
likelihood on the full model, lambda by maximizing each candidate's marginal
likelihood with the variance estimate held fixed.  Both optimizers are
deterministic: a coarse grid scan followed by golden-section refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np
import scipy.linalg
import scipy.signal

from .exceptions import CovarianceError, LambdaEstimationError

if TYPE_CHECKING:
    from .model_core import Dataset, WhitenedFit

COVARIANCE_KINDS = ("identity", "ar1", "nerm", "custom")
PRIOR_KINDS = ("ridge", "zellner")

# Deterministic optimizer: coarse grid at ~0.08 decades per point, then
# golden-section refinement.  The lambda range reaches far enough down that
# the empirical-Bayes scale can track near-noiseless data (lambda ~ 1/SNR^2).
GRID_POINTS = 201
LAMBDA_GRID_POINTS = 264
GOLDEN_RTOL = 1e-8
LAMBDA_BOUNDS = (1e-13, 1e8)
PHI_AR1_BOUNDS = (-0.99, 0.99)
PHI_NERM_BOUNDS = (0.0, 1e4)

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

# The lambda search grid never changes; build it once.
_LAMBDA_GRID = np.geomspace(LAMBDA_BOUNDS[0], LAMBDA_BOUNDS[1], LAMBDA_GRID_POINTS)
_LOG_LAMBDA_GRID = np.log(_LAMBDA_GRID)


class ScalarEstimate(NamedTuple):
    """A 1-D plug-in estimate plus a flag set when it sits on a search bound."""

    value: float
    at_boundary: bool


@dataclass(frozen=True, eq=False)
class CovarianceSpec:
    """Descriptor for the scaled error covariance V.

    kind:
        "identity"  V = I_n.
        "ar1"       V[i, j] = phi ** |i - j|, |phi| < 1.
        "nerm"      block diagonal, phi * J_k + I_k per group of size k,
                    phi >= 0; ``group_sizes`` must sum to n.
        "custom"    a fixed symmetric positive-definite ``matrix``.

    ``phi=None`` on an ar1 or nerm spec means "unknown, estimate it from the
    data" (see :func:`estimate_phi_full_model`).
    """

    kind: str
    phi: float | None = None
    group_sizes: tuple[int, ...] | None = None
    matrix: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in COVARIANCE_KINDS:
            raise CovarianceError(f"unknown covariance kind {self.kind!r}")
        if self.phi is not None:
            phi = float(self.phi)
            if self.kind in ("identity", "custom"):
                raise CovarianceError(f"{self.kind} covariance takes no phi")
            if not math.isfinite(phi):
                raise CovarianceError(f"parameter out of range: phi must be finite, got {phi}")
            if self.kind == "ar1" and not -1.0 < phi < 1.0:
                raise CovarianceError(f"parameter out of range: ar1 needs |phi| < 1, got {phi}")
            if self.kind == "nerm" and phi < 0.0:
                raise CovarianceError(f"parameter out of range: nerm needs phi >= 0, got {phi}")
            object.__setattr__(self, "phi", phi)
        if self.kind == "nerm":
            if not self.group_sizes:
                raise CovarianceError("nerm covariance requires group_sizes")
            sizes = tuple(int(s) for s in self.group_sizes)
            if any(s < 1 for s in sizes):
                raise CovarianceError("nerm group sizes must be positive")
            object.__setattr__(self, "group_sizes", sizes)
        elif self.group_sizes is not None:
            raise CovarianceError("group_sizes only apply to the nerm kind")
        if self.kind == "custom":
            if self.matrix is None:
                raise CovarianceError("custom covariance requires a matrix")
            m = np.asarray(self.matrix, dtype=float)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise CovarianceError("custom covariance matrix must be square")
            if not np.all(np.isfinite(m)):
                raise CovarianceError("custom covariance matrix contains non-finite values")
            if not np.allclose(m, m.T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(m).max())):
                raise CovarianceError("custom covariance matrix must be symmetric")
            object.__setattr__(self, "matrix", m)
        elif self.matrix is not None:
            raise CovarianceError("matrix only applies to the custom kind")

    @classmethod
    def identity(cls) -> "CovarianceSpec":
        return cls(kind="identity")

    @classmethod
    def ar1(cls, phi: float | None = None) -> "CovarianceSpec":
        return cls(kind="ar1", phi=phi)

    @classmethod
    def nerm(cls, group_sizes, phi: float | None = None) -> "CovarianceSpec":
        return cls(kind="nerm", phi=phi, group_sizes=tuple(group_sizes))

    @classmethod
    def custom(cls, matrix) -> "CovarianceSpec":
        return cls(kind="custom", matrix=np.asarray(matrix, dtype=float))

    @property
    def has_unknown_phi(self) -> bool:
        return self.kind in ("ar1", "nerm") and self.phi is None

    def check_size(self, n: int) -> None:
        """Raise unless V is n x n: nerm group sizes sum to n, a custom matrix is n x n."""
        if self.kind == "nerm" and sum(self.group_sizes) != n:
            raise CovarianceError(
                f"nerm group sizes sum to {sum(self.group_sizes)}, expected n = {n}"
            )
        if self.kind == "custom" and self.matrix.shape[0] != n:
            k = self.matrix.shape[0]
            raise CovarianceError(f"custom covariance is {k}x{k}, expected n = {n}")

    def with_phi(self, phi: float) -> "CovarianceSpec":
        return CovarianceSpec(kind=self.kind, phi=phi, group_sizes=self.group_sizes)

    def describe(self) -> str:
        if self.kind == "ar1":
            return f"ar1(phi={'?' if self.phi is None else format(self.phi, '.17g')})"
        if self.kind == "nerm":
            sizes = ",".join(str(s) for s in self.group_sizes)
            phi = "?" if self.phi is None else format(self.phi, ".17g")
            return f"nerm(sizes=[{sizes}], phi={phi})"
        return self.kind


@dataclass(frozen=True)
class PriorScale:
    """Scale matrix W of the coefficient prior N(0, sigma^2 W).

    ridge:    W = I_p / lambda.
    zellner:  W = (lambda * Gram)^{-1} with Gram the whitened cross-product
              X^t V^{-1} X of the candidate (the usual X^t X when V = I).
    """

    kind: str
    lam: float

    def __post_init__(self):
        if self.kind not in PRIOR_KINDS:
            raise ValueError(f"unknown prior kind {self.kind!r}")
        if not (math.isfinite(self.lam) and self.lam > 0.0):
            raise ValueError(f"prior lambda must be positive, got {self.lam}")

    def w_inverse(self, gram: np.ndarray) -> np.ndarray:
        p = gram.shape[0]
        if self.kind == "ridge":
            return self.lam * np.eye(p)
        return self.lam * gram

    def logdet_w(self, p: int, logdet_gram: float) -> float:
        if self.kind == "ridge":
            return -p * math.log(self.lam)
        return -(p * math.log(self.lam) + logdet_gram)


# ---------------------------------------------------------------------------
# Whitening operators
# ---------------------------------------------------------------------------


class _IdentityWhitener:
    logdet = 0.0

    def whiten(self, b):
        return np.array(b, dtype=float)

    def color(self, w):
        return np.array(w, dtype=float)


class _Ar1Whitener:
    """O(n) whitening for the stationary AR(1) correlation matrix."""

    def __init__(self, phi: float, n: int):
        self.phi = float(phi)
        self.scale = math.sqrt(1.0 - self.phi * self.phi)
        self.logdet = (n - 1) * math.log1p(-self.phi * self.phi)

    def whiten(self, b):
        b = np.asarray(b, dtype=float)
        out = b.copy()
        out[1:] = (b[1:] - self.phi * b[:-1]) / self.scale
        return out

    def color(self, w):
        w = np.asarray(w, dtype=float)
        x = w.copy()
        x[1:] *= self.scale
        return scipy.signal.lfilter([1.0], [1.0, -self.phi], x, axis=0)


class _CholeskyWhitener:
    def __init__(self, v: np.ndarray):
        try:
            self.l = scipy.linalg.cholesky(v, lower=True, check_finite=False)
        except scipy.linalg.LinAlgError as exc:
            raise CovarianceError("covariance not PD") from exc
        self.logdet = 2.0 * float(np.sum(np.log(np.diag(self.l))))

    def whiten(self, b):
        return scipy.linalg.solve_triangular(
            self.l, np.asarray(b, dtype=float), lower=True, check_finite=False
        )

    def color(self, w):
        return self.l @ np.asarray(w, dtype=float)


def make_whitener(spec: CovarianceSpec, n: int):
    """Whitening operator for V(phi) of size n.

    Raises ``CovarianceError`` when phi is still unknown, when the spec does
    not fit n (:meth:`CovarianceSpec.check_size`), or when V is not positive
    definite.
    """
    if spec.has_unknown_phi:
        raise CovarianceError(
            f"{spec.kind} covariance has phi unknown; run estimate_phi_full_model first"
        )
    spec.check_size(n)
    if spec.kind == "identity":
        return _IdentityWhitener()
    if spec.kind == "ar1":
        return _Ar1Whitener(spec.phi, n)
    if spec.kind == "custom":
        return _CholeskyWhitener(spec.matrix)
    v = np.eye(n)
    start = 0
    for size in spec.group_sizes:
        v[start : start + size, start : start + size] += spec.phi * np.ones((size, size))
        start += size
    return _CholeskyWhitener(v)


# ---------------------------------------------------------------------------
# Deterministic 1-D optimization
# ---------------------------------------------------------------------------


def _golden_min(f, a, b, rtol=GOLDEN_RTOL, atol=0.0):
    """Golden-section minimum on [a, b], returning the best point evaluated."""
    best = [a, f(a)]

    def ev(x):
        fx = f(x)
        if fx < best[1]:
            best[0], best[1] = x, fx
        return fx

    ev(b)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = ev(c), ev(d)
    for _ in range(200):
        if (b - a) <= max(atol, rtol * max(abs(a), abs(b))):
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = ev(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = ev(d)
    return best[0], best[1]


def _refine_minimum(f, xs, vals, rtol=GOLDEN_RTOL, atol=0.0):
    """Grid argmin refined by golden section over its neighbouring cells."""
    vals = np.asarray(vals, dtype=float)
    finite = np.isfinite(vals)
    if not finite.any():
        raise ValueError("objective non-finite over the entire grid")
    k = int(np.argmin(np.where(finite, vals, np.inf)))
    a = xs[max(k - 1, 0)]
    b = xs[min(k + 1, len(xs) - 1)]
    x, fx = _golden_min(f, a, b, rtol=rtol, atol=atol)
    if vals[k] <= fx:
        return float(xs[k]), float(vals[k])
    return float(x), float(fx)


# ---------------------------------------------------------------------------
# Plug-in parameter estimation
# ---------------------------------------------------------------------------


def estimate_phi_full_model(dataset: "Dataset") -> ScalarEstimate | None:
    """Profile maximum-likelihood estimate of phi on the full model.

    The GLS coefficients and the variance are profiled out, leaving
    ``n log(y' P(phi) y) + log|V(phi)|`` to minimize over the admissible
    range.  Returns ``None`` when the covariance has no free parameter.
    """
    spec = dataset.cov
    if not spec.has_unknown_phi:
        return None
    y = np.asarray(dataset.y, dtype=float)
    x = np.asarray(dataset.x_full, dtype=float)
    n = y.shape[0]

    def objective(phi: float) -> float:
        wh = make_whitener(spec.with_phi(phi), n)
        yt = wh.whiten(y)
        xt = wh.whiten(x)
        q = np.linalg.qr(xt, mode="reduced")[0]
        c = q.T @ yt
        ypy = float(yt @ yt - c @ c)
        if not ypy > 0.0:
            return math.inf
        return n * math.log(ypy) + wh.logdet

    if spec.kind == "ar1":
        lo, hi = PHI_AR1_BOUNDS
        grid = np.linspace(lo, hi, GRID_POINTS)
    else:
        lo, hi = PHI_NERM_BOUNDS
        # phi >= 0 spans eight decades; log-spaced grid plus the zero endpoint.
        grid = np.concatenate(([0.0], np.geomspace(1e-6, hi, GRID_POINTS - 1)))
    vals = [objective(x_) for x_ in grid]
    try:
        phi_hat, _ = _refine_minimum(objective, grid, vals, rtol=GOLDEN_RTOL)
    except ValueError as exc:
        raise CovarianceError(f"phi estimation failed: {exc}") from exc
    span = hi - lo
    at_boundary = (phi_hat - lo) <= 1e-6 * span or (hi - phi_hat) <= 1e-6 * span
    return ScalarEstimate(float(phi_hat), bool(at_boundary))


def estimate_lambda(fit: "WhitenedFit", prior_kind: str = "ridge") -> ScalarEstimate:
    """Empirical-Bayes estimate of the prior scale for one fitted candidate.

    Maximizes the candidate's marginal likelihood over lambda with the
    plug-in variance y'Py/n held fixed; the search runs on log(lambda) over
    ``LAMBDA_BOUNDS``.  It reads the R factor and Q'y that
    :func:`~bmlselect.model_core.gls_fit` kept on the fit, so the columns are
    not factored again.  For the null model there is no prior to scale and a
    neutral value of 1 is returned.
    """
    if prior_kind not in PRIOR_KINDS:
        raise ValueError(f"unknown prior kind {prior_kind!r}")
    p = fit.p
    if p == 0:
        return ScalarEstimate(1.0, False)
    if fit.r is None:
        raise ValueError("fit carries no QR factor to estimate lambda from")
    r, c = fit.r, fit.qty
    yty, ypy = fit.yty, fit.ypy
    sigma2 = ypy / fit.n
    if not sigma2 > 0.0:
        raise LambdaEstimationError("lambda estimation failed: zero residual variance")

    lams = _LAMBDA_GRID
    ts = _LOG_LAMBDA_GRID
    if prior_kind == "ridge":
        gram = r.T @ r
        d, u = np.linalg.eigh(gram)
        d = np.clip(d, 0.0, None)
        zt2 = (u.T @ (r.T @ c)) ** 2
        # Plain-float loop: the golden phase calls this ~40 times per
        # candidate and p is tiny, so ndarray dispatch would dominate.
        d_list = [float(v) for v in d]
        zt2_list = [float(v) for v in zt2]

        def objective(t: float) -> float:
            lam = math.exp(t)
            pen = 0.0
            quad = yty
            for di, zi in zip(d_list, zt2_list):
                pen += math.log1p(di / lam)
                quad -= zi / (di + lam)
            return pen + quad / sigma2

        pen = np.sum(np.log1p(d[None, :] / lams[:, None]), axis=1)
        quads = yty - np.sum(zt2[None, :] / (d[None, :] + lams[:, None]), axis=1)
        vals = pen + quads / sigma2
    else:
        # Zellner: W^{-1} = lambda * Gram, so the lambda-dependent part
        # collapses to closed scalar forms.
        s = yty - ypy

        def objective(t: float) -> float:
            lam = math.exp(t)
            return p * math.log1p(1.0 / lam) + (yty - s / (1.0 + lam)) / sigma2

        vals = p * np.log1p(1.0 / lams) + (yty - s / (1.0 + lams)) / sigma2

    try:
        t_hat, _ = _refine_minimum(objective, ts, vals, rtol=0.0, atol=GOLDEN_RTOL)
    except ValueError as exc:
        raise LambdaEstimationError(f"lambda estimation failed: {exc}") from exc
    span = ts[-1] - ts[0]
    at_boundary = (t_hat - ts[0]) <= 1e-6 * span or (ts[-1] - t_hat) <= 1e-6 * span
    return ScalarEstimate(float(math.exp(t_hat)), bool(at_boundary))
