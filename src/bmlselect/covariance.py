"""Error-covariance families V(phi) and coefficient prior scales W(lambda).

The regression model treats the error covariance as sigma^2 * V, where V is
known up to a scalar parameter phi.  Three structured families are provided
(identity, AR(1), nested-error blocks) plus an escape hatch for any fixed
symmetric positive-definite matrix.  :func:`make_whitener` is the one entry
point from a :class:`CovarianceSpec` to an operator: it holds the only
dispatch on the spec's kind and returns the action of L^{-1} for the
Cholesky factor V = L L^t, which is all the fitting layer ever needs; the
AR(1) operator runs in O(n) via the innovations recursion instead of a
dense factorization, and serves identity as the recursion at phi = 0; the
nested-error V is built from the group labels in one pass.

The coefficient prior N(0, sigma^2 W) comes in two families, ridge and
Zellner, and only this module knows them: the prior check, the terms a
scale adds to a fit (:class:`PriorScale`), the null-model rule and lambda.

Hyperparameters are estimated by deterministic plug-in rules: phi by
profile maximum likelihood on the full model (grid scan, then golden
section), lambda by maximizing each candidate's marginal likelihood with
the variance estimate held fixed (Zellner in closed form, ridge by a grid
scan, then a Newton root of the derivative from the fit's spectrum).  The
prior terms and the lambda search take a batch fit as they take a single
candidate: every formula is an array expression over the batch, and the
ridge search scans the grid and runs its safeguarded Newton steps for the
whole batch at once, masking each candidate out as it converges.  The grid
scan holds one (candidates x grid points x p) array per step, so it runs
over the batch in chunks of at most ``BATCH_ELEMENTS`` doubles.
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

# Deterministic optimizers: a coarse grid at ~0.08 decades per point, then
# golden section (phi) or a Newton root of the derivative (ridge lambda),
# which stops on a step in log lambda or a residual relative to its terms.
# The lambda range reaches far enough down that the empirical-Bayes scale
# can track near-noiseless data (lambda ~ 1/SNR^2).
GRID_POINTS = 201
LAMBDA_GRID_POINTS = 264
GOLDEN_RTOL = 1e-8
LAMBDA_BOUNDS = (1e-13, 1e8)
LAMBDA_STEP_ATOL = 1e-12
LAMBDA_SLOPE_RTOL = 8.0 * np.finfo(float).eps
LAMBDA_MAX_STEPS = 100
# Largest temporary array, in doubles, that one batched step may hold: the
# lambda grid scan and the stacked candidate fits are chunked to it, which
# bounds memory whatever the number of candidates.
BATCH_ELEMENTS = 1 << 15
PHI_AR1_BOUNDS = (-0.99, 0.99)
PHI_NERM_BOUNDS = (0.0, 1e4)

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

# The lambda search grid never changes; build it once.
_LAMBDA_GRID = np.geomspace(LAMBDA_BOUNDS[0], LAMBDA_BOUNDS[1], LAMBDA_GRID_POINTS)
_LOG_LAMBDA_GRID = np.log(_LAMBDA_GRID)
_INV_LAMBDA_GRID = 1.0 / _LAMBDA_GRID


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
            try:
                sizes = tuple(int(s) for s in self.group_sizes)
            except (TypeError, ValueError, OverflowError):
                sizes = None
            if sizes is None or sizes != tuple(self.group_sizes) or min(sizes) < 1:
                raise CovarianceError(
                    f"nerm group sizes must be positive whole numbers, got {self.group_sizes}"
                )
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


def check_prior(kind: str, lam: float | np.ndarray | None = None) -> None:
    """Raise ``ValueError`` unless ``kind`` is a prior family and ``lam`` is
    None (estimate it per candidate) or finite and positive (every entry,
    for a batch)."""
    if kind not in PRIOR_KINDS:
        raise ValueError(f"unknown prior kind {kind!r}")
    if lam is not None and not np.all(np.isfinite(lam) & np.greater(lam, 0.0)):
        raise ValueError(f"prior lambda must be positive, got {lam}")


def _read_factor(fit: "WhitenedFit", kind: str):
    """What a family reads of a fit's QR factor: ridge the spectrum (d, w2) of R,
    d the eigenvalues of G and w2 = (P^t Q'y)^2; zellner s = ||Q'y||^2 alone."""
    if fit.r is None:
        raise ValueError("fit carries no QR factor for the prior terms to read")
    return fit.spectrum if kind == "ridge" else np.sum(fit.qty * fit.qty, axis=-1)


@dataclass(frozen=True)
class PriorScale:
    """Scale matrix W of the coefficient prior N(0, sigma^2 W), and the terms
    it adds to a fit with Gram G = X^t V^{-1} X (read by :func:`_read_factor`).

    ridge:    W = I_p / lambda.
    zellner:  W = (lambda G)^{-1}, the g-prior with g = 1 / lambda.

    ``lam`` is one value, or one per candidate of a batch fit.
    """

    kind: str
    lam: float | np.ndarray

    def __post_init__(self):
        check_prior(self.kind, self.lam)

    def marginal_terms(self, fit: "WhitenedFit"):
        """(y'Ay, log|W G + I|): ridge y'Py + lambda sum w2 / (d + lambda) and
        sum log1p(d / lambda), zellner y'Py + s lambda / (1 + lambda) and p log1p(1 / lambda)."""
        lam, read = self.lam, _read_factor(fit, self.kind)
        if self.kind == "ridge":
            d, w2 = read
            col = np.expand_dims(lam, -1)
            return fit.ypy + lam * np.sum(w2 / (d + col), axis=-1), np.sum(np.log1p(d / col), axis=-1)
        return fit.ypy + read * lam / (1.0 + lam), fit.p * np.log1p(1.0 / lam)

    def posterior_terms(self, fit: "WhitenedFit"):
        """(residual at beta~ = (G + W^{-1})^{-1} X'V^{-1}y, p_D): ridge y'Py +
        lambda^2 sum w2 / (d + lambda)^2 and sum d / (d + lambda), zellner
        y'Py + (lambda / (1 + lambda))^2 s and p / (1 + lambda)."""
        lam, read = self.lam, _read_factor(fit, self.kind)
        if self.kind == "ridge":
            d, w2 = read
            dl = d + np.expand_dims(lam, -1)
            return fit.ypy + lam * lam * np.sum(w2 / (dl * dl), axis=-1), np.sum(d / dl, axis=-1)
        shrink = lam / (1.0 + lam)
        return fit.ypy + shrink * shrink * read, fit.p / (1.0 + lam)


def known_scale(fit: "WhitenedFit", kind: str, lam: float | None) -> PriorScale | None:
    """The prior scale of ``fit`` when it needs no estimate, else None: a
    fixed ``lam`` as given, and for the null model, whose prior terms vanish
    for every lambda, the neutral 1."""
    if lam is None and fit.p:
        return None
    return PriorScale(kind, 1.0 if lam is None else float(lam))


# ---------------------------------------------------------------------------
# Whitening operators
# ---------------------------------------------------------------------------


class _Ar1Whitener:
    """O(n) whitening for the stationary AR(1) correlation matrix; at phi = 0
    the recursion returns its input, so it is the identity whitener too."""

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
    if spec.kind in ("identity", "ar1"):  # V = I is the AR(1) matrix at phi = 0
        return _Ar1Whitener(0.0 if spec.phi is None else spec.phi, n)
    if spec.kind == "custom":
        return _CholeskyWhitener(spec.matrix)
    group = np.repeat(np.arange(len(spec.group_sizes)), spec.group_sizes)
    v = spec.phi * (group[:, None] == group[None, :])
    v[np.diag_indices(n)] += 1.0
    return _CholeskyWhitener(v)


# ---------------------------------------------------------------------------
# Deterministic 1-D optimization
# ---------------------------------------------------------------------------


def _golden_min(f, a, b, rtol=GOLDEN_RTOL):
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
        if (b - a) <= rtol * max(abs(a), abs(b)):
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


# ---------------------------------------------------------------------------
# Plug-in parameter estimation
# ---------------------------------------------------------------------------


def estimate_phi_full_model(dataset: "Dataset") -> ScalarEstimate | None:
    """Profile maximum-likelihood estimate of phi on the full model.

    The GLS coefficients and the variance are profiled out, leaving
    ``n log(y' P(phi) y) + log|V(phi)|`` to minimize over the admissible
    range: a grid scan, then golden section over the neighbouring cells of
    the grid argmin.  Returns ``None`` when the covariance has no free parameter.
    """
    spec = dataset.cov
    if not spec.has_unknown_phi:
        return None
    y, x, n = dataset.y, dataset.x_full, dataset.n

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
    vals = np.array([objective(x_) for x_ in grid])
    finite = np.isfinite(vals)
    if not finite.any():
        raise CovarianceError("phi estimation failed: objective non-finite over the entire grid")
    k = int(np.argmin(np.where(finite, vals, np.inf)))
    phi_hat, f_hat = _golden_min(objective, grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)])
    if vals[k] <= f_hat:
        phi_hat = grid[k]
    if spec.kind == "ar1":
        at_boundary = min(phi_hat - lo, hi - phi_hat) <= 1e-6 * (hi - lo)
    else:  # log-spaced from grid[1]: below it phi_hat sits on 0
        at_boundary = phi_hat < grid[1] or math.log(hi / phi_hat) <= 1e-6 * math.log(hi / grid[1])
    return ScalarEstimate(float(phi_hat), bool(at_boundary))


def _ridge_lambda(d: np.ndarray, w2: np.ndarray, sigma2: float | np.ndarray) -> ScalarEstimate:
    """Minimizer of f(t) = sum log1p(d / lambda) + lambda sum w2 / (d + lambda) / s2,
    for one candidate or for each of a batch (leading axes of ``d``, ``w2``
    and ``sigma2``).

    The grid argmin in t = log lambda picks the basin (a grid end whose
    slope points outward is the flagged bound), then a Newton step on f'(t)
    within the neighbouring cells, safeguarded by bisection, finds the root.
    It stops on the step size or a rounding-level f', never on rounded f.
    Each candidate of a batch takes exactly the steps it would take alone.
    """
    shape, p = np.shape(sigma2), d.shape[-1]
    d, w2 = d.reshape(-1, p), w2.reshape(-1, p)
    s2 = np.reshape(sigma2, (-1, 1))
    best = np.empty(d.shape[0], dtype=np.intp)
    chunk = max(1, BATCH_ELEMENTS // (LAMBDA_GRID_POINTS * p))
    for start in range(0, d.shape[0], chunk):
        part = slice(start, start + chunk)
        ratio = d[part, None, :] * _INV_LAMBDA_GRID[:, None]
        terms = np.log1p(ratio)
        ratio += 1.0
        terms += np.divide((w2[part] / s2[part])[:, None, :], ratio, out=ratio)
        vals = np.add.reduce(terms, axis=2)
        best[part] = np.argmin(vals, axis=1)
        if not np.all(np.isfinite(vals[np.arange(vals.shape[0]), best[part]])):
            raise LambdaEstimationError("lambda estimation failed: objective non-finite on the grid")

    def slope(t, rows):
        # f'(t), f''(t) and the sum of |terms of f'| for the candidates in rows.
        lam = np.exp(t)[:, None]
        dr = d[rows]
        dl = dr + lam
        pen = dr / dl
        fit = lam * w2[rows] * pen / (s2[rows] * dl)
        h = np.add.reduce((fit * (dr - lam) + pen * lam) / dl, axis=1)
        return np.add.reduce(fit - pen, axis=1), h, np.add.reduce(fit + pen, axis=1)

    ts, last = _LOG_LAMBDA_GRID, LAMBDA_GRID_POINTS - 1
    t = ts[best]
    g, h, _ = slope(t, slice(None))
    bound = ((best == 0) & (g >= 0.0)) | ((best == last) & (g <= 0.0))
    # The slope at the lowest grid point says on which side the minimum
    # lies: [lo, hi] brackets a root of f' with f'(lo) <= 0 <= f'(hi).
    down = g < 0.0
    lo = np.where(down, t, ts[np.maximum(best - 1, 0)])
    hi = np.where(down, ts[np.minimum(best + 1, last)], t)
    live = np.flatnonzero(~bound)
    for _ in range(LAMBDA_MAX_STEPS):
        if live.size == 0:
            break
        tl, gl, hl, lol, hil = t[live], g[live], h[live], lo[live], hi[live]
        newton = hl > 0.0
        t_new = np.where(newton, tl - gl / np.where(newton, hl, 1.0), hil)
        t_new = np.where((lol < t_new) & (t_new < hil), t_new, 0.5 * (lol + hil))
        t[live] = t_new
        live = live[~(np.abs(t_new - tl) <= LAMBDA_STEP_ATOL)]
        gl, hl, scale = slope(t[live], live)
        g[live], h[live] = gl, hl
        moving = ~(np.abs(gl) <= LAMBDA_SLOPE_RTOL * scale)
        live, down = live[moving], gl[moving] < 0.0
        lo[live] = np.where(down, t[live], lo[live])
        hi[live] = np.where(down, hi[live], t[live])
    lam = np.where(bound, _LAMBDA_GRID[best], np.exp(t))
    return ScalarEstimate(lam.reshape(shape)[()], bound.reshape(shape)[()])


def estimate_lambda(fit: "WhitenedFit", prior_kind: str = "ridge") -> ScalarEstimate:
    """Empirical-Bayes estimate of the prior scale for one fitted candidate,
    or for each candidate of a batch fit (then both fields are arrays).

    Maximizes the candidate's marginal likelihood over lambda in
    ``LAMBDA_BOUNDS`` at the plug-in variance s2 = y'Py/n, flagging a value
    on a bound.  Zellner: lambda = p s2 / (s - p s2) with s = ||Q'y||^2
    (the local empirical-Bayes g = 1/lambda of George & Foster 2000),
    clipped to the bounds.  Ridge: the root of f'(log lambda) from the
    fit's spectrum (:func:`_ridge_lambda`).  A fit that needs no estimate,
    the null model, returns its :func:`known_scale`.
    """
    check_prior(prior_kind)
    known = known_scale(fit, prior_kind, None)
    if known is not None:
        return ScalarEstimate(known.lam, False)
    sigma2 = fit.ypy / fit.n
    if not np.all(sigma2 > 0.0):
        raise LambdaEstimationError("lambda estimation failed: zero residual variance")
    read = _read_factor(fit, prior_kind)
    if prior_kind == "ridge":
        return _ridge_lambda(*read, sigma2)
    excess = read - fit.p * sigma2
    over = excess > 0.0
    lam = np.where(over, fit.p * sigma2 / np.where(over, excess, 1.0), np.inf)
    clipped = np.clip(lam, *LAMBDA_BOUNDS)
    return ScalarEstimate(clipped[()], (clipped != lam)[()])
