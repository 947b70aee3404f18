"""Error-covariance families V(phi) and coefficient prior scales W(lambda).

The regression model treats the error covariance as sigma^2 * V, where V is
known up to a scalar parameter phi.  Three structured families are provided
(identity, AR(1), nested-error blocks) plus an escape hatch for any fixed
symmetric positive-definite matrix.  :func:`make_whitener` is the one entry
point from a :class:`CovarianceSpec` to an operator, the action of L^{-1}
for the Cholesky factor V = L L^t, which is all the fitting layer needs.
Its one dispatch on the kind builds a family phi -> operator, which the phi
profile builds once per layout of a block, not at each evaluation.  Dense V
is factored by LAPACK's dpotrf, called directly (in place on the nerm V the
family builds, on a copy of a custom matrix); the AR(1) operator runs in
O(n) via the innovations recursion (its ``color`` runs x_1 = w_1, x_i = s
w_i + phi x_{i-1} with s = sqrt(1 - phi^2)), and serves identity as the
recursion at phi = 0; the nested-error V is built from the group labels.

The coefficient prior N(0, sigma^2 W) comes in two families, ridge and
Zellner, and only this module knows them: the prior check, the terms a
scale adds to a fit (:class:`PriorScale`), the null-model rule and lambda.

Hyperparameters are estimated by deterministic plug-in rules: phi by
profile maximum likelihood on the full model (a grid scan, exact but pruned
for nerm by the monotone parts of the profile, then golden section), for
one dataset or a block of them, whose datasets of one layout share each
grid point's factor of V and get the estimates they get alone, bit for bit;
lambda by maximizing each candidate's marginal likelihood with the variance
estimate held fixed (Zellner in closed form, ridge by a grid scan, then a
Newton root of the derivative from the fit's spectrum).  The prior terms
and the lambda search take a batch fit as they take a single candidate:
every formula is an array expression over the batch, and the ridge search
scans the grid and runs its safeguarded Newton steps for the whole batch at
once, masking each candidate out as it converges.  The lambda grid scan,
exact but pruned (:func:`_grid_argmin`), runs over the batch in chunks of
at most ``BATCH_ELEMENTS`` doubles.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np
import scipy.linalg

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
# The pruned grid scans' probes, every 8th point and the last; the lambda
# scan also takes the blocks between them (the short last block repeats its
# last index).
_PROBES = np.append(np.arange(0, LAMBDA_GRID_POINTS - 1, 8), LAMBDA_GRID_POINTS - 1)
_BLOCKS = np.minimum(_PROBES[:-1, None] + np.arange(1, 8), _PROBES[1:, None] - 1)
_PHI_PROBES = np.append(np.arange(0, GRID_POINTS - 1, 8), GRID_POINTS - 1).tolist()
# The phi profile grids; nerm's phi >= 0 spans eight decades, log-spaced
# plus the zero endpoint.
_PHI_GRIDS = {
    "ar1": np.linspace(PHI_AR1_BOUNDS[0], PHI_AR1_BOUNDS[1], GRID_POINTS),
    "nerm": np.concatenate(([0.0], np.geomspace(1e-6, PHI_NERM_BOUNDS[1], GRID_POINTS - 1))),
}
_EPS = float(np.finfo(float).eps)


def is_int(value) -> bool:
    """The package's one integer rule: an int or a NumPy integer, so not a
    bool.  A type test, not ``numbers.Integral``, which is several times
    slower: a nerm spec checks every group size each time it is built."""
    return type(value) is int or isinstance(value, np.integer)


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
            sizes = tuple(self.group_sizes)
            if not all(is_int(s) and s >= 1 for s in sizes):
                raise CovarianceError(
                    f"nerm group sizes must be positive whole numbers, got {self.group_sizes}"
                )
            object.__setattr__(self, "group_sizes", tuple(map(int, sizes)))
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
    the recursion returns its input, so it is the identity whitener too.
    ``color`` applies L along the first axis: x_1 = w_1, x_i = s w_i +
    phi x_{i-1} with s = sqrt(1 - phi^2); ``whiten`` inverts it."""

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
        x = np.array(w, dtype=float)
        x[1:] *= self.scale
        for i in range(1, len(x)):
            x[i] += self.phi * x[i - 1]
        return x


class _CholeskyWhitener:
    """V = L L^t by dpotrf and L^{-1} b by dtrtrs: the routines of
    ``scipy.linalg.cholesky``/``solve_triangular``, minus their checks.
    dpotrf factors ``v`` in place only when the caller hands it over
    (``overwrite``, with ``v`` Fortran-ordered); otherwise it works on a copy,
    so a caller's matrix, such as a custom spec's, keeps its bytes."""

    def __init__(self, v: np.ndarray, overwrite: bool = False):
        self.l, info = scipy.linalg.lapack.dpotrf(v, lower=1, clean=1, overwrite_a=overwrite)
        if info:
            raise CovarianceError("covariance not PD")
        self.logdet = 2.0 * float(np.sum(np.log(np.diag(self.l))))

    def whiten(self, b):
        return scipy.linalg.lapack.dtrtrs(self.l, np.asarray(b, dtype=float), lower=1)[0]

    def color(self, w):
        return self.l @ np.asarray(w, dtype=float)


def _whitener_family(spec: CovarianceSpec, n: int):
    """phi -> whitening operator for V(phi) of size n.  The kind dispatch, the
    size check and the nerm same-group mask run once, when the family is built."""
    spec.check_size(n)
    if spec.kind in ("identity", "ar1"):  # V = I is the AR(1) matrix at phi = 0
        return lambda phi: _Ar1Whitener(0.0 if phi is None else phi, n)
    if spec.kind == "custom":
        return lambda phi: _CholeskyWhitener(spec.matrix)
    group = np.repeat(np.arange(len(spec.group_sizes)), spec.group_sizes)
    same, diag = group[:, None] == group[None, :], np.diag_indices(n)

    def nerm(phi):
        v = phi * same
        v[diag] += 1.0
        # V is symmetric, so v.T is V in Fortran order, factored in place.
        return _CholeskyWhitener(v.T, overwrite=True)

    return nerm


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
    return _whitener_family(spec, n)(spec.phi)


# ---------------------------------------------------------------------------
# Deterministic 1-D optimization
# ---------------------------------------------------------------------------


def _golden_min(f, a, b, x0, f0, rtol=GOLDEN_RTOL):
    """Golden-section minimum on [a, b], returning (x, f(x)) of the first
    point it evaluates below all others and below f0 = f(x0), else (x0, f0)."""
    best = [x0, f0]

    def ev(x):
        fx = f(x)
        if fx < best[1]:
            best[0], best[1] = x, fx
        return fx

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


class _PhiProfile:
    """One dataset's phi profile: the parts of f at an operator of its
    layout's family (:func:`_whitener_family`), and its grid scan's values
    and terms so far (f = inf where not yet evaluated)."""

    def __init__(self, dataset: "Dataset"):
        self.y, self.x, self.n = dataset.y, dataset.x_full, dataset.n
        self.vals = np.full(GRID_POINTS, np.inf)
        self.terms = {}

    def parts(self, wh):
        # (A, B, y'V^{-1}y, y'Py) at the operator wh.
        yt = wh.whiten(self.y)
        # Q of the reduced QR of the whitened X by np.linalg.qr's routines,
        # minus its checks, C-ordered as it returns Q, so that Q.T @ yt
        # takes the same BLAS path and bits.
        qr, tau = scipy.linalg.lapack.dgeqrf(wh.whiten(self.x), overwrite_a=1)[:2]
        c = np.ascontiguousarray(scipy.linalg.lapack.dorgqr(qr, tau, overwrite_a=1)[0]).T @ yt
        yty = float(yt @ yt)
        ypy = yty - float(c @ c)
        return (self.n * math.log(ypy) if ypy > 0.0 else math.inf), wh.logdet, yty, ypy

    def objective(self, wh) -> float:
        a, b = self.parts(wh)[:2]
        return a + b

    def record(self, k: int, wh) -> None:
        """Evaluate grid point k at its operator wh."""
        self.terms[k] = terms = self.parts(wh)
        self.vals[k] = terms[0] + terms[1]

    def kept_blocks(self, prunes: bool) -> list[bool]:
        """Whether the scan evaluates each block between probes, read from
        the probes' terms (the bound of :func:`estimate_phi_full_model`)."""
        m = int(np.argmin(self.vals))
        f_m, (_, b_m, yty_m, ypy_m) = self.vals[m], self.terms[m]
        prunes = prunes and math.isfinite(f_m)
        rounding = 4.0 * (self.n + self.x.shape[1]) * _EPS * self.n
        kept = []
        for a, b in zip(_PHI_PROBES[:-1], _PHI_PROBES[1:]):
            (_, b_a, yty_a, _), (a_b, _, _, ypy_b) = self.terms[a], self.terms[b]
            bound, pruned = a_b + b_a, False
            if prunes and math.isfinite(bound):
                margin = (rounding * (yty_a / ypy_b + yty_m / ypy_m)
                          + 1e-12 * (self.n + abs(b_a) + abs(b_m)))
                pruned = bound - margin > f_m
            kept.append(not pruned)
        return kept

    def estimate(self, family, kind: str, grid: np.ndarray) -> ScalarEstimate:
        """phi_hat from the scanned grid: golden section over the argmin's
        neighbouring cells, and its boundary flag."""
        if not np.isfinite(self.vals).any():
            raise CovarianceError("phi estimation failed: objective non-finite over the entire grid")
        k = int(np.argmin(self.vals))
        phi_hat = _golden_min(lambda phi: self.objective(family(phi)), grid[max(k - 1, 0)],
                              grid[min(k + 1, len(grid) - 1)], grid[k], self.vals[k])[0]
        if kind == "ar1":
            lo, hi = PHI_AR1_BOUNDS
            at_boundary = min(phi_hat - lo, hi - phi_hat) <= 1e-6 * (hi - lo)
        else:  # log-spaced from grid[1]: below it phi_hat sits on 0
            hi = PHI_NERM_BOUNDS[1]
            at_boundary = (phi_hat < grid[1]
                           or math.log(hi / phi_hat) <= 1e-6 * math.log(hi / grid[1]))
        return ScalarEstimate(float(phi_hat), bool(at_boundary))


def estimate_phi_full_model(
    datasets: "Dataset | Sequence[Dataset]",
) -> ScalarEstimate | None | list[ScalarEstimate | None]:
    """Profile maximum-likelihood estimate of phi on the full model, for one
    dataset or for each of a block of them (a sequence; then a list of
    estimates, in order).

    The GLS coefficients and the variance are profiled out, leaving
    f(phi) = A(phi) + B(phi), A = ``n log(y' P(phi) y)`` and B = ``log|V(phi)|``
    (f = inf where the computed y'Py is not positive), to minimize over
    the admissible range: a grid scan, then golden section over the
    neighbouring cells of the grid argmin, which stays phi_hat unless the
    search finds a lower value.  A dataset whose covariance has no free
    parameter gets ``None``.

    The grid scan is exact but pruned: it finds the full scan's first
    argmin and values without evaluating every point.  It evaluates every
    8th grid point and the last (the probes), then each block of points
    between probes phi_a < phi_b unless a lower bound on f over the block
    clears the probes' minimum f_m (at probe m) by more than a rounding
    margin.  For nerm, V(phi) = I + phi blockdiag(J_k) grows with phi in
    the Loewner order, so y'V^{-1}y and y'Py = min_beta (y - X beta)'
    V^{-1} (y - X beta) fall and log|V| rises: on the block, f >= A(phi_b) +
    B(phi_a).  The margin covers the rounding of both sides.  y'Py is
    computed as yt.yt - c.c, whose relative error is about (n + p) eps
    times the cancellation factor y'V^{-1}y / y'Py; inside the block that
    factor is at most y'V^{-1}y(phi_a) / y'Py(phi_b), as both fall with
    phi, and n log turns it into an absolute error of n times as much.
    The margin is 4 (n + p) eps n (yty_a / ypy_b + yty_m / ypy_m) +
    1e-12 (n + |B_a| + |B_m|), the last term for the factorizations and
    the logarithms.  A non-finite bound or probe minimum prunes nothing,
    so a grid with no finite value raises as the full scan does.  AR(1)'s
    V is not monotone in phi, so its scan has no bound and evaluates every
    block.

    The datasets of a block that share a layout (kind, nerm group sizes
    and n) share V(phi) at every grid point, so their scans run together,
    grid point by grid point: V is built and factored once per point that
    any of them evaluates, and each dataset whitens its own data by that
    factor and keeps its own probes, pruning and values.  Only one factor
    is held at a time.  The golden section runs per dataset.  Every
    dataset's estimate is the one it gets alone, bit for bit, and a
    failure raises the error it raises alone.
    """
    one = not isinstance(datasets, Sequence)
    block = [datasets] if one else list(datasets)
    layouts = {}
    for i, dataset in enumerate(block):
        spec = dataset.cov
        if spec.has_unknown_phi:
            layouts.setdefault((spec.kind, spec.group_sizes, dataset.n), []).append(i)
    estimates = [None] * len(block)
    for (kind, _, n), rows in layouts.items():
        family, grid = _whitener_family(block[rows[0]].cov, n), _PHI_GRIDS[kind]
        profiles = [_PhiProfile(block[i]) for i in rows]

        def at(k: int, live) -> None:
            wh = family(grid[k])
            for profile in live:
                profile.record(k, wh)

        for k in _PHI_PROBES:
            at(k, profiles)
        keeps = [profile.kept_blocks(kind == "nerm") for profile in profiles]
        for j, (a, b) in enumerate(zip(_PHI_PROBES[:-1], _PHI_PROBES[1:])):
            live = [profile for profile, keep in zip(profiles, keeps) if keep[j]]
            for k in range(a + 1, b) if live else ():
                at(k, live)
        for i, profile in zip(rows, profiles):
            estimates[i] = profile.estimate(family, kind, grid)
    return estimates[0] if one else estimates


def _f_terms(d: np.ndarray, c: np.ndarray, idx: np.ndarray):
    """The two parts of each term of f, log1p(d / lambda) and c / (1 + d / lambda),
    at the grid points ``idx`` (shape (k,) or (rows, k)) for each row of d and c."""
    ratio = d[:, None, :] * _INV_LAMBDA_GRID[idx][..., None]
    pen = np.log1p(ratio)
    ratio += 1.0
    return pen, np.divide(c[:, None, :], ratio, out=ratio)


def _grid_argmin(d: np.ndarray, w2: np.ndarray, s2: np.ndarray) -> np.ndarray:
    """Each row's first grid index of the minimum of f, as a full scan finds it
    (d, w2 >= 0 are rows x p, s2 rows x 1).  A term's log1p part falls in
    lambda and its other part rises, so the log1p parts at a block's right
    probe plus the other parts at its left probe bound f on the block from
    below.  Only the probes and the blocks whose bound is within a relative
    1e-12 (far above the (p + 5) eps rounding of these non-negative sums) of
    the probes' minimum are evaluated, with the full scan's expression and
    sum.  A non-finite probe minimum prunes nothing, and raises as a full
    scan does.  A chunk of rows holds their probes' terms and their values
    on the whole grid, and the kept blocks of a chunk are evaluated in
    chunks of their own, so no temporary exceeds ``BATCH_ELEMENTS`` doubles
    (or one row's probe terms, if those are more)."""
    best = np.empty(d.shape[0], dtype=np.intp)
    p = d.shape[1]
    chunk = max(1, BATCH_ELEMENTS // max(LAMBDA_GRID_POINTS, len(_PROBES) * p))
    kept_chunk = max(1, BATCH_ELEMENTS // (_BLOCKS.shape[1] * p))
    for start in range(0, d.shape[0], chunk):
        part = slice(start, start + chunk)
        dp, c = d[part], w2[part] / s2[part]
        pen, fit = _f_terms(dp, c, _PROBES)
        vals = np.full((len(dp), LAMBDA_GRID_POINTS), np.inf)
        vals[:, _PROBES] = np.add.reduce(pen + fit, axis=2)
        low = np.add.reduce(pen[:, 1:] + fit[:, :-1], axis=2)
        rows, blocks = np.nonzero(~(low * (1.0 - 1e-12) > vals.min(axis=1)[:, None]))
        for lo in range(0, len(rows), kept_chunk):
            r, idx = rows[lo : lo + kept_chunk], _BLOCKS[blocks[lo : lo + kept_chunk]]
            vals[r[:, None], idx] = np.add.reduce(np.add(*_f_terms(dp[r], c[r], idx)), axis=2)
        best[part] = np.argmin(vals, axis=1)
        if not np.all(np.isfinite(vals[np.arange(len(dp)), best[part]])):
            raise LambdaEstimationError("lambda estimation failed: objective non-finite on the grid")
    return best


def _ridge_lambda(d: np.ndarray, w2: np.ndarray, sigma2: float | np.ndarray) -> ScalarEstimate:
    """Minimizer of f(t) = sum log1p(d / lambda) + lambda sum w2 / (d + lambda) / s2,
    for one candidate or for each of a batch (leading axes of ``d``, ``w2``
    and ``sigma2``).

    The grid argmin in t = log lambda (:func:`_grid_argmin`, exact and
    pruned) picks the basin (a grid end whose slope points outward is the
    flagged bound), then a Newton step on f'(t)
    within the neighbouring cells, safeguarded by bisection, finds the root.
    It stops on the step size or a rounding-level f', never on rounded f.
    Each candidate of a batch takes exactly the steps it would take alone.
    """
    shape, p = np.shape(sigma2), d.shape[-1]
    d, w2 = d.reshape(-1, p), w2.reshape(-1, p)
    s2 = np.reshape(sigma2, (-1, 1))
    best = _grid_argmin(d, w2, s2)

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
