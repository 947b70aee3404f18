"""Dense-matrix oracles for the whitened production path.

Everything here assembles the n x n projection matrices explicitly and
evaluates the displayed likelihood formulas by brute force.  Test-only code:
slow, simple, and independent of the package's factorization route.
"""

import math

import numpy as np
import scipy.linalg

LOG_2PI = math.log(2.0 * math.pi)


def dense_v(spec, n):
    """V(phi) of a CovarianceSpec as a dense n x n matrix.

    Built from ``scipy.linalg.toeplitz`` and ``block_diag``, so it shares no
    code with the whiteners it checks.
    """
    if spec.kind == "identity":
        return np.eye(n)
    if spec.kind == "ar1":
        return scipy.linalg.toeplitz(spec.phi ** np.arange(n))
    if spec.kind == "nerm":
        if sum(spec.group_sizes) != n:
            raise ValueError(f"group sizes {spec.group_sizes} do not sum to {n}")
        blocks = [np.eye(k) + spec.phi * np.ones((k, k)) for k in spec.group_sizes]
        return scipy.linalg.block_diag(*blocks)
    if spec.matrix.shape != (n, n):
        raise ValueError(f"custom matrix is {spec.matrix.shape}, expected ({n}, {n})")
    return np.array(spec.matrix)


def proj_p(v, x):
    """P = V^-1 - V^-1 X (X'V^-1X)^-1 X'V^-1 (V^-1 for the null model)."""
    vi = np.linalg.inv(v)
    if x.shape[1] == 0:
        return vi
    return vi - vi @ x @ np.linalg.inv(x.T @ vi @ x) @ x.T @ vi


def mat_a(v, x, w):
    """A = V^-1 - V^-1 X (X'V^-1X + W^-1)^-1 X'V^-1 (V^-1 for the null model)."""
    vi = np.linalg.inv(v)
    if x.shape[1] == 0:
        return vi
    return vi - vi @ x @ np.linalg.inv(x.T @ vi @ x + np.linalg.inv(w)) @ x.T @ vi


def mat_a_woodbury(v, x, w):
    """The equivalent form A = (V + X W X')^-1."""
    return np.linalg.inv(v + x @ w @ x.T)


def ridge_w(lam, p):
    return np.eye(p) / lam


def zellner_w(lam, x, v):
    """W = (lambda * X'V^-1X)^-1, the whitened-Gram convention."""
    vi = np.linalg.inv(v)
    return np.linalg.inv(lam * (x.T @ vi @ x))


def sigma2_hat(y, x, v):
    n = y.shape[0]
    return float(y @ proj_p(v, x) @ y) / n


def sigma2_tilde(y, x, v):
    n, p = y.shape[0], x.shape[1]
    return float(y @ proj_p(v, x) @ y) / (n - p)


def neg2_log_marginal_dense(y, x, v, w):
    n = y.shape[0]
    vi = np.linalg.inv(v)
    s2 = sigma2_hat(y, x, v)
    if x.shape[1] == 0:
        logdet_wg = 0.0
    else:
        logdet_wg = np.linalg.slogdet(w @ x.T @ vi @ x + np.eye(x.shape[1]))[1]
    quad = float(y @ mat_a(v, x, w) @ y)
    return n * (LOG_2PI + math.log(s2)) + np.linalg.slogdet(v)[1] + logdet_wg + quad / s2


def neg2_log_residual_dense(y, x, v):
    n, p = y.shape[0], x.shape[1]
    vi = np.linalg.inv(v)
    s2 = sigma2_tilde(y, x, v)
    logdet_g = 0.0 if p == 0 else np.linalg.slogdet(x.T @ vi @ x)[1]
    quad = float(y @ proj_p(v, x) @ y)
    return (n - p) * (LOG_2PI + math.log(s2)) + np.linalg.slogdet(v)[1] + logdet_g + quad / s2


def dic_dense(y, x, v, w, s2):
    """2 E[D(beta) | y] - D(beta~) with all normalizing constants retained."""
    n = y.shape[0]
    vi = np.linalg.inv(v)
    logdet_v = np.linalg.slogdet(v)[1]
    base = n * (LOG_2PI + math.log(s2)) + logdet_v
    if x.shape[1] == 0:
        return base + float(y @ vi @ y) / s2
    g = x.T @ vi @ x
    m_inv = np.linalg.inv(g + np.linalg.inv(w))
    beta_post = m_inv @ x.T @ vi @ y
    e_quad = float(
        np.trace(g @ (s2 * m_inv + np.outer(beta_post, beta_post)))
        - 2.0 * y @ vi @ x @ beta_post
        + y @ vi @ y
    )
    two_e_d = 2.0 * base + 2.0 * e_quad / s2
    resid = y - x @ beta_post
    d_at_post = base + float(resid @ vi @ resid) / s2
    return two_e_d - d_at_post


def gls_beta(y, x, v):
    vi = np.linalg.inv(v)
    return np.linalg.solve(x.T @ vi @ x, x.T @ vi @ y)


def random_spd(rng, n, jitter=0.5):
    m = rng.standard_normal((n, n))
    return m @ m.T + jitter * n * np.eye(n)


def prior_terms_mp(y, x, v, kind, lam, dps=60):
    """The prior-step quantities in ``dps``-digit arithmetic, for near-singular designs.

    Returns a dict of floats: ``ypy`` (y'Py), ``yay`` (y'Ay with the
    Woodbury form A = (V + X W X')^-1), ``logdet`` (log|WG + I|), ``quad``
    (the V^-1 residual quadratic form at the posterior mean
    (G + W^-1)^-1 X'V^-1 y) and ``p_d`` (tr[G (G + W^-1)^-1]), where
    G = X'V^-1X and W = I / lam (ridge) or (lam G)^-1 (zellner).  mpmath
    carries enough digits that the float64 inputs are the only error.
    """
    import mpmath

    with mpmath.workdps(dps):
        ym = mpmath.matrix(y.tolist())
        xm = mpmath.matrix(x.tolist())
        vm = mpmath.matrix(v.tolist())
        p = x.shape[1]
        vi = mpmath.inverse(vm)
        g = xm.T * vi * xm
        z = xm.T * vi * ym
        w_inv = lam * (mpmath.eye(p) if kind == "ridge" else g)
        w = mpmath.inverse(w_inv)
        m_inv = mpmath.inverse(g + w_inv)
        resid = ym - xm * (m_inv * z)
        out = {
            "ypy": (ym.T * vi * ym)[0] - (z.T * mpmath.inverse(g) * z)[0],
            "yay": (ym.T * mpmath.inverse(vm + xm * w * xm.T) * ym)[0],
            "logdet": mpmath.log(mpmath.det(w * g + mpmath.eye(p))),
            "quad": (resid.T * vi * resid)[0],
            "p_d": sum((g * m_inv)[i, i] for i in range(p)),
        }
        return {k: float(val) for k, val in out.items()}
