import math

import numpy as np
import pytest
import scipy.linalg

from bmlselect import (
    CandidateModel,
    CovarianceError,
    CovarianceSpec,
    Dataset,
    PriorScale,
    estimate_lambda,
    estimate_phi_full_model,
    gls_fit,
    neg2_log_marginal,
    whiten,
)
from bmlselect.covariance import make_whitener
from dense_oracle import dense_v, random_spd


# ---------------------------------------------------------------------------
# make_whitener
# ---------------------------------------------------------------------------


def _colored_identity(spec, n):
    """V = L L' rebuilt from the whitener's coloring operator L."""
    l = make_whitener(spec, n).color(np.eye(n))
    return l @ l.T


def test_ar1_whitener_colors_to_phi_powers():
    v = _colored_identity(CovarianceSpec.ar1(0.5), 4)
    assert v[0, 2] == pytest.approx(0.25)
    assert np.allclose(np.diag(v), 1.0)


def test_nerm_whitener_single_group():
    wh = make_whitener(CovarianceSpec.nerm((2,), 1.0), 2)
    l = wh.color(np.eye(2))
    np.testing.assert_allclose(l @ l.T, [[2.0, 1.0], [1.0, 2.0]])
    assert wh.logdet == pytest.approx(math.log(3.0), rel=1e-15)


def test_identity_whitener_is_noop():
    wh = make_whitener(CovarianceSpec.identity(), 5)
    b = np.arange(10.0).reshape(5, 2)
    np.testing.assert_array_equal(wh.whiten(b), b)
    np.testing.assert_array_equal(wh.color(b), b)
    assert wh.logdet == 0.0


@pytest.mark.parametrize("phi", [-0.99, -0.3, 0.0, 0.7, 0.99])
def test_ar1_toeplitz_unit_diagonal_pd(phi):
    v = _colored_identity(CovarianceSpec.ar1(phi), 12)
    assert np.allclose(np.diag(v), 1.0)
    # Toeplitz: constant diagonals
    for k in range(12):
        band = np.diag(v, k)
        assert np.allclose(band, band[0])
    scipy.linalg.cholesky(v, lower=True)  # PD: it must factor


def test_nerm_eigenvalues_and_determinant():
    sizes = (3, 2, 4)
    phi = 0.8
    wh = make_whitener(CovarianceSpec.nerm(sizes, phi), 9)
    l = wh.color(np.eye(9))
    eig = np.sort(np.linalg.eigvalsh(l @ l.T))
    expect = np.sort([1.0] * 6 + [1.0 + phi * s for s in sizes])
    np.testing.assert_allclose(eig, expect, rtol=1e-9)
    logdet_closed = sum(math.log1p(phi * s) for s in sizes)
    assert wh.logdet == pytest.approx(logdet_closed, rel=1e-12)


def test_invalid_parameters_rejected():
    with pytest.raises(CovarianceError, match="out of range"):
        CovarianceSpec.ar1(1.0)
    with pytest.raises(CovarianceError, match="out of range"):
        CovarianceSpec.nerm((2, 2), -0.5)
    with pytest.raises(CovarianceError):
        CovarianceSpec(kind="wishful")
    for phi in (math.nan, math.inf, -math.inf):
        with pytest.raises(CovarianceError, match="phi must be finite"):
            CovarianceSpec.nerm((2, 2), phi)
        with pytest.raises(CovarianceError, match="phi must be finite"):
            CovarianceSpec.ar1(phi)
    with pytest.raises(CovarianceError, match="non-finite"):
        CovarianceSpec.custom([[1.0, 0.0], [0.0, math.inf]])
    with pytest.raises(CovarianceError, match="phi unknown"):
        make_whitener(CovarianceSpec.nerm((2, 2)), 4)


@pytest.mark.parametrize(
    "spec",
    [CovarianceSpec.nerm((2, 2), 0.5), CovarianceSpec.custom(np.eye(4))],
    ids=["nerm", "custom"],
)
def test_size_mismatch_rejected_by_whitener_and_dataset(spec):
    # V is 4 x 4; the data have n = 5.
    with pytest.raises(CovarianceError, match="expected n = 5"):
        make_whitener(spec, 5)
    with pytest.raises(CovarianceError, match="expected n = 5"):
        Dataset(y=np.arange(5.0), x_full=np.arange(5.0).reshape(5, 1) + 1.0, cov=spec)
    assert make_whitener(spec, 4).logdet == pytest.approx(np.linalg.slogdet(dense_v(spec, 4))[1])


@pytest.mark.parametrize(
    "spec, n",
    [
        (CovarianceSpec.ar1(-0.4), 30),
        (CovarianceSpec.nerm((3, 2, 4), 0.7), 9),
        (CovarianceSpec.custom(random_spd(np.random.default_rng(5), 7)), 7),
    ],
    ids=["ar1", "nerm", "custom"],
)
def test_whitener_matches_dense_factorization(spec, n):
    v = dense_v(spec, n)
    l = scipy.linalg.cholesky(v, lower=True)
    rng = np.random.default_rng(0)
    b = rng.standard_normal((n, 3))
    wh = make_whitener(spec, n)
    np.testing.assert_allclose(
        wh.whiten(b), scipy.linalg.solve_triangular(l, b, lower=True), atol=1e-12
    )
    np.testing.assert_allclose(wh.color(b), l @ b, atol=1e-12)
    assert wh.logdet == pytest.approx(np.linalg.slogdet(v)[1], rel=1e-12)


# ---------------------------------------------------------------------------
# estimate_phi_full_model
# ---------------------------------------------------------------------------


def _profile_objective(dataset, spec):
    y, x = dataset.y, dataset.x_full
    n = dataset.n

    def obj(phi):
        wh = make_whitener(spec.with_phi(phi), n)
        yt = wh.whiten(y)
        q = np.linalg.qr(wh.whiten(x), mode="reduced")[0]
        c = q.T @ yt
        return n * math.log(float(yt @ yt - c @ c)) + wh.logdet

    return obj


def _ar1_dataset(rng, n, phi, snr=5.0, p=4):
    x = rng.standard_normal((n, p))
    beta = np.ones(p)
    sigma = math.sqrt(float(beta @ beta)) / snr
    eps = sigma * make_whitener(CovarianceSpec.ar1(phi), n).color(rng.standard_normal(n))
    return Dataset(y=x @ beta + eps, x_full=x, cov=CovarianceSpec.ar1(None))


def test_estimate_phi_identity_is_none():
    ds = Dataset(y=np.arange(4.0), x_full=np.arange(8.0).reshape(4, 2) + 0.1,
                 cov=CovarianceSpec.identity())
    assert estimate_phi_full_model(ds) is None


def test_estimate_phi_known_phi_is_none():
    rng = np.random.default_rng(1)
    ds = _ar1_dataset(rng, 30, 0.5)
    ds_known = Dataset(y=ds.y, x_full=ds.x_full, cov=CovarianceSpec.ar1(0.5))
    assert estimate_phi_full_model(ds_known) is None


def test_estimate_phi_beats_101_point_grid():
    rng = np.random.default_rng(2)
    ds = _ar1_dataset(rng, 60, 0.5)
    est = estimate_phi_full_model(ds)
    obj = _profile_objective(ds, ds.cov)
    grid_min = min(obj(phi) for phi in np.linspace(-0.99, 0.99, 101))
    assert obj(est.value) <= grid_min + 1e-6


def test_estimate_phi_monte_carlo_calibration():
    # n = 400, SNR = 5: the estimate lands within +-0.1 of the truth in at
    # least 95% of 200 replications
    hits = 0
    reps = 200
    for rep in range(reps):
        rng = np.random.default_rng(1000 + rep)
        ds = _ar1_dataset(rng, 400, 0.5)
        est = estimate_phi_full_model(ds)
        hits += abs(est.value - 0.5) <= 0.1
    assert hits >= 0.95 * reps


def test_estimate_phi_nerm_boundary_flag():
    # pure noise has no group effect, so the nerm phi profile bottoms out at 0
    rng = np.random.default_rng(3)
    n = 24
    x = rng.standard_normal((n, 2))
    y = rng.standard_normal(n)
    ds = Dataset(y=y, x_full=x, cov=CovarianceSpec.nerm((4,) * 6, None))
    est = estimate_phi_full_model(ds)
    assert est.at_boundary
    assert est.value <= 1e-4


# ---------------------------------------------------------------------------
# estimate_lambda
# ---------------------------------------------------------------------------


def _lambda_criterion_objective(wd, model, prior_kind):
    """Oracle: the actual -2 log marginal recomputed per lambda."""

    def obj(lam):
        fit = gls_fit(wd, model).with_prior(PriorScale(prior_kind, lam))
        return neg2_log_marginal(fit)

    return obj


@pytest.mark.parametrize("prior_kind", ["ridge", "zellner"])
def test_estimate_lambda_beats_log_grid(prior_kind):
    rng = np.random.default_rng(4)
    n, p = 25, 3
    x = rng.standard_normal((n, p))
    y = x @ np.array([1.0, 0.5, 0.0]) + rng.standard_normal(n)
    ds = Dataset(y=y, x_full=x, cov=CovarianceSpec.identity())
    wd = whiten(ds)
    model = CandidateModel((1, 2, 3))
    est = estimate_lambda(gls_fit(wd, model), prior_kind)
    obj = _lambda_criterion_objective(wd, model, prior_kind)
    grid_min = min(obj(lam) for lam in np.geomspace(1e-8, 1e8, 201))
    assert obj(est.value) <= grid_min + 1e-8


def test_estimate_lambda_orthogonal_response_hits_upper_boundary():
    # y orthogonal to the candidate columns: shrink everything, lambda -> max
    n = 12
    x = np.zeros((n, 2))
    x[1, 0] = 1.0
    x[2, 1] = 1.0
    y = np.zeros(n)
    y[0] = 3.0
    y[5:] = np.array([1.0, -1.0, 2.0, -2.0, 0.5, -0.5, 1.5])
    ds = Dataset(y=y, x_full=x, cov=CovarianceSpec.identity())
    est = estimate_lambda(gls_fit(whiten(ds), CandidateModel((1, 2))), "ridge")
    assert est.at_boundary
    assert est.value == pytest.approx(1e8, rel=1e-3)


def test_estimate_lambda_scale_invariant_for_ridge():
    rng = np.random.default_rng(6)
    n, p = 20, 3
    x = rng.standard_normal((n, p))
    y = x @ np.ones(p) + rng.standard_normal(n)
    model = CandidateModel((1, 2, 3))
    base = estimate_lambda(gls_fit(whiten(Dataset(y=y, x_full=x, cov=CovarianceSpec.identity())),
                                   model), "ridge")
    for c in (0.1, 2.0, 10.0):
        scaled = estimate_lambda(
            gls_fit(whiten(Dataset(y=c * y, x_full=x, cov=CovarianceSpec.identity())),
                    model), "ridge")
        assert scaled.value == pytest.approx(base.value, rel=1e-6)


def test_estimate_lambda_null_model_neutral():
    ds = Dataset(y=np.arange(5.0), x_full=np.arange(5.0).reshape(5, 1) + 1.0,
                 cov=CovarianceSpec.identity())
    est = estimate_lambda(gls_fit(whiten(ds), CandidateModel(())))
    assert est.value == 1.0
    assert not est.at_boundary


# ---------------------------------------------------------------------------
# PriorScale
# ---------------------------------------------------------------------------


def test_prior_scale_validation():
    with pytest.raises(ValueError):
        PriorScale("ridge", 0.0)
    with pytest.raises(ValueError):
        PriorScale("flat", 1.0)
    w = PriorScale("ridge", 4.0)
    np.testing.assert_allclose(w.w_inverse(np.eye(2) * 7.0), 4.0 * np.eye(2))
    g = np.array([[2.0, 0.3], [0.3, 1.0]])
    z = PriorScale("zellner", 4.0)
    np.testing.assert_allclose(z.w_inverse(g), 4.0 * g)
    logdet_g = np.linalg.slogdet(g)[1]
    assert z.logdet_w(2, logdet_g) == pytest.approx(-(2 * math.log(4.0) + logdet_g))
