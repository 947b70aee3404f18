import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bmlselect import (
    CandidateModel,
    CovarianceError,
    CovarianceSpec,
    Dataset,
    LambdaEstimationError,
    PriorScale,
    estimate_lambda,
    estimate_phi_full_model,
    gls_fit,
    ml,
    select,
    whiten,
)
from bmlselect import covariance
from bmlselect.covariance import (
    GRID_POINTS,
    LAMBDA_BOUNDS,
    LAMBDA_GRID_POINTS,
    PHI_AR1_BOUNDS,
    PHI_NERM_BOUNDS,
    _golden_min,
    make_whitener,
)
from bmlselect.selection import enumerate_candidates
from dense_oracle import dense_v, proj_p, random_spd

EPS = np.finfo(float).eps


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


@pytest.mark.parametrize("phi", [0.0, 0.5, -0.5, 0.99, -0.99])
@pytest.mark.parametrize("n", [1, 2, 160])
def test_ar1_color_matches_lfilter_bytes(n, phi):
    # The recursion is the order-1 direct form that lfilter computes, so the
    # coloured noise of the simulation study is the same to the last bit.
    import scipy.signal

    wh = make_whitener(CovarianceSpec.ar1(phi), n)
    rng = np.random.default_rng(n)
    for w in (rng.standard_normal(n), rng.standard_normal((n, 3)), np.eye(n)):
        scaled = w.copy()
        scaled[1:] *= math.sqrt(1.0 - phi * phi)
        expect = scipy.signal.lfilter([1.0], [1.0, -phi], scaled, axis=0)
        got = wh.color(w)
        assert got.shape == w.shape
        assert got.tobytes() == expect.tobytes()


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


@pytest.mark.parametrize("phi", [0.0, 1e-6, 0.7, 10.0, 1e4])
@pytest.mark.parametrize("sizes", [(3, 2, 4), (1, 7, 2, 2, 5), (1,)], ids=str)
def test_nerm_whitener_is_bit_equal_to_the_dense_cholesky(sizes, phi):
    # Bitwise, not to a tolerance: a V that moves by one ulp can move phi_hat
    # through the golden-section search, and with it every output byte.
    spec = CovarianceSpec.nerm(sizes, phi)
    n = sum(sizes)
    l = scipy.linalg.cholesky(dense_v(spec, n), lower=True)
    b = np.random.default_rng(3).standard_normal((n, 3))
    wh = make_whitener(spec, n)
    assert np.array_equal(wh.whiten(b), scipy.linalg.solve_triangular(l, b, lower=True))
    assert wh.logdet == 2.0 * float(np.sum(np.log(np.diag(l))))


@pytest.mark.parametrize(
    "spec",
    [
        CovarianceSpec.nerm((4,) * 20, 0.7),
        CovarianceSpec.nerm((4,) * 40, 1e4),
        CovarianceSpec.nerm((1, 7, 2, 2, 5), 3.0),
        CovarianceSpec.custom(random_spd(np.random.default_rng(6), 9)),
    ],
    ids=["nerm_4x20", "nerm_4x40", "nerm_unequal", "custom"],
)
def test_cholesky_whitener_is_bit_equal_to_the_scipy_wrappers(spec):
    # The whitener calls dpotrf and dtrtrs directly; every byte must match
    # scipy.linalg.cholesky and solve_triangular, or phi_hat can move.
    n = spec.matrix.shape[0] if spec.kind == "custom" else sum(spec.group_sizes)
    v = dense_v(spec, n)
    given = None if spec.matrix is None else spec.matrix.copy()
    wh = make_whitener(spec, n)
    l = scipy.linalg.cholesky(v, lower=True)
    assert wh.l.tobytes() == l.tobytes()
    rng = np.random.default_rng(n)
    for b in (rng.standard_normal(n), rng.standard_normal((n, 3))):
        assert wh.whiten(b).tobytes() == scipy.linalg.solve_triangular(l, b, lower=True).tobytes()
        assert wh.color(b).tobytes() == (l @ b).tobytes()
    assert wh.logdet == 2.0 * float(np.sum(np.log(np.diag(l))))
    if given is not None:  # dpotrf factors a copy of a custom matrix
        assert spec.matrix.tobytes() == given.tobytes()


@pytest.mark.parametrize("order", ["C", "F"])
def test_custom_matrix_keeps_its_bytes(order):
    # The nerm family factors the V it builds in place; a custom spec holds
    # the caller's own array (Fortran-ordered, dpotrf could use it as is),
    # which no whitener, profile or selection may overwrite.
    n = 12
    matrix = np.array(random_spd(np.random.default_rng(7), n), order=order)
    given = matrix.copy(order="K")
    spec = CovarianceSpec.custom(matrix)
    assert spec.matrix is matrix
    rng = np.random.default_rng(8)
    x = rng.standard_normal((n, 3))
    ds = Dataset(y=x @ np.ones(3) + rng.standard_normal(n), x_full=x, cov=spec)
    make_whitener(spec, n)
    select(ds, "bic")
    assert estimate_phi_full_model(ds) is None
    assert matrix.tobytes(order="A") == given.tobytes(order="A")


@pytest.mark.parametrize(
    "fields, message",
    [
        (dict(kind="identity", phi=0.5), "identity covariance takes no phi"),
        (dict(kind="custom", phi=0.5, matrix=np.eye(2)), "custom covariance takes no phi"),
        (dict(kind="nerm", phi=0.5), "nerm covariance requires group_sizes"),
        (dict(kind="ar1", group_sizes=(2, 2)), "group_sizes only apply to the nerm kind"),
        (dict(kind="custom"), "custom covariance requires a matrix"),
        (dict(kind="custom", matrix=np.ones((2, 3))), "custom covariance matrix must be square"),
        (dict(kind="custom", matrix=[[1.0, 0.5], [0.0, 1.0]]),
         "custom covariance matrix must be symmetric"),
        (dict(kind="identity", matrix=np.eye(2)), "matrix only applies to the custom kind"),
    ],
    ids=["phi_on_identity", "phi_on_custom", "nerm_without_sizes", "sizes_on_ar1",
         "custom_without_matrix", "matrix_not_square", "matrix_asymmetric", "matrix_on_identity"],
)
def test_spec_rejects_fields_its_kind_does_not_take(fields, message):
    with pytest.raises(CovarianceError) as info:
        CovarianceSpec(**fields)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "sizes",
    [(4.5, 3.5), (4, 2.5), (2, "2"), ("a",), (math.nan,), (math.inf,), (True, 2), (1, 2.0)],
    ids=str,
)
def test_nerm_rejects_group_sizes_that_are_not_whole_numbers(sizes):
    # Sizes are integers, not bools or floats, even whole ones (True, 2.0).
    with pytest.raises(CovarianceError, match="positive whole numbers"):
        CovarianceSpec.nerm(sizes, 0.3)


def test_nerm_stores_numpy_integer_sizes_as_int():
    sizes = CovarianceSpec.nerm(np.array([2, 3]), 0.3).group_sizes
    assert sizes == (2, 3) and all(type(s) is int for s in sizes)


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


def _reference_phi(dataset):
    """phi_hat and its flag from a profile that builds V(phi) through
    ``make_whitener(spec.with_phi(phi), n)`` at every evaluation, on the
    production grid and golden search, with both bracket ends re-evaluated."""
    obj = _profile_objective(dataset, dataset.cov)
    if dataset.cov.kind == "ar1":
        lo, hi = PHI_AR1_BOUNDS
        grid = np.linspace(lo, hi, GRID_POINTS)
    else:
        lo, hi = PHI_NERM_BOUNDS
        grid = np.concatenate(([0.0], np.geomspace(1e-6, hi, GRID_POINTS - 1)))
    vals = np.array([obj(phi) for phi in grid])
    k = int(np.argmin(vals))
    a, b = grid[max(k - 1, 0)], grid[min(k + 1, GRID_POINTS - 1)]
    phi_hat, f_hat = _golden_min(obj, a, b, obj(a), obj(b))
    if vals[k] <= f_hat:
        phi_hat = grid[k]
    if dataset.cov.kind == "ar1":
        return phi_hat, min(phi_hat - lo, hi - phi_hat) <= 1e-6 * (hi - lo)
    return phi_hat, phi_hat < grid[1] or math.log(hi / phi_hat) <= 1e-6 * math.log(hi / grid[1])


def _nerm_dataset(rng, sizes, phi, p=7):
    n = sum(sizes)
    x = rng.standard_normal((n, p))
    noise = rng.standard_normal(n) + math.sqrt(phi) * np.repeat(rng.standard_normal(len(sizes)), sizes)
    return Dataset(y=x @ rng.standard_normal(p) + noise, x_full=x,
                   cov=CovarianceSpec.nerm(sizes, None))


@pytest.mark.parametrize(
    "make",
    [
        lambda rng: _nerm_dataset(rng, (4,) * 20, 0.5),
        lambda rng: _nerm_dataset(rng, (4,) * 40, 0.5),
        lambda rng: _nerm_dataset(rng, (4,) * 40, 0.0),
        lambda rng: _nerm_dataset(rng, (1, 7, 2, 2, 5, 3, 6, 4, 1, 9), 1.5),
        lambda rng: _ar1_dataset(rng, 80, 0.5, p=7),
    ],
    ids=["nerm_n80", "nerm_n160", "nerm_n160_no_group_effect", "nerm_unequal", "ar1"],
)
@pytest.mark.parametrize("seed", [0, 1])
def test_estimate_phi_is_bit_equal_to_the_per_evaluation_reference(make, seed):
    # The profile builds its operator family once and takes the bracket
    # ends' values from the grid scan; neither may move a bit of phi_hat.
    ds = make(np.random.default_rng(seed))
    want, want_flag = _reference_phi(ds)
    est = estimate_phi_full_model(ds)
    assert np.float64(est.value).tobytes() == np.float64(want).tobytes()
    assert est.at_boundary == bool(want_flag)


def _count_phi_evaluations(monkeypatch):
    """The phi at which each operator family built from now on is evaluated."""
    called = []
    build_family = covariance._whitener_family

    def counted(spec, n):
        family = build_family(spec, n)

        def evaluate(phi):
            called.append(phi)
            return family(phi)

        return evaluate

    monkeypatch.setattr(covariance, "_whitener_family", counted)
    return called


def _nerm_grid():
    return np.concatenate(([0.0], np.geomspace(1e-6, PHI_NERM_BOUNDS[1], GRID_POINTS - 1)))


def _scaled_nerm(rng, scale, phi):
    ds = _nerm_dataset(rng, (4,) * 20, phi)
    return Dataset(y=scale * ds.y, x_full=ds.x_full, cov=ds.cov)


def _nerm_noise(rng, sizes, noise, group, p=5):
    """y = X beta + noise * (e + group * u): a signal of about p per row over
    white noise e and a group effect u, both scaled by ``noise``."""
    n = sum(sizes)
    x = rng.standard_normal((n, p))
    e = rng.standard_normal(n) + group * np.repeat(rng.standard_normal(len(sizes)), sizes)
    return Dataset(y=x @ rng.standard_normal(p) + noise * e, x_full=x,
                   cov=CovarianceSpec.nerm(sizes, None))


def _within_group_anticorrelated(rng, sizes=(4,) * 20, p=5):
    # Noise minus half its group mean is negatively correlated within a
    # group, so the profile minimum lies below phi = 0.
    ds = _nerm_noise(rng, sizes, 1.0, 0.0, p)
    group = np.repeat(np.arange(len(sizes)), sizes)
    e = ds.y - ds.x_full @ np.linalg.lstsq(ds.x_full, ds.y, rcond=None)[0]
    means = np.bincount(group, e) / np.asarray(sizes)
    return Dataset(y=ds.y - 0.5 * means[group], x_full=ds.x_full, cov=ds.cov)


_PHI_SPREAD = (0.0, 0.01, 0.5, 3.0, 30.0, 300.0)
# (noise, group effect) of each near-noiseless case.
_NEAR_NOISELESS = ((1e-2, 1.0), (1e-6, 0.0), (1e-5, 0.0), (1e-4, 1.0), (1e-6, 0.1), (1e-6, 1.0))
# name: (spread, make(rng, i)) for i < len(_PHI_SPREAD); in the spread cases
# phi_hat lands all over the grid.
_PRUNED_PHI_CASES = {
    "equal_groups": (True, lambda rng, i: _nerm_dataset(rng, (4,) * 20, _PHI_SPREAD[i])),
    "unequal_groups": (True, lambda rng, i: _nerm_dataset(
        rng, tuple(rng.integers(1, 9, 16).tolist()), _PHI_SPREAD[i])),
    "y_times_1e8": (True, lambda rng, i: _scaled_nerm(rng, 1e8, _PHI_SPREAD[i])),
    "y_times_1e-8": (True, lambda rng, i: _scaled_nerm(rng, 1e-8, _PHI_SPREAD[i])),
    "at_zero": (False, lambda rng, i: _within_group_anticorrelated(rng)),
    # A unit group effect over within-group noise of 1e-4 puts the minimum
    # past the upper bound, as in test_estimate_phi_nerm_upper_boundary_flag.
    "at_upper_bound": (False, lambda rng, i: _nerm_noise(rng, (4,) * 10, 1e-4, 1e4, p=2)),
    # Noise down to 1e-6 leaves a residual share of ~1e-13; the bound without
    # its rounding margin skips the first minimum of the second and third.
    "near_noiseless": (False, lambda rng, i: _nerm_noise(rng, (4,) * 20, *_NEAR_NOISELESS[i])),
}


@pytest.mark.parametrize("case", list(_PRUNED_PHI_CASES))
def test_pruned_phi_scan_is_bit_equal_to_the_full_scan(monkeypatch, case):
    # The scan skips a block of the grid only where a bound proves it holds
    # no minimum, so phi_hat and its flag are the full scan's, bit for bit,
    # even where y'Py is a 1e-12 share of y'V^{-1}y; and where the minima
    # spread over the grid it evaluates under half of it.
    spread, make = _PRUNED_PHI_CASES[case]
    called = _count_phi_evaluations(monkeypatch)
    grid, evaluated, hats, flags = _nerm_grid(), [], [], []
    for i in range(len(_PHI_SPREAD)):
        ds = make(np.random.default_rng([i, 25]), i)
        want, want_flag = _reference_phi(ds)
        called.clear()
        est = estimate_phi_full_model(ds)
        assert np.float64(est.value).tobytes() == np.float64(want).tobytes()
        assert est.at_boundary == bool(want_flag)
        evaluated.append(np.count_nonzero(np.isin(called, grid)))
        hats.append(est.value)
        flags.append(est.at_boundary)
    if spread:
        assert len(np.unique(np.searchsorted(grid, hats))) >= 5
        assert sum(evaluated) < 0.5 * len(hats) * GRID_POINTS
    if case == "at_zero":
        assert all(flags) and max(hats) < grid[1]
    if case == "at_upper_bound":
        assert all(flags) and hats == pytest.approx([PHI_NERM_BOUNDS[1]] * len(hats), rel=1e-6)
    if case == "near_noiseless":
        wh = make_whitener(ds.cov.with_phi(est.value), ds.n)
        yt, xt = wh.whiten(ds.y), wh.whiten(ds.x_full)
        resid = yt - xt @ np.linalg.lstsq(xt, yt, rcond=None)[0]
        assert resid @ resid <= 1e-12 * (yt @ yt)


def test_ar1_phi_scan_evaluates_every_grid_point(monkeypatch):
    # AR(1)'s V is not monotone in phi, so no bound holds and no block is skipped.
    called = _count_phi_evaluations(monkeypatch)
    estimate_phi_full_model(_ar1_dataset(np.random.default_rng(5), 80, 0.5))
    grid = np.linspace(*PHI_AR1_BOUNDS, GRID_POINTS)
    assert np.count_nonzero(np.isin(called, grid)) == GRID_POINTS
    assert np.isin(grid, called).all()


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


def test_estimate_phi_nerm_upper_boundary_flag():
    # A strong group effect over within-group noise of 1e-4 puts the profile
    # minimum near phi = 1e8, far past the search's upper bound 1e4.
    rng = np.random.default_rng(4)
    n, k = 40, 4
    x = rng.standard_normal((n, 2))
    noise = np.repeat(rng.standard_normal(n // k), k) + 1e-4 * rng.standard_normal(n)
    ds = Dataset(y=x @ np.array([1.0, 0.5]) + noise, x_full=x,
                 cov=CovarianceSpec.nerm((k,) * (n // k), None))
    est = estimate_phi_full_model(ds)
    assert est.at_boundary
    assert est.value == pytest.approx(PHI_NERM_BOUNDS[1], rel=1e-6)


def test_estimate_phi_nerm_small_interior_estimate_not_flagged():
    # The nerm grid is log-spaced from 1e-6, so ~80 grid points lie below
    # 0.01; only an estimate below the first positive point sits on 0.
    rng = np.random.default_rng(8)
    n, k, phi = 400, 4, 0.02
    x = rng.standard_normal((n, 3))
    noise = rng.standard_normal(n) + math.sqrt(phi) * np.repeat(rng.standard_normal(n // k), k)
    ds = Dataset(y=x @ np.array([1.0, 0.5, 0.0]) + noise, x_full=x,
                 cov=CovarianceSpec.nerm((k,) * (n // k), None))
    est = estimate_phi_full_model(ds)
    assert 1e-6 < est.value < 0.01
    assert not est.at_boundary


# ---------------------------------------------------------------------------
# estimate_lambda
# ---------------------------------------------------------------------------


def _lambda_fits():
    """(dataset, dense V, candidate, fit) for every candidate of a few seeded designs."""
    out = []
    for seed, cov, snr in ((20, CovarianceSpec.identity(), 0.5), (21, CovarianceSpec.ar1(0.5), 3.0),
                           (22, CovarianceSpec.identity(), 20.0)):
        rng = np.random.default_rng(seed)
        n, p = 30, 4
        x = rng.standard_normal((n, p))
        y = x @ np.array([1.0, 1.0, 0.0, 0.0]) * snr + rng.standard_normal(n)
        ds = Dataset(y=y, x_full=x, cov=cov)
        wd = whiten(ds)
        v = dense_v(cov, n)
        for row in enumerate_candidates(p, include_null=False):
            cand = CandidateModel(tuple((np.flatnonzero(row) + 1).tolist()))
            out.append((ds, v, cand, gls_fit(wd, cand)))
    return out


def test_spectrum_matches_dense_gram():
    # d are the eigenvalues of G = X'V^{-1}X; d * w2 are the squared
    # coordinates of z = X'V^{-1}y along G's eigenvectors.
    for ds, v, cand, fit in _lambda_fits():
        xj = ds.x_full[:, cand.zero_based]
        vi = np.linalg.inv(v)
        evals, evecs = np.linalg.eigh(xj.T @ vi @ xj)
        d, w2 = fit.spectrum
        order = np.argsort(d)
        np.testing.assert_allclose(d[order], evals, rtol=1e-10)
        np.testing.assert_allclose((d * w2)[order], (evecs.T @ (xj.T @ vi @ ds.y)) ** 2,
                                   rtol=1e-8, atol=1e-10 * float(ds.y @ vi @ ds.y))


def test_ridge_lambda_is_a_root_of_the_derivative():
    # f'(t) = sum [lambda d w2 / (s2 (d + lambda)^2) - d / (d + lambda)] at
    # t = log lambda_hat vanishes to rounding: the search stops once |f'| is
    # 8 eps of the terms' magnitudes, and re-evaluating adds a few eps more.
    interior = 0
    for _, _, _, fit in _lambda_fits():
        est = estimate_lambda(fit, "ridge")
        if est.at_boundary:
            continue
        interior += 1
        d, w2 = fit.spectrum
        lam = est.value
        fit_terms = lam * d * w2 / (fit.sigma2_hat * (d + lam) ** 2)
        pen_terms = d / (d + lam)
        slope = fit_terms.sum() - pen_terms.sum()
        assert abs(slope) <= 64 * EPS * (fit_terms.sum() + pen_terms.sum())
    assert interior >= 30


def test_ridge_lambda_beats_every_grid_value():
    grid = np.geomspace(LAMBDA_BOUNDS[0], LAMBDA_BOUNDS[1], LAMBDA_GRID_POINTS)
    for _, _, _, fit in _lambda_fits():
        est = estimate_lambda(fit, "ridge")
        at_hat = ml(fit.with_prior(PriorScale("ridge", est.value)))
        on_grid = min(ml(fit.with_prior(PriorScale("ridge", lam))) for lam in grid)
        assert at_hat <= on_grid + 4 * EPS * abs(on_grid)


def _ridge_lambda_loop(d, w2, sigma2):
    """Reference: the one-candidate ridge search in plain Python floats, with
    f' summed in index order, as it ran before the search took batches."""
    from bmlselect.covariance import LAMBDA_MAX_STEPS, LAMBDA_SLOPE_RTOL, LAMBDA_STEP_ATOL

    grid = np.geomspace(LAMBDA_BOUNDS[0], LAMBDA_BOUNDS[1], LAMBDA_GRID_POINTS)
    ts = np.log(grid)
    ratio = d * (1.0 / grid)[:, None]
    vals = np.add.reduce(np.log1p(ratio) + (w2 / sigma2) / (ratio + 1.0), axis=1)
    k = int(np.argmin(vals))
    terms = list(zip(d.tolist(), w2.tolist()))

    def slope(t):
        lam = float(np.exp(t))
        g = h = scale = 0.0
        for di, wi in terms:
            dl = di + lam
            pen = di / dl
            fit = lam * wi * pen / (sigma2 * dl)
            g += fit - pen
            h += (fit * (di - lam) + pen * lam) / dl
            scale += fit + pen
        return g, h, scale

    t = float(ts[k])
    g, h, _ = slope(t)
    if (k == 0 and g >= 0.0) or (k == LAMBDA_GRID_POINTS - 1 and g <= 0.0):
        return float(grid[k]), True
    lo, hi = (t, float(ts[k + 1])) if g < 0.0 else (float(ts[k - 1]), t)
    for _ in range(LAMBDA_MAX_STEPS):
        t_new = t - g / h if h > 0.0 else hi
        if not lo < t_new < hi:
            t_new = 0.5 * (lo + hi)
        t, step = t_new, t_new - t
        if abs(step) <= LAMBDA_STEP_ATOL:
            break
        g, h, scale = slope(t)
        if abs(g) <= LAMBDA_SLOPE_RTOL * scale:
            break
        lo, hi = (t, hi) if g < 0.0 else (lo, t)
    return float(np.exp(t)), False


def test_ridge_lambda_matches_the_scalar_loop_reference():
    # The batched search sums f' in numpy's order rather than index order,
    # which moves each Newton iterate by rounding; both stop within
    # LAMBDA_STEP_ATOL in log lambda of the same root, so lambda-hat agrees
    # to a few times that, and the bound flags agree exactly.
    for _, _, _, fit in _lambda_fits():
        d, w2 = fit.spectrum
        want, want_flag = _ridge_lambda_loop(d, w2, fit.sigma2_hat)
        est = estimate_lambda(fit, "ridge")
        assert bool(est.at_boundary) == want_flag
        assert est.value == pytest.approx(want, rel=4 * 1e-12)


def _full_grid_argmin(d, w2, s2):
    """Reference: f at all LAMBDA_GRID_POINTS points of every row in one
    array, with the same elementwise expression and last-axis sum as the
    pruned scan, its first argmin, and the raise on a non-finite minimum."""
    inv = 1.0 / np.geomspace(LAMBDA_BOUNDS[0], LAMBDA_BOUNDS[1], LAMBDA_GRID_POINTS)
    ratio = d[:, None, :] * inv[:, None]
    terms = np.log1p(ratio)
    ratio += 1.0
    terms += (w2 / s2)[:, None, :] / ratio
    vals = np.add.reduce(terms, axis=2)
    best = np.argmin(vals, axis=1)
    if not np.all(np.isfinite(vals[np.arange(len(vals)), best])):
        raise LambdaEstimationError("non-finite")
    return best, vals


def _assert_pruned_scan_is_exact(d, w2, s2):
    """The pruned scan returns the reference's index, or raises as it does."""
    with np.errstate(all="ignore"):
        try:
            want, vals = _full_grid_argmin(d, w2, s2)
        except LambdaEstimationError:
            with pytest.raises(LambdaEstimationError, match="non-finite on the grid"):
                covariance._grid_argmin(d, w2, s2)
            return None
        got = covariance._grid_argmin(d, w2, s2)
    np.testing.assert_array_equal(got, want)
    return vals


def _random_spectra(rng, rows, p):
    """(d, w2, s2) spanning many decades, so the minimum lands all over the grid."""
    d = 10.0 ** rng.uniform(-10.0, 8.0, (rows, p))
    d[rng.random((rows, p)) < 0.1] = 0.0
    w2 = 10.0 ** rng.uniform(-12.0, 12.0, (rows, p)) * rng.random((rows, 1))
    return d, w2, 10.0 ** rng.uniform(-4.0, 4.0, (rows, 1))


@pytest.mark.parametrize("p", range(1, 21))
def test_pruned_lambda_scan_matches_the_full_scan_on_random_spectra(monkeypatch, p):
    # p >= 8 takes numpy's unrolled pairwise sum; the pruned scan must sum
    # each evaluated point exactly as the full scan does, and skip only
    # points that cannot be the first minimum.  It must also skip most of
    # the grid, or it is no cheaper than the full scan.
    evaluated = []

    def counted(d, c, idx):
        evaluated.append(len(d) * idx.shape[-1])
        return f_terms(d, c, idx)

    f_terms = covariance._f_terms
    monkeypatch.setattr(covariance, "_f_terms", counted)
    rng = np.random.default_rng([p, 21])
    d, w2, s2 = _random_spectra(rng, 400, p)
    vals = _assert_pruned_scan_is_exact(d, w2, s2)
    best = np.argmin(vals, axis=1)
    assert len(np.unique(best)) >= 20, "the minima should spread over the grid"
    assert sum(evaluated) < 0.5 * 400 * LAMBDA_GRID_POINTS


@pytest.mark.parametrize("p", [1, 3, 8, 13, 20])
def test_pruned_lambda_scan_is_exact_one_row_per_chunk(monkeypatch, p):
    # A 64-element budget gives one row per chunk and splits its kept blocks
    # into chunks of 64 // (7 p) blocks; larger budgets give chunks of many
    # rows.  Every budget must give the full scan's index, and no terms
    # array may exceed the budget, or one row's probe terms if those are more.
    calls = []  # (grid points per row, elements) of each evaluation

    def counted(d, c, idx):
        calls.append((idx.shape[-1], d.size * idx.shape[-1]))
        return f_terms(d, c, idx)

    f_terms = covariance._f_terms
    monkeypatch.setattr(covariance, "_f_terms", counted)
    d, w2, s2 = _random_spectra(np.random.default_rng([p, 64]), 40, p)
    probes = (LAMBDA_GRID_POINTS - 1) // 8 + 2
    for budget in (64, 2048, 1 << 15):
        monkeypatch.setattr(covariance, "BATCH_ELEMENTS", budget)
        calls.clear()
        _assert_pruned_scan_is_exact(d, w2, s2)
        assert max(size for _, size in calls) <= max(budget, probes * p)
        chunks = sum(points == probes for points, _ in calls)
        assert chunks == -(-40 // max(1, budget // max(LAMBDA_GRID_POINTS, probes * p)))
        if budget == 64:
            assert len(calls) - chunks > chunks, "the kept blocks should split"


@pytest.mark.parametrize("p", [1, 2, 9])
def test_pruned_lambda_scan_edge_rows(p):
    one = np.ones((1, p))
    rows = [
        # d = 0: f is sum(c) at every point, an all-tie that index 0 wins.
        (0.0 * one, one, 1.0, 0),
        (0.0 * one, 0.0 * one, 1.0, 0),
        # w2 = 0: f = sum log1p(d / lambda) falls to the last grid point.
        (one, 0.0 * one, 1.0, LAMBDA_GRID_POINTS - 1),
        # c = d / 1e-20: the minimum lies below the grid, at index 0.
        (one, 1e20 * one, 1.0, 0),
        # d / lambda overflows at the low end: inf there, a finite minimum above.
        (1e300 * one, one, 1.0, None),
    ]
    # f ~ sum(c) + (d / lambda)^2 / 2 for small d / lambda: values equal to
    # sum(c) or within a few eps of it run across many blocks, and the first
    # of the equal minima moves through every offset within a block as d does.
    rows += [(dk * one, one, 1.0, None) for dk in np.geomspace(1e-9, 1e3, 97)]
    d = np.concatenate([r[0] for r in rows])
    w2 = np.concatenate([r[1] for r in rows])
    s2 = np.array([[r[2]] for r in rows])
    vals = _assert_pruned_scan_is_exact(d, w2, s2)
    best = np.argmin(vals, axis=1)
    for k, (_, _, _, want) in enumerate(rows):
        if want is not None:
            assert best[k] == want
    tied = vals[5:] == vals[5:].min(axis=1)[:, None]
    assert (tied.sum(axis=1) > 8).sum() >= 50
    assert len(np.unique(best[5:] % 8)) == 8


@pytest.mark.parametrize("p", [1, 4, 11])
def test_pruned_lambda_scan_raises_as_the_full_scan_does(p):
    d, w2, s2 = _random_spectra(np.random.default_rng([p, 3]), 6, p)
    assert _assert_pruned_scan_is_exact(d, w2, s2) is not None
    # w2 / s2 overflows: f is inf everywhere, alone or in a batch.
    w2[2], s2[2] = 1e300, 1e-300
    assert _assert_pruned_scan_is_exact(d[2:3], w2[2:3], s2[2:3]) is None
    assert _assert_pruned_scan_is_exact(d, w2, s2) is None
    # d / lambda overflows as well: NaN at the low end of the grid.
    d[2] = 1e300
    assert _assert_pruned_scan_is_exact(d[2:3], w2[2:3], s2[2:3]) is None
    # A NaN in the spectrum.
    d[0, 0] = np.nan
    assert _assert_pruned_scan_is_exact(d[:1], w2[:1], s2[:1]) is None


def test_zellner_lambda_is_the_closed_form():
    # lambda = p s2 / (s - p s2) with s = y'V^{-1}y - y'Py and s2 = y'Py / n,
    # both from the dense projection matrices.
    checked = 0
    for ds, v, cand, fit in _lambda_fits():
        xj = ds.x_full[:, cand.zero_based]
        ypy = float(ds.y @ proj_p(v, xj) @ ds.y)
        s = float(ds.y @ np.linalg.inv(v) @ ds.y) - ypy
        s2 = ypy / ds.n
        est = estimate_lambda(fit, "zellner")
        if s <= cand.p * s2:
            assert est == (LAMBDA_BOUNDS[1], True)
            continue
        checked += 1
        assert not est.at_boundary
        assert est.value == pytest.approx(cand.p * s2 / (s - cand.p * s2), rel=1e-9)
    assert checked >= 30


@pytest.mark.parametrize("ratio, expect", [(1.1, 10.0), (1.0, None), (0.9, None), (0.0, None)])
def test_zellner_lambda_upper_bound_when_fit_is_no_better_than_noise(ratio, expect):
    # e is orthogonal to the single column x1, so y'Py = ||e||^2 exactly and
    # s = a^2 ||x1||^2 = ratio * p s2: lambda = 1 / (ratio - 1) above 1 and
    # the flagged upper bound at or below it.
    n = 12
    x1 = np.zeros(n)
    x1[:4] = 1.0
    e = np.array([0.0, 0.0, 0.0, 0.0, 1.0, -1.0, 2.0, -2.0, 0.5, -0.5, 1.5, -1.5])
    s2 = float(e @ e) / n
    y = e + math.sqrt(ratio * s2 / float(x1 @ x1)) * x1
    fit = gls_fit(whiten(Dataset(y=y, x_full=x1[:, None], cov=CovarianceSpec.identity())),
                  CandidateModel((1,)))
    est = estimate_lambda(fit, "zellner")
    if expect is None:
        assert est == (LAMBDA_BOUNDS[1], True)
    else:
        assert est.value == pytest.approx(expect, rel=1e-12)
        assert not est.at_boundary


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(8, 40),
    p=st.integers(1, 4),
    snr=st.floats(0.2, 50.0),
    c=st.floats(1e-3, 1e3),
)
def test_ridge_lambda_invariant_under_response_scaling(seed, n, p, snr, c):
    # d is fixed and w2, s2 scale by c^2, so lambda_hat is invariant in exact
    # arithmetic.  Scaling y rounds each entry, which moves f' by a few eps
    # of its terms, amplified by y'V^{-1}y / y'Py through s2; t = log lambda
    # then moves by at most that over f''(t).  The examples kept have this
    # bound at or below 1e-9.
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    y = snr * (x @ rng.standard_normal(p)) + rng.standard_normal(n)
    model = CandidateModel(tuple(range(1, p + 1)))

    def fit_of(resp):
        return gls_fit(whiten(Dataset(y=resp, x_full=x, cov=CovarianceSpec.identity())), model)

    fit = fit_of(y)
    base = estimate_lambda(fit, "ridge")
    scaled = estimate_lambda(fit_of(c * y), "ridge")
    assume(not base.at_boundary)
    d, w2 = fit.spectrum
    lam = base.value
    fit_terms = lam * d * w2 / (fit.sigma2_hat * (d + lam) ** 2)
    pen_terms = d / (d + lam)
    curv = float(np.sum((fit_terms * (d - lam) + pen_terms * lam) / (d + lam)))
    bound = 64 * EPS * (fit.yty / fit.ypy) * (fit_terms.sum() + pen_terms.sum()) / curv
    assume(bound <= 1e-9)
    assert not scaled.at_boundary
    assert abs(math.log(scaled.value) - math.log(base.value)) <= bound


def _lambda_criterion_objective(wd, model, prior_kind):
    """Oracle: the actual -2 log marginal recomputed per lambda."""

    def obj(lam):
        fit = gls_fit(wd, model).with_prior(PriorScale(prior_kind, lam))
        return ml(fit)

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
    # The prior step must apply W^{-1} = 4 I (ridge) and W^{-1} = 4 G
    # (zellner) for the Gram G = X'X below, and log|W G + I| with
    # log|W| = -(p log 4 + log|G|) for zellner.
    g = np.array([[2.0, 0.3], [0.3, 1.0]])
    x = np.vstack([np.linalg.cholesky(g).T, np.zeros((2, 2))])
    np.testing.assert_allclose(x.T @ x, g, rtol=1e-15)
    y = np.array([1.0, -2.0, 0.5, 1.5])
    fit = gls_fit(whiten(Dataset(y=y, x_full=x, cov=CovarianceSpec.identity())),
                  CandidateModel((1, 2)))
    z = x.T @ y
    for kind, w_inv in (("ridge", 4.0 * np.eye(2)), ("zellner", 4.0 * g)):
        prior_fit = fit.with_prior(PriorScale(kind, 4.0))
        assert prior_fit.yay == pytest.approx(
            float(y @ y - z @ np.linalg.solve(g + w_inv, z)), rel=1e-13)
        assert prior_fit.logdet_wxvx_plus_i == pytest.approx(
            np.linalg.slogdet(np.linalg.solve(w_inv, g) + np.eye(2))[1], rel=1e-13)
    logdet_g = np.linalg.slogdet(g)[1]
    zellner_logdet_w = -(2 * math.log(4.0) + logdet_g)
    assert fit.with_prior(PriorScale("zellner", 4.0)).logdet_wxvx_plus_i == pytest.approx(
        np.linalg.slogdet(g + 4.0 * g)[1] + zellner_logdet_w, rel=1e-13)
