import itertools
import math
import re

import numpy as np
import pytest
import scipy.linalg

from bmlselect import (
    CandidateModel,
    CovarianceSpec,
    Dataset,
    DegenerateVarianceError,
    PenaltyUndefinedError,
    PriorScale,
    SaturatedModelError,
    SingularDesignError,
    gls_fit,
    ml,
    neg2_log_residual,
    whiten,
)
from bmlselect.covariance import LAMBDA_BOUNDS, make_whitener
from bmlselect.criteria import dic
from bmlselect.model_core import RANK_PIVOT_RTOL
from dense_oracle import (
    dense_v,
    dic_dense,
    mat_a,
    mat_a_woodbury,
    neg2_log_marginal_dense,
    neg2_log_residual_dense,
    prior_terms_mp,
    proj_p,
    random_spd,
    ridge_w,
    zellner_w,
)

LOG_2PI = math.log(2.0 * math.pi)


def ones_dataset():
    return Dataset(
        y=np.array([1.0, 2.0, 3.0, 4.0]),
        x_full=np.ones((4, 1)),
        cov=CovarianceSpec.identity(),
    )


def random_dataset(seed, n=12, p=4, cov=None):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    y = x @ rng.standard_normal(p) + rng.standard_normal(n)
    return Dataset(y=y, x_full=x, cov=cov or CovarianceSpec.identity())


# ---------------------------------------------------------------------------
# whiten
# ---------------------------------------------------------------------------


def test_whiten_identity_is_noop():
    ds = ones_dataset()
    wh = make_whitener(ds.cov, ds.n)
    assert whiten(ds).logdet_v[0] == 0.0
    np.testing.assert_array_equal(wh.whiten(ds.y), ds.y)
    np.testing.assert_array_equal(wh.whiten(ds.x_full), ds.x_full)


def test_whiten_ar1_2x2_logdet():
    ds = Dataset(
        y=np.array([1.0, 2.0]),
        x_full=np.ones((2, 1)),
        cov=CovarianceSpec.ar1(0.5),
    )
    # V = [[1, .5], [.5, 1]], det = 0.75
    assert whiten(ds).logdet_v == pytest.approx(math.log(0.75), abs=1e-15)


def test_whiten_matches_dense_solve_oracle():
    rng = np.random.default_rng(42)
    v = random_spd(rng, 6)
    y = rng.standard_normal(6)
    x = rng.standard_normal((6, 2))
    ds = Dataset(y=y, x_full=x, cov=CovarianceSpec.custom(v))
    wd, wy = whiten(ds), make_whitener(ds.cov, ds.n).whiten(y)
    expect = float(y @ np.linalg.solve(v, y))
    got = float(wy @ wy)
    assert abs(got - expect) < 1e-10 * abs(expect)
    assert wd.yty[0] == got
    assert wd.logdet_v[0] == pytest.approx(np.linalg.slogdet(v)[1], rel=1e-12)


@pytest.mark.parametrize("cov", [
    CovarianceSpec.identity(),
    CovarianceSpec.ar1(0.6),
    CovarianceSpec.nerm((3, 4, 5), 0.7),
    CovarianceSpec.custom(random_spd(np.random.default_rng(43), 12)),
], ids=["identity", "ar1", "nerm", "custom"])
def test_reduced_form_is_the_whitened_cross_product(cov):
    # The record holds all that a candidate fit reads: R0'R0 is
    # [X y]'V^-1[X y], with y'V^-1y and log|V| beside it.
    ds = random_dataset(44, n=12, p=4, cov=cov)
    wd, v = whiten(ds), dense_v(cov, ds.n)
    xy = np.column_stack([ds.x_full, ds.y])
    assert wd.r0.shape == (1, 5, 5) and wd.n == 12 and wd.p_omega == 4
    np.testing.assert_allclose(wd.r0[0].T @ wd.r0[0], xy.T @ np.linalg.solve(v, xy), rtol=1e-10)
    assert wd.yty[0] == pytest.approx(float(ds.y @ np.linalg.solve(v, ds.y)), rel=1e-10)
    assert wd.logdet_v[0] == pytest.approx(np.linalg.slogdet(v)[1], rel=1e-10, abs=1e-12)


def test_whiten_rejects_non_pd_covariance():
    from bmlselect import CovarianceError

    bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
    ds = Dataset(y=np.array([1.0, 2.0]), x_full=np.ones((2, 1)),
                 cov=CovarianceSpec.custom(bad))
    with pytest.raises(CovarianceError, match="not PD"):
        whiten(ds)


# ---------------------------------------------------------------------------
# gls_fit
# ---------------------------------------------------------------------------


def test_gls_fit_sample_mean_regression():
    fit = gls_fit(whiten(ones_dataset()), CandidateModel((1,)))
    assert fit.beta_hat == pytest.approx([2.5])
    assert fit.ypy == pytest.approx(5.0)
    assert fit.sigma2_hat == pytest.approx(1.25)
    assert fit.sigma2_tilde == pytest.approx(5.0 / 3.0)
    # both variance estimates derive from the single stored scalar
    assert fit.sigma2_hat == fit.ypy / fit.n
    assert fit.sigma2_tilde == fit.ypy / (fit.n - fit.p)


def test_gls_fit_null_model():
    ds = ones_dataset()
    fit = gls_fit(whiten(ds), CandidateModel(()))
    assert fit.p == 0
    assert fit.beta_hat.size == 0
    assert fit.ypy == pytest.approx(float(ds.y @ ds.y))  # V = I: the raw y is the whitened one
    assert fit.logdet_xvx == 0.0


@pytest.mark.parametrize("lam", [LAMBDA_BOUNDS[0], 2.0, LAMBDA_BOUNDS[1]])
@pytest.mark.parametrize("kind", ["ridge", "zellner"])
def test_gls_fit_null_model_with_prior_conventions(kind, lam):
    # The null model has no coefficient to scale: whatever the family and
    # lambda, y'Ay = y'Py, log|W G + I| = 0, the dic residual is y'Py and p_D = 0.
    ds = ones_dataset()
    fit = gls_fit(whiten(ds), CandidateModel(())).with_prior(PriorScale(kind, lam))
    assert fit.yay == fit.ypy
    assert fit.logdet_wxvx_plus_i == 0.0
    assert fit.prior.posterior_terms(fit) == (fit.ypy, 0.0)
    expect = dic_dense(ds.y, np.zeros((ds.n, 0)), np.eye(ds.n), np.zeros((0, 0)), fit.sigma2_hat)
    assert dic(fit) == pytest.approx(expect, rel=1e-13)


def test_gls_fit_prior_woodbury_oracle():
    rng = np.random.default_rng(3)
    n, p = 10, 3
    x = rng.standard_normal((n, p))
    y = rng.standard_normal(n)
    ds = Dataset(y=y, x_full=x, cov=CovarianceSpec.identity())
    fit = gls_fit(whiten(ds), CandidateModel((1, 2, 3))).with_prior(PriorScale("ridge", 1.0))
    expect = float(y @ mat_a_woodbury(np.eye(n), x, np.eye(p)) @ y)
    assert abs(fit.yay - expect) < 1e-9 * abs(expect)


def test_gls_fit_singular_design_names_candidate():
    rng = np.random.default_rng(5)
    x1 = rng.standard_normal(8)
    x = np.column_stack([x1, rng.standard_normal(8), x1])
    # skip Dataset (full design is singular too); construct whitened data directly
    from bmlselect import WhitenedData

    wd = WhitenedData.from_whitened(x, rng.standard_normal(8), 0.0)
    with pytest.raises(SingularDesignError, match="1 3"):
        gls_fit(wd, CandidateModel((1, 3)))


def test_dataset_rejects_design_wider_than_tall():
    # diag(R) of a 5 x 7 design holds only five pivots, all well away from
    # zero, yet seven columns in five dimensions are dependent.
    rng = np.random.default_rng(8)
    with pytest.raises(SingularDesignError, match="rank deficient"):
        Dataset(y=rng.standard_normal(5), x_full=rng.standard_normal((5, 7)),
                cov=CovarianceSpec.identity())


def test_gls_fit_wide_candidate_is_singular_design():
    from bmlselect import WhitenedData

    rng = np.random.default_rng(9)
    wd = WhitenedData.from_whitened(rng.standard_normal((5, 7)), rng.standard_normal(5), 0.0)
    with pytest.raises(SingularDesignError, match="1 2 3 4 5 6"):
        gls_fit(wd, CandidateModel((1, 2, 3, 4, 5, 6)))
    # as tall as wide is still a proper (saturated) fit
    assert gls_fit(wd, CandidateModel((1, 2, 3, 4, 5))).p == 5


@pytest.mark.parametrize("prior_kind", ["ridge", "zellner"])
def test_batch_fit_is_the_stack_of_single_fits(prior_kind):
    # A batch runs the same arithmetic as its candidates one at a time: fit,
    # lambda-hat, prior terms and every criterion agree bit for bit, and a
    # rank-deficient member is dropped from the batch, not scored.
    from bmlselect import WhitenedData, estimate_lambda, score
    from bmlselect.criteria import CRITERION_NAMES

    rng = np.random.default_rng(19)
    x = rng.standard_normal((25, 5))
    x[:, 4] = x[:, 0] - x[:, 2]
    y = x[:, :2] @ np.array([1.0, -0.5]) + rng.standard_normal(25)
    wd = WhitenedData.from_whitened(x, y, 0.0)
    for size in range(4):
        combos = list(itertools.combinations(range(1, 6), size))
        models = [CandidateModel(c) for c in combos]
        batch = gls_fit(wd, np.array(combos, dtype=np.intp).reshape(len(combos), size))
        lam = estimate_lambda(batch, prior_kind)
        batch = batch.with_prior(PriorScale(prior_kind, lam.value))
        flags = np.broadcast_to(lam.at_boundary, batch.kept.shape)
        singles = []
        for i, model in enumerate(models):
            try:
                singles.append((i, gls_fit(wd, model)))
            except SingularDesignError:
                assert model.indices == (1, 3, 5)
        assert batch.kept.tolist() == [i for i, _ in singles]
        for j, (_, fit) in enumerate(singles):
            est = estimate_lambda(fit, prior_kind)
            assert (np.broadcast_to(lam.value, flags.shape)[j], flags[j]) == est
            fit = fit.with_prior(PriorScale(prior_kind, est.value))
            np.testing.assert_array_equal(batch.beta_hat[j], fit.beta_hat)
            for name in CRITERION_NAMES:
                try:
                    want = score(name, fit)
                except PenaltyUndefinedError:
                    continue
                assert score(name, batch)[j] == want, name


def test_stack_fit_reads_each_row_from_its_own_dataset():
    # Rows of a batch on a stacked record read their own dataset's R0,
    # y'V^-1y, log|V| and n: each row equals that dataset's own fit bit for
    # bit, a rank-deficient row is dropped whichever dataset it reads, and
    # so is a row with more columns than its own dataset has observations.
    # The datasets differ in n, so every formula that reads n must read the
    # row's: the criteria agree row by row, and a penalty undefined at one
    # row's n raises for the batch, naming that n.
    from bmlselect import WhitenedData, score

    rng = np.random.default_rng(23)
    block = []
    for i, (scale, logdet) in enumerate(((1.0, 0.0), (1e-3, -2.5), (40.0, 7.0))):
        x = rng.standard_normal((12, 4))
        y = scale * rng.standard_normal(12)
        if i == 1:
            x[:, 3] = x[:, 0] + x[:, 1]
        block.append(WhitenedData.from_whitened(x, y, logdet))
    block += [WhitenedData.from_whitened(x[:5], y[:5], 1.5),
              WhitenedData.from_whitened(x[:3], y[:3], -1.0)]
    stack = WhitenedData.stack(block)
    assert stack.r0.shape == (5, 5, 5) and stack.p_omega == 4
    assert stack.n.tolist() == [12, 12, 12, 5, 3]
    cols = np.array([[1, 2, 4], [1, 2, 3], [2, 3, 4], [1, 2, 4], [1, 2, 4], [1, 3, 4]])
    rep = np.array([0, 3, 2, 1, 2, 1])
    fit = gls_fit(stack, cols, rep)
    assert fit.kept.tolist() == [0, 1, 2, 4, 5]
    alone = {i: gls_fit(block[rep[i]], CandidateModel(tuple(cols[i]))) for i in fit.kept.tolist()}
    for j, i in enumerate(fit.kept.tolist()):
        for name in ("n", "ypy", "yty", "logdet_v", "logdet_xvx", "r", "qty"):
            assert np.asarray(getattr(fit, name))[j].tobytes() == \
                np.asarray(getattr(alone[i], name)).tobytes(), (i, name)
        for name in ("aic", "bic", "ic_pi2"):
            assert score(name, fit)[j].tobytes() == score(name, alone[i]).tobytes(), (i, name)
    # n - p - 2 = 0 at dataset 3 alone, and at row 1, which reads it, of the
    # batch; without it, the rows of n = 12 score ic_r as alone.
    with pytest.raises(PenaltyUndefinedError, match=r"\(n = 5, p = 3\)"):
        score("ic_r", alone[1])
    with pytest.raises(PenaltyUndefinedError, match=r"\(n = 5, p = 3\)"):
        score("ic_r", fit)
    long = gls_fit(stack, cols[rep != 3], rep[rep != 3])
    for j, i in enumerate(np.flatnonzero(rep != 3)[long.kept].tolist()):
        assert score("ic_r", long)[j].tobytes() == score("ic_r", alone[i]).tobytes(), i
    # Four columns: dataset 1 is rank deficient, dataset 4 holds three rows.
    full = gls_fit(stack, np.tile(np.arange(1, 5), (5, 1)), np.arange(5))
    assert full.kept.tolist() == [0, 2, 3] and full.n.tolist() == [12, 12, 5]
    for i in (1, 4):
        with pytest.raises(SingularDesignError):
            gls_fit(block[i], CandidateModel((1, 2, 3, 4)))


def test_gls_fit_rejects_out_of_range_column():
    wd = whiten(ones_dataset())
    with pytest.raises(ValueError, match="column 2"):
        gls_fit(wd, CandidateModel((2,)))


@pytest.mark.parametrize(
    "rows, message",
    [
        ([[1, 2], [2, 4]], "candidate 2 4 uses column 4, but its columns must increase "
                           "strictly within 1..3"),
        ([[1, 2], [0, 3]], "candidate 0 3 uses column 0,"),
        ([[1, 3], [-1, 2]], "candidate -1 2 uses column -1,"),
        ([[2, 2], [1, 2]], "candidate 2 2 uses column 2,"),
        ([[1, 3], [3, 1]], "candidate 3 1 uses column 1,"),
        ([[1.5, 2.7]], "candidate column indices must be integers, not float64"),
        ([[1.0, 2.0]], "candidate column indices must be integers, not float64"),
        ([[True, False, True]], "candidate column indices must be integers, not bool"),
    ],
    ids=["past_p_omega", "zero", "negative", "repeated", "decreasing", "fractional",
         "whole_floats", "membership_row"],
)
def test_gls_fit_batch_rejects_a_bad_index_row_naming_it(rows, message):
    rng = np.random.default_rng(4)
    ds = Dataset(y=rng.standard_normal(10), x_full=rng.standard_normal((10, 3)),
                 cov=CovarianceSpec.identity())
    with pytest.raises(ValueError, match=re.escape(message)):
        gls_fit(whiten(ds), np.array(rows))


# ---------------------------------------------------------------------------
# ml, the normal-prior marginal likelihood
# ---------------------------------------------------------------------------


def test_neg2_log_marginal_ones_column_dense_oracle():
    ds = ones_dataset()
    fit = gls_fit(whiten(ds), CandidateModel((1,))).with_prior(PriorScale("ridge", 1.0))
    got = ml(fit)
    expect = neg2_log_marginal_dense(ds.y, ds.x_full, np.eye(4), np.eye(1))
    assert abs(got - expect) < 1e-9 * abs(expect)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("lam", [0.5, 3.0])
def test_neg2_log_marginal_random_dense_oracle(seed, lam):
    rng = np.random.default_rng(seed)
    n, p = 9, 3
    v = random_spd(rng, n)
    ds = Dataset(
        y=rng.standard_normal(n),
        x_full=rng.standard_normal((n, p)),
        cov=CovarianceSpec.custom(v),
    )
    fit = gls_fit(whiten(ds), CandidateModel((1, 2, 3))).with_prior(PriorScale("ridge", lam))
    expect = neg2_log_marginal_dense(ds.y, ds.x_full, v, np.eye(p) / lam)
    assert ml(fit) == pytest.approx(expect, rel=1e-9)


def test_neg2_log_marginal_flat_prior_limit_sweep():
    # with W = w I, the value minus p log(w) decreases monotonically to the
    # flat-prior pattern n log(2 pi s2) + log|G| + n
    ds = random_dataset(13, n=20, p=3)
    model = CandidateModel((1, 2, 3))
    wd = whiten(ds)
    fit0 = gls_fit(wd, model)
    limit = (
        ds.n * (LOG_2PI + math.log(fit0.sigma2_hat)) + fit0.logdet_xvx + ds.n
    )
    deltas = []
    for w in (1e2, 1e4, 1e6, 1e8):
        fit = gls_fit(wd, model).with_prior(PriorScale("ridge", 1.0 / w))
        value = ml(fit) - model.p * math.log(w)
        deltas.append(value - limit)
    assert all(d > -1e-9 for d in deltas)
    assert all(a > b for a, b in zip(deltas, deltas[1:]))
    assert deltas[-1] < 1e-5


def test_neg2_log_marginal_requires_prior():
    fit = gls_fit(whiten(ones_dataset()), CandidateModel((1,)))
    with pytest.raises(ValueError, match="prior"):
        ml(fit)


# ---------------------------------------------------------------------------
# neg2_log_residual
# ---------------------------------------------------------------------------


def test_neg2_log_residual_hand_value():
    # 3 log(2 pi 5/3) + log 4 + 3, evaluated by hand
    fit = gls_fit(whiten(ones_dataset()), CandidateModel((1,)))
    expect = 3.0 * math.log(2.0 * math.pi * 5.0 / 3.0) + math.log(4.0) + 3.0
    assert expect == pytest.approx(11.4324024316459, abs=1e-12)
    assert neg2_log_residual(fit) == pytest.approx(expect, rel=1e-12)


def test_neg2_log_residual_last_term_is_exact_integer():
    ds = random_dataset(21, n=11, p=3)
    fit = gls_fit(whiten(ds), CandidateModel((1, 3)))
    dof = fit.n - fit.p
    deterministic_part = (
        dof * (LOG_2PI + math.log(fit.sigma2_tilde)) + fit.logdet_v + fit.logdet_xvx
    )
    assert neg2_log_residual(fit) - deterministic_part == float(dof)


def test_neg2_log_residual_null_model():
    ds = random_dataset(22, n=9, p=2)
    fit = gls_fit(whiten(ds), CandidateModel(()))
    s2 = float(ds.y @ ds.y) / 9  # V = I, so the whitened response is the raw one
    expect = 9 * (LOG_2PI + math.log(s2)) + 9
    assert neg2_log_residual(fit) == pytest.approx(expect, rel=1e-12)


def test_neg2_log_residual_dense_oracle():
    rng = np.random.default_rng(31)
    n, p = 10, 3
    v = random_spd(rng, n)
    ds = Dataset(
        y=rng.standard_normal(n),
        x_full=rng.standard_normal((n, p)),
        cov=CovarianceSpec.custom(v),
    )
    fit = gls_fit(whiten(ds), CandidateModel((1, 2, 3)))
    expect = neg2_log_residual_dense(ds.y, ds.x_full, v)
    assert neg2_log_residual(fit) == pytest.approx(expect, rel=1e-9)


def test_saturated_model_errors():
    rng = np.random.default_rng(41)
    x = rng.standard_normal((3, 3))
    y = rng.standard_normal(3)
    ds = Dataset(y=y, x_full=x, cov=CovarianceSpec.identity())
    fit = gls_fit(whiten(ds), CandidateModel((1, 2, 3)))
    with pytest.raises(SaturatedModelError):
        neg2_log_residual(fit)
    with pytest.raises(SaturatedModelError):
        fit.sigma2_tilde


def test_degenerate_variance_error():
    # y lies exactly in the span of the design
    x = np.column_stack([np.ones(4), np.arange(4.0)])
    y = 2.0 + 3.0 * np.arange(4.0)
    ds = Dataset(y=y, x_full=x, cov=CovarianceSpec.identity())
    fit = gls_fit(whiten(ds), CandidateModel((1, 2)))
    with pytest.raises(DegenerateVarianceError):
        neg2_log_residual(fit)
    fitp = gls_fit(whiten(ds), CandidateModel((1, 2))).with_prior(PriorScale("ridge", 1.0))
    with pytest.raises(DegenerateVarianceError):
        ml(fitp)


# ---------------------------------------------------------------------------
# Dataset and CandidateModel invariants
# ---------------------------------------------------------------------------


def test_dataset_rejects_bad_inputs():
    with pytest.raises(ValueError, match="non-finite"):
        Dataset(y=np.array([1.0, np.nan]), x_full=np.ones((2, 1)),
                cov=CovarianceSpec.identity())
    with pytest.raises(SingularDesignError):
        Dataset(y=np.arange(3.0), x_full=np.ones((3, 2)),
                cov=CovarianceSpec.identity())
    with pytest.raises(ValueError):
        Dataset(y=np.arange(3.0), x_full=np.ones((2, 1)),
                cov=CovarianceSpec.identity())


@pytest.mark.parametrize(
    "y, x, message",
    [
        (np.arange(3.0), np.arange(3.0), "x_full must be a 2-D matrix"),
        (np.empty(0), np.empty((0, 1)), "need n >= 1 observations and p_omega >= 1 predictors"),
        (np.arange(2.0), np.array([[1.0], [np.inf]]), "x_full contains non-finite values"),
    ],
    ids=["x_one_dimensional", "n_zero", "x_not_finite"],
)
def test_dataset_rejects_malformed_inputs(y, x, message):
    with pytest.raises(ValueError) as info:
        Dataset(y=y, x_full=x, cov=CovarianceSpec.identity())
    assert str(info.value) == message


def test_candidate_model_validation():
    with pytest.raises(ValueError):
        CandidateModel((2, 1))
    with pytest.raises(ValueError):
        CandidateModel((0, 1))
    with pytest.raises(ValueError):
        CandidateModel((1, 1))
    for bad in ((1.7, 2.2), ("2",), (1, math.inf), (None,), (True, 2), (1, 2.0)):
        with pytest.raises(ValueError, match="whole numbers"):
            CandidateModel(bad)
    assert CandidateModel(np.array([1, 3])).indices == (1, 3)
    m = CandidateModel((1, 3, 5))
    assert m.p == 3
    assert m.zero_based == (0, 2, 4)
    assert m.label() == "1 3 5"
    assert CandidateModel(()).label() == "(null)"


# ---------------------------------------------------------------------------
# Projection identities (dense assembly, test only)
# ---------------------------------------------------------------------------


def _cov_cases(rng, n):
    yield np.eye(n), CovarianceSpec.identity()
    yield scipy.linalg.toeplitz(0.5 ** np.arange(n)), CovarianceSpec.ar1(0.5)
    v = random_spd(rng, n)
    yield v, CovarianceSpec.custom(v)


@pytest.mark.parametrize("seed", [0, 7, 19])
def test_projection_identities(seed):
    rng = np.random.default_rng(seed)
    n, p = 12, 3
    x = rng.standard_normal((n, p))
    y = rng.standard_normal(n)
    lam = 1.7
    w = np.eye(p) / lam
    for v, _ in _cov_cases(rng, n):
        pmat = proj_p(v, x)
        amat = mat_a(v, x, w)
        assert np.abs(pmat @ x).max() < 1e-9
        assert np.abs(pmat @ v @ pmat - pmat).max() < 1e-9
        wood = mat_a_woodbury(v, x, w)
        assert np.abs(amat - wood).max() < 1e-9 * np.abs(wood).max()
        assert np.trace(amat @ v @ pmat @ v) == pytest.approx(n - p, abs=1e-8)


@pytest.mark.parametrize("seed", [2, 8])
def test_whitened_path_matches_dense_oracles(seed):
    rng = np.random.default_rng(seed)
    n, p = 14, 4
    x = rng.standard_normal((n, p))
    y = x @ rng.standard_normal(p) + rng.standard_normal(n)
    lam = 2.3
    for v, spec in _cov_cases(rng, n):
        ds = Dataset(y=y, x_full=x, cov=spec)
        wd = whiten(ds)
        for cols in ((1, 2), (1, 2, 3, 4), ()):
            model = CandidateModel(cols)
            fit = gls_fit(wd, model).with_prior(PriorScale("ridge", lam))
            xj = x[:, model.zero_based]
            wmat = np.eye(model.p) / lam
            got_m = ml(fit)
            expect_m = neg2_log_marginal_dense(y, xj, v, wmat)
            assert abs(got_m - expect_m) < 1e-8 * abs(expect_m)
            if model.p < n:
                got_r = neg2_log_residual(fit)
                expect_r = neg2_log_residual_dense(y, xj, v)
                assert abs(got_r - expect_r) < 1e-8 * abs(expect_r)


# ---------------------------------------------------------------------------
# The spectral prior step: with_prior and dic from the SVD of R
# ---------------------------------------------------------------------------

SPECTRAL_COVS = {
    "identity": lambda rng, n: CovarianceSpec.identity(),
    "ar1": lambda rng, n: CovarianceSpec.ar1(0.6),
    "custom": lambda rng, n: CovarianceSpec.custom(random_spd(rng, n)),
}


@pytest.mark.parametrize("lam", [LAMBDA_BOUNDS[0], 0.7, LAMBDA_BOUNDS[1]])
@pytest.mark.parametrize("kind", ["ridge", "zellner"])
@pytest.mark.parametrize("cov_name", sorted(SPECTRAL_COVS))
def test_spectral_prior_step_matches_dense_oracle(cov_name, kind, lam):
    rng = np.random.default_rng(17)
    n = 14
    cov = SPECTRAL_COVS[cov_name](rng, n)
    x = rng.standard_normal((n, 4))
    y = x @ np.array([1.0, -0.5, 0.0, 2.0]) + rng.standard_normal(n)
    v = dense_v(cov, n)
    model = CandidateModel((1, 2, 4))
    xj = x[:, model.zero_based]
    w = ridge_w(lam, model.p) if kind == "ridge" else zellner_w(lam, xj, v)
    fit = gls_fit(whiten(Dataset(y=y, x_full=x, cov=cov)), model).with_prior(PriorScale(kind, lam))
    # y'Ay: the Woodbury form (V + X W X')^-1 where it is well conditioned
    # (W small), the V^-1 - V^-1 X (G + W^-1)^-1 X'V^-1 form where W is huge.
    a = mat_a_woodbury(v, xj, w) if lam >= 1.0 else mat_a(v, xj, w)
    assert fit.yay == pytest.approx(float(y @ a @ y), rel=1e-9)
    assert ml(fit) == pytest.approx(neg2_log_marginal_dense(y, xj, v, w), rel=1e-9)
    # dic against the dense posterior mean (G + W^-1)^-1 X'V^-1 y
    assert dic(fit) == pytest.approx(dic_dense(y, xj, v, w, fit.sigma2_hat), rel=1e-9)


@pytest.mark.parametrize("lam", LAMBDA_BOUNDS)
@pytest.mark.parametrize("kind", ["ridge", "zellner"])
@pytest.mark.parametrize("cov_name", sorted(SPECTRAL_COVS))
def test_spectral_prior_step_near_the_rank_pivot_threshold(cov_name, kind, lam):
    # Column 3 is x1 + x2 plus a whitened-space residual sized so that its
    # R pivot sits 3x above RANK_PIVOT_RTOL times the largest.  G then has
    # a condition number near 1e19, out of reach of float64 dense inverses,
    # so the oracle runs in 60-digit arithmetic.  The QR itself moves y'Py
    # by some delta near eps times cond(R) (checked loosely below), and the
    # same delta, with the opposite sign, into Q'y along the smallest
    # singular direction.  Every shrinkage factor lies in [0, 1], so y'Ay
    # and the dic residual may each carry at most delta more; beyond that
    # the prior step must match to 1e-9.
    rng = np.random.default_rng(23)
    n = 12
    cov = SPECTRAL_COVS[cov_name](rng, n)
    xw = rng.standard_normal((n, 3))
    q = np.linalg.qr(xw[:, :2])[0]
    u = xw[:, 2] - q @ (q.T @ xw[:, 2])
    u /= np.linalg.norm(u)
    big = np.abs(np.diag(np.linalg.qr(xw[:, :2], mode="r"))).max()
    xw[:, 2] = xw[:, 0] + xw[:, 1] + 3.0 * RANK_PIVOT_RTOL * big * u
    x = make_whitener(cov, n).color(xw)
    y = x @ np.array([1.0, 0.5, 0.0]) + make_whitener(cov, n).color(rng.standard_normal(n))
    fit = gls_fit(whiten(Dataset(y=y, x_full=x, cov=cov)), CandidateModel((1, 2, 3)))
    pivots = np.abs(np.diag(fit.r))
    assert RANK_PIVOT_RTOL < pivots.min() / pivots.max() < 10 * RANK_PIVOT_RTOL
    fit = fit.with_prior(PriorScale(kind, lam))
    mp = prior_terms_mp(y, x, dense_v(cov, n), kind, lam)
    delta = abs(fit.ypy - mp["ypy"])
    assert delta <= 1e-5 * mp["ypy"]
    assert abs(fit.yay - mp["yay"]) <= delta + 1e-9 * mp["yay"]
    assert fit.logdet_wxvx_plus_i == pytest.approx(mp["logdet"], rel=1e-9)
    expect_dic = (n * (LOG_2PI + math.log(fit.sigma2_hat)) + fit.logdet_v
                  + mp["quad"] / fit.sigma2_hat + 2.0 * mp["p_d"])
    assert abs(dic(fit) - expect_dic) <= delta / fit.sigma2_hat + 1e-9 * abs(expect_dic)
