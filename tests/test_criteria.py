import math

import numpy as np
import pytest

from bmlselect import (
    CRITERION_NAMES,
    CandidateModel,
    CovarianceSpec,
    Dataset,
    DegenerateVarianceError,
    PenaltyUndefinedError,
    PriorScale,
    WhitenedFit,
    aic,
    bic,
    dic,
    gls_fit,
    ic_pi1,
    ic_pi1_star,
    ic_pi2,
    ic_r,
    ic_r_star,
    ml,
    neg2_log_residual,
    ric,
    score,
    select,
    whiten,
)
from bmlselect import criteria as criteria_module
from dense_oracle import dic_dense, gls_beta

LOG_2PI = math.log(2.0 * math.pi)


def fitted(seed=0, n=20, p=4, lam=2.0, cov=None):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    y = x @ rng.standard_normal(p) + rng.standard_normal(n)
    ds = Dataset(y=y, x_full=x, cov=cov or CovarianceSpec.identity())
    wd = whiten(ds)
    model = CandidateModel(tuple(range(1, p + 1)))
    prior = PriorScale("ridge", lam)
    return ds, wd, model, prior, gls_fit(wd, model).with_prior(prior)


# ---------------------------------------------------------------------------
# Exact relations
# ---------------------------------------------------------------------------


def test_ic_pi1_penalty_value():
    _, _, _, _, fit = fitted(n=20, p=4)
    assert ic_pi1(fit) - ml(fit) == pytest.approx(40.0 / 14.0, abs=1e-12)
    assert 40.0 / 14.0 == pytest.approx(2.8571428571428571)


def test_ic_pi1_is_ml_plus_penalty_bit_for_bit():
    _, _, _, _, fit = fitted(seed=3)
    assert ic_pi1(fit) == ml(fit) + 2.0 * fit.n / (fit.n - fit.p - 2)


def test_ic_r_penalty_value():
    _, _, _, _, fit = fitted(seed=1, n=10, p=2)
    assert ic_r(fit) - neg2_log_residual(fit) == pytest.approx(16.0 / 6.0, abs=1e-12)


def test_ic_r_hand_value_ones_column():
    ds = Dataset(y=np.array([1.0, 2.0, 3.0, 4.0]), x_full=np.ones((4, 1)),
                 cov=CovarianceSpec.identity())
    fit = gls_fit(whiten(ds), CandidateModel((1,)))
    expect = 3.0 * math.log(2.0 * math.pi * 5.0 / 3.0) + math.log(4.0) + 3.0 + 6.0
    assert expect == pytest.approx(17.4324024316459, abs=1e-12)
    assert ic_r(fit) == pytest.approx(expect, rel=1e-12)


def test_ic_r_star_penalty_value():
    _, _, _, _, fit = fitted(n=20, p=4)
    base = (fit.n - fit.p) * (LOG_2PI + math.log(fit.sigma2_tilde)) \
        + fit.logdet_v + fit.p * math.log(fit.n)
    assert ic_r_star(fit) - base == pytest.approx(256.0 / 14.0, abs=1e-10)


def test_ric_defining_identity():
    _, _, _, _, fit = fitted(seed=5)
    shift = fit.n + 2.0 - fit.p * (LOG_2PI + math.log(fit.sigma2_tilde))
    assert ic_r_star(fit) - ric(fit) == pytest.approx(shift, abs=1e-10)


def test_ric_simplified_form():
    _, _, _, _, fit = fitted(seed=6, n=25, p=3)
    n, p = fit.n, fit.p
    simplified = (
        n * (LOG_2PI + math.log(fit.sigma2_tilde))
        + fit.logdet_v
        + p * math.log(n)
        + 4.0 / (n - p - 2)
        - p
    )
    assert ric(fit) == pytest.approx(simplified, rel=1e-10)


def test_penalty_undefined_when_dof_too_small():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((5, 3))
    y = rng.standard_normal(5)
    ds = Dataset(y=y, x_full=x, cov=CovarianceSpec.identity())
    fit = gls_fit(whiten(ds), CandidateModel((1, 2, 3))).with_prior(PriorScale("ridge", 1.0))
    for crit in (ic_pi1, ic_r, ic_r_star, ric):
        with pytest.raises(PenaltyUndefinedError):
            crit(fit)
    # the star variant of ic_pi1 carries no dof restriction
    ic_pi1_star(fit)


@pytest.mark.parametrize("n", [4, 8])
def test_no_criterion_reaches_the_saturated_model_error(n):
    # sigma2_tilde raises for p >= n, but every criterion that reads it checks
    # n - p - 2 first, so a score is a float or PenaltyUndefinedError.
    for p in range(n - 3, n + 3):
        fit = WhitenedFit(
            p=p, n=n, ypy=1.0, yty=4.0, logdet_v=0.0,
            logdet_xvx=0.0, r=np.eye(p), qty=np.ones(p),
        ).with_prior(PriorScale("zellner", 1.0))
        for name in CRITERION_NAMES:
            try:
                assert isinstance(score(name, fit), float)
            except PenaltyUndefinedError:
                pass
        if n - p - 2 <= 0:
            with pytest.raises(PenaltyUndefinedError) as from_ric:
                ric(fit)
            with pytest.raises(PenaltyUndefinedError) as from_ic_r_star:
                ic_r_star(fit)
            assert str(from_ric.value) == str(from_ic_r_star.value)


# ---------------------------------------------------------------------------
# ic_pi1_star and ic_pi2
# ---------------------------------------------------------------------------


def test_ic_pi1_star_difference_identity():
    _, _, _, _, fit = fitted(seed=8)
    expect = (
        fit.logdet_wxvx_plus_i
        - fit.p * math.log(fit.n)
        + 2.0 * fit.n / (fit.n - fit.p - 2)
        - 2.0
    )
    assert ic_pi1(fit) - ic_pi1_star(fit) == pytest.approx(expect, abs=1e-10)


def test_ic_pi1_star_orthonormal_design_sweep():
    # X'X = n I and W = I make the prior log-determinant p log(n + 1); its
    # gap to the p log n approximation shrinks monotonically with n
    rng = np.random.default_rng(9)
    p = 3
    gaps = []
    for n in (50, 100, 200, 400):
        q = np.linalg.qr(rng.standard_normal((n, p)), mode="reduced")[0]
        x = math.sqrt(n) * q
        y = x @ np.ones(p) + rng.standard_normal(n)
        ds = Dataset(y=y, x_full=x, cov=CovarianceSpec.identity())
        fit = gls_fit(whiten(ds), CandidateModel((1, 2, 3))).with_prior(PriorScale("ridge", 1.0))
        assert fit.logdet_wxvx_plus_i == pytest.approx(p * math.log(n + 1.0), rel=1e-10)
        gaps.append(fit.logdet_wxvx_plus_i - p * math.log(n))
    assert all(a > b > 0 for a, b in zip(gaps, gaps[1:]))


def test_ic_pi1_star_null_model():
    rng = np.random.default_rng(10)
    y = rng.standard_normal(8)
    ds = Dataset(y=y, x_full=rng.standard_normal((8, 2)), cov=CovarianceSpec.identity())
    wd = whiten(ds)
    fit = gls_fit(wd, CandidateModel(())).with_prior(PriorScale("ridge", 1.0))
    s2 = float(y @ y) / 8
    expect = 8 * (LOG_2PI + math.log(s2)) + 2.0 + float(y @ y) / s2
    assert ic_pi1_star(fit) == pytest.approx(expect, rel=1e-12)


def test_ic_pi2_hand_value():
    fit = WhitenedFit(p=2, n=10, ypy=10.0, yty=40.0,
                      logdet_v=0.0, logdet_xvx=1.0)
    assert fit.sigma2_hat == 1.0
    assert ic_pi2(fit) == pytest.approx(24.983940850081545, abs=1e-12)


def test_ic_pi2_differs_from_bic_by_p_minus_n():
    _, _, _, _, fit = fitted(seed=11, n=30, p=5)
    assert ic_pi2(fit) - bic(fit) == pytest.approx(fit.p - fit.n, abs=1e-10)


def test_ic_pi2_null_model():
    _, wd, _, _, _ = fitted(seed=12, n=9, p=2)
    fit = gls_fit(wd, CandidateModel(()))
    expect = 9 * (LOG_2PI + math.log(fit.sigma2_hat)) + fit.logdet_v
    assert ic_pi2(fit) == pytest.approx(expect, rel=1e-12)


# ---------------------------------------------------------------------------
# aic / bic
# ---------------------------------------------------------------------------


def test_aic_bic_identity_covariance_display():
    # under V = I the values reduce to n log(2 pi) + n log(RSS/n) + n + g(p)
    ds, wd, model, _, fit = fitted(seed=13, n=18, p=3, cov=CovarianceSpec.identity())
    rss = fit.ypy
    base = fit.n * LOG_2PI + fit.n * math.log(rss / fit.n) + fit.n
    assert aic(fit) == pytest.approx(base + 2 * (fit.p + 1), rel=1e-12)
    assert bic(fit) == pytest.approx(base + fit.p * math.log(fit.n), rel=1e-12)


def test_aic_minus_bic_hand_value():
    _, _, _, _, fit = fitted(seed=14, n=50, p=3)
    assert aic(fit) - bic(fit) == pytest.approx(8.0 - 3.0 * math.log(50.0), abs=1e-10)
    assert 8.0 - 3.0 * math.log(50.0) == pytest.approx(-3.7360690163, abs=1e-9)


def test_bic_orders_nested_equal_variance_fits_by_p():
    fit2 = WhitenedFit(p=2, n=30, ypy=12.0, yty=50.0,
                       logdet_v=0.0, logdet_xvx=0.0)
    fit4 = WhitenedFit(p=4, n=30, ypy=12.0, yty=50.0,
                       logdet_v=0.0, logdet_xvx=0.0)
    assert bic(fit2) < bic(fit4)
    assert ic_pi2(fit2) < ic_pi2(fit4)


# ---------------------------------------------------------------------------
# dic
# ---------------------------------------------------------------------------


def test_dic_matches_dense_formula():
    for seed, spec_maker in ((20, CovarianceSpec.identity), (21, lambda: CovarianceSpec.ar1(0.5))):
        ds, wd, model, prior, fit = fitted(seed=seed, n=12, p=3, lam=1.5, cov=spec_maker())
        v = np.eye(12) if ds.cov.kind == "identity" else \
            0.5 ** np.abs(np.subtract.outer(np.arange(12), np.arange(12)))
        w = np.eye(3) / prior.lam
        expect = dic_dense(ds.y, ds.x_full, v, w, fit.sigma2_hat)
        assert dic(fit) == pytest.approx(expect, rel=1e-9)


def test_dic_matches_posterior_sampling_oracle():
    # V = I, so the whitened data are the raw ones.
    ds, wd, model, prior, fit = fitted(seed=22, n=12, p=2, lam=0.8)
    closed = dic(fit)
    s2 = fit.sigma2_hat
    xj = ds.x_full
    g = xj.T @ xj
    m_inv = np.linalg.inv(g + prior.lam * np.eye(2))
    beta_post = m_inv @ xj.T @ ds.y
    rng = np.random.default_rng(99)
    draws = 200_000
    l = np.linalg.cholesky(s2 * m_inv)
    betas = beta_post[None, :] + rng.standard_normal((draws, 2)) @ l.T
    resid = ds.y[None, :] - betas @ xj.T
    dev = fit.n * (LOG_2PI + math.log(s2)) + (resid ** 2).sum(axis=1) / s2
    resid_post = ds.y - xj @ beta_post
    d_post = fit.n * (LOG_2PI + math.log(s2)) + float(resid_post @ resid_post) / s2
    mc = 2.0 * dev.mean() - d_post
    se = 2.0 * dev.std(ddof=1) / math.sqrt(draws)
    assert abs(closed - mc) <= 3.0 * se


def test_dic_flat_prior_limit_has_effective_dimension_p():
    ds, wd, model, prior, fit = fitted(seed=23, n=15, p=3, lam=1e-8)
    value = dic(fit)
    xj = ds.x_full  # V = I, so the whitened data are the raw ones
    g = xj.T @ xj
    m_inv = np.linalg.inv(g + prior.lam * np.eye(3))
    beta_post = m_inv @ xj.T @ ds.y
    resid = ds.y - xj @ beta_post
    d_post = fit.n * (LOG_2PI + math.log(fit.sigma2_hat)) + float(resid @ resid) / fit.sigma2_hat
    p_d = (value - d_post) / 2.0
    assert abs(p_d - model.p) < 1e-3


def test_dic_posterior_mean_shrinks_to_zero():
    ds, wd, model, _, _ = fitted(seed=24, n=15, p=3)
    fit = gls_fit(wd, model)
    xj = ds.x_full  # V = I, so the whitened data are the raw ones
    g = xj.T @ xj
    beta_big_lam = np.linalg.solve(g + 1e8 * np.eye(3), xj.T @ ds.y)
    beta_gls = gls_beta(ds.y, xj, np.eye(15))
    assert np.linalg.norm(beta_big_lam) < 1e-6 * np.linalg.norm(beta_gls)


# ---------------------------------------------------------------------------
# ml
# ---------------------------------------------------------------------------


def test_ml_is_ic_pi1_without_penalty():
    _, _, _, _, fit = fitted(seed=25)
    assert ml(fit) == ic_pi1(fit) - 2.0 * fit.n / (fit.n - fit.p - 2)


def test_ml_minus_bic_bounded_on_orthonormal_sweep():
    rng = np.random.default_rng(26)
    p = 3
    gaps = []
    for n in (50, 100, 200, 400):
        q = np.linalg.qr(rng.standard_normal((n, p)), mode="reduced")[0]
        x = math.sqrt(n) * q
        y = x @ np.ones(p) + rng.standard_normal(n)
        ds = Dataset(y=y, x_full=x, cov=CovarianceSpec.identity())
        fit = gls_fit(whiten(ds), CandidateModel((1, 2, 3))).with_prior(PriorScale("ridge", 1.0))
        gaps.append(abs(ml(fit) - bic(fit)))
    assert max(gaps) < 25.0


# ---------------------------------------------------------------------------
# argmin invariance under response rescaling
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("cov", ["identity", "ar1"])
@pytest.mark.parametrize("prior_kind", ["ridge", "zellner"])
@pytest.mark.parametrize("name", CRITERION_NAMES)
def test_scale_equivariance(name, prior_kind, cov):
    # With lambda fixed, y -> c y scales y'Py and y'Ay by c^2 and leaves every
    # log-determinant alone: each criterion shifts by n log c^2, except the
    # two REML-variance ones, whose log term carries n - p instead of n
    # (ric adds back p log c^2 through its p log(2 pi s2~) term).
    rng = np.random.default_rng(29)
    n, p, c = 25, 3, 3.0
    x = rng.standard_normal((n, p))
    y = x @ np.array([1.0, -0.5, 0.25]) + rng.standard_normal(n)
    spec = CovarianceSpec.identity() if cov == "identity" else CovarianceSpec.ar1(0.4)
    prior = PriorScale(prior_kind, 2.0)

    def value(scale):
        ds = Dataset(y=scale * y, x_full=x, cov=spec)
        return score(name, gls_fit(whiten(ds), CandidateModel((1, 2, 3))).with_prior(prior))

    k = n - p if name in ("ic_r", "ic_r_star") else n
    assert value(c) - value(1.0) == pytest.approx(k * math.log(c * c), rel=1e-12)


def test_selected_model_invariant_under_rescaling():
    # Rescaling y shifts most criteria by the candidate-independent constant
    # n log c^2; ic_r shifts by (n - p) log c^2 instead, so its argmin only
    # survives rescaling when selection margins exceed p log c^2.  The
    # instance below is separated enough for all five criteria.
    rng = np.random.default_rng(27)
    n = 40
    x = rng.standard_normal((n, 4))
    beta = np.array([1.0, 1.0, 0.0, 0.0])
    sigma = math.sqrt(2.0) / 25.0
    y = x @ beta + sigma * rng.standard_normal(n)
    for crit in ("ic_pi1", "ic_r", "aic", "bic", "ic_pi2"):
        picks = set()
        for c in (0.1, 1.0, 10.0):
            ds = Dataset(y=c * y, x_full=x, cov=CovarianceSpec.identity())
            picks.add(select(ds, crit))
        assert len(picks) == 1, crit


def test_degenerate_variance_raises_in_criteria():
    fit = WhitenedFit(p=1, n=6, ypy=0.0, yty=30.0,
                      logdet_v=0.0, logdet_xvx=0.0, yay=0.0, logdet_wxvx_plus_i=0.0)
    for crit in (aic, bic, ic_pi2, ml):
        with pytest.raises(DegenerateVarianceError):
            crit(fit)


# ---------------------------------------------------------------------------
# score dispatch
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", CRITERION_NAMES)
def test_score_equals_the_named_criterion_bit_for_bit(name):
    _, _, _, _, fit = fitted(seed=28)
    assert score(name, fit) == getattr(criteria_module, name)(fit)


def test_score_calls_the_module_attribute(monkeypatch):
    # Tracing wraps criteria.dic by replacing the module attribute; score
    # must call whatever that attribute is at call time.
    _, _, _, _, fit = fitted(seed=28)
    calls = []
    monkeypatch.setattr(criteria_module, "dic", lambda f: calls.append(f) or 1.5)
    assert score("dic", fit) == 1.5
    assert calls == [fit]


@pytest.mark.parametrize("name", ["hqc", "score", "check_variance", "math"])
def test_score_rejects_unknown_name(name):
    _, _, _, _, fit = fitted(seed=28)
    with pytest.raises(ValueError, match="unknown criterion"):
        score(name, fit)


@pytest.mark.parametrize("p", [0, 3])
def test_prior_criteria_need_a_fit_with_a_prior(p):
    _, wd, _, _, _ = fitted(seed=30, n=20, p=3)
    fit = gls_fit(wd, CandidateModel(tuple(range(1, p + 1))))
    for crit in (dic, ml, ic_pi1_star, ic_pi1):
        with pytest.raises(ValueError, match="^fit was computed without a prior scale$"):
            crit(fit)
