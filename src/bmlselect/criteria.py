"""Selection criterion scores assembled from a WhitenedFit; lower is better.

Two exact finite-sample criteria come from the marginal and residual
likelihoods (``ic_pi1``, ``ic_r``), each with a large-n approximation
(``ic_pi1_star``, ``ic_r_star``); ``ic_pi2`` is the prior-averaged variant,
``ric`` the classical rearrangement of ``ic_r_star``.  The comparators are
``aic``, ``bic``, ``dic`` and the bare marginal likelihood ``ml``.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from .covariance import PriorScale
from .exceptions import PenaltyUndefinedError
from .model_core import (
    LOG_2PI,
    CandidateModel,
    WhitenedData,
    WhitenedFit,
    check_variance,
    neg2_log_marginal,
    neg2_log_residual,
)

CRITERION_NAMES = (
    "ic_pi1",
    "ic_pi1_star",
    "ic_pi2",
    "ic_r",
    "ic_r_star",
    "ric",
    "aic",
    "bic",
    "dic",
    "ml",
)

# Criteria whose value involves the coefficient prior N(0, sigma^2 W).
NEEDS_PRIOR = frozenset({"ic_pi1", "ic_pi1_star", "dic", "ml"})


def _require_dof(fit: WhitenedFit) -> None:
    if fit.n - fit.p - 2 <= 0:
        raise PenaltyUndefinedError(
            f"penalty undefined: n - p - 2 = {fit.n - fit.p - 2} (n = {fit.n}, p = {fit.p})"
        )


def ml(fit: WhitenedFit) -> float:
    """The marginal likelihood alone: -2 log f(y | sigma2_hat, W)."""
    return neg2_log_marginal(fit)


def ic_pi1(fit: WhitenedFit) -> float:
    """Marginal-likelihood criterion with exact penalty 2n / (n - p - 2)."""
    _require_dof(fit)
    return ml(fit) + 2.0 * fit.n / (fit.n - fit.p - 2)


def ic_pi1_star(fit: WhitenedFit) -> float:
    """Large-n form of ic_pi1: the prior log-determinant becomes p log n."""
    if fit.yay is None:
        raise ValueError("fit was computed without a prior scale")
    check_variance(fit)
    s2 = fit.sigma2_hat
    return (
        fit.n * (LOG_2PI + math.log(s2))
        + fit.logdet_v
        + fit.p * math.log(fit.n)
        + 2.0
        + fit.yay / s2
    )


def ic_pi2(fit: WhitenedFit) -> float:
    """Prior-averaged criterion n log(2 pi s2) + log|V| + p log n + p."""
    check_variance(fit)
    return (
        fit.n * (LOG_2PI + math.log(fit.sigma2_hat))
        + fit.logdet_v
        + fit.p * math.log(fit.n)
        + fit.p
    )


def ic_r(fit: WhitenedFit) -> float:
    """Residual-likelihood criterion with exact penalty 2(n-p) / (n-p-2)."""
    _require_dof(fit)
    dof = fit.n - fit.p
    return neg2_log_residual(fit) + 2.0 * dof / (dof - 2)


def ic_r_star(fit: WhitenedFit) -> float:
    """Large-n form of ic_r with penalty p log n + (n-p)^2 / (n-p-2)."""
    _require_dof(fit)
    check_variance(fit)
    dof = fit.n - fit.p
    return (
        dof * (LOG_2PI + math.log(fit.sigma2_tilde))
        + fit.logdet_v
        + fit.p * math.log(fit.n)
        + dof * dof / (dof - 2.0)
    )


def ric(fit: WhitenedFit) -> float:
    """Residual information criterion: ic_r_star - (n + 2) + p log(2 pi s2~)."""
    _require_dof(fit)
    return ic_r_star(fit) - (fit.n + 2.0) + fit.p * (LOG_2PI + math.log(fit.sigma2_tilde))


def aic(fit: WhitenedFit) -> float:
    """n log(2 pi s2) + log|V| + n + 2(p + 1)."""
    check_variance(fit)
    return (
        fit.n * (LOG_2PI + math.log(fit.sigma2_hat))
        + fit.logdet_v
        + fit.n
        + 2.0 * (fit.p + 1)
    )


def bic(fit: WhitenedFit) -> float:
    """n log(2 pi s2) + log|V| + n + p log n."""
    check_variance(fit)
    return (
        fit.n * (LOG_2PI + math.log(fit.sigma2_hat))
        + fit.logdet_v
        + fit.n
        + fit.p * math.log(fit.n)
    )


def dic(
    fit: WhitenedFit,
    whitened: WhitenedData,
    model: CandidateModel,
    prior: PriorScale,
) -> float:
    """Deviance information criterion at the plug-in variance.

    With posterior mean beta~ = (X'V^{-1}X + W^{-1})^{-1} X'V^{-1} y the
    closed form is D(beta~) + 2 tr[X'V^{-1}X (X'V^{-1}X + W^{-1})^{-1}],
    which equals 2 E[D(beta) | y] - D(beta~).  The deviance keeps its
    normalizing constants n log(2 pi s2) + log|V| because s2 differs across
    candidates.
    """
    if prior is None:
        raise ValueError("dic requires a prior scale")
    check_variance(fit)
    s2 = fit.sigma2_hat
    yt = whitened.y
    if model.p == 0:
        quad = fit.yty
        p_d = 0.0
    else:
        xj = whitened.x[:, model.zero_based]
        gram = xj.T @ xj
        z = xj.T @ yt
        cf = scipy.linalg.cho_factor(gram + prior.w_inverse(gram), lower=True, check_finite=False)
        beta_post = scipy.linalg.cho_solve(cf, z, check_finite=False)
        resid = yt - xj @ beta_post
        quad = float(resid @ resid)
        p_d = float(np.trace(scipy.linalg.cho_solve(cf, gram, check_finite=False)))
    return fit.n * (LOG_2PI + math.log(s2)) + fit.logdet_v + quad / s2 + 2.0 * p_d


_FIT_ONLY = {
    "ic_pi1": ic_pi1,
    "ic_pi1_star": ic_pi1_star,
    "ic_pi2": ic_pi2,
    "ic_r": ic_r,
    "ic_r_star": ic_r_star,
    "ric": ric,
    "aic": aic,
    "bic": bic,
    "ml": ml,
}


def score(
    name: str,
    fit: WhitenedFit,
    *,
    whitened: WhitenedData | None = None,
    model: CandidateModel | None = None,
    prior: PriorScale | None = None,
) -> float:
    """Evaluate one named criterion on a fitted candidate."""
    if name == "dic":
        if whitened is None or model is None:
            raise ValueError("dic needs the whitened data and the candidate model")
        return dic(fit, whitened, model, prior)
    try:
        fn = _FIT_ONLY[name]
    except KeyError:
        raise ValueError(f"unknown criterion {name!r}") from None
    return fn(fit)
