"""Selection criterion scores assembled from a WhitenedFit; lower is better.

Two exact finite-sample criteria come from the marginal and residual
likelihoods (``ic_pi1``, ``ic_r``), each with a large-n approximation
(``ic_pi1_star``, ``ic_r_star``); ``ic_pi2`` is the prior-averaged variant,
``ric`` the classical rearrangement of ``ic_r_star``.  The comparators are
``aic``, ``bic``, ``dic`` and the bare marginal likelihood ``ml``.

Every criterion reads one fitted candidate and adds its own terms, left to
right, to one shared likelihood term: :func:`_ml_term` or its REML twin.
The formulas are array expressions, so a batch fit of same-size candidates
(:func:`~bmlselect.model_core.gls_fit`) gets an array of scores from the
same code that gives one candidate its score.  Every candidate of a batch
shares p and n, so a penalty is undefined for the whole batch or for none.
"""

from __future__ import annotations

import numpy as np

from .exceptions import DegenerateVarianceError, PenaltyUndefinedError
from .model_core import WhitenedFit

LOG_2PI = float(np.log(2.0 * np.pi))

# A residual sum of squares at or below this fraction of y'V^{-1}y is an
# exact interpolation up to rounding; taking its log would be meaningless.
DEGENERATE_RTOL = 4e-14

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


def needs_prior(names) -> bool:
    """Whether any of the named criteria involves the coefficient prior."""
    return any(name in NEEDS_PRIOR for name in names)


def check_names(names) -> tuple[str, ...]:
    """``names`` as a tuple; raises ``ValueError`` if empty or naming an unknown criterion."""
    names = tuple(names)
    if not names:
        raise ValueError("no criterion requested")
    unknown = [c for c in names if c not in CRITERION_NAMES]
    if unknown:
        raise ValueError(f"unknown criteria: {unknown}; choose from {', '.join(CRITERION_NAMES)}")
    return names


def check_variance(fit: WhitenedFit) -> None:
    """Raise when the residual variance of the candidate, or of any candidate
    of a batch, is zero up to rounding."""
    if np.any(fit.ypy <= DEGENERATE_RTOL * fit.yty):
        raise DegenerateVarianceError(
            f"degenerate variance: residual quadratic form is zero (p = {fit.p}, n = {fit.n})"
        )


def _require_prior(fit: WhitenedFit) -> None:
    if fit.yay is None:
        raise ValueError("fit was computed without a prior scale")


def _require_dof(fit: WhitenedFit) -> None:
    if fit.n - fit.p - 2 <= 0:
        raise PenaltyUndefinedError(
            f"penalty undefined: n - p - 2 = {fit.n - fit.p - 2} (n = {fit.n}, p = {fit.p})"
        )


def _ml_term(fit: WhitenedFit) -> float:
    """n (log 2 pi + log sigma2_hat) + log|V|, after the degeneracy check."""
    check_variance(fit)
    return fit.n * (LOG_2PI + np.log(fit.sigma2_hat)) + fit.logdet_v


def _reml_term(fit: WhitenedFit) -> float:
    """(n - p)(log 2 pi + log sigma2_tilde) + log|V|, after the degeneracy check."""
    s2 = fit.sigma2_tilde  # a saturated fit raises here, before check_variance
    check_variance(fit)
    return (fit.n - fit.p) * (LOG_2PI + np.log(s2)) + fit.logdet_v


def neg2_log_marginal(fit: WhitenedFit) -> float:
    """-2 log of the normal-prior marginal density at the plug-in variance.

    Equals n log(2 pi sigma2_hat) + log|V| + log|W X'V^{-1}X + I| +
    y'Ay / sigma2_hat.
    """
    _require_prior(fit)
    return _ml_term(fit) + fit.logdet_wxvx_plus_i + fit.yay / fit.sigma2_hat


def neg2_log_residual(fit: WhitenedFit) -> float:
    """-2 log of the flat-prior (residual) likelihood at the REML variance.

    The final quadratic term y'Py / sigma2_tilde is n - p identically, so it
    is emitted as that exact integer.
    """
    return _reml_term(fit) + fit.logdet_xvx + float(fit.n - fit.p)


def ml(fit: WhitenedFit) -> float:
    """The marginal likelihood alone: -2 log f(y | sigma2_hat, W)."""
    return neg2_log_marginal(fit)


def ic_pi1(fit: WhitenedFit) -> float:
    """Marginal-likelihood criterion with exact penalty 2n / (n - p - 2)."""
    _require_dof(fit)
    return ml(fit) + 2.0 * fit.n / (fit.n - fit.p - 2)


def ic_pi1_star(fit: WhitenedFit) -> float:
    """Large-n form of ic_pi1: the prior log-determinant becomes p log n."""
    _require_prior(fit)
    return _ml_term(fit) + fit.p * np.log(fit.n) + 2.0 + fit.yay / fit.sigma2_hat


def ic_pi2(fit: WhitenedFit) -> float:
    """Prior-averaged criterion n log(2 pi s2) + log|V| + p log n + p."""
    return _ml_term(fit) + fit.p * np.log(fit.n) + fit.p


def ic_r(fit: WhitenedFit) -> float:
    """Residual-likelihood criterion with exact penalty 2(n-p) / (n-p-2)."""
    _require_dof(fit)
    dof = fit.n - fit.p
    return neg2_log_residual(fit) + 2.0 * dof / (dof - 2)


def ic_r_star(fit: WhitenedFit) -> float:
    """Large-n form of ic_r with penalty p log n + (n-p)^2 / (n-p-2)."""
    _require_dof(fit)
    dof = fit.n - fit.p
    return _reml_term(fit) + fit.p * np.log(fit.n) + dof * dof / (dof - 2.0)


def ric(fit: WhitenedFit) -> float:
    """Residual information criterion: ic_r_star - (n + 2) + p log(2 pi s2~)."""
    return ic_r_star(fit) - (fit.n + 2.0) + fit.p * (LOG_2PI + np.log(fit.sigma2_tilde))


def aic(fit: WhitenedFit) -> float:
    """n log(2 pi s2) + log|V| + n + 2(p + 1)."""
    return _ml_term(fit) + fit.n + 2.0 * (fit.p + 1)


def bic(fit: WhitenedFit) -> float:
    """n log(2 pi s2) + log|V| + n + p log n."""
    return _ml_term(fit) + fit.n + fit.p * np.log(fit.n)


def dic(fit: WhitenedFit) -> float:
    """Deviance information criterion at the plug-in variance.

    With posterior mean beta~ = (X'V^{-1}X + W^{-1})^{-1} X'V^{-1} y the
    closed form is D(beta~) + 2 tr[X'V^{-1}X (X'V^{-1}X + W^{-1})^{-1}],
    which equals 2 E[D(beta) | y] - D(beta~).  The deviance keeps its
    normalizing constants n log(2 pi s2) + log|V| because s2 differs across
    candidates.  The residual at beta~ and p_D come from the fit's prior
    scale (:meth:`~bmlselect.covariance.PriorScale.posterior_terms`).
    """
    _require_prior(fit)
    base = _ml_term(fit)
    quad, p_d = fit.prior.posterior_terms(fit)
    return base + quad / fit.sigma2_hat + 2.0 * p_d


def score(name: str, fit: WhitenedFit) -> float:
    """Evaluate one named criterion on a fitted candidate.

    The lookup goes through the module namespace at call time, so a wrapper
    set on a module attribute is the function called.
    """
    if name not in CRITERION_NAMES:
        raise ValueError(f"unknown criterion {name!r}")
    return globals()[name](fit)
