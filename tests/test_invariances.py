"""Invariances the model implies, and the behaviour on each side of every threshold.

Rows of the data carry no order under V = I, the column order of the design
carries no meaning, the RSS-based criteria and the Zellner prior do not
see a column's scale, and rescaling y or V shifts each score by a known
law.  The rank rule (``RANK_PIVOT_RTOL``) and the
degeneracy rule (``DEGENERATE_RTOL``) are each probed a factor of three
either side of their threshold, far outside the rounding with which
different factorization routes compute a pivot or y'Py, and lambda-hat is
driven onto each end of ``LAMBDA_BOUNDS``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmlselect import (
    CRITERION_NAMES,
    CandidateModel,
    CovarianceSpec,
    Dataset,
    DegenerateVarianceError,
    ExperimentSpec,
    SelectionOptions,
    SingularDesignError,
    WhitenedData,
    estimate_lambda,
    generate_dataset,
    gls_fit,
    score_candidates,
    whiten,
)
from bmlselect import covariance, selection
from bmlselect.covariance import LAMBDA_BOUNDS
from bmlselect.criteria import DEGENERATE_RTOL, aic
from bmlselect.model_core import RANK_PIVOT_RTOL
from bmlselect.selection import report_from_table

# Scores of the same candidate computed from permuted or rescaled data agree
# to this relative tolerance: the factorizations round differently, and a
# lambda estimate moves by its Newton stopping rule.
SCORE_RTOL = 1e-8
RSS_FAMILY = ("aic", "bic", "ic_pi2", "ic_r_star", "ric")


def _design(seed, n, p, snr):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    beta = np.zeros(p)
    beta[: max(1, p // 2)] = 1.0
    y = snr * (x @ beta) + rng.standard_normal(n)
    return x, y


def _close(a, b):
    return abs(a - b) <= SCORE_RTOL * max(1.0, abs(a), abs(b))


def _scores_of(table, i):
    """{criterion: score} of the table's candidate ``i`` over the criteria
    that do not exclude it."""
    return {name: table.scores[i, j].item()
            for j, name in enumerate(table.criteria) if not table.exclusion[i, j]}


def _by_indices(table):
    return {table.candidate(i).indices: _scores_of(table, i) for i in range(len(table.members))}


def _assert_same_selection(table, other, name, to_original):
    """``other``'s selection, mapped to ``table``'s columns, is ``table``'s,
    or ties with it in ``table``'s scores."""
    chosen = report_from_table(table, name)
    mapped = tuple(sorted(to_original[i] for i in report_from_table(other, name).indices))
    if mapped != chosen.indices:
        scores = _by_indices(table)
        assert _close(scores[mapped][name], scores[chosen.indices][name]), name


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(8, 40),
    p=st.integers(1, 4),
    snr=st.floats(0.3, 5.0),
    data=st.data(),
)
def test_row_permutation_leaves_every_score_unchanged(seed, n, p, snr, data):
    x, y = _design(seed, n, p, snr)
    perm = np.array(data.draw(st.permutations(range(n)), label="perm"))
    tables = [
        score_candidates(Dataset(y=yy, x_full=xx, cov=CovarianceSpec.identity()), CRITERION_NAMES)
        for xx, yy in ((x, y), (x[perm], y[perm]))
    ]
    base, permuted = tables
    for i in range(len(base.members)):
        assert permuted.candidate(i) == base.candidate(i)
        assert permuted.excluded(i) == base.excluded(i)
        scores, other = _scores_of(base, i), _scores_of(permuted, i)
        assert other.keys() == scores.keys()
        for name, value in scores.items():
            assert _close(other[name], value), (model.indices, name)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(10, 40),
    p=st.integers(2, 4),
    snr=st.floats(0.3, 5.0),
    prior_kind=st.sampled_from(["ridge", "zellner"]),
    data=st.data(),
)
def test_column_permutation_maps_the_selected_set(seed, n, p, snr, prior_kind, data):
    x, y = _design(seed, n, p, snr)
    perm = data.draw(st.permutations(range(p)), label="perm")
    options = SelectionOptions(prior_kind=prior_kind)
    table = score_candidates(Dataset(y=y, x_full=x, cov=CovarianceSpec.identity()),
                             CRITERION_NAMES, options)
    permuted = score_candidates(Dataset(y=y, x_full=x[:, perm], cov=CovarianceSpec.identity()),
                                CRITERION_NAMES, options)
    # Column j + 1 of the permuted design is column perm[j] + 1 of the original.
    to_original = {j + 1: perm[j] + 1 for j in range(p)}
    for name in CRITERION_NAMES:
        _assert_same_selection(table, permuted, name, to_original)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(10, 40),
    p=st.integers(1, 4),
    snr=st.floats(0.3, 5.0),
    column=st.integers(0, 3),
    c=st.sampled_from([1e-3, 0.1, 7.0, 1e3]),
)
def test_column_rescaling_keeps_rss_and_zellner_selections(seed, n, p, snr, column, c):
    # aic, bic, ic_pi2, ic_r_star and ric read y'Py alone, and the Zellner
    # prior W = (lambda G)^-1 rescales with G; ic_r (log|G|) and every
    # ridge-prior criterion do not share this invariance.
    x, y = _design(seed, n, p, snr)
    scaled = x.copy()
    scaled[:, column % p] *= c
    options = SelectionOptions(prior_kind="zellner")
    table, other = (
        score_candidates(Dataset(y=y, x_full=xx, cov=CovarianceSpec.identity()),
                         CRITERION_NAMES, options)
        for xx in (x, scaled)
    )
    identity = {j: j for j in range(1, p + 1)}
    for name in RSS_FAMILY + ("ic_pi1", "ic_pi1_star", "dic", "ml"):
        _assert_same_selection(table, other, name, identity)


# ---------------------------------------------------------------------------
# Units of y and V
# ---------------------------------------------------------------------------

# The laws below hold to rounding: the same factorizations run on rescaled
# numbers.  Ridge lambda-hat is the search's root to its stopping rule, not
# exactly lambda-hat / c, so the criteria that read it get SCORE_RTOL under
# a rescaled V.
UNITS_RTOL = 1e-13
RIDGE_LAMBDA_CRITERIA = ("ic_pi1", "ic_pi1_star", "ml", "dic")


def _units_data():
    """n = 40, p_omega = 5, an AR(1)-like custom V, every lambda-hat off its bounds."""
    n = 40
    rng = np.random.default_rng(10)
    x = rng.standard_normal((n, 5))
    y = x @ np.array([1.0, 1.0, 1.0, 0.5, 0.5]) + rng.standard_normal(n)
    lag = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    return x, y, 0.5**lag + 0.2 * np.eye(n)


def _assert_shifted(base, other, shift, rtol):
    """``other``'s scores are ``base``'s plus ``shift[name]`` (one entry per
    row), with the same exclusions and no lambda-hat on a bound."""
    assert not base.lambda_at_boundary.any() and not other.lambda_at_boundary.any()
    np.testing.assert_array_equal(other.exclusion, base.exclusion)
    for j, name in enumerate(base.criteria):
        want = base.scores[:, j] + shift[name]
        tol = rtol.get(name, UNITS_RTOL) * np.maximum(1.0, np.abs(want))
        kept = ~base.exclusion[:, j].astype(bool)
        assert kept.any(), name
        gap = np.abs(other.scores[kept, j] - want[kept])
        assert np.all(gap <= tol[kept]), (name, gap.max())


@pytest.mark.parametrize("prior_kind", ["ridge", "zellner"])
@pytest.mark.parametrize("cov_kind", ["identity", "custom"])
def test_scaling_y_shifts_every_score_by_n_log_a_squared(cov_kind, prior_kind):
    # y -> a y multiplies y'Py by a^2, so each n log(y'Py) term shifts by
    # n log a^2; ic_r and ic_r_star take (n - p) log of a variance instead.
    # README's "scaling y by c shifts ic_r by (n-p) log c^2" is the law that
    # acceptance checks 6 and 7 build their targets on.
    x, y, v = _units_data()
    a, n = 7.0, len(y)
    cov = CovarianceSpec.identity() if cov_kind == "identity" else CovarianceSpec.custom(v)
    options = SelectionOptions(prior_kind=prior_kind)
    base, scaled = (score_candidates(Dataset(y=yy, x_full=x, cov=cov), CRITERION_NAMES, options)
                    for yy in (y, a * y))
    p = base.members.sum(axis=1)
    shift = {name: (n - p if name in ("ic_r", "ic_r_star") else n) * math.log(a * a)
             for name in CRITERION_NAMES}
    _assert_shifted(base, scaled, shift, {})


@pytest.mark.parametrize("prior_kind", ["ridge", "zellner"])
def test_scaling_a_custom_v_shifts_only_ic_r_star(prior_kind):
    # V -> c V with sigma^2 -> sigma^2 / c is the same model, since the two
    # enter only as the product sigma^2 V, and every criterion but ic_r_star
    # scores it the same.  ic_r_star takes (n - p) log of the REML variance
    # but all n of log|V|, so it shifts by p log c and its pick can change
    # with the units of V (at this seed its pick moves from the full model
    # to 1 2 3 4); ic_r and ric do not.  Whether that is the paper's intent
    # is open: this pins today's formula, not the paper's.
    x, y, v = _units_data()
    c = 7.0
    options = SelectionOptions(prior_kind=prior_kind)
    base, scaled = (score_candidates(Dataset(y=y, x_full=x, cov=CovarianceSpec.custom(vv)),
                                     CRITERION_NAMES, options)
                    for vv in (v, c * v))
    p = base.members.sum(axis=1)
    shift = {name: p * math.log(c) if name == "ic_r_star" else 0.0 for name in CRITERION_NAMES}
    rtol = dict.fromkeys(RIDGE_LAMBDA_CRITERIA, SCORE_RTOL) if prior_kind == "ridge" else {}
    _assert_shifted(base, scaled, shift, rtol)


# ---------------------------------------------------------------------------
# RANK_PIVOT_RTOL
# ---------------------------------------------------------------------------


def _near_dependent_design(factor):
    """Column 3 is x1 + x2 plus a residual orthogonal to both whose R pivot is
    ``factor`` times RANK_PIVOT_RTOL times the largest pivot; column 4 is free."""
    rng = np.random.default_rng(41)
    n = 16
    x = rng.standard_normal((n, 4))
    q = np.linalg.qr(x[:, [0, 1, 3]])[0]
    u = rng.standard_normal(n)
    u -= q @ (q.T @ u)
    u /= np.linalg.norm(u)
    big = np.abs(np.diag(np.linalg.qr(x[:, :2], mode="r"))).max()
    x[:, 2] = x[:, 0] + x[:, 1] + factor * RANK_PIVOT_RTOL * big * u
    y = x[:, 0] - x[:, 3] + rng.standard_normal(n)
    return x, y


def test_rank_pivot_just_above_the_threshold_is_a_proper_fit():
    x, y = _near_dependent_design(3.0)
    table = score_candidates(Dataset(y=y, x_full=x, cov=CovarianceSpec.identity()), ("bic",))
    assert "bic" in _by_indices(table)[(1, 2, 3)]
    assert not any(row.excluded for row in table.rows)
    pivots = np.abs(np.diag(gls_fit(whiten(Dataset(y=y, x_full=x, cov=CovarianceSpec.identity())),
                                    CandidateModel((1, 2, 3))).r))
    assert RANK_PIVOT_RTOL < pivots.min() / pivots.max() < 10 * RANK_PIVOT_RTOL


def test_rank_pivot_just_below_the_threshold_is_singular():
    x, y = _near_dependent_design(1.0 / 3.0)
    with pytest.raises(SingularDesignError, match="rank deficient"):
        Dataset(y=y, x_full=x, cov=CovarianceSpec.identity())
    wd = WhitenedData.from_whitened(x, y, 0.0)
    with pytest.raises(SingularDesignError, match="candidate 1 2 3$"):
        gls_fit(wd, CandidateModel((1, 2, 3)))
    with pytest.raises(SingularDesignError, match="candidate 1 2 3 4$"):
        gls_fit(wd, CandidateModel((1, 2, 3, 4)))
    # Without column 3 or one of its parents the design is well conditioned.
    for cols in ((1, 2), (1, 3), (2, 3, 4)):
        assert gls_fit(wd, CandidateModel(cols)).p == len(cols)


# ---------------------------------------------------------------------------
# DEGENERATE_RTOL
# ---------------------------------------------------------------------------


def _near_interpolating_data(factor):
    """y = X beta + e with e orthogonal to X, sized so that y'Py / y'y is
    ``factor`` times DEGENERATE_RTOL for the candidate of both columns."""
    rng = np.random.default_rng(43)
    n = 12
    x = rng.standard_normal((n, 2))
    signal = x @ np.array([1.0, -2.0])
    q = np.linalg.qr(x)[0]
    e = rng.standard_normal(n)
    e -= q @ (q.T @ e)
    e /= np.linalg.norm(e)
    ratio = factor * DEGENERATE_RTOL
    # ||e||^2 / (||signal||^2 + ||e||^2) = ratio
    scale = math.sqrt(ratio * float(signal @ signal) / (1.0 - ratio))
    return Dataset(y=signal + scale * e, x_full=x, cov=CovarianceSpec.identity())


def test_residual_just_above_the_degeneracy_threshold_scores():
    ds = _near_interpolating_data(3.0)
    fit = gls_fit(whiten(ds), CandidateModel((1, 2)))
    assert math.isfinite(aic(fit))
    table = score_candidates(ds, ("aic", "bic", "ic_r"))
    assert all(len(scores) == 3 for scores in _by_indices(table).values())


def test_residual_just_below_the_degeneracy_threshold_raises():
    ds = _near_interpolating_data(1.0 / 3.0)
    with pytest.raises(DegenerateVarianceError):
        aic(gls_fit(whiten(ds), CandidateModel((1, 2))))
    with pytest.raises(DegenerateVarianceError, match="^candidate 1 2: degenerate variance"):
        score_candidates(ds, ("aic", "bic"))


# ---------------------------------------------------------------------------
# LAMBDA_BOUNDS
# ---------------------------------------------------------------------------


def _bound_data(end, prior_kind):
    """One column whose estimated lambda lies beyond ``end`` of LAMBDA_BOUNDS.

    Upper: y is orthogonal to the column, so no shrinkage is too strong.
    Lower: the column is small and the noise tiny against the signal, yet
    y'Py stays 10 times above the degeneracy threshold; f'(log lambda) is
    then positive from the lower bound on (ridge), and p s2 / (s - p s2)
    falls below it (Zellner).
    """
    rng = np.random.default_rng(47)
    n = 20
    x = rng.standard_normal((n, 1))
    e = rng.standard_normal(n)
    e -= x[:, 0] * float(x[:, 0] @ e) / float(x[:, 0] @ x[:, 0])
    e /= np.linalg.norm(e)
    if end == "upper":
        y = e
    else:
        x *= 0.1
        signal = x[:, 0]
        y = signal + math.sqrt(10.0 * DEGENERATE_RTOL * float(signal @ signal)) * e
    return Dataset(y=y, x_full=x, cov=CovarianceSpec.identity())


@pytest.mark.parametrize("prior_kind", ["ridge", "zellner"])
@pytest.mark.parametrize("end", ["lower", "upper"])
def test_lambda_lands_on_each_bound_with_its_flag(end, prior_kind):
    ds = _bound_data(end, prior_kind)
    bound = LAMBDA_BOUNDS[0] if end == "lower" else LAMBDA_BOUNDS[1]
    est = estimate_lambda(gls_fit(whiten(ds), CandidateModel((1,))), prior_kind)
    assert est.at_boundary
    assert est.value == pytest.approx(bound, rel=1e-12)
    table = score_candidates(ds, ("ic_pi1", "dic"), SelectionOptions(prior_kind=prior_kind))
    i = [table.candidate(k) for k in range(len(table.members))].index(CandidateModel((1,)))
    assert table.lambda_at_boundary[i]
    assert table.lambda_hat[i] == pytest.approx(bound, rel=1e-12)
    assert all(math.isfinite(v) for v in _scores_of(table, i).values())


# ---------------------------------------------------------------------------
# Batch splitting
# ---------------------------------------------------------------------------


def test_a_size_split_into_many_batches_scores_the_same_table(monkeypatch):
    # The golden designs never split a size into several batches.  A 64-element
    # budget splits every size here, so each batch must write its scores,
    # exclusions and lambda-hat at its own positions; n = 10 makes the
    # penalty undefined for p = 8, and the estimated ar1 phi feeds every size.
    x, y = _design(29, 10, 8, 1.0)
    ds = Dataset(y=y, x_full=x, cov=CovarianceSpec.ar1(None))
    whole = score_candidates(ds, CRITERION_NAMES)
    monkeypatch.setattr(selection, "BATCH_ELEMENTS", 64)
    monkeypatch.setattr(covariance, "BATCH_ELEMENTS", 64)
    split = score_candidates(ds, CRITERION_NAMES)
    assert len(split.members) == 256 and split.exclusion.any()
    assert split.phi_hat == whole.phi_hat
    for name in ("scores", "exclusion", "lambda_hat", "lambda_at_boundary"):
        np.testing.assert_array_equal(getattr(split, name), getattr(whole, name), err_msg=name)


@pytest.mark.parametrize("include_null", [True, False])
@pytest.mark.parametrize("kind, prior_kind",
                         [("constant_variance", "ridge"), ("ar1", "ridge"), ("nerm", "zellner")])
def test_a_stack_of_replications_scores_each_as_it_scores_alone(monkeypatch, kind, prior_kind,
                                                                include_null):
    # run_experiment scores the replications of a cell as one block: each
    # size is one run of rows across the block, which a 64-element budget
    # splits into batches that straddle replications.  Each replication's
    # table must be the one score_candidates gives it alone, bit for bit.
    # n = 8 leaves the penalty undefined for p >= 6.
    spec = ExperimentSpec(model_kind=kind, n_grid=(8,), snr_grid=(2.0,), replications=5,
                          master_seed=17, prior_kind=prior_kind, include_null=include_null)
    cell = spec.cells()[0]
    datasets = [generate_dataset(spec, cell, rep)[0] for rep in range(spec.replications)]
    options = SelectionOptions(prior_kind=prior_kind, include_null=include_null)
    alone = [score_candidates(ds, CRITERION_NAMES, options) for ds in datasets]
    monkeypatch.setattr(selection, "BATCH_ELEMENTS", 64)
    monkeypatch.setattr(covariance, "BATCH_ELEMENTS", 64)
    stacked = selection._score_block(datasets, CRITERION_NAMES, options)
    assert len(stacked) == len(datasets)
    for rep, (got, want) in enumerate(zip(stacked, alone)):
        assert got.exclusion.any() and not np.isnan(got.lambda_hat).all()
        assert (got.phi_hat, got.phi_at_boundary) == (want.phi_hat, want.phi_at_boundary)
        assert got.whitened.r0.tobytes() == want.whitened.r0.tobytes()
        for name in ("members", "scores", "exclusion", "lambda_hat", "lambda_at_boundary"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (rep, name)

