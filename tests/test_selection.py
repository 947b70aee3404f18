import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bmlselect import (
    CRITERION_NAMES,
    CandidateExplosionError,
    CandidateModel,
    CovarianceSpec,
    Dataset,
    LambdaEstimationError,
    NoAdmissibleCandidateError,
    SelectionOptions,
    enumerate_candidates,
    prediction_error,
    score_candidates,
    select,
)
from bmlselect.selection import EXCLUSION_REASONS, ScoreTable, report_from_table
from dense_oracle import dense_v, gls_beta, random_spd


def models_of(members):
    """The candidate of each row of a membership array."""
    return [CandidateModel(tuple((np.flatnonzero(row) + 1).tolist())) for row in members]


def bic_table(members, entries):
    """A hand-built score table of one criterion, "bic": each entry is the
    score of the candidate in that row of ``members``, or the reason it was
    excluded."""
    m = len(members)
    excluded = [isinstance(e, str) for e in entries]
    return ScoreTable(
        members=members,
        criteria=("bic",),
        scores=np.array([[math.nan if x else e] for e, x in zip(entries, excluded)]),
        exclusion=np.array([[EXCLUSION_REASONS.index(e) if x else 0]
                            for e, x in zip(entries, excluded)], dtype=np.int8),
        lambda_hat=np.full(m, math.nan),
        lambda_at_boundary=np.zeros(m, dtype=bool),
    )


def ranking(table, criterion):
    """``table.rank(criterion)`` decoded: the ranked (candidate, score) pairs
    and the excluded (candidate, reason) pairs."""
    j = table.criteria.index(criterion)
    ranked, excluded = table.rank(criterion)
    return ([(table.candidate(i), table.scores[i, j].item()) for i in ranked],
            [(table.candidate(i), EXCLUSION_REASONS[table.exclusion[i, j]]) for i in excluded])


def admissible_scores(table, model):
    """{criterion: score} of ``model`` over the criteria that do not exclude it."""
    i = models_of(table.members).index(model)
    return {name: table.scores[i, j].item()
            for j, name in enumerate(table.criteria) if not table.exclusion[i, j]}


def signal_dataset(seed, n=50, p_omega=4, true=(1, 2), sigma=1e-6):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p_omega))
    beta = np.zeros(p_omega)
    beta[[i - 1 for i in true]] = 1.0
    y = x @ beta + sigma * rng.standard_normal(n)
    return Dataset(y=y, x_full=x, cov=CovarianceSpec.identity())


# ---------------------------------------------------------------------------
# enumerate_candidates
# ---------------------------------------------------------------------------


def test_enumerate_p2_with_null():
    got = enumerate_candidates(2)
    assert [m.indices for m in models_of(got)] == [(), (1,), (2,), (1, 2)]


def test_enumerate_p2_without_null():
    got = enumerate_candidates(2, include_null=False)
    assert [m.indices for m in models_of(got)] == [(1,), (2,), (1, 2)]


def test_enumerate_p7_power_set():
    assert len(enumerate_candidates(7)) == 128


def test_enumerate_order_by_size_then_lex():
    got = [m.indices for m in models_of(enumerate_candidates(3))]
    assert got == [(), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]
    assert got == [m.indices for m in models_of(enumerate_candidates(3))]


@pytest.mark.parametrize("include_null", [True, False])
@pytest.mark.parametrize("p_omega", range(1, 13))
def test_enumerate_rows_follow_combinations_order(p_omega, include_null):
    members = enumerate_candidates(p_omega, include_null)
    want = [combo for size in range(0 if include_null else 1, p_omega + 1)
            for combo in itertools.combinations(range(1, p_omega + 1), size)]
    assert members.dtype == bool and members.shape == (len(want), p_omega)
    assert [m.indices for m in models_of(members)] == want


def test_enumerate_guardrail(monkeypatch):
    # The limit is checked before any row is built.
    monkeypatch.setattr(np, "zeros", lambda *a, **k: pytest.fail("allocated"))
    with pytest.raises(CandidateExplosionError, match="candidate explosion"):
        enumerate_candidates(21)


# ---------------------------------------------------------------------------
# select
# ---------------------------------------------------------------------------


def test_select_near_noiseless_recovers_truth():
    ds = signal_dataset(0)
    exact = {"bic", "ic_pi1", "ic_r"}
    for crit in ("ic_pi1", "ic_pi1_star", "ic_pi2", "ic_r", "ic_r_star", "ric",
                 "aic", "bic", "dic", "ml"):
        chosen = set(select(ds, crit).indices)
        assert chosen >= {1, 2}, crit
        if crit in exact:
            assert chosen == {1, 2}, crit


def test_select_single_candidate_class():
    rng = np.random.default_rng(1)
    ds = Dataset(y=rng.standard_normal(10), x_full=rng.standard_normal((10, 1)),
                 cov=CovarianceSpec.identity())
    options = SelectionOptions(include_null=False)
    assert select(ds, "aic", options).indices == (1,)
    ranked, _ = ranking(score_candidates(ds, ("aic",), options), "aic")
    assert len(ranked) == 1


def test_select_ranked_is_sorted_and_selected_is_first():
    ds = signal_dataset(2, sigma=0.5)
    ranked, excluded = ranking(score_candidates(ds, ("bic",)), "bic")
    scores = [s for _, s in ranked]
    assert scores == sorted(scores)
    assert select(ds, "bic") == ranked[0][0]
    assert not excluded


def test_select_all_candidates_excluded():
    # n = 3 with a single predictor: n - p - 2 = 0 for the only candidate
    ds = Dataset(y=np.array([1.0, 2.0, 4.0]), x_full=np.array([[1.0], [2.0], [3.0]]),
                 cov=CovarianceSpec.identity())
    with pytest.raises(NoAdmissibleCandidateError, match="no admissible candidate"):
        select(ds, "ic_pi1", SelectionOptions(include_null=False))


def test_select_excludes_small_dof_candidates_with_reason():
    rng = np.random.default_rng(3)
    n = 6
    x = rng.standard_normal((n, 4))
    y = rng.standard_normal(n)
    ds = Dataset(y=y, x_full=x, cov=CovarianceSpec.identity())
    ranked, excluded = ranking(score_candidates(ds, ("ic_r",)), "ic_r")
    # p = 4 gives n - p - 2 = 0: excluded, not silently dropped
    excluded_models = {m.indices: reason for m, reason in excluded}
    assert excluded_models[(1, 2, 3, 4)] == "penalty undefined"
    ranked_ps = {m.p for m, _ in ranked}
    assert 4 not in ranked_ps


def test_duplicate_column_exclusion_preserves_selection():
    base = signal_dataset(4, n=40, p_omega=3, true=(1, 2), sigma=0.1)
    baseline = select(base, "bic").indices
    x_dup = np.column_stack([base.x_full, base.x_full[:, 0]])
    # duplicate-bearing dataset: the full design is singular, so build the
    # score table by hand from fits on the whitened data
    from bmlselect import gls_fit
    import bmlselect.criteria as crit_mod
    from bmlselect.exceptions import SingularDesignError
    from bmlselect.model_core import WhitenedData

    wd = WhitenedData(x=x_dup, y=base.y, logdet_v=0.0)
    candidates = enumerate_candidates(4)
    entries = []
    for model in models_of(candidates):
        try:
            entries.append(crit_mod.bic(gls_fit(wd, model)))
        except SingularDesignError:
            entries.append("singular design")
    table = bic_table(candidates, entries)
    selected = report_from_table(table, "bic")
    _, excluded = ranking(table, "bic")
    assert {m.indices for m, r in excluded if r == "singular design"} == {
        (1, 4), (1, 2, 4), (1, 3, 4), (1, 2, 3, 4)
    }
    # column 4 is column 1, so the selected SUBSET OF ORIGINAL COLUMNS must
    # match the duplicate-free baseline
    as_original = tuple(sorted(1 if i == 4 else i for i in selected.indices))
    assert as_original == baseline


def test_nested_candidate_with_identical_fit_prefers_smaller_p():
    # column 3 is orthogonal to y, so {1, 2} and {1, 2, 3} produce identical
    # fitted values with residual variance near machine precision; the
    # penalty must break the tie toward the smaller model
    n = 16
    q = np.linalg.qr(np.random.default_rng(5).standard_normal((n, 4)), mode="reduced")[0]
    x = np.column_stack([q[:, 0], q[:, 1], q[:, 2]])
    y = 2.0 * q[:, 0] + 0.3 * q[:, 1] + 1e-6 * q[:, 3]
    ds = Dataset(y=y, x_full=x, cov=CovarianceSpec.identity())
    table = score_candidates(ds, ("bic", "ic_pi2", "ic_pi1_star"), SelectionOptions(lam=1.0))
    smaller = admissible_scores(table, CandidateModel((1, 2)))
    larger = admissible_scores(table, CandidateModel((1, 2, 3)))
    for crit in ("bic", "ic_pi2", "ic_pi1_star"):
        assert smaller[crit] < larger[crit]


def test_select_consistency_trend_ic_pi1():
    # strong-signal regime: the exact marginal criterion recovers the truth
    # almost always at n = 400.  The realized rate is ~0.98 (verified against
    # an independent dense evaluation; the remaining misses are genuine
    # one-variable overfits of the criterion, not numerical error).
    reps = 200
    hits = 0
    truth = CandidateModel((1, 2, 3, 4))
    for rep in range(reps):
        rng = np.random.default_rng(10_000 + rep)
        x = rng.standard_normal((400, 7))
        beta = np.array([1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
        sigma = math.sqrt(4.0) / 5.0
        y = x @ beta + sigma * rng.standard_normal(400)
        ds = Dataset(y=y, x_full=x, cov=CovarianceSpec.identity())
        hits += select(ds, "ic_pi1") == truth
    assert hits >= 0.95 * reps


# ---------------------------------------------------------------------------
# prediction_error
# ---------------------------------------------------------------------------


def test_prediction_error_zero_at_truth():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((12, 3))
    beta = np.array([1.0, -2.0, 0.5])
    y = x @ beta  # no noise: GLS recovers beta exactly
    ds = Dataset(y=y, x_full=x, cov=CovarianceSpec.identity())
    err = prediction_error(CandidateModel((1, 2, 3)), ds, (x, beta))
    assert err < 1e-20


def test_prediction_error_null_model():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((10, 2))
    beta = np.array([1.0, 2.0])
    y = x @ beta + rng.standard_normal(10)
    ds = Dataset(y=y, x_full=x, cov=CovarianceSpec.identity())
    err = prediction_error(CandidateModel(()), ds, (x, beta))
    assert err == pytest.approx(float((x @ beta) @ (x @ beta)) / 10, rel=1e-12)


def test_prediction_error_matches_dense_oracle():
    rng = np.random.default_rng(8)
    n = 14
    v = random_spd(rng, n)
    x = rng.standard_normal((n, 4))
    beta = np.array([1.0, 0.0, -1.0, 0.5])
    y = x @ beta + rng.standard_normal(n)
    ds = Dataset(y=y, x_full=x, cov=CovarianceSpec.custom(v))
    sel = CandidateModel((1, 3))
    got = prediction_error(sel, ds, (x, beta))
    beta_hat = gls_beta(y, x[:, [0, 2]], v)
    diff = x[:, [0, 2]] @ beta_hat - x @ beta
    expect = float(diff @ diff) / n
    assert abs(got - expect) < 1e-12 * abs(expect)


def test_prediction_error_uses_phi_hat():
    rng = np.random.default_rng(9)
    n = 30
    x = rng.standard_normal((n, 2))
    beta = np.array([1.0, 1.0])
    y = x @ beta + rng.standard_normal(n)
    ds = Dataset(y=y, x_full=x, cov=CovarianceSpec.ar1(None))
    got = prediction_error(CandidateModel((1, 2)), ds, (x, beta), phi_hat=0.3)
    v = dense_v(CovarianceSpec.ar1(0.3), n)
    beta_hat = gls_beta(y, x, v)
    diff = x @ beta_hat - x @ beta
    assert got == pytest.approx(float(diff @ diff) / n, rel=1e-10)
    with pytest.raises(Exception):
        prediction_error(CandidateModel((1, 2)), ds, (x, beta))  # phi unresolved


def test_prediction_error_rejects_nonconforming_truth():
    ds = signal_dataset(10, n=12, p_omega=2, true=(1,), sigma=0.1)
    with pytest.raises(ValueError, match="conform"):
        prediction_error(CandidateModel((1,)), ds, (np.ones((5, 1)), np.ones(1)))


# ---------------------------------------------------------------------------
# score_candidates orchestration
# ---------------------------------------------------------------------------


def test_score_candidates_estimates_phi_once_and_reports_it():
    rng = np.random.default_rng(11)
    n = 60
    x = rng.standard_normal((n, 3))
    beta = np.array([1.0, 1.0, 0.0])
    from bmlselect.covariance import make_whitener

    eps = 0.4 * make_whitener(CovarianceSpec.ar1(0.6), n).color(rng.standard_normal(n))
    ds = Dataset(y=x @ beta + eps, x_full=x, cov=CovarianceSpec.ar1(None))
    table = score_candidates(ds, ("bic",))
    assert table.phi_hat is not None
    assert -0.99 <= table.phi_hat <= 0.99
    assert len(table.rows) == 8


@pytest.mark.parametrize("prior_kind", ["ridge", "zellner"])
def test_score_candidates_lambda_recorded_per_candidate(prior_kind):
    ds = signal_dataset(12, sigma=0.3)
    table = score_candidates(ds, ("ic_pi1",), SelectionOptions(prior_kind=prior_kind))
    for model, lam, at_boundary in zip(models_of(table.members), table.lambda_hat,
                                       table.lambda_at_boundary):
        if model.p > 0:
            assert not math.isnan(lam) and lam > 0
        else:
            assert math.isnan(lam)
            assert not at_boundary


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"prior_kind": "flat"}, "unknown prior kind 'flat'"),
        ({"lam": -1.0}, "prior lambda must be positive, got -1.0"),
        ({"lam": 0.0}, "prior lambda must be positive, got 0.0"),
        ({"lam": math.nan}, "prior lambda must be positive, got nan"),
        ({"lam": math.inf}, "prior lambda must be positive, got inf"),
    ],
    ids=["flat", "negative", "zero", "nan", "inf"],
)
def test_selection_options_check_the_prior_whatever_the_criteria(kwargs, message):
    # aic reads no prior, yet a bad prior choice is refused up front.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        select(signal_dataset(12), "aic", SelectionOptions(**kwargs))


def test_score_candidates_fixed_lambda():
    ds = signal_dataset(13, sigma=0.3)
    table = score_candidates(ds, ("ic_pi1",), SelectionOptions(lam=2.5))
    assert np.isnan(table.lambda_hat).all()


def test_score_candidates_factors_each_candidate_once(monkeypatch):
    # One QR of the whitened [X y], then one stacked QR per batch of
    # same-size candidates (five sizes, 0 to 4, each one batch here): the
    # lambda search and the prior step read the fits' R factors instead of
    # factoring the columns again.
    ds = signal_dataset(11, n=30, p_omega=4, sigma=0.5)
    calls = []
    qr = np.linalg.qr

    def counting_qr(*args, **kwargs):
        calls.append(1)
        return qr(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counting_qr)
    table = score_candidates(ds, ("ic_pi1", "bic"), SelectionOptions(prior_kind="ridge"))
    assert not np.isnan(table.lambda_hat).all()
    assert len(calls) == 1 + 5


def test_score_candidates_lambda_failure_names_candidate():
    # y = 2 x1 with x1 a unit vector: candidate "1" leaves exactly zero
    # residual variance, so its lambda search fails before any scoring.
    x = np.eye(12)[:, :3]
    ds = Dataset(y=2.0 * x[:, 0], x_full=x, cov=CovarianceSpec.identity())
    with pytest.raises(LambdaEstimationError, match=r"^candidate 1: lambda estimation failed"):
        score_candidates(ds, ("ic_pi1",))


def test_score_candidates_unknown_criterion():
    ds = signal_dataset(14)
    with pytest.raises(ValueError, match="unknown criteria"):
        score_candidates(ds, ("bicc",))


def test_score_candidates_rejects_an_empty_criterion_list():
    with pytest.raises(ValueError, match="no criterion requested"):
        score_candidates(signal_dataset(14), ())


P4_ROWS = "members must be a 2-D boolean array with 4 columns, not "


@pytest.mark.parametrize(
    "members, message",
    [
        (np.ones(4, dtype=bool), P4_ROWS + "bool of shape (4,)"),
        (np.ones((1, 1, 4), dtype=bool), P4_ROWS + "bool of shape (1, 1, 4)"),
        (np.ones((1, 4), dtype=np.int64), P4_ROWS + "int64 of shape (1, 4)"),
        (np.ones((1, 3), dtype=bool), P4_ROWS + "bool of shape (1, 3)"),
        (np.zeros((0, 4), dtype=bool), "members must hold at least one row, with sizes "
                                       "that never decrease"),
        (enumerate_candidates(4)[::-1], "members must hold at least one row, with sizes "
                                        "that never decrease"),
    ],
    ids=["one_d", "three_d", "int", "too_few_columns", "no_rows", "sizes_decrease"],
)
def test_score_candidates_checks_the_members_it_is_given(members, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        score_candidates(signal_dataset(14), ("bic",), members=members)


def test_score_candidates_on_some_rows_equals_those_rows_of_the_full_table():
    # n = 8 over 6 columns: the full model, the last of the rows taken,
    # leaves n - p - 2 = 0 and is excluded; phi and lambda are estimated.
    rng = np.random.default_rng(21)
    x = rng.standard_normal((8, 6))
    ds = Dataset(y=x[:, 0] + rng.standard_normal(8), x_full=x, cov=CovarianceSpec.ar1(None))
    full = score_candidates(ds, CRITERION_NAMES)
    rows = np.arange(0, len(full.members), 3)
    some = score_candidates(ds, CRITERION_NAMES, members=full.members[rows])
    assert some.exclusion[-1].any()
    for name in ("scores", "exclusion", "lambda_hat", "lambda_at_boundary"):
        assert getattr(some, name).tobytes() == getattr(full, name)[rows].tobytes(), name
    assert some.phi_hat == full.phi_hat


# ---------------------------------------------------------------------------
# Tie-break: candidate order, fewer columns first, then lexicographic indices
# ---------------------------------------------------------------------------


def tie_dataset():
    # Columns e1 and e2 with y1 = y2: candidates 1 and 2 fit equally well, so
    # every criterion gives them bit-identical scores.
    x = np.zeros((8, 2))
    x[0, 0] = x[1, 1] = 1.0
    y = np.array([3.0, 3.0, 1.0, -2.0, 0.5, 4.0, -1.0, 2.0])
    return Dataset(y=y, x_full=x, cov=CovarianceSpec.identity())


@pytest.mark.parametrize("name", CRITERION_NAMES)
def test_exact_same_size_tie_ranks_in_candidate_order(name):
    ranked, _ = ranking(score_candidates(tie_dataset(), (name,)), name)
    models = [m for m, _ in ranked]
    scores = dict(ranked)
    one, two = CandidateModel((1,)), CandidateModel((2,))
    assert scores[one] == scores[two]
    assert models[models.index(one) + 1] == two


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_report_ranks_by_score_then_size_then_indices(data):
    p_omega = data.draw(st.integers(1, 4), label="p_omega")
    include_null = data.draw(st.booleans(), label="include_null")
    candidates = enumerate_candidates(p_omega, include_null)
    # Three score values make ties across sizes common; None excludes the row.
    values = data.draw(
        st.lists(st.sampled_from([-1.5, 0.0, 2.25, None]),
                 min_size=len(candidates), max_size=len(candidates)),
        label="values",
    )
    assume(any(v is not None for v in values))
    entries = ["penalty undefined" if v is None else v for v in values]
    table = bic_table(candidates, entries)
    ranked, excluded = ranking(table, "bic")
    scored = [(m, v) for m, v in zip(models_of(candidates), values) if v is not None]
    expect = sorted(scored, key=lambda ms: (ms[1], len(ms[0].indices), ms[0].indices))
    assert ranked == expect
    assert report_from_table(table, "bic") == expect[0][0]
    assert excluded == [(m, "penalty undefined")
                        for m, v in zip(models_of(candidates), values) if v is None]


@pytest.mark.parametrize("name", ["aic", "bogus"])
def test_report_on_a_criterion_the_table_lacks_is_a_caller_error(name):
    # Not a numeric failure: the table was never scored for that criterion.
    table = score_candidates(signal_dataset(2), ("bic",))
    message = f"criterion '{name}' is not among the table's ('bic',)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        report_from_table(table, name)
