import math
import re
from dataclasses import replace

import numpy as np
import pytest

from bmlselect import (
    CandidateModel,
    CovarianceError,
    DegenerateVarianceError,
    ExperimentSpec,
    SelectionOptions,
    generate_dataset,
    gls_fit,
    run_experiment,
    score_candidates,
    whiten,
)
from bmlselect import simulation
from bmlselect.simulation import _run_replication, resolve_workers


def small_spec(**kw):
    base = dict(
        model_kind="constant_variance",
        n_grid=(20,),
        snr_grid=(3.0,),
        beta_pattern="four_ones",
        replications=5,
        criteria=("ic_pi1", "bic"),
        master_seed=123,
    )
    base.update(kw)
    return ExperimentSpec(**base)


# ---------------------------------------------------------------------------
# generate_dataset
# ---------------------------------------------------------------------------


def test_sigma2_from_snr_four_ones():
    spec = small_spec(snr_grid=(3.0,))
    _, truth = generate_dataset(spec, spec.cells()[0], 0)
    assert truth.sigma2 == pytest.approx(4.0 / 9.0)
    assert truth.j_star == CandidateModel((1, 2, 3, 4))


def test_sigma2_from_snr_two_ones():
    spec = small_spec(beta_pattern="two_ones", snr_grid=(1.0,))
    _, truth = generate_dataset(spec, spec.cells()[0], 0)
    assert truth.sigma2 == pytest.approx(2.0)
    assert truth.j_star == CandidateModel((1, 2))


def test_generate_dataset_shapes_and_covariance_kind():
    spec = small_spec(model_kind="ar1", n_grid=(30,))
    ds, truth = generate_dataset(spec, spec.cells()[0], 3)
    assert ds.n == 30
    assert ds.p_omega == 7
    assert ds.cov.kind == "ar1" and ds.cov.has_unknown_phi
    assert truth.cov_true.phi == 0.5
    assert truth.x_true.shape == (30, 4)


def test_ar1_noise_lag1_autocorrelation():
    # pooled over replications: about 100k values, lag-1 autocorr ~ 0.5
    spec = small_spec(model_kind="ar1", n_grid=(40,), replications=1)
    cell = spec.cells()[0]
    num = 0.0
    den = 0.0
    for rep in range(2500):
        ds, truth = generate_dataset(spec, cell, rep)
        eps = ds.y - truth.x_true @ truth.beta_true
        num += float(eps[1:] @ eps[:-1])
        den += float(eps @ eps)
    assert num / den == pytest.approx(0.5, abs=0.01)


def test_fresh_design_per_replication():
    spec = small_spec()
    cell = spec.cells()[0]
    ds0, _ = generate_dataset(spec, cell, 0)
    ds1, _ = generate_dataset(spec, cell, 1)
    assert not np.allclose(ds0.x_full, ds1.x_full)


# ---------------------------------------------------------------------------
# run_experiment
# ---------------------------------------------------------------------------


def test_single_replication_matches_direct_computation():
    spec = small_spec(replications=1, criteria=("bic", "aic"))
    cell = spec.cells()[0]
    [result] = run_experiment(spec, workers=1)
    ds, truth = generate_dataset(spec, cell, 0)
    table = score_candidates(ds, spec.criteria, SelectionOptions())
    for j, name in enumerate(spec.criteria):
        best = min(((table.scores[i, j], model.p, model.indices), model)
                   for i, model in enumerate(map(table.candidate, range(len(table.members))))
                   if not table.exclusion[i, j])[1]
        beta_hat = gls_fit(whiten(ds), best).beta_hat
        mu_hat = ds.x_full[:, best.zero_based] @ beta_hat if best.p else 0.0
        pe = float(np.sum((mu_hat - truth.x_true @ truth.beta_true) ** 2)) / cell.n
        summary = result.by_criterion[name]
        assert summary.true_model_count == int(best == truth.j_star)
        assert summary.mean_prediction_error == pytest.approx(pe, rel=1e-12)
        assert summary.standard_error == 0.0


def test_determinism_across_worker_counts():
    spec = small_spec(replications=6, n_grid=(20, 30))
    serial = run_experiment(spec, workers=1)
    parallel = run_experiment(spec, workers=2)
    assert len(serial) == len(parallel) == 2
    for a, b in zip(serial, parallel):
        assert a.by_criterion.keys() == b.by_criterion.keys()
        for name in a.by_criterion:
            sa, sb = a.by_criterion[name], b.by_criterion[name]
            assert sa.true_model_count == sb.true_model_count
            assert sa.mean_prediction_error == sb.mean_prediction_error
            assert sa.standard_error == sb.standard_error


@pytest.mark.parametrize("replications, n_grid, model_kind", [
    pytest.param(5, (20, 8, 30), "constant_variance", id="5-n_grid0"),
    pytest.param(70, (20, 9), "constant_variance", id="70-n_grid1"),
    pytest.param(4, (8, 12), "nerm", id="nerm"),
    pytest.param(4, (9, 16), "ar1", id="ar1"),
])
def test_results_do_not_depend_on_how_replications_are_blocked(monkeypatch, replications,
                                                               n_grid, model_kind):
    # A block holds consecutive (cell, replication) pairs of the grid, so it
    # may span cells of different n; n = 8 and 9 leave ic_pi1's penalty
    # undefined at the top sizes of their own rows only.
    # Blocks of 1, 3 and 64 pairs (70 = 64 + 6 per cell; 64 spans the cells),
    # and with two and three workers the smaller blocks a pool cuts, which
    # divide the count neither, must give the same results: every outcome
    # of a block is the one its replication gives alone.  Under nerm and
    # AR(1) each replication estimates phi, and the replications of a block
    # with one n profile phi together, sharing each grid point's V.
    spec = small_spec(replications=replications, n_grid=n_grid, model_kind=model_kind)
    pairs = [(cell, rep) for cell in spec.cells() for rep in range(replications)]
    runs = []
    for block in (1, 3, 64):
        monkeypatch.setattr(simulation, "REPLICATION_BLOCK", block)
        tasks, _ = simulation._plan_blocks(spec, 1)
        assert [pair for _, part in tasks for pair in part] == pairs
        assert max(len(part) for _, part in tasks) == min(block, len(pairs))
        runs += [run_experiment(spec, workers=w) for w in (1, 2, 3)]
    assert all(run == runs[0] for run in runs[1:])
    assert simulation._run_block(spec, pairs) == [
        _run_replication(spec, cell, rep) for cell, rep in pairs
    ]


@pytest.mark.parametrize("workers", [1, 2])
def test_a_failing_replication_in_a_block_is_named_as_when_run_alone(monkeypatch, workers):
    # Two cells of ten replications make one block of 20 pairs with one
    # worker and blocks of three with two, one of which holds replication 9
    # of cell 0 and replications 0 and 1 of cell 1.  Either way the other
    # replications pass, and replication 1 of cell 1, drawn without noise,
    # fails inside a block that spans both cells.
    monkeypatch.delenv("BMLSELECT_THREADS", raising=False)
    spec = small_spec(replications=10, n_grid=(20, 30), criteria=("bic",), master_seed=8)
    assert [(cell.index, rep) for cell, rep in simulation._plan_blocks(spec, 2)[0][3][1]] == [
        (0, 9), (1, 0), (1, 1)]
    real = simulation.generate_dataset

    def noiseless_at_1_of_cell_1(spec, cell, rep):
        dataset, truth = real(spec, cell, rep)
        if (cell.index, rep) == (1, 1):
            dataset = replace(dataset, y=truth.x_true @ truth.beta_true)
        return dataset, truth

    monkeypatch.setattr(simulation, "generate_dataset", noiseless_at_1_of_cell_1)
    cells = spec.cells()
    assert _run_replication(spec, cells[1], 0).keys() == {"bic"}
    with pytest.raises(DegenerateVarianceError) as alone:
        _run_replication(spec, cells[1], 1)
    assert str(alone.value).startswith("seed 8, cell 1 (n=30, snr=3.0), replication 1: candidate")
    with pytest.raises(DegenerateVarianceError) as info:
        run_experiment(spec, workers=workers)
    assert str(info.value) == str(alone.value)


def test_a_phi_failure_in_a_block_is_named_as_when_run_alone(monkeypatch):
    # One worker scores both nerm cells' six replications as one block, whose
    # phi profile runs the replications of each cell together.  A zero
    # response leaves y'Py = 0 on the whole grid for replication 1 of cell 1
    # alone; its error still names that replication.
    monkeypatch.delenv("BMLSELECT_THREADS", raising=False)
    spec = small_spec(model_kind="nerm", n_grid=(8, 12), replications=3, criteria=("bic",),
                      master_seed=5)
    assert [len(part) for _, part in simulation._plan_blocks(spec, 1)[0]] == [6]
    real = simulation.generate_dataset

    def zero_at_1_of_cell_1(spec, cell, rep):
        dataset, truth = real(spec, cell, rep)
        if (cell.index, rep) == (1, 1):
            dataset = replace(dataset, y=np.zeros(cell.n))
        return dataset, truth

    monkeypatch.setattr(simulation, "generate_dataset", zero_at_1_of_cell_1)
    cells = spec.cells()
    assert _run_replication(spec, cells[1], 0).keys() == {"bic"}
    with pytest.raises(CovarianceError) as alone:
        _run_replication(spec, cells[1], 1)
    assert str(alone.value) == ("seed 5, cell 1 (n=12, snr=3.0), replication 1: "
                                "phi estimation failed: objective non-finite over the entire grid")
    with pytest.raises(CovarianceError) as info:
        run_experiment(spec, workers=1)
    assert str(info.value) == str(alone.value)


def test_master_seed_controls_results():
    r1 = run_experiment(small_spec(master_seed=1), workers=1)
    r1_again = run_experiment(small_spec(master_seed=1), workers=1)
    r2 = run_experiment(small_spec(master_seed=2), workers=1)
    key = lambda rs: [
        (res.by_criterion["bic"].mean_prediction_error,
         res.by_criterion["bic"].true_model_count) for res in rs
    ]
    assert key(r1) == key(r1_again)
    assert key(r1) != key(r2)


def test_result_invariants():
    spec = small_spec(replications=8, criteria=("bic",))
    [result] = run_experiment(spec, workers=2)
    summary = result.by_criterion["bic"]
    assert 0 <= summary.true_model_count <= 8
    assert summary.mean_prediction_error >= 0.0
    assert summary.standard_error >= 0.0
    assert result.replications == 8


def test_nerm_cell_runs():
    spec = small_spec(model_kind="nerm", n_grid=(24,), replications=3,
                      criteria=("bic", "ic_r"), nerm_group_size=4)
    [result] = run_experiment(spec, workers=1)
    assert set(result.by_criterion) == {"bic", "ic_r"}


def test_nerm_group_size_must_divide_n():
    with pytest.raises(ValueError, match="does not divide"):
        small_spec(model_kind="nerm", n_grid=(22,), nerm_group_size=4)


def test_resolve_workers_env_cap(monkeypatch):
    monkeypatch.setenv("BMLSELECT_THREADS", "1")
    assert resolve_workers(8) == 1
    monkeypatch.setenv("BMLSELECT_THREADS", "3")
    assert resolve_workers(2) == 2
    monkeypatch.delenv("BMLSELECT_THREADS")
    assert resolve_workers(4) == 4
    monkeypatch.setenv("BMLSELECT_THREADS", "zero")
    with pytest.raises(ValueError):
        resolve_workers(2)
    # A requested count follows the package's one integer rule, whatever the cap.
    monkeypatch.setenv("BMLSELECT_THREADS", "2")
    assert resolve_workers(np.int64(3)) == 2
    assert type(resolve_workers(np.int64(1))) is int
    for bad in (2.5, "3", True, 0, -4, 3.0):
        message = f"workers must be an integer >= 1, got {bad!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            resolve_workers(bad)


def test_run_experiment_refuses_a_bad_worker_count_before_any_replication(monkeypatch):
    def no_draw(*args):
        raise AssertionError("a replication ran")

    monkeypatch.setattr(simulation, "generate_dataset", no_draw)
    with pytest.raises(ValueError, match="workers must be an integer >= 1, got 2.5"):
        run_experiment(small_spec(), workers=2.5)


def test_run_experiment_starts_at_most_one_process_per_block(monkeypatch):
    # Two cells of one replication make two blocks, so eight workers start two processes.
    monkeypatch.delenv("BMLSELECT_THREADS", raising=False)
    real = simulation.get_context
    started = []

    class Recording:
        def __init__(self, method):
            self.context = real(method)

        def Pool(self, processes):
            started.append(processes)
            return self.context.Pool(processes=processes)

    monkeypatch.setattr(simulation, "get_context", Recording)
    spec = small_spec(replications=1, n_grid=(20, 30))
    assert simulation._plan_blocks(spec, 8)[1] == 2
    assert simulation._plan_blocks(replace(spec, n_grid=(20,)), 8)[1] == 1
    pooled = run_experiment(spec, workers=8)
    assert started == [2]
    assert pooled == run_experiment(spec, workers=1)
    assert started == [2]


def test_spec_rejects_an_empty_criterion_list():
    with pytest.raises(ValueError, match="no criterion requested"):
        small_spec(criteria=())


def test_spec_rejects_a_fractional_replication_count():
    with pytest.raises(ValueError, match="replications"):
        small_spec(replications=2.5)


def test_spec_rejects_a_fractional_nerm_group_size():
    with pytest.raises(ValueError, match="nerm_group_size"):
        small_spec(model_kind="nerm", nerm_group_size=4.0)


def test_spec_takes_numpy_integers_and_stores_ints():
    spec = small_spec(model_kind="nerm", master_seed=np.int64(3), replications=np.int32(2),
                      nerm_group_size=np.int64(4), n_grid=(np.int64(20),))
    fields = (spec.master_seed, spec.replications, spec.nerm_group_size, *spec.n_grid)
    assert fields == (3, 2, 4, 20)
    assert all(type(value) is int for value in fields)


@pytest.mark.parametrize("field", ["replications", "master_seed", "nerm_group_size", "n_grid",
                                   "snr_grid", "phi_true"])
def test_spec_refuses_true_for_every_integer_field(field):
    # The real-valued fields refuse a bool too, rather than read it as 1.0.
    value = (True,) if field.endswith("_grid") else True
    with pytest.raises(ValueError, match=field):
        small_spec(model_kind="nerm", **{field: value})


def test_spec_validation():
    with pytest.raises(ValueError, match="unknown model kind"):
        small_spec(model_kind="arma")
    with pytest.raises(ValueError, match="unknown beta pattern"):
        small_spec(beta_pattern="three_ones")
    with pytest.raises(ValueError, match="snr"):
        small_spec(snr_grid=(0.0,))
    with pytest.raises(ValueError, match="master_seed"):
        small_spec(master_seed=-1)
    with pytest.raises(ValueError, match="unknown criteria"):
        small_spec(criteria=("bic", "hqc"))
    with pytest.raises(ValueError, match="nerm_group_size"):
        small_spec(model_kind="nerm", nerm_group_size=0)
    with pytest.raises(ValueError, match="nerm_group_size"):
        small_spec(nerm_group_size=-2)
    with pytest.raises(ValueError, match="unknown prior kind"):
        small_spec(prior_kind="bogus")
    # phi_true is checked when the spec is built, not in a replication
    with pytest.raises(CovarianceError, match="nerm needs phi >= 0"):
        small_spec(model_kind="nerm", phi_true=-0.5)
    with pytest.raises(CovarianceError, match="phi must be finite"):
        small_spec(model_kind="ar1", phi_true=math.nan)
    # None would leave phi unknown in every draw; it fails here, whatever the model.
    for kind in ("constant_variance", "ar1", "nerm"):
        with pytest.raises(ValueError, match="phi_true"):
            small_spec(model_kind=kind, phi_true=None)
    with pytest.raises(ValueError, match="snr_grid"):
        small_spec(snr_grid=(None, 3.0))
    spec = small_spec(model_kind="ar1", phi_true=np.float32(0.25), snr_grid=(np.int64(3),))
    assert type(spec.phi_true) is float and spec.phi_true == 0.25
    assert type(spec.snr_grid[0]) is float


@pytest.mark.parametrize(
    "grid",
    [
        dict(n_grid=(5,)),
        dict(n_grid=(7,)),
        dict(n_grid=(0,)),
        dict(n_grid=(20.5,)),
        dict(model_kind="nerm", n_grid=(-4,)),
        dict(snr_grid=(math.inf,)),
        dict(snr_grid=(math.nan,)),
        dict(n_grid=()),
        dict(snr_grid=()),
        dict(n_grid=(20, 30, 20)),
        dict(snr_grid=(3.0, 3)),
    ],
    ids=["n_below_p", "n_equals_p", "n_zero", "n_not_integer", "nerm_negative_n",
         "snr_inf", "snr_nan", "n_empty", "snr_empty", "n_repeated", "snr_repeated"],
)
def test_spec_rejects_grid_every_replication_would_fail(grid):
    # n <= p_omega = 7 leaves the full design rank deficient or interpolating,
    # and an infinite SNR leaves no noise; an empty grid gives no result row
    # and a repeated value gives rows no reader can tell apart.  The spec
    # names the grid at once.
    name = "n_grid" if "n_grid" in grid else "snr_grid"
    with pytest.raises(ValueError, match=name):
        small_spec(**grid)


def test_spec_accepts_smallest_n_above_p_omega():
    spec = small_spec(n_grid=(8,), replications=1, criteria=("bic",))
    [result] = run_experiment(spec, workers=1)
    assert result.n == 8


@pytest.mark.parametrize("workers", [1, 2])
def test_replication_failure_names_seed_cell_and_replication(workers):
    # SNR 1e8 leaves almost no noise: the true candidate 1 2 3 4 fits y
    # exactly up to rounding, so the first replication to run raises.
    spec = small_spec(snr_grid=(1e8,), replications=2, criteria=("bic",), master_seed=31)
    with pytest.raises(DegenerateVarianceError) as info:
        run_experiment(spec, workers=workers)
    msg = str(info.value)
    assert msg.startswith("seed 31, cell 0 (n=20, snr=100000000.0), replication ")
    assert re.search(r"replication [01]: candidate 1 2 3 4: degenerate variance", msg)


def test_replication_failure_reproduces_from_one_call():
    spec = small_spec(snr_grid=(3.0, 1e8), replications=1, criteria=("bic",), master_seed=4)
    cell = spec.cells()[1]
    with pytest.raises(
        DegenerateVarianceError,
        match=r"^seed 4, cell 1 \(n=20, snr=100000000.0\), replication 0:",
    ):
        _run_replication(spec, cell, 0)


def test_ar1_estimated_phi_consistency_trend():
    # AR(1) noise with phi re-estimated per replication: the exact marginal
    # criterion's hit rate is non-decreasing in n up to 2 MC standard errors
    spec = ExperimentSpec(
        model_kind="ar1",
        n_grid=(40, 80, 160),
        snr_grid=(5.0,),
        beta_pattern="four_ones",
        replications=500,
        criteria=("ic_pi1",),
        master_seed=777,
    )
    results = run_experiment(spec)
    props = [res.by_criterion["ic_pi1"].true_model_count / 500 for res in results]
    ses = [math.sqrt(p * (1 - p) / 500) for p in props]
    for i in range(len(props) - 1):
        slack = 2.0 * math.hypot(ses[i], ses[i + 1])
        assert props[i + 1] >= props[i] - slack, props
    assert props[-1] >= 0.9
