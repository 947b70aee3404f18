"""The benchmark's layer tracing must see every layer of a `select` run.

``perfbench/spans.py`` times the package by replacing module attributes
(``selection.estimate_lambda``, ``selection.gls_fit``, ``criteria.score``,
``criteria.dic`` and others) with wrappers that record a span per call.  A
refactor that calls around one of those names leaves the layer's traced
metrics at 0 and fails nothing else; this test runs one small traced
`select` and checks the span count of each layer.  The scoring engine
calls ``gls_fit``, ``criteria.score`` and ``criteria.dic`` once per batch of
same-size candidates.  A simulation profiles phi once per block of
replications.  It only imports the benchmark module.
"""

import importlib.util
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_select_records_every_wrapped_layer(tmp_path):
    from bmlselect import cli

    spans = _load(ROOT / "perfbench" / "spans.py", "perfbench_spans")
    golden = _load(ROOT / "tests" / "golden" / "make_golden.py", "make_golden")
    data = tmp_path / "ar1.csv"
    golden._write_data(data, seed=21, n=30, p=3, phi=0.5)
    argv = ["select", "--data", str(data), "--out", str(tmp_path / "out.csv"),
            "--covariance", "ar1", "--criterion", "all"]
    with spans.Tracer() as tracer:
        spans.instrument(tracer)
        assert cli.main(argv) == 0
    counts = Counter(span[0] for span in tracer.spans)
    # 2^3 candidates in four batches, one per size 0..3: one gls_fit per
    # batch, and one score call per batch and criterion.
    assert counts["model_core.gls_fit"] == 4
    assert counts["criteria.dic"] == 4
    assert counts["criteria.score"] == 40
    # The batched lambda search returns arrays and so is not called through
    # selection.estimate_lambda, the name the tracer wraps; that layer
    # reads 0 until the tracer wraps the batched search.
    assert counts["covariance.lambda"] == 0
    assert counts["covariance.phi_profile"] == 1
    assert counts["model_core.whiten"] == 1


def test_traced_select_counts_candidates_and_exclusions_as_the_table_does(tmp_path):
    # The 7 x 5 golden design: n - p - 2 = 0 excludes the full model wherever
    # a penalty is undefined there.  The tracer counts the candidates and the
    # exclusions by reason from what score_candidates returns, and times one
    # report per criterion.
    import numpy as np

    from bmlselect import CRITERION_NAMES, CovarianceSpec, Dataset, SelectionOptions, cli
    from bmlselect import score_candidates
    from bmlselect.selection import EXCLUSION_REASONS

    spans = _load(ROOT / "perfbench" / "spans.py", "perfbench_spans")
    golden = _load(ROOT / "tests" / "golden" / "make_golden.py", "make_golden")
    data = tmp_path / "tight.csv"
    golden._write_data(data, seed=13, n=7, p=5, phi=0.0)
    argv = ["select", "--data", str(data), "--out", str(tmp_path / "out.csv"),
            "--criterion", "all", "--prior", "zellner"]
    with spans.Tracer() as tracer:
        spans.instrument(tracer)
        assert cli.main(argv) == 0

    values = np.loadtxt(data, delimiter=",", skiprows=1)
    dataset = Dataset(y=values[:, 0], x_full=values[:, 1:], cov=CovarianceSpec.identity())
    table = score_candidates(dataset, CRITERION_NAMES, SelectionOptions(prior_kind="zellner"))
    reasons = Counter(EXCLUSION_REASONS[code] for code in table.exclusion.ravel().tolist() if code)
    assert reasons
    assert tracer.counts["candidates"] == len(table.members)
    traced = {key: n for key, n in tracer.counts.items() if key.startswith("excluded: ")}
    assert traced == {"excluded: " + reason: n for reason, n in reasons.items()}
    assert Counter(span[0] for span in tracer.spans)["selection.report"] == len(CRITERION_NAMES)


def test_traced_simulate_records_one_phi_profile_per_block(monkeypatch):
    # run_experiment estimates phi for all the datasets of a replication
    # block in one call, through selection.estimate_phi_full_model, the name
    # the tracer wraps: two blocks of three replications make two spans.
    from bmlselect import ExperimentSpec, run_experiment, simulation

    spans = _load(ROOT / "perfbench" / "spans.py", "perfbench_spans")
    monkeypatch.setattr(simulation, "REPLICATION_BLOCK", 3)
    spec = ExperimentSpec(model_kind="nerm", n_grid=(8, 12), snr_grid=(3.0,), replications=3,
                          criteria=("bic",), master_seed=2)
    tasks, _ = simulation._plan_blocks(spec, 1)
    assert [len(part) for _, part in tasks] == [3, 3]
    with spans.Tracer() as tracer:
        spans.instrument(tracer)
        run_experiment(spec, workers=1)
    assert Counter(span[0] for span in tracer.spans)["covariance.phi_profile"] == len(tasks)
