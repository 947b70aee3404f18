import csv
import io
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from bmlselect import CRITERION_NAMES, ExperimentSpec, SelectionOptions, cli, selection
from bmlselect.cli import main


def write_ones_fixture(path):
    path.write_text("y,x1\n1,1\n2,1\n3,1\n4,1\n")
    return str(path)


def write_signal_fixture(path, seed=0, n=30, p=3):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    y = x[:, 0] + x[:, 1] + 0.3 * rng.standard_normal(n)
    header = "y," + ",".join(f"x{j}" for j in range(1, p + 1))
    lines = [header]
    for i in range(n):
        lines.append(",".join(format(v, ".17g") for v in [y[i], *x[i]]))
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def read_csv_table(path):
    meta = {}
    rows = []
    header = None
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            meta[key.strip()] = value.strip()
        elif header is None:
            header = line.split(",")
        elif line:
            import csv as _csv
            import io

            rows.append(next(_csv.reader(io.StringIO(line))))
    return meta, header, rows


# ---------------------------------------------------------------------------
# select
# ---------------------------------------------------------------------------


def test_select_ones_fixture_contains_hand_ic_r_value(tmp_path, capsys):
    data = write_ones_fixture(tmp_path / "ones.csv")
    out = tmp_path / "ranked.csv"
    rc = main(["select", "--data", data, "--out", str(out), "--criterion", "ic_r"])
    assert rc == 0
    meta, header, rows = read_csv_table(out)
    assert header == ["rank", "candidate", "p", "ic_r", "excluded"]
    scores = {row[1]: row[3] for row in rows if row[3]}
    expect = 3.0 * math.log(2.0 * math.pi * 5.0 / 3.0) + math.log(4.0) + 3.0 + 6.0
    assert float(scores["1"]) == pytest.approx(expect, rel=1e-12)
    out_text = capsys.readouterr().out
    assert "selected[ic_r] = 1" in out_text
    assert meta["ranked_by"] == "ic_r"


def test_select_malformed_row_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("y,x1\n1,1\n2,oops\n3,1\n")
    rc = main(["select", "--data", str(bad), "--out", str(tmp_path / "o.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "row 3" in err and "column 2" in err


def test_select_all_criteria_gives_ten_columns(tmp_path):
    data = write_signal_fixture(tmp_path / "sig.csv")
    out = tmp_path / "ranked.csv"
    rc = main(["select", "--data", data, "--out", str(out), "--criterion", "all"])
    assert rc == 0
    _, header, rows = read_csv_table(out)
    score_cols = [c for c in header if c not in ("rank", "candidate", "p", "lambda_hat", "excluded")]
    assert len(score_cols) == 10
    assert len(rows) == 8


def test_select_ranked_order_and_exclusions(tmp_path):
    rng = np.random.default_rng(5)
    n = 6
    x = rng.standard_normal((n, 4))
    y = rng.standard_normal(n)
    data = tmp_path / "tiny.csv"
    lines = ["y,a,b,c,d"] + [
        ",".join(format(v, ".17g") for v in [y[i], *x[i]]) for i in range(n)
    ]
    data.write_text("\n".join(lines) + "\n")
    out = tmp_path / "ranked.csv"
    rc = main(["select", "--data", str(data), "--out", str(out), "--criterion", "ic_r"])
    assert rc == 0
    _, header, rows = read_csv_table(out)
    # p = 4 candidate has n - p - 2 = 0: present but excluded with a reason
    reasons = {row[1]: row[4] for row in rows}
    assert reasons["1 2 3 4"] == "ic_r: penalty undefined"
    scores = [float(r[3]) for r in rows if r[3]]
    assert scores == sorted(scores)


def test_select_missing_data_flag_exits_2(tmp_path, capsys):
    rc = main(["select", "--out", str(tmp_path / "o.csv")])
    assert rc == 2
    assert "--data" in capsys.readouterr().err


def test_select_conflicting_lambda_flags_exit_2(tmp_path, capsys):
    data = write_ones_fixture(tmp_path / "ones.csv")
    rc = main(["select", "--data", data, "--out", str(tmp_path / "o.csv"),
               "--lambda", "2.0", "--estimate-lambda"])
    assert rc == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["select", "--lambda", "-1", "--criterion", "aic"],
         "prior lambda must be positive, got -1.0"),
        (["select", "--lambda", "nan", "--criterion", "bic"],
         "prior lambda must be positive, got nan"),
        (["criteria", "--lambda", "-2", "--criterion", "aic"],
         "prior lambda must be positive, got -2.0"),
        (["select", "--covariance", "ar1", "--lambda", "0", "--criterion", "ml"],
         "prior lambda must be positive, got 0.0"),
    ],
    ids=["select-aic-negative", "select-bic-nan", "criteria-aic-negative", "select-ar1-ml-zero"],
)
def test_bad_lambda_exits_2_whatever_the_criteria(tmp_path, capsys, monkeypatch, argv, message):
    # The prior choice is checked before any work: the phi profile never runs.
    profiled = []
    monkeypatch.setattr(selection, "estimate_phi_full_model", profiled.append)
    data = write_signal_fixture(tmp_path / "sig.csv")
    out = tmp_path / "o.csv"
    assert main([*argv, "--data", data, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()
    assert profiled == []


@pytest.mark.parametrize("command", ["select", "criteria", "simulate"])
def test_unknown_prior_kind_in_config_exits_2(tmp_path, capsys, command):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("prior = flat\ncriterion = aic\n")
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "o.csv")]
    if command != "simulate":
        argv += ["--data", write_signal_fixture(tmp_path / "sig.csv")]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: unknown prior kind 'flat'\n"


def test_select_with_config_file_and_override(tmp_path):
    data = write_signal_fixture(tmp_path / "sig.csv")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"data = {data}\ncriterion = bic\ninclude_null = false\n")
    out = tmp_path / "ranked.csv"
    rc = main(["select", "--config", str(cfg), "--out", str(out), "--criterion", "aic"])
    assert rc == 0
    meta, header, rows = read_csv_table(out)
    assert meta["criteria"] == "aic"  # flag overrides config
    assert meta["include_null"] == "false"
    assert len(rows) == 7  # null model dropped


@pytest.mark.parametrize(
    "line, flag",
    [("phi = 0.3", ["--phi", "0.6"]), ("seed = 1", ["--seed", "2"]),
     ("include_null = yes", ["--no-include-null"]), ("n_grid = 30", ["--n-grid", "25"]),
     ("criterion = aic", ["--criterion", "bic"])],
    ids=["float", "int", "bool", "list", "criterion"],
)
def test_simulate_flag_beats_its_config_key(tmp_path, monkeypatch, line, flag):
    # One setting of each parser kind: the run with both writes what the flag
    # alone writes, and the key alone writes something else.
    monkeypatch.setattr(cli, "run_experiment", lambda spec: [])
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "r.csv"

    def run(*extra):
        assert main(["simulate", "--out", str(out), "--model", "ar1", *extra]) == 0
        return out.read_text()

    assert run("--config", str(cfg), *flag) == run(*flag) != run("--config", str(cfg))


@pytest.mark.parametrize(
    "lines, kind",
    [("model = nerm\ncovariance = ar1\n", "ar1"), ("covariance = ar1\nmodel = nerm\n", "nerm")],
    ids=["covariance_last", "model_last"],
)
def test_simulate_config_model_is_covariance_and_the_later_line_wins(tmp_path, monkeypatch,
                                                                     lines, kind):
    specs = []
    monkeypatch.setattr(cli, "run_experiment", lambda spec: specs.append(spec) or [])
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(lines)
    assert main(["simulate", "--out", str(tmp_path / "r.csv"), "--config", str(cfg)]) == 0
    assert [spec.model_kind for spec in specs] == [kind]


@pytest.mark.parametrize(
    "group_sizes, phi, message",
    [("10,10,10", "nan", "phi must be finite"), ("10,10,9", "0.5", "sum to 29, expected n = 30"),
     ("15,,15", "0.5", "group_sizes: empty item in '15,,15'")],
    ids=["phi_nan", "sizes_mismatch", "sizes_empty_item"],
)
def test_select_bad_nerm_covariance_exits_2(tmp_path, capsys, group_sizes, phi, message):
    data = write_signal_fixture(tmp_path / "sig.csv")
    cfg = tmp_path / "nerm.cfg"
    cfg.write_text(f"covariance = nerm\ngroup_sizes = {group_sizes}\n")
    out = tmp_path / "o.csv"
    rc = main(["select", "--data", data, "--out", str(out), "--config", str(cfg), "--phi", phi])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


# A key is one the command reads: its long flags, plus group_sizes for the
# data commands and nerm_group_size and model for simulate.
@pytest.mark.parametrize(
    "command, line",
    [
        ("select", "wat = 1"),
        ("select", "model = ar1"),
        ("select", "replications = 5"),
        ("select", "seed = 1"),
        ("criteria", "nerm_group_size = 4"),
        ("criteria", "include_null = false"),
        ("simulate", "data = /nonexistent.csv"),
        ("simulate", "group_sizes = 20,20"),
    ],
    ids=["unknown", "select_model", "select_replications", "select_seed",
         "criteria_nerm_group_size", "criteria_include_null", "simulate_data",
         "simulate_group_sizes"],
)
def test_config_unknown_key_exits_2(tmp_path, capsys, monkeypatch, command, line):
    calls = record_work(monkeypatch)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"criterion = bic\n{line}\n")
    rc = main(command_argv(command, tmp_path, tmp_path / "o.csv") + ["--config", str(cfg)])
    assert rc == 2
    key = line.partition(" =")[0]
    assert capsys.readouterr().err == f"error: {cfg}: line 2: unknown key {key!r}\n"
    assert calls == []


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criteria_command_prints_full_model_scores(tmp_path, capsys):
    data = write_ones_fixture(tmp_path / "ones.csv")
    rc = main(["criteria", "--data", data, "--criterion", "ic_r,aic"])
    assert rc == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0] == "criterion,value"
    table = dict(l.split(",", 1) for l in lines[1:])
    expect = 3.0 * math.log(2.0 * math.pi * 5.0 / 3.0) + math.log(4.0) + 3.0 + 6.0
    assert float(table["ic_r"]) == pytest.approx(expect, rel=1e-12)
    assert "aic" in table


# n - p - 2 = 0 for its full model: four criteria are undefined there.
TIGHT_DATA = Path(__file__).parent / "golden" / "data_tight.csv"


def test_criteria_writes_valid_csv_where_penalties_are_undefined(tmp_path, capsys):
    out = tmp_path / "c.csv"
    assert main(["criteria", "--data", str(TIGHT_DATA), "--out", str(out),
                 "--criterion", "all"]) == 0
    stdout = capsys.readouterr().out
    assert out.read_text() == stdout
    rows = list(csv.reader(line for line in io.StringIO(stdout) if not line.startswith("#")))
    assert rows[0] == ["criterion", "value"]
    assert [len(row) for row in rows] == [2] * (1 + len(CRITERION_NAMES))
    undefined = {name for name, value in rows[1:] if value == "undefined (penalty undefined)"}
    assert undefined == {"ic_pi1", "ic_r", "ic_r_star", "ric"}


def test_criteria_full_model_singular_after_whitening_exits_3(tmp_path, capsys, monkeypatch):
    # Dataset's rank check passes on the raw columns; here the whitened
    # first column is zero, so the engine's rank rule drops the full model.
    real = selection.gls_fit

    def rank_deficient(wd, cols):
        x = wd.x.copy()
        x[:, 0] = 0.0
        return real(replace(wd, x=x), cols)

    monkeypatch.setattr(selection, "gls_fit", rank_deficient)
    data = write_signal_fixture(tmp_path / "sig.csv")
    out = tmp_path / "c.csv"
    assert main(["criteria", "--data", data, "--out", str(out), "--criterion", "all"]) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: singular design for candidate 1 2 3\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("lam", [None, "0.8"], ids=["lambda_estimated", "lambda_fixed"])
@pytest.mark.parametrize("prior", ["ridge", "zellner"])
@pytest.mark.parametrize("covariance", ["identity", "ar1", "nerm", "tight"])
def test_criteria_is_the_full_model_row_of_select(tmp_path, capsys, covariance, prior, lam):
    if covariance == "tight":
        data, extra = str(TIGHT_DATA), []
    else:
        data = write_signal_fixture(tmp_path / "sig.csv", seed=3)
        extra = ["--covariance", covariance]
    if covariance == "nerm":
        cfg = tmp_path / "nerm.cfg"
        cfg.write_text("group_sizes = 5,5,5,5,5,5\n")
        extra += ["--config", str(cfg)]
    extra += ["--criterion", "all", "--prior", prior] + (["--lambda", lam] if lam else [])
    selected, scored = tmp_path / "s.csv", tmp_path / "c.csv"
    assert main(["select", "--data", data, "--out", str(selected), *extra]) == 0
    assert main(["criteria", "--data", data, "--out", str(scored), *extra]) == 0
    sel_meta, header, rows = read_csv_table(selected)
    meta, _, values = read_csv_table(scored)
    full = " ".join(str(j) for j in range(1, int(meta["p"]) + 1))
    (row,) = [dict(zip(header, r)) for r in rows if r[1] == full]
    excluded = dict(part.split(": ") for part in row["excluded"].split("; ") if part)
    assert [name for name, _ in values] == list(CRITERION_NAMES)
    for name, value in values:
        assert value == (f"undefined ({excluded[name]})" if name in excluded else row[name])
    if lam is None:
        assert meta["lambda"] == row["lambda_hat"] + " (estimated)"
    else:
        assert (meta["lambda"], row["lambda_hat"]) == (sel_meta["lambda"], "")
        assert float(meta["lambda"]) == float(lam)
    if covariance in ("ar1", "nerm"):
        assert f"phi={sel_meta['phi'].removesuffix(' (estimated)')}" in meta["covariance"]


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def simulate_args(out, extra=()):
    return [
        "simulate", "--out", str(out), "--seed", "42",
        "--replications", "3", "--n-grid", "20", "--snr-grid", "3",
        "--criterion", "bic,aic", *extra,
    ]


def test_simulate_deterministic_across_runs(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(simulate_args(out1)) == 0
    assert main(simulate_args(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_announces_its_size_on_stderr(tmp_path, capsys, monkeypatch):
    # One line before the run: cells, replications per cell, their product
    # and the worker count; stdout and the CSV are as without it.
    monkeypatch.setenv("BMLSELECT_THREADS", "1")
    out = tmp_path / "r.csv"
    argv = ["simulate", "--out", str(out), "--seed", "3", "--replications", "2",
            "--n-grid", "20,30", "--snr-grid", "3", "--criterion", "bic"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == "simulate: 2 cells x 2 replications = 4 replications on 1 workers\n"
    assert captured.out == f"wrote {out}\n"


def test_simulate_seed_echoed_when_defaulted(tmp_path):
    out = tmp_path / "r.csv"
    rc = main(["simulate", "--out", str(out), "--replications", "2",
               "--n-grid", "20", "--snr-grid", "3", "--criterion", "bic"])
    assert rc == 0
    meta, _, _ = read_csv_table(out)
    assert meta["seed"] == "0"


def test_simulate_model_flag_in_header(tmp_path):
    out = tmp_path / "r.csv"
    rc = main(["simulate", "--out", str(out), "--seed", "7", "--replications", "2",
               "--n-grid", "20", "--snr-grid", "3", "--criterion", "bic",
               "--model", "ar1", "--phi", "0.5"])
    assert rc == 0
    meta, _, _ = read_csv_table(out)
    assert meta["model"] == "ar1"
    assert float(meta["phi"]) == 0.5


def test_simulate_invalid_grid_exits_2(tmp_path, capsys):
    out = tmp_path / "r.csv"
    rc = main(["simulate", "--out", str(out), "--seed", "1", "--replications", "2",
               "--n-grid", "20", "--snr-grid", "0", "--criterion", "bic"])
    assert rc == 2


def test_simulate_zero_nerm_group_size_exits_2(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("nerm_group_size = 0\n")
    rc = main(["simulate", "--out", str(tmp_path / "r.csv"), "--config", str(cfg),
               "--model", "nerm", "--replications", "2", "--n-grid", "20",
               "--snr-grid", "3", "--criterion", "bic"])
    assert rc == 2
    assert "nerm_group_size" in capsys.readouterr().err


@pytest.mark.parametrize(
    "phi, message",
    [("-0.5", "nerm needs phi >= 0"), ("nan", "phi must be finite")],
    ids=["negative", "nan"],
)
def test_simulate_bad_phi_exits_2_before_any_replication(tmp_path, capsys, phi, message):
    rc = main(["simulate", "--out", str(tmp_path / "r.csv"), "--model", "nerm",
               "--phi", phi, "--replications", "2", "--n-grid", "8", "--snr-grid", "1",
               "--criterion", "bic"])
    assert rc == 2
    err = capsys.readouterr().err
    assert message in err
    assert "replication" not in err


@pytest.mark.parametrize(
    "grid, name",
    [
        (("--n-grid", "5"), "n_grid"),
        (("--n-grid", "7"), "n_grid"),
        (("--snr-grid", "inf"), "snr_grid"),
        (("--n-grid", "0"), "n_grid"),
        (("--model", "nerm", "--n-grid", "-4"), "n_grid"),
        (("--snr-grid", "nan"), "snr_grid"),
        (("--n-grid", ""), "n_grid must hold at least one value, none repeated, got ()"),
        (("--snr-grid", ","), "snr_grid must hold at least one value, none repeated, got ()"),
        (("--n-grid", "20,20"), "n_grid must hold at least one value, none repeated, got (20, 20)"),
        (("--snr-grid", "3,3.0"),
         "snr_grid must hold at least one value, none repeated, got (3.0, 3.0)"),
        (("--n-grid", "20,,30"), "n_grid: empty item in '20,,30'"),
        (("--snr-grid", "3,"), "snr_grid: empty item in '3,'"),
    ],
    ids=["n_below_p", "n_equals_p", "snr_inf", "n_zero", "nerm_negative_n", "snr_nan",
         "n_empty", "snr_empty", "n_repeated", "snr_repeated", "n_empty_item",
         "snr_empty_item"],
)
def test_simulate_bad_grid_exits_2_before_any_replication(tmp_path, capsys, grid, name):
    argv = ["simulate", "--out", str(tmp_path / "r.csv"), "--replications", "2",
            "--n-grid", "20", "--snr-grid", "3", "--criterion", "bic"]
    rc = main(argv + list(grid))
    assert rc == 2
    err = capsys.readouterr().err
    assert name in err
    assert "replication" not in err


def test_simulate_replication_failure_exits_3_and_names_it(tmp_path, capsys):
    # SNR 1e8 leaves almost no noise, so the true candidate interpolates y.
    rc = main(["simulate", "--out", str(tmp_path / "r.csv"), "--seed", "8",
               "--replications", "2", "--n-grid", "20", "--snr-grid", "1e8",
               "--criterion", "bic"])
    assert rc == 3
    err = capsys.readouterr().err
    assert "seed 8, cell 0 (n=20, snr=100000000.0), replication" in err
    assert "candidate 1 2 3 4: degenerate variance" in err


def test_simulate_round_trip_reader(tmp_path):
    # The writer's 17 significant digits read back as the very floats it wrote.
    from bmlselect import ExperimentSpec, run_experiment

    out = tmp_path / "r.csv"
    assert main(simulate_args(out, extra=("--beta-pattern", "two_ones"))) == 0
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    spec = ExperimentSpec(
        model_kind="constant_variance", n_grid=(20,), snr_grid=(3.0,),
        beta_pattern="two_ones", replications=3, criteria=("bic", "aic"),
        master_seed=42,
    )
    (want,) = run_experiment(spec, workers=1)
    assert [row["criterion"] for row in rows] == ["bic", "aic"]
    for row in rows:
        summary = want.by_criterion[row["criterion"]]
        assert int(row["n"]) == want.n and float(row["snr"]) == want.snr
        assert int(row["true_model_count"]) == summary.true_model_count
        assert float(row["mean_prediction_error"]) == summary.mean_prediction_error
        assert float(row["se_prediction_error"]) == summary.standard_error


def test_numerical_failure_exits_3_and_names_candidate(tmp_path, capsys):
    # y lies exactly in the span of the two predictors, so scoring the
    # interpolating candidate raises instead of emitting -inf
    data = tmp_path / "exact.csv"
    data.write_text("y,a,b\n3,1,2\n5,2,3\n7,3,4\n13,5,8\n11,3,8\n")
    rc = main(["select", "--data", str(data), "--out", str(tmp_path / "o.csv"),
               "--criterion", "bic"])
    assert rc == 3
    assert "1 2" in capsys.readouterr().err


def test_usage_error_exits_2():
    assert main(["select", "--bogus"]) == 2
    assert main([]) == 2


# ---------------------------------------------------------------------------
# Checks made before any work, and the order of the select CSV
# ---------------------------------------------------------------------------


def record_work(monkeypatch):
    """Replace the calls that start scoring, fitting or replicating with a recorder."""
    calls = []
    for attr in ("score_candidates", "run_experiment"):
        monkeypatch.setattr(cli, attr, lambda *args, attr=attr, **kwargs: calls.append(attr))
    return calls


def command_argv(command, tmp_path, out):
    argv = [command, "--out", str(out)]
    if command == "simulate":
        return argv + ["--replications", "2", "--n-grid", "20", "--snr-grid", "3"]
    return argv + ["--data", write_signal_fixture(tmp_path / "sig.csv")]


@pytest.mark.parametrize(
    "value, message",
    [("", "no criterion requested"), (",", "no criterion requested"),
     ("bic,hqc", f"unknown criteria: ['hqc']; choose from {', '.join(CRITERION_NAMES)}"),
     ("bic,,aic", "criterion: empty item in 'bic,,aic'"),
     ("bic, ", "criterion: empty item in 'bic, '")],
    ids=["empty", "comma", "unknown", "empty_item", "blank_last_item"],
)
@pytest.mark.parametrize("command", ["select", "criteria", "simulate"])
def test_bad_criterion_list_exits_2_before_any_work(tmp_path, capsys, monkeypatch,
                                                     command, value, message):
    calls = record_work(monkeypatch)
    out = tmp_path / "o.csv"
    assert main(command_argv(command, tmp_path, out) + ["--criterion", value]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("command", ["select", "criteria", "simulate"])
def test_unwritable_out_exits_2_before_any_work(tmp_path, capsys, monkeypatch, command):
    calls = record_work(monkeypatch)
    out = tmp_path / "missing" / "o.csv"
    assert main(command_argv(command, tmp_path, out) + ["--criterion", "bic"]) == 2
    assert capsys.readouterr().err == f"error: cannot write {out}: No such file or directory\n"
    assert calls == []
    assert not out.parent.exists()


def test_out_check_keeps_an_existing_file(tmp_path):
    out = tmp_path / "o.csv"
    out.write_text("old\n")
    argv = command_argv("select", tmp_path, out) + ["--lambda", "-1"]
    assert main(argv) == 2
    assert out.read_text() == "old\n"


@pytest.mark.parametrize(
    "config, message",
    [
        (None, "cannot read config {cfg}: [Errno 2] No such file or directory: '{cfg}'"),
        ("covariance ar1\n", "{cfg}: line 1: expected 'key = value'"),
        ("include_null = maybe\n", "include_null: expected a boolean, got 'maybe'"),
        ("phi = abc\n", "phi: expected a number, got 'abc'"),
    ],
    ids=["unreadable", "no_equals", "bad_boolean", "bad_number"],
)
def test_bad_config_exits_2_before_any_work(tmp_path, capsys, monkeypatch, config, message):
    calls = record_work(monkeypatch)
    cfg = tmp_path / "run.cfg"
    if config is not None:
        cfg.write_text(config)
    out = tmp_path / "o.csv"
    assert main(command_argv("select", tmp_path, out) + ["--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "error: " + message.format(cfg=cfg) + "\n"
    assert calls == []


def test_config_skips_comment_and_blank_lines(tmp_path):
    # Read as a key, the commented-out line would be an unknown one.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# include_null = no\n\n   \ninclude_null = yes\ncriterion = bic\n")
    out = tmp_path / "o.csv"
    assert main(command_argv("select", tmp_path, out) + ["--config", str(cfg)]) == 0
    meta, _, rows = read_csv_table(out)
    assert meta["include_null"] == "true"
    assert "(null)" in [row[1] for row in rows]


@pytest.mark.parametrize(
    "text, message",
    [
        (None, "cannot read data {path}: [Errno 2] No such file or directory: '{path}'"),
        ("", "{path}: empty file"),
        ("y\n1\n2\n", "{path}: need a response column plus at least one predictor"),
        ("y,x1\n", "{path}: no data rows"),
        ("y,x1\n1,2\n3\n", "{path}: row 3: expected 2 fields, found 1"),
        ("y,x1\n1,2\n\n3\n", "{path}: row 4: expected 2 fields, found 1"),
        ("y,x1\nnan,1\n2,1\n", "{path}: row 2, column 1: not a finite number: 'nan'"),
        ("y,x1\n1,1\n2,inf\n", "{path}: row 3, column 2: not a finite number: 'inf'"),
        ("y,x1\n1,1e400\n2,1\n", "{path}: row 2, column 2: not a finite number: '1e400'"),
    ],
    ids=["unreadable", "empty", "one_column", "no_rows", "field_count",
         "field_count_after_blank_line", "nan_in_y", "inf_in_x", "overflow"],
)
def test_bad_data_file_exits_2_before_any_work(tmp_path, capsys, monkeypatch, text, message):
    calls = record_work(monkeypatch)
    path = tmp_path / "d.csv"
    if text is not None:
        path.write_text(text)
    assert main(["select", "--data", str(path), "--out", str(tmp_path / "o.csv")]) == 2
    assert capsys.readouterr().err == "error: " + message.format(path=path) + "\n"
    assert calls == []


@pytest.mark.parametrize(
    "command, extra, message",
    [
        ("simulate", ["--replications", "2.5"],
         "argument --replications: invalid int value: '2.5'"),
        ("select", ["--covariance", "nerm"],
         "nerm covariance requires group_sizes in the config file"),
        ("simulate", ["--lambda", "1"], "simulate always re-estimates lambda; drop --lambda"),
    ],
    ids=["replications_not_integer", "nerm_without_sizes", "simulate_lambda"],
)
def test_bad_option_exits_2_before_any_work(tmp_path, capsys, monkeypatch, command, extra,
                                            message):
    calls = record_work(monkeypatch)
    assert main(command_argv(command, tmp_path, tmp_path / "o.csv") + extra) == 2
    assert capsys.readouterr().err.endswith(f"error: {message}\n")
    assert calls == []


def test_data_file_trailing_blank_line_is_skipped(tmp_path):
    data = write_signal_fixture(tmp_path / "sig.csv")
    blank = tmp_path / "blank.csv"
    blank.write_text(open(data).read() + "\n")
    tables = []
    for path in (data, blank):
        out = tmp_path / "o.csv"
        assert main(["select", "--data", str(path), "--out", str(out), "--criterion", "bic"]) == 0
        tables.append([l for l in out.read_text().splitlines() if not l.startswith("# data = ")])
    assert tables[0] == tables[1]


@pytest.mark.parametrize(
    "command, config, extra, message",
    [
        ("select", "group_sizes = 10,10,10\n", ["--covariance", "identity"],
         "group_sizes only apply to the nerm kind"),
        ("criteria", "group_sizes = 10,10,10\n", ["--covariance", "ar1"],
         "group_sizes only apply to the nerm kind"),
        ("criteria", "", ["--no-include-null"], "unrecognized arguments: --no-include-null"),
        ("simulate", "", ["--model", "constant_variance", "--phi", "0.9"],
         "phi does not apply to the constant_variance model"),
        ("simulate", "nerm_group_size = 5\n", ["--model", "ar1"],
         "nerm_group_size does not apply to the ar1 model"),
        ("select", "estimate_lambda = false\n", [],
         "estimate_lambda = false does not apply without lambda"),
        ("criteria", "estimate_lambda = no\n", [],
         "estimate_lambda = false does not apply without lambda"),
        ("simulate", "estimate_lambda = false\n", [],
         "estimate_lambda = false does not apply without lambda"),
    ],
    ids=["select_identity_group_sizes", "criteria_ar1_group_sizes", "criteria_include_null",
         "simulate_constant_variance_phi", "simulate_ar1_nerm_group_size",
         "select_estimate_lambda_false", "criteria_estimate_lambda_false",
         "simulate_estimate_lambda_false"],
)
def test_a_setting_the_run_never_reads_exits_2_before_any_work(
        tmp_path, capsys, monkeypatch, command, config, extra, message):
    calls = record_work(monkeypatch)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    out = tmp_path / "o.csv"
    assert main(command_argv(command, tmp_path, out) + ["--config", str(cfg), *extra]) == 2
    assert capsys.readouterr().err.endswith(f"error: {message}\n")
    assert calls == []
    assert not out.exists()


def test_bare_simulate_leaves_every_default_to_the_spec(tmp_path, monkeypatch):
    specs = []
    monkeypatch.setattr(cli, "run_experiment", lambda spec: specs.append(spec) or [])
    assert main(["simulate", "--out", str(tmp_path / "r.csv")]) == 0
    assert specs == [ExperimentSpec()]


def test_bare_select_leaves_every_option_default_to_selection_options(tmp_path, monkeypatch):
    seen = []

    def score(dataset, criteria, options):
        seen.append((criteria, options))
        return selection.score_candidates(dataset, criteria, options)

    monkeypatch.setattr(cli, "score_candidates", score)
    out = tmp_path / "o.csv"
    assert main(command_argv("select", tmp_path, out)) == 0
    assert seen == [(CRITERION_NAMES, SelectionOptions())]


@pytest.mark.parametrize("name", CRITERION_NAMES)
def test_select_csv_ranks_an_exact_tie_in_candidate_order(tmp_path, name):
    # Columns e1 and e2 with y1 = y2: candidates 1 and 2 score bit-identically.
    data = tmp_path / "tie.csv"
    y = (3.0, 3.0, 1.0, -2.0, 0.5, 4.0, -1.0, 2.0)
    lines = ["y,x1,x2"] + [f"{v},{int(i == 0)},{int(i == 1)}" for i, v in enumerate(y)]
    data.write_text("\n".join(lines) + "\n")
    out = tmp_path / "o.csv"
    assert main(["select", "--data", str(data), "--out", str(out), "--criterion", name]) == 0
    _, header, rows = read_csv_table(out)
    labels = [row[1] for row in rows]
    one, two = labels.index("1"), labels.index("2")
    assert two == one + 1
    assert rows[one][header.index(name)] == rows[two][header.index(name)]
    assert [row[0] for row in rows] == [str(k) for k in range(1, len(rows) + 1)]
