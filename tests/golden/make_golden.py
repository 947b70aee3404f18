#!/usr/bin/env python3
"""Regenerate the golden `select`, `criteria` and `simulate` outputs.

Run from the repository root:

    PYTHONPATH=src python3 tests/golden/make_golden.py [OUT_DIR]

OUT_DIR defaults to the directory of this script.  Every input (data CSVs
and config files) is derived from fixed seeds and written next to the
outputs, and the runs name their files relative to OUT_DIR, so two runs of
the same program give byte-identical files; the ``# data =`` line, which
echoes the input path, is left out of the comparison all the same.  The runs cover the
identity, ar1 and nerm covariances, the ridge and zellner priors, and
estimated and fixed lambda, on designs of at most five columns and at most
five replications per cell.  A 7 x 5 design, where n - p - 2 = 0 for the
full model, takes the exclusion path: the ``excluded`` column of `select`
and the ``undefined (...)`` values of `criteria`.  ``tests/test_golden.py``
regenerates them into a temporary directory and compares byte for byte;
the committed files are the contract that a refactor must not move.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from pathlib import Path

import numpy as np

from bmlselect.cli import main

HERE = Path(__file__).resolve().parent

# Lines that name an input path, and so differ between output directories.
PATH_LINE_PREFIX = "# data = "


def _write_data(path: Path, seed: int, n: int, p: int, phi: float) -> None:
    """Headered CSV: response first, then p standard-normal predictors; AR(1) noise."""
    rng = np.random.default_rng([seed, n, p])
    x = rng.standard_normal((n, p))
    beta = np.zeros(p)
    beta[:2] = (1.0, 0.5)
    w = rng.standard_normal(n)
    noise = np.empty(n)
    noise[0] = w[0]
    for i in range(1, n):
        noise[i] = phi * noise[i - 1] + np.sqrt(1.0 - phi * phi) * w[i]
    y = x @ beta + noise
    lines = ["y," + ",".join(f"x{j}" for j in range(1, p + 1))]
    lines += [",".join(format(v, ".17g") for v in (y[i], *x[i])) for i in range(n)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _runs() -> list[list[str]]:
    """The argument vectors of the golden runs; writes their inputs to the working directory."""
    _write_data(Path("data_ar1.csv"), seed=11, n=40, p=5, phi=0.5)
    _write_data(Path("data_iid.csv"), seed=12, n=30, p=4, phi=0.0)
    # n - p - 2 = 0 for the full model: the exclusion path.
    _write_data(Path("data_tight.csv"), seed=13, n=7, p=5, phi=0.0)
    Path("nerm.cfg").write_text("group_sizes = " + ",".join(["4"] * 10) + "\n", encoding="utf-8")
    Path("simulate_nerm.cfg").write_text("nerm_group_size = 4\n", encoding="utf-8")
    return [
        ["select", "--data", "data_ar1.csv", "--out", "select_ar1_ridge.csv",
         "--covariance", "ar1", "--criterion", "all", "--prior", "ridge", "--estimate-lambda"],
        ["select", "--data", "data_iid.csv", "--out", "select_identity_zellner.csv",
         "--criterion", "all", "--prior", "zellner"],
        ["select", "--data", "data_ar1.csv", "--config", "nerm.cfg",
         "--out", "select_nerm_fixed_lambda.csv",
         "--covariance", "nerm", "--criterion", "all", "--lambda", "2.5"],
        ["criteria", "--data", "data_ar1.csv", "--out", "criteria_ar1_ridge.csv",
         "--covariance", "ar1", "--criterion", "all"],
        ["select", "--data", "data_tight.csv", "--out", "select_tight_zellner.csv",
         "--criterion", "all", "--prior", "zellner"],
        ["criteria", "--data", "data_tight.csv", "--out", "criteria_tight.csv",
         "--criterion", "all"],
        ["simulate", "--out", "simulate_constant_variance.csv", "--seed", "5",
         "--model", "constant_variance", "--n-grid", "20,30", "--snr-grid", "1,3",
         "--replications", "2", "--criterion", "all"],
        ["simulate", "--out", "simulate_ar1.csv", "--seed", "6",
         "--model", "ar1", "--phi", "0.5", "--n-grid", "30", "--snr-grid", "3",
         "--replications", "3", "--prior", "zellner"],
        ["simulate", "--out", "simulate_nerm.csv", "--seed", "7",
         "--config", "simulate_nerm.cfg", "--model", "nerm", "--n-grid", "20",
         "--snr-grid", "1,3", "--replications", "2", "--beta-pattern", "two_ones"],
    ]


def generate(out: Path) -> list[Path]:
    """Write every golden input and output into ``out``; returns the files written."""
    out.mkdir(parents=True, exist_ok=True)
    cwd = os.getcwd()
    os.chdir(out)
    try:
        for argv in _runs():
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            if code != 0:
                raise RuntimeError(f"bmlselect {' '.join(argv)} exited {code}")
    finally:
        os.chdir(cwd)
    return sorted(p for p in out.iterdir() if p.suffix in (".csv", ".cfg"))


def comparable_bytes(path: Path) -> bytes:
    """File contents with the input-path echo line dropped."""
    lines = path.read_bytes().splitlines(keepends=True)
    return b"".join(line for line in lines if not line.startswith(PATH_LINE_PREFIX.encode()))


if __name__ == "__main__":
    target = Path(sys.argv[1]) if len(sys.argv) > 1 else HERE
    for written in generate(target):
        print(written)
