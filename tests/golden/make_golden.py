#!/usr/bin/env python3
"""Regenerate the golden `select`, `criteria` and `simulate` outputs.

Run from the repository root:

    PYTHONPATH=src python3 tests/golden/make_golden.py [OUT_DIR] [--compare OLD_DIR]

OUT_DIR defaults to the directory of this script.  ``--compare OLD_DIR``
then reports, for each file of OLD_DIR, how the regenerated copy differs:
the columns (and ``#`` header values) that moved with their largest
relative move, whether the ranked order of the rows is the same, and for a
`select` table whether every criterion still selects the same candidate
(``selected[...]``, the argmin of its column with ties broken toward
smaller p, then lexicographic indices).  It names a file missing from
either directory, and exits with status 1 unless every file is
``identical``.  Every input (data CSVs and config files) is derived from
fixed seeds and written next to the outputs, and the runs name their files
relative to OUT_DIR, so two runs of the same program give byte-identical
files; the ``# data =`` line, which echoes the input path, is left out of
the comparison all the same.  The runs cover the identity, ar1 and nerm
covariances, the ridge and zellner priors with estimated and fixed lambda
in `select`, and both priors in `criteria`, on designs of at most five
columns and at most five replications per cell, and two `select` runs on a
10-column design, whose candidate labels carry two-digit indices: identity
with two criteria, and ar1 with every criterion and a ridge lambda_hat for
each of its 1,024 candidates.  A 7 x 5 design, where
n - p - 2 = 0 for the full model, takes the exclusion path: the
``excluded`` column of `select` and the ``undefined (...)`` values of
`criteria`.  ``tests/test_golden.py`` regenerates them into a temporary directory and compares byte for byte;
the committed files are the contract that a refactor must not move.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import math
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
    # Ten columns: candidate labels with two-digit indices.
    _write_data(Path("data_wide.csv"), seed=14, n=30, p=10, phi=0.0)
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
        ["select", "--data", "data_ar1.csv", "--out", "select_ar1_zellner_fixed_lambda.csv",
         "--covariance", "ar1", "--criterion", "all", "--prior", "zellner", "--lambda", "0.75"],
        ["criteria", "--data", "data_iid.csv", "--out", "criteria_identity_zellner.csv",
         "--criterion", "all", "--prior", "zellner"],
        ["select", "--data", "data_wide.csv", "--out", "select_wide_identity.csv",
         "--criterion", "ic_r,bic"],
        ["select", "--data", "data_wide.csv", "--out", "select_wide_ar1_ridge.csv",
         "--covariance", "ar1", "--criterion", "all", "--prior", "ridge", "--estimate-lambda"],
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


def golden_files(folder: Path) -> list[Path]:
    """The golden inputs and outputs in ``folder``, sorted by name."""
    return sorted(p for p in folder.iterdir() if p.suffix in (".csv", ".cfg"))


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
    return golden_files(out)


def comparable_bytes(path: Path) -> bytes:
    """File contents with the input-path echo line dropped."""
    lines = path.read_bytes().splitlines(keepends=True)
    return b"".join(line for line in lines if not line.startswith(PATH_LINE_PREFIX.encode()))


# Columns that name a row rather than hold a result.
KEY_COLUMNS = ("candidate", "criterion", "model_kind", "n", "snr", "beta_pattern")
NOT_SCORES = KEY_COLUMNS + ("rank", "p", "lambda_hat", "excluded")


def _read_table(path: Path) -> tuple[dict[str, str], list[str], list[dict[str, str]]]:
    """(``#`` header values, column names, rows) of one golden file."""
    lines = path.read_text(encoding="utf-8").splitlines()
    meta = {}
    for line in lines:
        if line.startswith("# ") and " = " in line and not line.startswith(PATH_LINE_PREFIX):
            key, _, value = line[2:].partition(" = ")
            meta[key] = value
    reader = csv.reader(line for line in lines if not line.startswith("#"))
    head = next(reader, [])
    return meta, head, [dict(zip(head, rec)) for rec in reader]


def _relative_move(old: str, new: str) -> float:
    """|new - old| / |old| of two printed numbers; inf when text changed."""
    if old == new:
        return 0.0
    try:
        a, b = float(old.split()[0]), float(new.split()[0])
    except (ValueError, IndexError):
        return math.inf
    return abs(b - a) / abs(a) if a else abs(b - a)


def _selected(head: list[str], rows: list[dict[str, str]]) -> dict[str, str]:
    """Each score column's argmin candidate, ties toward smaller p, then indices."""
    out = {}
    for name in head:
        if name in NOT_SCORES:
            continue
        scored = [
            (float(row[name]), int(row["p"]), tuple(int(i) for i in row["candidate"].split()
                                                    if i.isdigit()), row["candidate"])
            for row in rows
            if row[name]
        ]
        if scored:
            out[name] = min(scored)[3]
    return out


def compare(old_dir: Path, new_dir: Path) -> list[str]:
    """Report lines on how each golden file of ``new_dir`` differs from ``old_dir``."""
    report = []
    for old_path in golden_files(old_dir):
        new_path = new_dir / old_path.name
        if not new_path.exists():
            report.append(f"{old_path.name}: missing from {new_dir}")
            continue
        if comparable_bytes(old_path) == comparable_bytes(new_path):
            report.append(f"{old_path.name}: identical")
            continue
        old_meta, old_head, old_rows = _read_table(old_path)
        new_meta, new_head, new_rows = _read_table(new_path)
        if old_head != new_head or len(old_rows) != len(new_rows):
            report.append(f"{old_path.name}: columns or row count differ")
            continue
        keys = [c for c in KEY_COLUMNS if c in old_head]

        def key(row):
            return tuple(row[c] for c in keys)

        moves = {f"# {k}": _relative_move(v, new_meta.get(k, "")) for k, v in old_meta.items()}
        new_by_key = {key(row): row for row in new_rows}
        for row in old_rows:
            other = new_by_key.get(key(row))
            for col in old_head:
                if col == "rank" or other is None:
                    continue
                # A `criteria` table holds one criterion per row: name the row.
                label = f"value[{row['criterion']}]" if old_head == ["criterion", "value"] else col
                moves[label] = max(moves.get(label, 0.0), _relative_move(row[col], other[col]))
        moved = ", ".join(f"{c} {m:.1e}" for c, m in moves.items() if m > 0.0) or "nothing"
        same_order = [key(r) for r in old_rows] == [key(r) for r in new_rows]
        line = f"{old_path.name}: moved {moved}; ranked order {'same' if same_order else 'DIFFERS'}"
        if "candidate" in old_head:
            old_sel, new_sel = _selected(old_head, old_rows), _selected(new_head, new_rows)
            changed = [f"{c} {old_sel[c]} -> {new_sel.get(c)}" for c in old_sel
                       if old_sel[c] != new_sel.get(c)]
            line += "; selected " + ("same" if not changed else "DIFFERS: " + ", ".join(changed))
        report.append(line)
    for new_path in golden_files(new_dir):
        if not (old_dir / new_path.name).exists():
            report.append(f"{new_path.name}: missing from {old_dir}")
    return report


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out_dir", nargs="?", type=Path, default=HERE)
    parser.add_argument("--compare", type=Path, metavar="OLD_DIR",
                        help="report how the regenerated files differ from OLD_DIR's")
    args = parser.parse_args()
    written = generate(args.out_dir)
    if args.compare is None:
        for path in written:
            print(path)
    else:
        report = compare(args.compare, args.out_dir)
        print("\n".join(report))
        sys.exit(0 if all(line.endswith(": identical") for line in report) else 1)
