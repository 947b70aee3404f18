"""The benchmark's workloads: seeded inputs, one pass, and its correctness check.

Every workload calls bmlselect only through public entry points
(``bmlselect.cli.main`` and ``bmlselect.simulation.run_experiment``) and
sees only the inputs generated here from the seed.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import numpy as np

import checks


class SelectWide:
    """`bmlselect select` on a generated CSV: every subset, all ten criteria.

    AR(1) errors with phi estimated, ridge prior, lambda estimated per
    candidate.  The per-candidate layers and the CSV writer do nearly all
    the work; the phi profile runs once and no worker pool is used.
    """

    FULL = {"n": 200, "p_omega": 12}
    SMOKE = {"n": 40, "p_omega": 4}
    PHI_TRUE = 0.5

    def __init__(self, seed: int, size: dict, workdir: Path, pins: dict | None):
        from bmlselect import criteria

        self.seed, self.pins = seed, pins
        self.criteria = criteria.CRITERION_NAMES
        n, p = size["n"], size["p_omega"]
        rng = np.random.default_rng([seed, 1])
        self.x = rng.standard_normal((n, p))
        beta = np.zeros(p)
        beta[:3] = (1.0, 1.0, 0.5)
        w = rng.standard_normal(n)
        noise = np.empty(n)
        noise[0] = w[0]
        scale = np.sqrt(1.0 - self.PHI_TRUE**2)
        for i in range(1, n):
            noise[i] = self.PHI_TRUE * noise[i - 1] + scale * w[i]
        self.y = self.x @ beta + noise
        self.data = workdir / "select_wide.csv"
        self.out = workdir / "ranked.csv"
        header = ",".join(["y"] + [f"x{j}" for j in range(1, p + 1)])
        np.savetxt(
            self.data,
            np.column_stack([self.y, self.x]),
            fmt="%.17g",
            delimiter=",",
            header=header,
            comments="",
        )
        self.argv = [
            "select",
            "--data", str(self.data),
            "--out", str(self.out),
            "--covariance", "ar1",
            "--criterion", "all",
            "--prior", "ridge",
            "--estimate-lambda",
        ]
        self.candidates_per_pass = 2**p
        self.output_bytes = 0

    def run_pass(self, workers: int):
        from bmlselect import cli

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(self.argv)
        return code, buf.getvalue()

    def check(self, output, pass_index: int) -> list[str]:
        code, stdout = output
        csv_bytes = self.out.read_bytes() if code == 0 else b""
        self.output_bytes = len(csv_bytes)
        rng = np.random.default_rng([self.seed, pass_index])
        return checks.check_select(
            code, stdout, csv_bytes.decode(), self.x, self.y, self.criteria, rng, self.pins
        )


class Simulate:
    """`run_experiment` over one grid with an explicit worker count."""

    def __init__(self, seed: int, size: dict, workdir: Path, pins: dict | None):
        from bmlselect.simulation import ExperimentSpec

        self.spec = ExperimentSpec(master_seed=seed, **self.GRID, **size)
        self.pins = pins
        self.candidates_per_pass = (
            len(self.spec.cells()) * self.spec.replications * 2**self.spec.p_omega
        )
        self.reference = None
        self.output_bytes = 0
        self._dense_errors = None

    def run_pass(self, workers: int):
        from bmlselect.simulation import run_experiment

        return run_experiment(self.spec, workers=workers)

    def check(self, output, pass_index: int) -> list[str]:
        rows = checks.result_rows(output)
        errors = checks.check_simulate_rows(rows, self.spec, self.reference, self.pins)
        if self.reference is None:
            self.reference = rows
            cell = self.spec.cells()[0]
            self._dense_errors = checks.check_dense_cell(
                rows, checks.dense_cell_rows(self.spec, cell)
            )
        return errors + self._dense_errors


class SimulateIid(Simulate):
    """Constant-variance Monte Carlo: no phi layer, many small-n candidates,
    a worker pool forked per cell."""

    GRID = {
        "model_kind": "constant_variance",
        "n_grid": (20, 40, 80, 160),
        "snr_grid": (3.0, 5.0),
        "beta_pattern": "four_ones",
        "prior_kind": "ridge",
    }
    FULL = {"replications": 4}
    SMOKE = {"replications": 2}


class SimulateNerm(Simulate):
    """Nested-error Monte Carlo: the dense phi profile dominates and lambda
    takes the closed-form Zellner branch."""

    GRID = {
        "model_kind": "nerm",
        "n_grid": (80, 160),
        "snr_grid": (1.0, 3.0),
        "nerm_group_size": 4,
        "beta_pattern": "four_ones",
        "prior_kind": "zellner",
    }
    FULL = {"replications": 3}
    SMOKE = {"replications": 2}


WORKLOADS = {
    "select_wide": SelectWide,
    "simulate_iid": SimulateIid,
    "simulate_nerm": SimulateNerm,
}
