"""Correctness checks on the program's outputs.

Each check returns a list of error strings; an empty list means the output
passed.  The dense recomputations form V, V^-1 and the projection P
explicitly with plain numpy and share no code with bmlselect.
"""

from __future__ import annotations

import csv
import io
import itertools
import math

import numpy as np

LOG_2PI = math.log(2.0 * math.pi)
DENSE_RTOL = 1e-8
PIN_RTOL = 1e-10
SPOT_CHECK_CRITERIA = ("aic", "bic", "ic_r", "ic_pi1")


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def _indices(label: str) -> tuple[int, ...]:
    return () if label == "(null)" else tuple(int(t) for t in label.split())


def _argmin(scored):
    """Best (label, score) under the package's documented tie-break: score, p, indices."""
    return min(scored, key=lambda ls: (ls[1], len(_indices(ls[0])), _indices(ls[0])))[0]


# ---------------------------------------------------------------------------
# Dense recomputation
# ---------------------------------------------------------------------------


def dense_v(kind: str, n: int, phi: float | None, group_size: int | None = None) -> np.ndarray:
    if kind in ("identity", "constant_variance"):
        return np.eye(n)
    if kind == "ar1":
        idx = np.arange(n)
        return phi ** np.abs(idx[:, None] - idx[None, :])
    if kind == "nerm":
        groups = np.arange(n) // group_size
        return np.eye(n) + phi * (groups[:, None] == groups[None, :])
    raise ValueError(f"no dense V for {kind!r}")


class DenseModel:
    """Scores of column subsets of (x, y) under a fixed V, from explicit matrices."""

    def __init__(self, x: np.ndarray, y: np.ndarray, v: np.ndarray):
        self.x, self.y = x, y
        self.n = y.shape[0]
        self.vinv = np.linalg.inv(v)
        self.logdet_v = float(np.linalg.slogdet(v)[1])
        self.yty = float(y @ self.vinv @ y)

    def fit(self, cols):
        xj = self.x[:, list(cols)]
        gram = xj.T @ self.vinv @ xj
        z = xj.T @ self.vinv @ self.y
        if cols:
            gram_inv = np.linalg.inv(gram)
            proj = self.vinv - self.vinv @ xj @ gram_inv @ xj.T @ self.vinv
            beta = gram_inv @ z
            logdet_gram = float(np.linalg.slogdet(gram)[1])
        else:
            proj, beta, logdet_gram = self.vinv, np.zeros(0), 0.0
        ypy = float(self.y @ proj @ self.y)
        return gram, z, ypy, beta, logdet_gram

    def scores(self, cols, lam: float | None = None) -> dict[str, float]:
        n, p = self.n, len(cols)
        gram, z, ypy, _, logdet_gram = self.fit(cols)
        s2 = ypy / n
        ml_part = n * (LOG_2PI + math.log(s2)) + self.logdet_v
        out = {
            "aic": ml_part + n + 2.0 * (p + 1),
            "bic": ml_part + n + p * math.log(n),
        }
        if n - p - 2 > 0:
            dof = n - p
            out["ic_r"] = (
                dof * (LOG_2PI + math.log(ypy / dof))
                + self.logdet_v
                + logdet_gram
                + dof
                + 2.0 * dof / (dof - 2)
            )
            if lam is not None:
                # Ridge prior W = I / lam: the marginal covariance is V + X W X'.
                # Its inverse and log-determinant by Woodbury and the
                # determinant lemma, in terms of V^-1.
                m = gram + lam * np.eye(p)
                yay = self.yty - float(z @ np.linalg.solve(m, z))
                logdet_sigma = self.logdet_v + float(np.linalg.slogdet(m)[1]) - p * math.log(lam)
                out["ic_pi1"] = (
                    n * (LOG_2PI + math.log(s2)) + logdet_sigma + yay / s2 + 2.0 * n / (n - p - 2)
                )
        return out


# ---------------------------------------------------------------------------
# select: the ranked-models CSV and the printed selections
# ---------------------------------------------------------------------------


def parse_select_output(csv_text: str, stdout: str):
    """Return (meta, criteria, rows, selected) from `bmlselect select` output."""
    meta, body = {}, []
    for line in csv_text.splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            meta[key.strip()] = value.strip()
        elif line:
            body.append(line)
    reader = csv.DictReader(io.StringIO("\n".join(body)))
    fixed = {"rank", "candidate", "p", "lambda_hat", "excluded"}
    criteria = [c for c in reader.fieldnames if c not in fixed]
    rows = list(reader)
    selected = {}
    for line in stdout.splitlines():
        if line.startswith("selected["):
            name, _, label = line[len("selected[") :].partition("] = ")
            selected[name] = label
    return meta, criteria, rows, selected


def check_select(
    code: int,
    stdout: str,
    csv_text: str,
    x: np.ndarray,
    y: np.ndarray,
    expected_criteria,
    rng: np.random.Generator,
    pins: dict | None,
    spot_checks: int = 6,
) -> list[str]:
    if code != 0:
        return [f"select exited with code {code}"]
    meta, criteria, rows, selected = parse_select_output(csv_text, stdout)
    errors = []
    if tuple(criteria) != tuple(expected_criteria):
        errors.append(f"criteria columns {criteria} != {list(expected_criteria)}")
    n, p_omega = x.shape
    if len(rows) != 2**p_omega:
        errors.append(f"{len(rows)} candidate rows, expected {2 ** p_omega}")
    if errors:
        return errors

    # Printed selection = argmin over the CSV's scores with the tie-break.
    for name in criteria:
        scored = [(r["candidate"], float(r[name])) for r in rows if r[name] != ""]
        best = _argmin(scored) if scored else None
        if selected.get(name) != best:
            errors.append(f"selected[{name}] = {selected.get(name)!r}, CSV argmin is {best!r}")

    # The ranked block is in ascending order of the first criterion.
    ranked = [r for r in rows if r["rank"] != ""]
    primary = [float(r[criteria[0]]) for r in ranked]
    if [int(r["rank"]) for r in ranked] != list(range(1, len(ranked) + 1)) or any(
        a > b for a, b in zip(primary, primary[1:])
    ):
        errors.append(f"ranked rows are not in ascending {criteria[0]} order")

    # Spot-check a seeded sample of candidates against the dense formulas.
    phi_hat = float(meta["phi"].split()[0])
    dense = DenseModel(x, y, dense_v("ar1", n, phi_hat))
    eligible = [
        r for r in rows if all(r[c] != "" for c in SPOT_CHECK_CRITERIA + ("lambda_hat",))
    ]
    picks = rng.choice(len(eligible), size=min(spot_checks, len(eligible)), replace=False)
    for k in sorted(int(i) for i in picks):
        row = eligible[k]
        cols = [i - 1 for i in _indices(row["candidate"])]
        want = dense.scores(cols, float(row["lambda_hat"]))
        for name in SPOT_CHECK_CRITERIA:
            got = float(row[name])
            if not _close(got, want[name], DENSE_RTOL):
                errors.append(
                    f"candidate {row['candidate']}: {name} = {got!r}, "
                    f"dense recomputation {want[name]!r}"
                )

    if pins is not None:
        if selected != pins["selected"]:
            errors.append(f"selections {selected} differ from pinned {pins['selected']}")
        if not _close(phi_hat, pins["phi_hat"], PIN_RTOL):
            errors.append(f"phi_hat {phi_hat!r} differs from pinned {pins['phi_hat']!r}")
    return errors


# ---------------------------------------------------------------------------
# simulate: the per-cell summaries of run_experiment
# ---------------------------------------------------------------------------


def result_rows(results) -> list[list]:
    """Flatten run_experiment output to [n, snr, criterion, count, mean_pe, se] rows."""
    return [
        [res.n, res.snr, name, s.true_model_count, s.mean_prediction_error, s.standard_error]
        for res in results
        for name, s in res.by_criterion.items()
    ]


def check_simulate_rows(rows, spec, reference, pins) -> list[str]:
    errors = []
    want = len(spec.cells()) * len(spec.criteria)
    if len(rows) != want:
        return [f"{len(rows)} result rows, expected {want}"]
    for n, snr, name, count, pe, se in rows:
        if not (0 <= count <= spec.replications) or not (math.isfinite(pe) and pe >= 0.0):
            errors.append(f"cell n={n} snr={snr} {name}: count {count}, mean PE {pe}")
    if reference is not None and rows != reference:
        errors.append("results differ from the first pass of this run")
    if pins is not None:
        for row, pin in zip(rows, pins["rows"]):
            if row[:4] != pin[:4] or not _close(row[4], pin[4], PIN_RTOL):
                errors.append(f"row {row[:5]} differs from pinned {pin}")
    return errors


def dense_cell_rows(spec, cell, criteria=("aic", "bic", "ic_r")) -> list[list]:
    """Recompute one cell's true-model counts and mean losses with dense GLS.

    The data come from the package's generator and phi from its profile
    estimate; candidate fits, scores, the argmin and the loss are recomputed
    here from explicit matrices.
    """
    from bmlselect.covariance import estimate_phi_full_model
    from bmlselect.simulation import generate_dataset

    p_omega = spec.p_omega
    subsets = [
        c
        for size in range(0 if spec.include_null else 1, p_omega + 1)
        for c in itertools.combinations(range(p_omega), size)
    ]
    hits = {c: 0 for c in criteria}
    losses = {c: [] for c in criteria}
    for rep in range(spec.replications):
        dataset, truth = generate_dataset(spec, cell, rep)
        est = estimate_phi_full_model(dataset)
        phi = None if est is None else est.value
        dense = DenseModel(
            dataset.x_full,
            dataset.y,
            dense_v(spec.model_kind, cell.n, phi, spec.nerm_group_size),
        )
        scored = {c: [] for c in criteria}
        for cols in subsets:
            label = " ".join(str(i + 1) for i in cols) if cols else "(null)"
            for name, value in dense.scores(cols).items():
                if name in scored:
                    scored[name].append((label, value))
        mu_true = truth.x_true @ truth.beta_true
        for name in criteria:
            best = _argmin(scored[name])
            cols = [i - 1 for i in _indices(best)]
            beta = dense.fit(cols)[3]
            diff = dataset.x_full[:, cols] @ beta - mu_true
            losses[name].append(float(diff @ diff) / cell.n)
            hits[name] += best == truth.j_star.label()
    return [[cell.n, cell.snr, c, hits[c], float(np.mean(losses[c]))] for c in criteria]


def check_dense_cell(rows, dense_rows) -> list[str]:
    errors = []
    by_key = {(r[0], r[1], r[2]): r for r in rows}
    for n, snr, name, count, pe in dense_rows:
        got = by_key.get((n, snr, name))
        if got is None:
            errors.append(f"no result for cell n={n} snr={snr} {name}")
        elif got[3] != count or not _close(got[4], pe, DENSE_RTOL):
            errors.append(
                f"cell n={n} snr={snr} {name}: count {got[3]}, mean PE {got[4]!r}; "
                f"dense recomputation gives {count}, {pe!r}"
            )
    return errors
