"""Tests of the benchmark itself, on its smoke-mode inputs.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_program()

import checks  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 0


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", str(SEED), "--seconds", "1",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
        assert f"{metric['name']} = " in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "select_wide", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.fixture
def select_pass(tmp_path):
    cls = workloads.SelectWide
    wl = cls(SEED, cls.SMOKE, tmp_path, run.load_pins("select_wide", SEED, "smoke"))
    assert wl.pins is not None
    code, stdout = wl.run_pass(1)
    assert wl.check((code, stdout), 1) == []
    return wl, code, stdout


def test_corrupted_score_is_caught(select_pass):
    wl, code, stdout = select_pass
    lines = wl.out.read_text().splitlines()
    head = next(i for i, line in enumerate(lines) if line.startswith("rank,"))
    col = lines[head].split(",").index("aic")
    for i in range(head + 1, len(lines)):
        fields = lines[i].split(",")
        fields[col] = repr(float(fields[col]) * (1.0 + 1e-6))
        lines[i] = ",".join(fields)
    wl.out.write_text("\n".join(lines) + "\n")
    errors = wl.check((code, stdout), 1)
    assert any(": aic = " in e for e in errors), errors


def test_corrupted_selection_is_caught(select_pass):
    wl, code, stdout = select_pass
    chosen = wl.pins["selected"]["bic"]
    corrupted = stdout.replace(f"selected[bic] = {chosen}\n", "selected[bic] = 1\n")
    assert corrupted != stdout
    errors = wl.check((code, corrupted), 1)
    assert any("selected[bic]" in e for e in errors), errors
    assert any("pinned" in e for e in errors), errors


def test_corrupted_simulate_count_is_caught(tmp_path):
    cls = workloads.SimulateIid
    wl = cls(SEED, cls.SMOKE, tmp_path, run.load_pins("simulate_iid", SEED, "smoke"))
    output = wl.run_pass(1)
    assert wl.check(output, 1) == []
    rows = checks.result_rows(output)
    dense = checks.dense_cell_rows(wl.spec, wl.spec.cells()[0])
    k = next(i for i, r in enumerate(rows) if r[2] == "aic")
    rows[k][3] += 1
    assert checks.check_dense_cell(rows, dense)
    assert checks.check_simulate_rows(rows, wl.spec, None, wl.pins)
    assert checks.check_simulate_rows(rows, wl.spec, wl.reference, None)
