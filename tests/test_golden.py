"""Byte contract: the committed golden outputs must regenerate exactly.

``tests/golden/make_golden.py`` writes small `select`, `criteria` and
`simulate` runs; this test reruns it into a temporary directory and compares
every file with the committed copy byte for byte, apart from the
``# data =`` line that echoes the input path.
"""

import importlib.util
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"


def _load_generator():
    spec = importlib.util.spec_from_file_location("make_golden", GOLDEN / "make_golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_golden_outputs_regenerate_byte_for_byte(tmp_path):
    gen = _load_generator()
    fresh = gen.generate(tmp_path)
    committed = sorted(p for p in GOLDEN.iterdir() if p.suffix in (".csv", ".cfg"))
    assert [p.name for p in fresh] == [p.name for p in committed]
    changed = [
        p.name
        for p, q in zip(fresh, committed)
        if gen.comparable_bytes(p) != gen.comparable_bytes(q)
    ]
    assert not changed, f"golden outputs changed: {changed}"


def test_compare_reports_moved_columns_order_and_selection(tmp_path):
    gen = _load_generator()
    old, new = tmp_path / "old", tmp_path / "new"
    for d in (old, new):
        d.mkdir()
        for p in GOLDEN.iterdir():
            if p.suffix in (".csv", ".cfg"):
                (d / p.name).write_bytes(p.read_bytes())
    assert all(line.endswith(": identical") for line in gen.compare(old, new))

    # Double the lowest bic score of one select table, lifting it above
    # every other: bic moves, its argmin changes, the ic_pi1 order does not.
    path = new / "select_ar1_ridge.csv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    head = next(i for i, line in enumerate(lines) if line.startswith("rank,"))
    col = lines[head].rstrip("\n").split(",").index("bic")
    rows = [line.split(",") for line in lines[head + 1:]]
    best = min(range(len(rows)), key=lambda i: float(rows[i][col]))
    rows[best][col] = format(float(rows[best][col]) * 2.0, ".17g")
    lines[head + 1:] = [",".join(fields) for fields in rows]
    path.write_text("".join(lines), encoding="utf-8")
    report = {line.split(":")[0]: line for line in gen.compare(old, new)}
    line = report["select_ar1_ridge.csv"]
    assert "moved bic 1.0e+00;" in line
    assert "ranked order same" in line
    assert "selected DIFFERS: bic" in line
    assert report["select_identity_zellner.csv"].endswith(": identical")
