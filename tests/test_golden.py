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
