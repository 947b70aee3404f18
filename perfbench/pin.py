#!/usr/bin/env python3
"""Write perfbench/expected.json: the outputs every workload must reproduce at the pinned seed.

Run from the repository root on a commit whose outputs are trusted:

    python3 perfbench/pin.py

Each pass is checked (printed selections against the CSV, dense
recomputation) before its output is pinned.  For select_wide the pins are
the selected model per criterion and phi_hat; for the simulate workloads
they are every cell's true-model count and mean prediction error.
"""

from __future__ import annotations

import json
import re
import sys
import tempfile
from pathlib import Path

import run

SEED = 0


def main() -> int:
    nproc = run.pin_environment()
    run.import_program()
    import checks
    import workloads

    pins = {"seed": SEED}
    (run.ROOT / ".bench_build").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.ROOT / ".bench_build") as tmp:
        for name, cls in workloads.WORKLOADS.items():
            pins[name] = {}
            for label in ("full", "smoke"):
                workdir = Path(tmp) / f"{name}-{label}"
                workdir.mkdir()
                wl = cls(SEED, getattr(cls, label.upper()), workdir, None)
                output = wl.run_pass(nproc)
                errors = wl.check(output, 1)
                if errors:
                    print(f"{name} ({label}) failed its check:", *errors,
                          sep="\n  ", file=sys.stderr)
                    return 1
                if name == "select_wide":
                    meta, _, _, selected = checks.parse_select_output(wl.out.read_text(), output[1])
                    pins[name][label] = {
                        "phi_hat": float(meta["phi"].split()[0]),
                        "selected": selected,
                    }
                else:
                    pins[name][label] = {"rows": [r[:5] for r in checks.result_rows(output)]}
                print(f"pinned {name} ({label})")
    # One pinned row per line.
    text = re.sub(
        r"\[\s+([^\[\]]*?)\s+\]",
        lambda m: "[" + re.sub(r"\s*\n\s*", " ", m.group(1)) + "]",
        json.dumps(pins, indent=1),
    )
    run.PINS.write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
