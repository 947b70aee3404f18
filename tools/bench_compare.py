#!/usr/bin/env python3
"""Before/after benchmark of two checkouts of bmlselect, written as one JSON file.

    python3 tools/bench_compare.py --before OLD_CHECKOUT --after NEW_CHECKOUT \\
        --topic "what changed" --out BENCH_topic.json [--pairs 10] [--seconds 30]

End to end: each checkout's ``perfbench/run.py --trace 0`` runs once per
seed and workload, seeds ``--first-seed`` onwards; on even pair indices the
new checkout runs first, on odd ones the old.  A pair is "better" when the
new checkout's value is better in the direction ``BENCHMARK.json`` gives.
Per layer: ``TRACED_RUNS`` ``--trace 1`` runs per workload and checkout,
seed 1, alternating which checkout goes first as the pairs do; the file
keeps every run and the median of each metric, so that host drift during
one run does not read as a layer change.
Profile: cProfile of ``--profile-passes`` single-worker passes of each
workload (``perfbench/workloads.py``'s ``WORKLOADS``, full size, seed 1) per
checkout, split by function: the package's own functions and the numpy
linear algebra they call; the phi layer's functions apart (``covariance``
and ``qr``); and the phi evaluations per profile, the calls of the
functions ``covariance._whitener_family`` returns, less one per
``make_whitener`` call, over the ``estimate_phi_full_model`` calls.
Every run uses one BLAS thread; the file records the core count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# Traced runs per workload and checkout whose median gives the per-layer numbers.
TRACED_RUNS = 3

PROFILE = r"""
import cProfile, inspect, pstats, sys, tempfile
from pathlib import Path
sys.path.insert(0, "perfbench")
from workloads import WORKLOADS
from bmlselect import covariance
workload = WORKLOADS[NAME]
with tempfile.TemporaryDirectory() as tmp:
    work = workload(1, workload.FULL, Path(tmp), None)
    work.run_pass(1)
    prof = cProfile.Profile()
    prof.enable()
    for _ in range(PASSES):
        work.run_pass(1)
    prof.disable()
stats = pstats.Stats(prof).stats
total = max(ct for _, _, _, ct, _ in stats.values())
# The phi layer: estimate_phi_full_model and every function it calls, directly
# or not (their totals over the pass, so a callee shared with scoring counts both).
callees = {}
for key, (*_, callers) in stats.items():
    for caller in callers:
        callees.setdefault(caller, []).append(key)
layer = {key for key in stats if key[2] == "estimate_phi_full_model"}
todo = list(layer)
while todo:
    for key in callees.get(todo.pop(), ()):
        if key not in layer:
            layer.add(key)
            todo.append(key)
rows, phi = [], []
lines, first = inspect.getsourcelines(covariance._whitener_family)
calls = {"family": 0, "make_whitener": 0, "estimate_phi_full_model": 0}
for key, (_, ncalls, tt, ct, _) in stats.items():
    path, line, name = key
    row = {"function": path.rsplit("/", 2)[-1] + ":" + name, "calls": ncalls // PASSES,
           "self_ms": 1e3 * tt / PASSES, "cum_ms": 1e3 * ct / PASSES}
    if "bmlselect" in path or (name in ("qr", "svd") and "linalg" in path):
        rows.append(row)
    if key in layer:
        phi.append(row)
    if path == covariance.__file__:
        if first < line < first + len(lines):  # a phi -> operator family
            calls["family"] += ncalls
        elif name in calls:
            calls[name] += ncalls
rows.sort(key=lambda r: -r["cum_ms"])
phi.sort(key=lambda r: -r["cum_ms"])
profiles = calls["estimate_phi_full_model"]
print(json.dumps({
    "pass_ms": 1e3 * total / PASSES,
    "functions": rows[:24],
    "phi_layer": phi[:16],
    "phi_profiles_per_pass": profiles / PASSES,
    "phi_evals_per_profile":
        (calls["family"] - calls["make_whitener"]) / profiles if profiles else None,
}))
"""


def _run(checkout: Path, argv: list[str]) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run([sys.executable, *argv], cwd=checkout, env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _bench(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = _run(checkout, ["perfbench/run.py", "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", str(trace)])
    if not out["correct"] or out["failed"]:
        raise SystemExit(f"{checkout}: {workload} seed {seed} trace {trace} failed: {out}")
    return {name: m["value"] for name, m in out["metrics"].items()}


def _alternate(args, workload: str, seeds, trace: int) -> dict:
    """{side: runs}, one run per seed and side; on even indices the new
    checkout runs first, on odd ones the old."""
    runs = {"before": [], "after": []}
    for k, seed in enumerate(seeds):
        order = ("after", "before") if k % 2 == 0 else ("before", "after")
        for side in order:
            runs[side].append(_bench(getattr(args, side), workload, seed, args.seconds, trace))
        # A traced run reports no end-to-end metric, so only its order is shown.
        shown = ", ".join(f"{side} {runs[side][-1]['norm_wall_s']:.4g} s" if trace == 0
                          else side for side in order)
        print(f"{workload} seed {seed} trace {trace}: {shown}", flush=True)
    return runs


def end_to_end(args, declared: dict) -> dict:
    result = {}
    for workload in args.workloads:
        runs = _alternate(args, workload, range(args.first_seed, args.first_seed + args.pairs), 0)
        metrics = {}
        for name, better in declared.items():
            before = [r[name] for r in runs["before"]]
            after = [r[name] for r in runs["after"]]
            q1, _, q3 = statistics.quantiles(before, n=4, method="inclusive")
            wins = sum((a < b) if better == "lower" else (a > b) for a, b in zip(after, before))
            metrics[name] = {
                "before": before, "after": after,
                "before_median": statistics.median(before),
                "after_median": statistics.median(after),
                "before_iqr": q3 - q1,
                "change": statistics.median(after) / statistics.median(before) - 1.0,
                "pairs_better": f"{wins} of {len(before)}",
            }
        result[workload] = {"seeds": [args.first_seed, args.first_seed + args.pairs - 1],
                            "metrics": metrics}
    return result


def per_layer(args) -> dict:
    result = {}
    for workload in args.workloads:
        runs = _alternate(args, workload, [1] * TRACED_RUNS, 1)
        result[workload] = {
            side: {"runs": side_runs,
                   "median": {name: statistics.median(r[name] for r in side_runs)
                              for name in side_runs[0]}}
            for side, side_runs in runs.items()
        }
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--before", type=Path, required=True)
    parser.add_argument("--after", type=Path, required=True)
    parser.add_argument("--topic", required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workloads", nargs="+",
                        default=["simulate_iid", "select_wide", "simulate_nerm"])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--first-seed", type=int, default=501)
    parser.add_argument("--profile-passes", type=int, default=20)
    args = parser.parse_args(argv)
    args.before, args.after = args.before.resolve(), args.after.resolve()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["better"] for m in spec["end_to_end"]}

    import numpy
    import scipy

    report = {
        "topic": args.topic,
        "command": (f"python3 tools/bench_compare.py --before PARENT --after CHANGE "
                    f"--pairs {args.pairs} --seconds {args.seconds} "
                    f"--first-seed {args.first_seed} --profile-passes {args.profile_passes} "
                    f"--workloads {' '.join(args.workloads)}"),
        "machine": {
            "cores": os.cpu_count(),
            "usable_cores": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas_threads": 1,
            "workers": 1,
        },
        "end_to_end": end_to_end(args, declared),
        "per_layer": per_layer(args),
        "profile": {
            workload: {side: _run(getattr(args, side),
                                  ["-c", f"import json\nNAME = {workload!r}\n"
                                   f"PASSES = {args.profile_passes}\n" + PROFILE])
                       for side in ("before", "after")}
            for workload in args.workloads
        },
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
