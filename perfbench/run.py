#!/usr/bin/env python3
"""Benchmark of bmlselect.

Run from the repository root:

    python3 perfbench/run.py --workload select_wide --seed 1 --seconds 30 --trace 0

``--trace 0`` times whole single-worker passes of the workload for
``--seconds`` seconds with tracing off and prints the end-to-end metrics.  ``--trace 1`` runs
traced single-worker passes and prints the per-layer metrics.  Every pass
is checked for correctness; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--smoke`` shrinks every workload to a few seconds' work.
The program is imported from ``src/`` of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "expected.json"

BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
WORKLOAD_NAMES = ("select_wide", "simulate_iid", "simulate_nerm")
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
SETUP_PROBES = 2
# No pass starts once it could end after this many seconds of the run.
RUN_BUDGET_S = 140.0


class SetupError(Exception):
    """The benchmark cannot run here: the program is missing or a probe failed."""


def pin_environment() -> int:
    """One BLAS thread per process and no worker cap from the environment.

    Must run before numpy is imported.  Returns the usable core count.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("BMLSELECT_THREADS", None)
    return len(os.sched_getaffinity(0))


def import_program():
    """Import bmlselect from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "bmlselect" / "__init__.py").is_file():
        raise SetupError(f"no bmlselect sources under {src}")
    sys.path.insert(0, str(src))
    import bmlselect

    if Path(bmlselect.__file__).resolve().parent != (src / "bmlselect").resolve():
        raise SetupError(f"imported bmlselect from {bmlselect.__file__}, not {src}")
    return bmlselect


def load_pins(workload: str, seed: int, size_label: str) -> dict | None:
    if not PINS.is_file():
        return None
    pins = json.loads(PINS.read_text())
    if seed != pins["seed"]:
        return None
    return pins.get(workload, {}).get(size_label)


def environment(nproc: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level} {kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "caches": caches,
        "machine": platform.machine(),
    }


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def probe_setup(args) -> tuple[float, float]:
    """Set-up time of a fresh process and the time of one calibration mix
    right after it, both measured inside that process."""
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", "0",
        "--setup-probe",
    ] + (["--smoke"] if args.smoke else [])
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise SetupError(f"set-up probe failed:\n{proc.stderr}")
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    return probe["setup_s"], probe["mix_s"]


class Runner:
    """Times and checks passes of one workload and keeps the tally."""

    def __init__(self, workload, started: float):
        self.workload = workload
        self.started = started
        self.attempted = 0
        self.failed = 0

    def budget_left(self, last_wall: float) -> bool:
        return time.perf_counter() - self.started + last_wall < RUN_BUDGET_S

    def run(self, workers: int, label: str, extra_check=None):
        """One timed pass; returns (wall seconds, passed)."""
        self.attempted += 1
        # Start every pass with the garbage of the last one collected.
        gc.collect()
        t0 = time.perf_counter()
        try:
            output = self.workload.run_pass(workers)
        except Exception:
            wall = time.perf_counter() - t0
            traceback.print_exc()
            self.failed += 1
            print(f"pass {self.attempted} ({label}) FAILED: raised", file=sys.stderr)
            return wall, False
        wall = time.perf_counter() - t0
        errors = self.workload.check(output, self.attempted)
        if extra_check is not None:
            errors += extra_check()
        if errors:
            self.failed += 1
            print(f"pass {self.attempted} ({label}) FAILED correctness check:", file=sys.stderr)
            for err in errors:
                print(f"  {err}", file=sys.stderr)
        return wall, not errors


def measure_end_to_end(args, runner, setup_s) -> dict:
    """Closed loop of single-worker passes, each followed by a calibration mix.

    One worker keeps the load to one process: on a machine of a few cores a
    pool of nproc workers plus its parent times the scheduler as much as the
    program.  The pool path is timed in the traced run instead.  The pass
    times are rescaled by the speed the mix measured around them (see
    calibration.py); the raw times are printed beside the rescaled ones.
    """
    import calibration

    mix = calibration.Mix()
    mix_walls = [mix.time()]
    walls = []
    ok_walls = []
    while True:
        wall, ok = runner.run(1, "workers=1")
        walls.append(wall)
        if ok:
            ok_walls.append(wall)
        mix_walls.append(mix.time())
        elapsed = time.perf_counter() - runner.started
        if len(walls) >= MIN_PASSES and elapsed >= args.seconds:
            break
        if not runner.budget_left(wall + mix_walls[-1]):
            break
    rss = peak_rss_mb()
    setups = [(setup_s, mix_walls[0])] + [probe_setup(args) for _ in range(SETUP_PROBES)]

    timed = ok_walls or walls
    q1, wall, q3 = quartiles(timed)
    scored = runner.workload.candidates_per_pass * len(timed)
    mean_mix = statistics.fmean(mix_walls)
    speed = calibration.NOMINAL_S / mean_mix
    norm_wall = statistics.fmean(timed) * speed
    norm_throughput = scored / (sum(timed) * speed)
    setup_samples = [s * calibration.NOMINAL_S / m for s, m in setups]
    s1, setup, s3 = quartiles(setup_samples)
    raw_setup = statistics.median(s for s, _ in setups)
    print(f"wall_s (raw) = {wall:.6g} s  (median of {len(timed)} passes; "
          f"quartiles {q1:.6g}, {q3:.6g}; fastest {min(timed):.6g})")
    print(f"candidates_per_s (raw) = {scored / sum(timed):.6g} 1/s  "
          f"({scored} candidates in {sum(timed):.6g} s)")
    print(f"calibration mix: mean {mean_mix:.6g} s over {len(mix_walls)} mixes "
          f"(nominal {calibration.NOMINAL_S} s); speed factor {speed:.6g}")
    print(f"norm_wall_s = {norm_wall:.6g} s  (mean pass wall x speed factor)")
    print(f"norm_candidates_per_s = {norm_throughput:.6g} 1/s  "
          f"(candidates / (pass wall x speed factor))")
    print(f"setup_s = {setup:.6g} s  (median of {len(setup_samples)} set-ups, each x the speed "
          f"factor of a mix timed right after it; quartiles {s1:.6g}, {s3:.6g}; "
          f"raw median {raw_setup:.6g} s)")
    print(f"peak_rss_mb = {rss:.6g} MB  (own peak + largest child peak, before the set-up probes)")
    print(f"failed_frac = {runner.failed}/{runner.attempted} passes")
    return {
        "norm_wall_s": {"value": norm_wall, "unit": "s"},
        "norm_candidates_per_s": {"value": norm_throughput, "unit": "1/s"},
        "setup_s": {"value": setup, "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }


LAYER_UNITS = {
    "covariance.phi_profile.ms": "ms",
    "covariance.phi_profile.calls": "count",
    "covariance.phi_profile.evals_per_call": "count",
    "covariance.lambda.ms": "ms",
    "covariance.lambda.calls": "count",
    "covariance.lambda.at_bound_frac": "ratio",
    "model_core.whiten.ms": "ms",
    "model_core.gls_fit.ms": "ms",
    "model_core.gls_fit.calls": "count",
    "model_core.factorizations_per_candidate": "count",
    "criteria.score.ms": "ms",
    "criteria.score.calls": "count",
    "criteria.dic.ms": "ms",
    "selection.score_candidates.ms": "ms",
    "selection.self_ms": "ms",
    "selection.report.ms": "ms",
    "selection.excluded_frac": "ratio",
    "simulation.generate_dataset.ms": "ms",
    "simulation.replication_ms.p50": "ms",
    "simulation.replication_ms.p90": "ms",
    "simulation.parallel_efficiency": "ratio",
    "cli.self_ms": "ms",
    "cli.output_bytes": "bytes",
    "trace.overhead_frac": "ratio",
}


def measure_layers(args, runner, nproc) -> dict:
    import spans

    wl = runner.workload
    untraced_1, _ = runner.run(1, "untraced, workers=1")

    traced_walls = []
    passes = []  # (values, exact counts, per-n split) of each checked traced pass
    with spans.Tracer() as tracer:
        spans.instrument(tracer)

        def summarize():
            values, exact, by_n = spans.summarize_pass(tracer)
            exact["cli.output_bytes"] = wl.output_bytes
            passes.append((values, exact, by_n))
            first = passes[0][1]
            diff = sorted(k for k in exact.keys() | first.keys() if exact.get(k) != first.get(k))
            return [f"exact counts differ from the first traced pass: {diff}"] if diff else []

        while True:
            tracer.reset()
            wall, _ = runner.run(1, "traced, workers=1", extra_check=summarize)
            traced_walls.append(wall)
            elapsed = time.perf_counter() - runner.started
            if len(traced_walls) >= MIN_TRACED_PASSES and elapsed >= args.seconds:
                break
            if not runner.budget_left(wall):
                break
    spans_path = ROOT / ".bench_build" / "perfbench" / f"spans-{args.workload}-{args.seed}.json"
    spans.write_spans(tracer, spans_path)

    efficiency = 0.0
    if args.workload != "select_wide":
        untraced_n, _ = runner.run(nproc, f"untraced, workers={nproc}")
        efficiency = untraced_1 / (nproc * untraced_n)

    values = {}
    exact, by_n = {}, {}
    if passes:
        values = {
            name: float(statistics.median(p[0][name] for p in passes)) for name in passes[0][0]
        }
        exact, by_n = passes[0][1], passes[0][2]
    values["simulation.parallel_efficiency"] = efficiency
    values["cli.output_bytes"] = wl.output_bytes
    traced = statistics.median(traced_walls)
    values["trace.overhead_frac"] = (traced - untraced_1) / untraced_1

    print(f"traced passes: {len(traced_walls)}; traced wall median {traced:.6g} s, "
          f"untraced workers=1 wall {untraced_1:.6g} s; last pass's spans in {spans_path}")
    print("exact counts per pass: " + json.dumps(exact, sort_keys=True))
    for n in sorted(by_n):
        split = ", ".join(f"{k} {v:.4g}" for k, v in sorted(by_n[n].items()))
        print(f"per-replication ms at n={n}: {split}")
    metrics = {}
    for name, unit in LAYER_UNITS.items():
        value = values.get(name, 0.0)
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name} = {value:.6g} {unit}")
    print(f"failed_frac = {runner.failed}/{runner.attempted} passes")
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    nproc = pin_environment()
    workdir = ROOT / ".bench_build" / "perfbench" / f"{args.workload}-{os.getpid()}"
    try:
        import_program()
        import workloads

        cls = workloads.WORKLOADS[args.workload]
        size_label = "smoke" if args.smoke else "full"
        workdir.mkdir(parents=True, exist_ok=True)
        wl = cls(args.seed, getattr(cls, size_label.upper()),
                 workdir, load_pins(args.workload, args.seed, size_label))
        (workdir / "warm-up").mkdir()
        # Timed passes use one worker; the traced run also times nproc workers.
        warm_workers = nproc if args.trace else 1
        cls(args.seed, cls.SMOKE, workdir / "warm-up", None).run_pass(warm_workers)
        setup_s = time.perf_counter() - started
        if args.setup_probe:
            import calibration

            print(json.dumps({"setup_s": setup_s, "mix_s": calibration.Mix().time()}))
            return 0

        print("env: " + json.dumps(environment(nproc), sort_keys=True))
        print(f"workload {args.workload} ({size_label}), seed {args.seed}, nproc {nproc}")
        runner = Runner(wl, time.perf_counter())
        if args.trace:
            metrics = measure_layers(args, runner, nproc)
        else:
            metrics = measure_end_to_end(args, runner, setup_s)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
