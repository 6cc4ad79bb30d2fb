#!/usr/bin/env python3
"""bsbshaper benchmark: one workload per run, end-to-end or traced.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload figures-64k --seed 1 --seconds 35 --trace 0

Workloads (see workloads.py and BENCHMARK.json for why each exists):
figures-64k, design-sweep-4k, ftsi-roundtrip-16k.

With ``--trace 0`` the run times ops for ``--seconds`` seconds, in whole
groups so every run has the same op mix, and reports the end-to-end metrics;
set-up is measured separately in fresh interpreters.  With ``--trace 1`` a
fixed list of ops runs once untraced and once traced, and the per-layer
metrics are reported.  Every op's outputs are checked; a failed check or an
exception counts as a failed op.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

The program runs single-threaded: BLAS/OpenMP thread counts are pinned to 1
before numpy is imported.  The package is imported from ``src/`` of the
checkout this file sits in; the run fails if it is not there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOAD_NAMES = ("figures-64k", "design-sweep-4k", "ftsi-roundtrip-16k")
SETUP_PROBES = 9
WARMUP_S = 2.0  # untimed ops first: the first seconds of a process run slower
# ops in a traced run: fixed, so every count repeats exactly between runs
TRACED_OPS = {"figures-64k": 4, "design-sweep-4k": 900, "ftsi-roundtrip-16k": 4}
# The shared host alternates between a contended state and bursts up to ~2x
# faster.  Op times are bimodal, so the mean (ops_per_s) and the median move
# with the share of fast bursts in a run: 12-35% run to run.  The p90 lies in
# the contended state and repeats within 5-10%, so it is the bounded metric;
# ops_per_s and op_p50_ms are reported beside it, unbounded.
TAIL_PERCENTILE = 90


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small grids and op lists, for the benchmark's self-test")
    ap.add_argument("--setup-probe", action="store_true",
                    help="internal: set up once, print the clock when ready, exit")
    return ap.parse_args(argv)


def import_program():
    """Import the package from src/ and the benchmark modules; returns (start, end)."""
    start = time.perf_counter()
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    if HERE not in sys.path:
        sys.path.insert(0, HERE)
    import numpy  # noqa: F401
    import bsbshaper  # noqa: F401
    import tracer  # noqa: F401
    import workloads  # noqa: F401
    return start, time.perf_counter()


def make_workload(args):
    import workloads
    workdir = os.path.relpath(os.path.join(OUT, "work"))
    os.makedirs(workdir, exist_ok=True)
    return workloads.WORKLOADS[args.workload](args.seed, args.tiny, workdir)


def measure_setup(args) -> list[float]:
    """Seconds from launching a fresh interpreter to its first op being ready."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)] + (["--tiny"] * args.tiny)
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        # perf_counter is CLOCK_MONOTONIC, shared by every process on the host
        times.append(float(done.stdout.strip().splitlines()[-1]) - start)
    return times


def run_op(wl, i, spans=None):
    """Prepare, time and check op i; returns (seconds, facts, error or None)."""
    import workloads
    arg = wl.prepare(i)
    try:
        span = spans.open("bench.op") if spans else None
        start = time.perf_counter()
        try:
            out = wl.run(arg)
        except Exception as exc:  # a failed op is counted, not fatal
            return time.perf_counter() - start, {}, f"op {i}: {type(exc).__name__}: {exc}"
        finally:
            elapsed = spans.close(span) if spans else time.perf_counter() - start
        try:
            return elapsed, wl.check(arg, out), None
        except workloads.CheckFailed as exc:
            return elapsed, {}, f"op {i}: check failed: {exc}"
    finally:
        wl.cleanup(arg)


def percentile(values, p):
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def environment(args) -> dict:
    import numpy
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30)
        commit = done.stdout.strip() or commit
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
    }


def report(name, value, unit, note=""):
    print(f"{name} {value!r} {unit}{'  ' + note if note else ''}")


def warm_up(wl, seconds) -> tuple[int, list[str]]:
    """Run untimed ops from op 0 for `seconds`; returns (ops run, errors)."""
    errors, i = [], 0
    until = time.perf_counter() + min(WARMUP_S, seconds)
    while time.perf_counter() < until:
        error = run_op(wl, i)[2]
        if error:
            errors.append(error)
        i += 1
    return i, errors


def run_timed(args):
    setup_times = measure_setup(args)
    import_program()
    wl = make_workload(args)
    durations = []
    warmup_ops, errors = warm_up(wl, args.seconds)
    i = warmup_ops
    deadline = time.perf_counter() + args.seconds
    # whole groups of ops, so every run times the same mix of op kinds
    while len(durations) % wl.group or time.perf_counter() < deadline:
        elapsed, _, error = run_op(wl, i)
        durations.append(elapsed)
        if error:
            errors.append(error)
        i += 1
    metrics = {
        "op_p90_ms": percentile(durations, TAIL_PERCENTILE) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup_times),
    }
    notes = {"op_p90_ms": f"(of {len(durations)} timed ops after {warmup_ops} warm-up ops, "
                          f"{len(durations) // 10} beyond it)",
             "setup_s": f"(median of {len(setup_times)} fresh interpreters)"}
    units = metric_units("end_to_end")
    for name in units:
        report(name, metrics[name], units[name], notes.get(name, ""))
    # not bounded: they move with the host's fast bursts (see TAIL_PERCENTILE)
    report("ops_per_s", len(durations) / sum(durations), "1/s")
    report("op_p50_ms", statistics.median(durations) * 1e3, "ms")
    report("failed_frac", len(errors) / i, "frac")
    return i, errors, {k: {"value": metrics[k], "unit": u} for k, u in units.items()}


def run_traced(args):
    import_start, import_end = import_program()
    import tracer as tracing
    tracer = tracing.Tracer()
    setup_span = tracer.open("setup", start=import_start)
    tracer.add("setup.import", import_start, import_end)
    tracer.install()
    try:
        wl = make_workload(args)
    finally:
        tracer.uninstall()
        tracer.close(setup_span)

    n_ops = 2 * wl.group if args.tiny else TRACED_OPS[args.workload]
    warm_up(wl, args.seconds)  # so neither pass pays first-call costs
    untraced = sum(run_op(wl, i)[0] for i in range(n_ops))
    traced, errors = 0.0, []
    tracer.install()
    try:
        for i in range(n_ops):
            elapsed, facts, error = run_op(wl, i, tracer)
            traced += elapsed
            tracer.counters.update(facts)
            if error:
                errors.append(error)
    finally:
        tracer.uninstall()

    metrics = tracer.metrics()
    metrics["trace.overhead_frac"] = traced / untraced - 1
    self_sum = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    print(f"# self-time sum {self_sum!r} s over {len(tracer.spans)} spans; "
          f"traced wall {metrics['trace.wall_s']!r} s")
    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.csv")
    tracer.write(spans_path)
    print(f"# spans written to {os.path.relpath(spans_path)}")
    units = metric_units("per_layer")
    for name in units:
        report(name, metrics[name], units[name], f"-> {tracing.LAYER_MAP[name]}")
    return n_ops, errors, {k: {"value": metrics[k], "unit": u} for k, u in units.items()}


def metric_units(kind) -> dict:
    """Name -> unit of the "end_to_end" or "per_layer" metrics in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "bsbshaper", "__init__.py")):
        print(f"error: no bsbshaper package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        import_program()
        make_workload(args)
        print(repr(time.perf_counter()))
        return 0

    attempted, errors, metrics = (run_traced if args.trace else run_timed)(args)
    print("# env " + json.dumps(environment(args), sort_keys=True))
    for error in errors[:5]:
        print(f"# FAILED {error}", file=sys.stderr)
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": len(errors),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
