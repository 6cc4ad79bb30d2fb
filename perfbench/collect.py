#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise the spread of each metric.

Usage, from the root of a source checkout:

    python3 perfbench/collect.py --workload design-sweep-4k --seeds 1-10 \
        [--seconds 20] [--trace 0] [--out summary.json]

For each metric it prints the median, the quartiles from
statistics.quantiles(values, n=4), and the spread: the distance between the
quartiles as a share of the median.  For end-to-end metrics the spread is
compared with a third of the bound in BENCHMARK.json.  Runs are sequential.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None, help="write the summary and every run as JSON")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs, env = [], None
    for seed in args.seeds:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(done.stderr, file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        env = json.loads(next(line[6:] for line in lines if line.startswith("# env ")))
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)

    summary = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        spread = (q3 - q1) / median if median else 0.0
        summary[name] = {"unit": first["unit"], "median": median, "q1": q1, "q3": q3,
                         "spread": spread}
        limit = bounds.get(name)
        verdict = "" if limit is None else (
            f"  bound {limit}: {'ok' if spread < limit / 3 else 'WIDER than bound/3'}")
        print(f"{name:32s} median {median:.6g} {first['unit']}  q1 {q1:.6g}  q3 {q3:.6g}  "
              f"spread {spread:.4f}{verdict}")
    if args.out:
        env.pop("seed", None)
        with open(args.out, "w") as fh:
            json.dump({"workload": args.workload, "trace": args.trace, "seconds": seconds,
                       "env": env, "summary": summary, "runs": runs}, fh, indent=1)
            fh.write("\n")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
