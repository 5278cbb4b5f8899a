#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs one workload several times, each with another seed, and prints per
end-to-end metric the median and the spread (distance between the first
and third quartile, as statistics.quantiles(values, n=4) gives them, as a
share of the median) next to the bound BENCHMARK.json fixes.

    python3 axbench/steady.py --workload fig1_exchange --runs 10
    python3 axbench/steady.py --workload bulk_feed --runs 5 --bin .bench_build/release/axbench

Run from the repository root. Without --bin it runs BENCHMARK.json's
command (building the benchmark on first use).
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", default="0")
    ap.add_argument("--bin", help="run this built benchmark binary directly")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    command = [args.bin] if args.bin else spec["command"]
    metrics = spec["end_to_end"] if args.trace == "0" else spec["per_layer"]

    values = {m["name"]: [] for m in metrics}
    for i in range(args.runs):
        seed = args.first_seed + i
        began = time.monotonic()
        out = subprocess.run(
            command
            + ["--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", args.trace],
            capture_output=True, text=True, check=False,
        )
        wall = time.monotonic() - began
        lines = out.stdout.strip().splitlines()
        diag = [l for l in lines if l.startswith("#")]
        if out.returncode != 0 or not lines:
            print(out.stdout, out.stderr, file=sys.stderr)
            sys.exit(f"run with seed {seed} failed (exit {out.returncode})")
        result = json.loads(lines[-1])
        steal = next((l for l in diag if "host steal" in l), "")
        print(f"seed {seed}: {wall:.1f} s wall, correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} | {steal.strip('# ')}")
        for name in values:
            values[name].append(result["metrics"][name]["value"])

    print(f"\n{args.workload}: {args.runs} runs of {seconds} s")
    print(f"{'metric':32} {'median':>14} {'spread':>8} {'bound':>6}  values")
    for m in metrics:
        v = values[m["name"]]
        med = statistics.median(v)
        if len(v) >= 2 and med:
            q = statistics.quantiles(v, n=4)
            spread = (q[2] - q[0]) / abs(med)
        else:
            spread = 0.0
        bound = m.get("bound")
        flag = ""
        if bound is not None and m["name"] != "setup_s" and spread > bound / 3:
            flag = "  <-- above a third of the bound"
        print(f"{m['name']:32} {med:14.4f} {spread:8.3f} {str(bound or ''):>6}  "
              f"{', '.join(f'{x:.4g}' for x in v)}{flag}")


if __name__ == "__main__":
    main()
