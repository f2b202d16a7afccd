#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workload <name> [--seeds 1,2,3,4,5]
                                [--seconds 20] [--trace 0] [--warmup 0]

Runs perfbench/run.py once per seed and prints, for every metric, its
median over the runs and the distance between the first and third
quartile (statistics.quantiles(values, n=4)) as a share of that median.
--warmup N first makes N discarded runs: on a shared VM the clock of a
host that was idle runs fast for the first half minute of load.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1,2,3,4,5")
    ap.add_argument("--seconds", default="20")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--warmup", type=int, default=0)
    args = ap.parse_args()

    values = {}
    failures = 0
    seeds = args.seeds.split(",")
    for i, seed in enumerate(["0"] * args.warmup + seeds):
        warmup = i < args.warmup
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed",
             seed, "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True, check=False)
        if warmup:
            continue
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-2000:])
            print(f"seed {seed}: exit {proc.returncode}")
            failures += 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              + json.dumps({k: v["value"] for k, v in result["metrics"].items()}))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print(f"{'metric':32} {'median':>14} {'iqr/median':>11}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        rel = (q3 - q1) / med if med else float("nan")
        print(f"{name:32} {med:14.6g} {rel:11.4f}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
