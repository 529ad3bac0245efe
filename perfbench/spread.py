#!/usr/bin/env python3
"""Run workloads repeatedly and print each metric's median and quartile spread.

    python3 perfbench/spread.py [--workloads sweep,plan,...] [--runs 10] \
        [--first-seed 1] [--seconds S] [--trace 0|1] [--json OUT]

Run from the repository root. Each run is `run.py` with the next seed. For
every metric the table shows the median, the first and third quartiles
(`statistics.quantiles(values, n=4)`), and the spread: the distance between
the quartiles as a share of the median. With `--trace 0` it also shows the
metric's bound from `BENCHMARK.json` and whether the spread is below a third
of it, the margin the benchmark is tuned to. `--json OUT` writes every run's
values.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="write every run's values here")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    record = {}
    for workload in args.workloads.split(","):
        values = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = [
                sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", repr(args.seconds),
                "--trace", str(args.trace),
            ]
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
            if done.returncode != 0:
                sys.exit(f"spread: {workload} seed {seed} exited with {done.returncode}")
            result = json.loads(done.stdout.splitlines()[-1])
            if not result["correct"]:
                print(f"spread: {workload} seed {seed} reported incorrect output", file=sys.stderr)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"  {workload} seed {seed}: " + " ".join(
                f"{n}={m['value']:.4g}" for n, m in sorted(result["metrics"].items())),
                file=sys.stderr)
        record[workload] = values
        print(f"\n{workload} ({args.runs} runs, {args.seconds:g} s each)")
        print(f"  {'metric':40} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name in sorted(values):
            v = values[name]
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], 0, v[0])
            spread = (q3 - q1) / abs(med) if med else 0.0
            bound = bounds.get(name)
            verdict = ""
            if bound is not None and args.trace == 0:
                verdict = "ok" if spread < bound / 3 or name == "setup_s" else "WIDE"
                bound = f"{bound:g}"
            print(f"  {name:40} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.4f} "
                  f"{bound or '':>6} {verdict}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(record, f, indent=1)


if __name__ == "__main__":
    main()
