#!/usr/bin/env python3
"""Entry point of the benchmark: build `perfbench` from source and run one workload.

    python3 perfbench/run.py --workload <sweep|plan|serve_hot|serve_cold> \
        --seed N --seconds S --trace <0|1>

Run from the repository root. The package is built in release mode into
`$CARGO_TARGET_DIR` (default `.bench_build`). With `--trace 0` the workload's
set-up is also timed in four set-up-only processes and `setup_s` reports the
median of those four and the measuring run's own set-up. The last line of
standard output is the result object: `correct`, `attempted`, `failed` and
`metrics`; the line before it carries placement, sample counts and the
set-up samples. Exits nonzero without a result when the build or the run
fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("sweep", "plan", "serve_hot", "serve_cold")
SETUP_PROBES = 4
# Every run must finish within this many seconds of the build completing.
RUN_BUDGET_S = 170.0


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        # Cargo's own output goes to stderr; stdout is reserved for results.
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stdin=subprocess.DEVNULL)
    except OSError as e:
        fail(f"cannot run cargo: {e}")
    if done.returncode != 0:
        fail("build failed")
    return os.path.join(os.path.abspath(target), "release", "perfbench")


def run_binary(binary, args, deadline):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        fail("out of time budget")
    try:
        done = subprocess.run(
            [binary] + args,
            stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        fail("run exceeded its time budget")
    if done.returncode != 0:
        fail(f"{' '.join(args)} exited with {done.returncode}")
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    if not lines:
        fail("no output")
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    binary = build()
    deadline = time.monotonic() + RUN_BUDGET_S
    base = ["--workload", args.workload, "--seed", str(args.seed)]

    setup_samples = []
    if args.trace == 0:
        for _ in range(SETUP_PROBES):
            probe = json.loads(run_binary(binary, base + ["--setup-only"], deadline)[-1])
            setup_samples.append(probe["setup_s"])

    lines = run_binary(
        binary,
        base + ["--seconds", repr(args.seconds), "--trace", str(args.trace)],
        deadline,
    )
    result = json.loads(lines[-1])
    info = json.loads(lines[-2])["info"] if len(lines) >= 2 else {}
    if args.trace == 0:
        setup_samples.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setup_samples)
        info["setup_samples_s"] = " ".join(f"{s:.4f}" for s in setup_samples)
    print(json.dumps({"info": info}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
