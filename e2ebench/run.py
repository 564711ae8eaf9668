#!/usr/bin/env python3
"""Build the end-to-end benchmark from source and run one workload.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of the repository. The benchmark is a Cargo package of
its own (e2ebench/Cargo.toml) that depends on the engine crates by path;
it is built in release mode into $CARGO_TARGET_DIR (default
e2ebench/target). The last line of standard output is the result JSON
printed by the benchmark binary; build output goes to standard error. With
--trace 1 the spans are written to <target>/e2ebench-spans/.

BENCHMARK.json gates local-mix and mirror-fleet. threaded-corrective runs
the same way but is not gated: on a 2-vCPU shared host its latency moves
by 40% with the host's load, more than any bound allows. Give it
--seconds 75 or more for a hundred queries per run.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["local-mix", "mirror-fleet", "threaded-corrective"]
# Each run must end within 180 s; leave the build and start-up some room.
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        ap.error("--seed must be >= 0 and --seconds in 1..120")

    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("e2ebench: build failed", file=sys.stderr)
        return 1

    cmd = [
        os.path.join(target, "release", "e2ebench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.trace:
        spans = os.path.join(target, "e2ebench-spans", f"{args.workload}-seed{args.seed}.jsonl")
        cmd += ["--spans", spans]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        # subprocess.run kills and reaps the child before raising.
        print(f"e2ebench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
