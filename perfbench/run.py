#!/usr/bin/env python3
"""Builds the benchmark from source and runs it.

    python3 perfbench/run.py --workload trace_mix|fleet_scale|paper_eval \
        --seed N --seconds S --trace 0|1

Run from the repository root. Each workload runs in its own process on
one thread; the last line of stdout is the run's JSON result. Without
--workload, the three workloads run one after another, each in its own
process, and each prints its own result line.

The build goes to $CARGO_TARGET_DIR (default: .bench_build). The
workload processes are pinned to the highest-numbered CPU this process
may use: a run that moves between cores measures both cores' neighbours.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["trace_mix", "fleet_scale", "paper_eval"]


def build():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    # Cargo's progress goes to stderr; stdout stays the result channel.
    done = subprocess.run(cmd, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(target, "release", "perfbench")


def main(argv):
    binary = build()
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if "--workload" in argv:
        runs = [argv]
    else:
        runs = [["--workload", w] + argv for w in WORKLOADS]
    for args in runs:
        done = subprocess.run([binary] + args)
        if done.returncode != 0:
            sys.exit(done.returncode)


if __name__ == "__main__":
    main(sys.argv[1:])
