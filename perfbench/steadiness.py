#!/usr/bin/env python3
"""Steadiness report: runs the benchmark several times per workload, each
time with another seed, and reports for every metric the median, the
quartiles, the spread (interquartile distance over the median) and the
run count, with the host's core count and CPU model.

    python3 perfbench/steadiness.py [--runs 10] [--seconds 20] [--trace 0]
        [--out perfbench/out/steadiness.json]

Run from the repository root. Every workload of run.py runs on seeds
1..runs. Bounds in BENCHMARK.json are set from this report: each
end-to-end spread should sit below a third of its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
from run import WORKLOADS  # noqa: E402


def host():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cores": os.cpu_count(), "cpu_model": model}


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    med = statistics.median(values)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(med) if med else float("inf"),
        "runs": len(values),
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", default=os.path.join("perfbench", "out", "steadiness.json"))
    args = ap.parse_args()

    report = {"host": host(), "seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for w in WORKLOADS:
        values, correct, failed_share = {}, [], set()
        for seed in range(1, args.runs + 1):
            r = run_once(w, seed, args.seconds, args.trace)
            correct.append(r["correct"])
            failed_share.add(r["failed"] / r["attempted"])
            for name, m in r["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()), file=sys.stderr)
        report["workloads"][w] = {
            "all_correct": all(correct),
            "failed_shares": sorted(failed_share),
            "metrics": {k: summarize(v) for k, v in values.items()},
        }
        for k, s in report["workloads"][w]["metrics"].items():
            print(f"{w:12s} {k:36s} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  spread {100 * s['spread']:.2f}%  n={s['runs']}")
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(report, f, indent=2)
    print(f"report written to {args.out}", file=sys.stderr)


if __name__ == "__main__":
    main()
