#!/usr/bin/env python3
"""Steadiness check for VaultBench.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--seconds 10]
                                [--workload <name> ...]

Run from the repository root.  Runs each workload --runs times through
perfbench/run.py, one process per run and another seed each time, and
prints per end-to-end metric the median and the interquartile spread
(Q3 - Q1 over the median, from statistics.quantiles(n=4)) next to the
metric's bound in BENCHMARK.json, plus the failed share of operations.
Per-run results are appended to .bench_build/steady.jsonl.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: run failed (exit {done.returncode})")
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--workload", action="append",
                    help="any workload run.py knows; default: those in BENCHMARK.json")
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    log_path = os.path.join(ROOT, ".bench_build", "steady.jsonl")

    ok = True
    for workload in workloads:
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            res = run_once(workload, seed, args.seconds)
            results.append(res)
            with open(log_path, "a") as log:
                log.write(json.dumps({"workload": workload, "seed": seed,
                                      "result": res}) + "\n")
        shares = {r["failed"] / r["attempted"] for r in results}
        correct = all(r["correct"] for r in results)
        print(f"{workload}: {args.runs} runs, correct={correct}, "
              f"failed share={sorted(shares)}")
        ok = ok and correct and len(shares) == 1
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "ok" if spread <= m["bound"] / 3 else "WIDE"
            if spread > m["bound"]:
                flag = "OVER"
                ok = False
            print(f"  {m['name']:18s} median {med:14.6g} {m['unit']:5s} "
                  f"spread {spread:7.2%}  bound {m['bound']:.0%}  {flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
