#!/usr/bin/env python3
"""Build and run one VaultBench workload.

    python3 perfbench/run.py --workload <zipf-read|uniform-read|drift-maintain|vault-miss> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Configures and builds the `vaultbench`
program (and the gv library from ../src) in .bench_build/ with CMake, then
runs it.  Build output goes to stderr; the program's last stdout line is the
run's JSON result.  With --trace 1 the run's spans are written to
.bench_build/traces/<workload>-seed<n>.json.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("zipf-read", "uniform-read", "drift-maintain", "vault-miss")


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "vaultbench", "-j", jobs],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("vaultbench: build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "vaultbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    exe = build()
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    done = subprocess.run(cmd)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
