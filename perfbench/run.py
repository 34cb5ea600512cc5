#!/usr/bin/env python3
"""Builds the perfbench driver from this checkout and runs one workload.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload <olap_tpch|outofcore|app_durable>
                             --seed <n> --seconds <s> --trace <0|1>

The engine library is built by the repository's own CMakeLists.txt
(through perfbench/CMakeLists.txt) into .bench_build/. Database, WAL and
spill files go to a per-run directory under .bench_build/scratch/ that is
removed afterwards; traced runs leave their spans in
.bench_build/traces/<workload>-seed<n>.csv. The last line of standard
output is the driver's JSON result; build output goes to standard error.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("olap_tpch", "outofcore", "app_durable")
RUN_TIMEOUT_S = 170


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("perfbench: no engine sources next to perfbench/ "
                 "(CMakeLists.txt and src/ are missing); nothing to build")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "perfbench")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as err:
        sys.exit(f"perfbench: build failed: {err}")

    scratch = os.path.join(ROOT, ".bench_build", "scratch",
                           f"{args.workload}-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scratch", scratch]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, f"{args.workload}-seed{args.seed}.csv")]
    try:
        # run() kills the child on timeout and waits for it to end.
        done = subprocess.run(command, stdout=subprocess.PIPE, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    sys.stdout.write(done.stdout.decode())
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
