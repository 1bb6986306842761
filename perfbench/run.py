#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of dbpedia-pps, cddb-pbs, or `all` to run
every workload in turn. The benchmark is compiled into `.bench_build/` at
the repository root on first use (about a minute on 4 cores); later runs
only relink what changed. Build output goes to stderr, so the last line
of stdout is the benchmark's JSON result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--self-test` builds and runs the benchmark's own test instead.

Exit codes: 0 correct, 1 build failure, timeout or a wrong stream,
2 bad flags.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("dbpedia-pps", "cddb-pbs")
# One run must end within 180 s; leave room for start-up and teardown.
RUN_TIMEOUT_S = 175


def whole_number(lo, hi):
    def parse(text):
        if not text.isascii() or not text.isdigit():
            raise argparse.ArgumentTypeError(f"'{text}' is not a whole number")
        value = int(text)
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError(f"{value} is not in [{lo}, {hi}]")
        return value
    return parse


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", allow_abbrev=False,
        description="Build and run the sper benchmark.")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=whole_number(0, 2**64 - 1), default=7)
    parser.add_argument("--seconds", type=whole_number(1, 3600), default=30)
    parser.add_argument("--trace", type=whole_number(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if args.workload is None and not args.self_test:
        parser.error("--workload is required")
    return args


def build(targets):
    """Configures and builds `targets`; output goes to stderr."""
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "-j4", "--target", *targets]]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            print(f"perfbench: build step failed: {' '.join(step)}",
                  file=sys.stderr)
            return False
    return True


def run_binary(command, timeout_s, capture):
    """Runs the benchmark binary; kills it, and waits, past `timeout_s`."""
    proc = subprocess.Popen(command, cwd=ROOT,
                            stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"perfbench: timed out after {timeout_s} s", file=sys.stderr)
        return None, ""
    return proc.returncode, out.decode() if capture else ""


def run_workload(args, workload, capture, deadline):
    command = [os.path.join(BUILD, "sper_perfbench"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--trace-dir", os.path.join(BUILD, "trace")]
    return run_binary(command, max(1, int(deadline - time.monotonic())),
                      capture)


def main(argv):
    args = parse_args(argv)
    if args.self_test:
        if not build(["perfbench_test"]):
            return 1
        code, _ = run_binary([os.path.join(BUILD, "perfbench_test")],
                             RUN_TIMEOUT_S, capture=False)
        return 1 if code is None else code
    if not build(["sper_perfbench"]):
        return 1

    if args.workload != "all":
        code, _ = run_workload(args, args.workload, False,
                               time.monotonic() + RUN_TIMEOUT_S)
        return 1 if code is None else code

    # Every workload in turn; one combined result keyed workload.metric.
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        code, out = run_workload(args, workload, True,
                                 time.monotonic() + RUN_TIMEOUT_S)
        lines = out.splitlines()
        for line in lines[:-1]:
            print(f"{workload}: {line}")
        if code is None or not lines:
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"] and code == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
