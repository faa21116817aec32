#!/usr/bin/env python3
"""Build and run the host-clock benchmark of the AGCM simulator.

Run from the repository root:

    python3 hostbench/run.py --workload flagship_t3d240 --seed 1 --seconds 10 --trace 0
    python3 hostbench/run.py --workload all --seed 1 --seconds 10
    python3 hostbench/run.py --selftest

The first call configures and builds hostbench/ (and the simulator sources
under src/) into .bench_build/hostbench. A single workload run prints the
benchmark's host-facts line and, last, its result line. The result line is
checked against the metrics BENCHMARK.json declares first: the end_to_end
set with --trace 0, the per_layer set with --trace 1. `--workload all` runs
every workload both ways, each in a fresh process, and prints one table.
See hostbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "hostbench"
SPEC = ROOT / "BENCHMARK.json"
BUILD_TYPE = "RelWithDebInfo"
# A single run must end well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def log(message):
    print(f"hostbench: {message}", file=sys.stderr, flush=True)


def build(target):
    """Configures once, then builds `target`; build output goes to stderr."""
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not (BUILD / "Makefile").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-G", "Unix Makefiles",
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", target])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log(f"build failed: {' '.join(cmd)}")
            return False
    return True


def declared(trace):
    """{name: unit} of the metrics BENCHMARK.json declares for this mode."""
    spec = json.loads(SPEC.read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(line, trace):
    """Raises ValueError unless `line` is a result line carrying exactly the
    declared metrics."""
    result = json.loads(line)
    if not isinstance(result, dict) or list(result) != [
            "correct", "attempted", "failed", "metrics"]:
        raise ValueError("result keys are not correct/attempted/failed/metrics")
    if not isinstance(result["correct"], bool):
        raise ValueError("'correct' is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            raise ValueError(f"'{key}' is not a whole number")
    if result["attempted"] < 1:
        raise ValueError("nothing was attempted")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = declared(trace)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(got) & set(want) if got[n] != want[n])
        raise ValueError(f"metrics differ from BENCHMARK.json: missing "
                         f"{missing}, undeclared {extra}, wrong unit {wrong}")
    for name, metric in result["metrics"].items():
        if not isinstance(metric["value"], (int, float)):
            raise ValueError(f"metric {name} has no numeric value")


def run_one(workload, seed, seconds, trace):
    """Runs the binary once. Returns (exit code, host line, result line);
    the result line is None unless it passed check_result."""
    cmd = [str(BUILD / "hostbench"), "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1, None, None
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        log(f"{workload} printed no result (exit {proc.returncode})")
        return proc.returncode or 1, None, None
    try:
        check_result(lines[-1], trace)
    except (ValueError, KeyError, TypeError) as err:
        log(f"{workload}: bad result line: {err}")
        return 1, lines[-2], None
    return proc.returncode, lines[-2], lines[-1]


def run_all(seed, seconds):
    spec = json.loads(SPEC.read_text())
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            code, host, line = run_one(workload, seed, seconds, trace)
            status = status or code
            print(host or "")
            if line is None:
                print(f"{workload} trace={trace}: FAILED (exit {code})")
                continue
            result = json.loads(line)
            print(f"{workload} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for name, metric in result["metrics"].items():
                print(f"  {name:46s} {metric['value']:>14.6g} {metric['unit']}")
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.selftest:
        if not build("hostbench_selftest"):
            return 1
        return subprocess.run([str(BUILD / "hostbench_selftest")]).returncode
    if not args.workload:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not SPEC.exists() or not build("hostbench"):
        return 1
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    code, host, line = run_one(args.workload, args.seed, args.seconds,
                               args.trace)
    if line is None:
        return code or 1
    print(host)
    print(line, flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
