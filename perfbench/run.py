#!/usr/bin/env python3
"""Runs one workload of the repo benchmark and prints its result line.

    python3 perfbench/run.py --workload mission --seed 1 --seconds 10 --trace 0

Run from the repository root. The first call configures and builds the
benchmark package (perfbench/CMakeLists.txt, which compiles the iobt
libraries from src/) into .bench_build/, then every call runs the harness
self-test and the driver. The driver's table goes to stdout; the last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics. With --trace 0 the metrics are the end-to-end ones, with --trace 1
the per-layer ones, exactly as BENCHMARK.json lists them.

Exits non-zero, without a result line, if the sources are missing, the
build or the self-test fails, or the driver fails or prints metrics other
than the declared ones.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
DRIVER_TIMEOUT_S = 150


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, what):
    """Runs a build step, showing its output only if it fails."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-8000:])
        fail(f"{what} failed (exit {proc.returncode})")


def build():
    if not os.path.isfile(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        fail("iobt sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"], "configure")
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench",
               "perfbench_selftest"], "build")
    run_quiet([os.path.join(BUILD, "perfbench_selftest")], "harness self-test")


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this kind of run, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["mission", "epidemic", "whatif"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--corrupt-golden", action="store_true",
                    help="flip one golden digest in memory; the run must fail")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    scratch = os.path.join(BUILD, "scratch", str(os.getpid()))
    cmd = [os.path.join(BUILD, "perfbench"), args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace),
           "--golden", os.path.join(HERE, "golden"), "--scratch", scratch]
    if args.corrupt_golden:
        cmd.append("--corrupt-golden")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {DRIVER_TIMEOUT_S} s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"driver failed (exit {proc.returncode})")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stdout.write(proc.stdout)
        fail("driver printed no result line")

    want = declared_metrics(args.trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if want is not None and got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"extra {extra}, or units differ")

    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
