#!/usr/bin/env python3
"""Builds the stxbar library and the benchmark binary from this checkout's
sources, then runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The build goes to .bench_build/ at the checkout root (Release, CMake);
the first run builds, later runs rebuild only what changed. The binary's
stdout is passed through, so its last line is the result JSON. Exits 1
without a result when the sources or the build are missing or broken.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("flow_paper", "sweep_grid", "synth_milp", "serve_mixed")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run_step(cmd, timeout):
    """Runs one build step with its output on stderr; exits 1 on failure."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: timed out: " + " ".join(cmd))
    if done.returncode != 0:
        sys.exit("perfbench: failed: " + " ".join(cmd))


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("perfbench: no stxbar sources at " + ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_step(["cmake", "-S", HERE, "-B", BUILD,
                  "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_step(["cmake", "--build", BUILD, "--target", "perfbench",
              "-j", jobs], BUILD_TIMEOUT_S)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        sys.exit("perfbench: --seed must be >= 0 and --seconds >= 1")

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", os.path.join(".bench_build", "scratch")]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            ".bench_build", "traces",
            "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run timed out after %ds" % RUN_TIMEOUT_S)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
