#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload venue_mix --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. Builds the simulator and the benchmark from
source with CMake (RelWithDebInfo) into $CARGO_TARGET_DIR, or .bench_build
when that is unset, runs the arithmetic self-test, then the workload. The
workload's stdout is passed through; its last line is the JSON result. Exits
non-zero, without a result line, when the sources, the build or the
self-test fail.
"""
import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("venue_mix", "lossy_campaign", "city_district")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    src = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found; run from a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", src, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(build_dir, "Makefile")):
        configure += ["-G", "Ninja"]
    for cmd in (configure, ["cmake", "--build", build_dir, "-j", jobs]):
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    root = os.getcwd()
    out_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                ".bench_build"))
    build_dir = os.path.join(out_dir, "perfbench")
    build(root, build_dir)

    selftest = subprocess.run([os.path.join(build_dir, "perfbench_selftest")],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
    sys.stderr.write(selftest.stdout)
    if selftest.returncode != 0:
        fail("arithmetic self-test failed")

    scratch = os.path.join(build_dir, "scratch")
    os.makedirs(scratch, exist_ok=True)
    # Traced runs use the build that counts heap allocations; end-to-end
    # runs keep the stock allocator.
    binary = "perfbench_traced" if args.trace == "1" else "perfbench"
    cmd = [os.path.join(build_dir, binary),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--scratch", scratch]
    if args.trace == "1":
        cmd += ["--spans", os.path.join(
            scratch, f"spans-{args.workload}-{args.seed}.json")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload did not finish within {RUN_TIMEOUT_S} s")
    sys.stdout.write(done.stdout)
    if done.returncode != 0:
        fail(f"workload exited with code {done.returncode}")


if __name__ == "__main__":
    main()
