#!/usr/bin/env python3
"""Builds the benchmark driver from this checkout and runs it.

    python3 perfbench/run.py --workload adhoc --seed 1 --seconds 8 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a BlinkDB checkout. Build outputs, run logs and span
files go under $CARGO_TARGET_DIR (default .bench_build). The driver's last
stdout line is the run's JSON result; build output goes to stderr.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(work_dir, target):
    build_dir = os.path.join(work_dir, "perfbench")
    subprocess.run(
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", target, "-j", str(os.cpu_count() or 2)],
        stdout=sys.stderr, check=True)
    return os.path.join(build_dir, target)


def main():
    work_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(work_dir, exist_ok=True)
    args = sys.argv[1:]
    try:
        if args == ["--self-test"]:
            binary = build(work_dir, "perfbench_selftest")
            return subprocess.run([binary]).returncode
        binary = build(work_dir, "perfbench")
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench build failed: {err}", file=sys.stderr)
        return 1
    sys.stdout.flush()
    os.execv(binary, [binary, "--work-dir", work_dir] + args)


if __name__ == "__main__":
    sys.exit(main())
