#!/usr/bin/env python3
"""Build dgbench (Release) from this checkout's sources and run one workload.

Usage, from the root of the checkout:

    python3 perfbench/run.py --workload paper_matrix --seed 1 --seconds 36 --trace 0

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
and is incremental, so only the first run in a checkout compiles. The last
line of standard output is dgbench's JSON result; build output goes to
standard error. Any build or benchmark failure exits non-zero without a
result line.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("paper_matrix", "long_sampled", "fuzz_campaign")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be positive")

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build_root = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build = os.path.join(build_root, "perfbench")
    work = os.path.join(build_root, "perfbench-work")

    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        configure = ["cmake", "-S", here, "-B", build, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build, ignore_errors=True)
            sys.exit("dgbench: configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    built = subprocess.run(["cmake", "--build", build, "--target", "dgbench", "-j", jobs],
                           stdout=sys.stderr)
    if built.returncode != 0:
        sys.exit("dgbench: build failed")

    os.makedirs(work, exist_ok=True)
    bench = subprocess.run([os.path.join(build, "dgbench"),
                            "--workload", args.workload,
                            "--seed", str(args.seed),
                            "--seconds", str(args.seconds),
                            "--trace", str(args.trace),
                            "--work-dir", work])
    sys.exit(bench.returncode)


if __name__ == "__main__":
    main()
