#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 repobench/run.py --workload <name> [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the repository root. Builds the benchmark package in
repobench/ together with the cisram sources in src/ (Release) into
$CARGO_TARGET_DIR, or .bench_build when that is unset, then runs one
workload with CISRAM_SIM_THREADS=1. A traced run also writes its host
spans to .bench_out/. The last line of standard output is the result
JSON; a failed build or a failed check exits nonzero without one.
"""

import argparse
import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        print("repobench: no cisram sources at " +
              os.path.join(root, "src"), file=sys.stderr)
        return 2

    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                            ".bench_build")
    jobs = str(min(4, os.cpu_count() or 1))
    # Build output goes to stderr: stdout's last line is the result.
    steps = []
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", here, "-B", build,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build, "--target", "repobench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            print("repobench: build failed: " + " ".join(step),
                  file=sys.stderr)
            return 2

    cmd = [os.path.join(build, "repobench"), "--workload", args.workload,
           "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    if args.trace == "1":
        os.makedirs(".bench_out", exist_ok=True)
        cmd += ["--spans", os.path.join(
            ".bench_out", "%s-seed%s.spans.json" %
            (args.workload, "default" if args.seed is None else args.seed))]
    sys.stdout.flush()
    env = dict(os.environ, CISRAM_SIM_THREADS="1")
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
