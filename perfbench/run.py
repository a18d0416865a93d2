#!/usr/bin/env python3
"""Build the swarmsim benchmark (perfbench) from source and run one workload.

    python3 perfbench/run.py --workload timing-256 --seed 42 --seconds 20 --trace 0

The perfbench program (perfbench/src) is configured and built in Release mode under
.bench_build/perfbench at the repository root (or under $CARGO_TARGET_DIR
when set), then run in this process's place: its standard output, whose
last line is the JSON result, is passed through unchanged. Build output
goes to standard error. Exits non-zero, printing no result, when the
build fails or perfbench refuses to run.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("timing-256", "replay-sweep", "serve")
DEFAULT_SEED = 42  # keep in step with kDefaultSeed in src/spec.h


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    """Configure (once) and build perfbench; returns its path or None."""
    cmds = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmds.append(["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"])
    cmds.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", "4"])
    for cmd in cmds:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return os.path.join(out, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    stray = sorted(k for k in os.environ if k.startswith("SWARMSIM_"))
    if stray:
        print("run.py: refusing to run with %s set" % ", ".join(stray),
              file=sys.stderr)
        return 2

    exe = build(build_dir())
    if exe is None:
        print("run.py: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.run([exe, "--workload", args.workload,
                           "--seed", str(args.seed),
                           "--seconds", str(args.seconds),
                           "--trace", str(args.trace)]).returncode


if __name__ == "__main__":
    sys.exit(main())
