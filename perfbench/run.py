#!/usr/bin/env python3
"""Builds and runs the Jaal end-to-end benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload paper_point --seed 1 --seconds 10 --trace 0

The first run configures and builds perfbench/ (the library from src/ plus
the jaal_perfbench binary) into $CARGO_TARGET_DIR, default .bench_build/;
later runs only re-check the build.  The binary's stdout passes through
unchanged, so its last line is the result JSON.  With --trace 1 the run also
writes a
Perfetto trace to <build dir>/traces/<workload>-seed<N>.json.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = "jaal_perfbench"


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out_dir):
    """Configures (once) and builds the binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: the library sources (src/) are missing; "
                 "run from a full checkout")
    if shutil.which("cmake") is None:
        sys.exit("perfbench: cmake not found")
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out_dir, "-j4", "--target", TARGET])
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.exit("perfbench: build failed (see %s)" % log_path)
    return os.path.join(out_dir, TARGET)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--epochs", type=int, default=None,
                        help="fixed timed epochs instead of the time budget")
    parser.add_argument("--toy", action="store_true",
                        help="tiny sizes, for the self-test")
    args = parser.parse_args()

    out_dir = build_dir()
    binary = build(out_dir)
    workdir = os.path.join(out_dir, "work-%d" % os.getpid())
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    if args.trace:
        traces = os.path.join(out_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    if args.epochs is not None:
        cmd += ["--epochs", str(args.epochs)]
    if args.toy:
        cmd.append("--toy")
    sys.stdout.flush()
    try:
        return subprocess.call(cmd)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
