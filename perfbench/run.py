#!/usr/bin/env python3
"""Build and run the sunos-mt benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload db_read --seed 1 --seconds 10 --trace 0

Builds the `perfbench` package (release, offline) into `$CARGO_TARGET_DIR`
(default `.bench_build`), then runs one workload. Progress and build output
go to standard error; the run's notes and, as the last line of standard
output, its JSON result go to standard output. The exit code is the
benchmark's: 0 only when every output check passed.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("db_read", "db_hot", "chan_pipeline")
# A run's own deadline: warm-up, up to two windows of --seconds, five
# process start-ups and the drain must fit well inside it.
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if not 1 <= args.seconds <= 60:
        ap.error("--seconds must be between 1 and 60")

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    if not os.path.isfile(os.path.join(root, "crates", "core", "Cargo.toml")):
        sys.exit("perfbench: the library sources (crates/) are not next to perfbench/")

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(root, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(bench_dir, "Cargo.toml")],
        cwd=root, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        sys.exit("perfbench: build failed")

    run_dir = os.path.join(target, "perfbench-run")
    os.makedirs(run_dir, exist_ok=True)
    cmd = [os.path.join(target, "release", "perfbench"), "run",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--run-dir", run_dir]
    try:
        run = subprocess.run(cmd, cwd=root, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run timed out")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
