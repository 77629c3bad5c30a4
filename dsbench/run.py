#!/usr/bin/env python3
"""Builds the `dsearch` binary and the benchmark harness, then runs one workload.

Usage (from the repository root):

    python3 dsbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Both builds go to $CARGO_TARGET_DIR (default `.bench_build`).  The harness
prints its log on stderr and one JSON result object as the last line of
stdout.  Any build or run failure exits non-zero without printing a result.
"""

import os
import subprocess
import sys

ROOT = os.path.abspath(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))


def build(args):
    result = subprocess.run(
        ["cargo", "build", "--release", "--quiet", *args],
        cwd=ROOT,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if result.returncode != 0:
        sys.stderr.write("dsbench: build failed: cargo build %s\n" % " ".join(args))
        sys.exit(2)


def main():
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or not os.path.isdir(
        os.path.join(ROOT, "crates")
    ):
        sys.stderr.write("dsbench: no dsearch sources next to the benchmark; nothing to measure\n")
        sys.exit(2)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    os.environ["CARGO_TARGET_DIR"] = target
    build(["-p", "dsearch-cli", "--bin", "dsearch"])
    build(["--manifest-path", os.path.join("dsbench", "Cargo.toml")])
    harness = os.path.join(target, "release", "dsbench")
    dsearch = os.path.join(target, "release", "dsearch")
    os.chdir(ROOT)
    os.execv(harness, [harness, "--dsearch", dsearch, *sys.argv[1:]])


if __name__ == "__main__":
    main()
