#!/usr/bin/env python3
"""Builds the benchmark and `w2cd` from source, then runs one workload.

    python3 perfbench/run.py --workload kernels|images|serve \
        [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--corrupt]

Run it from the root of a checkout. Both binaries are built offline
with cargo into `$CARGO_TARGET_DIR` (default `.bench_build`): the
benchmark package in `perfbench/` reaches the workspace crates by path,
and `w2cd` is built from the workspace itself. Build output goes to
standard error; the last line of standard output is the benchmark's
JSON result. See `perfbench/README.md`.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# The default seed, and the held-out seed used only to confirm a claim.
DEFAULT_SEED = 1
CONFIRM_SEED = 977

# A run must end within 180 seconds; the benchmark gets the rest once
# the builds are done.
RUN_TIMEOUT_S = 170


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["kernels", "images", "serve"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-test")
    p.add_argument("--corrupt", action="store_true", help="flip one output word")
    a = p.parse_args()

    workspace = os.path.join(ROOT, "crates", "warp-compiler", "Cargo.toml")
    if not os.path.isfile(workspace):
        print(f"error: no workspace crates beside {HERE}; run from a full checkout",
              file=sys.stderr)
        return 2

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(HERE, "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "-p", "warp-compiler", "--bin", "w2cd"],
    ]
    for cmd in builds:
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            print("error: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2

    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "perfbench"),
           "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace), "--w2cd", os.path.join(release, "w2cd"),
           "--work", os.path.join(ROOT, ".bench_work")]
    if a.smoke:
        cmd.append("--smoke")
    if a.corrupt:
        cmd.append("--corrupt")
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"error: the benchmark ran past {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
