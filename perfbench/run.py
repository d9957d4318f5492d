#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload live-kv --seed 3 --seconds 20 --trace 0

Omitting --workload runs all four workloads. The Go module in perfbench/
(which imports the repository's packages through a replace directive) is
built into .bench_build/, with the build cache there too, and the binary
runs with the same arguments. It prints the result as its last line and
exits nonzero when a correctness check fails. See perfbench/NOTES.md.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOTMPDIR=os.path.join(build, "tmp"),
        GOFLAGS="",
        GOWORK="off",
        GOTOOLCHAIN="local",
        CGO_ENABLED="0",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    exe = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", exe, "."],
                           cwd=os.path.join(root, "perfbench"), env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    return subprocess.run([exe] + sys.argv[1:], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
