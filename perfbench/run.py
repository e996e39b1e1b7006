#!/usr/bin/env python3
"""Build and run the repository benchmark; see perfbench/README.md.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

perfbench/ is a Go module of its own whose go.mod replaces topompc with
the enclosing checkout, so the benchmark always measures the code beside
it. The binary, the Go build cache and the build's temporary files all
live under .bench_build/ in the checkout. The benchmark's standard output
and exit code are passed through unchanged.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def main() -> int:
    root = os.getcwd()
    src = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    out = os.path.join(build, "perfbench")
    binary = os.path.join(out, "perfbench")
    for d in (out, os.path.join(build, "go-cache"), os.path.join(build, "go-tmp")):
        os.makedirs(d, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "go-cache"),
        GOTMPDIR=os.path.join(build, "go-tmp"),
        GOPROXY="off",
        GOTOOLCHAIN="local",
    )
    try:
        built = subprocess.run(
            ["go", "build", "-o", binary, "."], cwd=src, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: build exceeded {BUILD_TIMEOUT_S} s and was stopped", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode
    try:
        ran = subprocess.run([binary, *sys.argv[1:], "--out", out], env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s and was stopped", file=sys.stderr)
        return 1
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
