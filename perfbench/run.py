#!/usr/bin/env python3
"""Build and run the benchmark from the root of a checkout.

    python3 perfbench/run.py --workload wide --seed 1 --seconds 15 --trace 0

Builds perfbench (a Go module of its own that uses the repository's module
through a replace directive) into .bench_build/, with the Go build cache and
temporary files kept there too, then runs it with the given arguments. The
benchmark's output and exit code are passed through; a failed build exits
non-zero without printing a result.
"""
import os
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")


def main():
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOTMPDIR", "tmp"), ("GOPATH", "gopath")):
        env[key] = os.path.join(BUILD, sub)
        os.makedirs(env[key], exist_ok=True)
    env.update(GOENV="off", GOTOOLCHAIN="local", GOPROXY="off", GOFLAGS="", CGO_ENABLED="0")
    build = subprocess.run(
        ["go", "build", "-o", BINARY, "."],
        cwd=os.path.join(ROOT, "perfbench"),
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
        timeout=840,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT, env=env, timeout=175).returncode


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, subprocess.TimeoutExpired) as err:
        print("perfbench: %s" % err, file=sys.stderr)
        sys.exit(1)
