#!/usr/bin/env python3
"""Build perfbench from the checkout's sources and run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload knn --seed 1 --seconds 12 --trace 0

Everything the build and the run write goes under the build directory,
$CARGO_TARGET_DIR when set, else .bench_build: the Go build cache, the
binary, and the store files of the ingest workload. The last line of
standard output is the result JSON. The exit code is 0 only when the
build succeeded and every output check passed.
"""
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def main():
    root = os.getcwd()
    bench = os.path.join(root, "perfbench")
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        GOTMPDIR=os.path.join(build, "tmp"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOFLAGS="",
        CGO_ENABLED="0",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if os.path.isdir(os.path.join(root, ".git")):
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True)
        if head.returncode == 0:
            env["BENCH_COMMIT"] = head.stdout.strip()
    args = [binary, "-workdir", os.path.join(build, "work")] + sys.argv[1:]
    try:
        return subprocess.run(args, cwd=root, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
