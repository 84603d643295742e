#!/usr/bin/env python3
"""Build the stable-heap benchmark from source and run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run it from the repository root. The Go toolchain builds the benchmark
(perfbench/, a module of its own that uses the repository's module through
a replace directive) into .bench_build/, with its build cache, module
cache and home directory there too, and the heaps live in
.bench_build/heaps; nothing is read or written elsewhere but the Go
toolchain itself. The last line of standard output is the benchmark's
JSON result. The exit code is not 0 when the build or the run fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def go_env():
    home = os.path.join(BUILD, "home")
    env = dict(os.environ)
    env.update({
        "HOME": home,
        "XDG_CONFIG_HOME": os.path.join(home, ".config"),
        "XDG_CACHE_HOME": os.path.join(home, ".cache"),
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOMODCACHE": os.path.join(BUILD, "gomodcache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOSUMDB": "off",
        "GOWORK": "off",
        "GOFLAGS": "",
    })
    return env


def build():
    os.makedirs(BUILD, exist_ok=True)
    try:
        done = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=go_env(),
                              stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return False
    return done.returncode == 0


def main():
    if not build():
        return 2
    # Go's flag package takes --flag as well as -flag.
    args = [BINARY, "-dir", os.path.join(BUILD, "heaps")] + sys.argv[1:]
    proc = subprocess.Popen(args, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
