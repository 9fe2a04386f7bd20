#!/usr/bin/env python3
"""Builds the repo benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload tables|serve|campaign \
        --seed N --seconds S --trace 0|1

The benchmark binary is configured and built under .bench_build/ (an
incremental no-op after the first run), and its weights are trained once
into .bench_build/perfbench_cache/. Build output goes to stderr, so the last
line of stdout is the benchmark's JSON result. The exit code is the
binary's: 0 on success, 1 when an operation failed its correctness check,
2 on a usage error or a refused ADVP_* environment variable.
"""
import hashlib
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
CACHE = os.path.join(".bench_build", "perfbench_cache")
# The first run in a checkout builds and trains; later runs end well
# within a minute.
RUN_TIMEOUT_S = 840


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build():
    """Configures and builds the benchmark; returns the binary path."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if res.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return None
    return os.path.join(BUILD, "perfbench")


def source_id():
    """The git commit when there is one, else a digest of src/."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        res = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, cwd=ROOT)
        if res.returncode == 0:
            return "git:" + res.stdout.strip()
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def main():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        log("run from the repository root (no src/ here)")
        return 2
    binary = build()
    if binary is None:
        return 1
    cmd = [binary] + sys.argv[1:] + ["--cache", CACHE,
                                     "--source-id", source_id()]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s")
        return 1


if __name__ == "__main__":
    sys.exit(main())
