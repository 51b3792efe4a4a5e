#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload eval_small --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first run configures and builds
perfbench/ into .bench_build/perfbench (which compiles the library and
redqaoa_serve from the checkout's sources); later runs rebuild only
what changed. Build output goes to stderr; the benchmark's stdout passes
through, and its last line is the result document. Exits non-zero,
without a result, when the build fails.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")

# What the benchmark's numbers depend on: the system under test and
# the benchmark itself.
DIGEST_PATHS = ["CMakeLists.txt", "src", "tools", "perfbench"]


def source_digest():
    """sha256 over the relative paths and bytes of DIGEST_PATHS."""
    h = hashlib.sha256()
    for top in DIGEST_PATHS:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else []
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            files += [os.path.join(dirpath, f) for f in sorted(filenames)]
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "perfbench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(step))


def main():
    build()
    cmd = [os.path.join(BUILD, "perfbench")] + sys.argv[1:] + [
        "--source-digest", source_digest(),
        "--work-dir", os.path.join(BUILD_ROOT, "run"),
    ]
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
