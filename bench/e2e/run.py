#!/usr/bin/env python3
"""Build the end-to-end benchmark from this checkout's sources and run it.

    python3 bench/e2e/run.py --workload scan_hot --seed 1 --seconds 20 --trace 0

The Release build goes to .bench_build/ at the repository root; CMake's
own dependency tracking makes every later run's build step a no-op.
Stores and trace files go to .bench_build/work/, emptied before each run.
All arguments pass through to artsparse_bench (see main.cpp), whose last
line of standard output is the result. Exits non-zero without printing a
result when the sources are missing, the build fails or the run hangs.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(BUILD, "work")
BINARY = os.path.join(BUILD, "artsparse_bench")
BUILD_JOBS = "4"


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no artsparse sources under " + ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "artsparse_bench",
                    "--parallel", BUILD_JOBS],
                   stdout=sys.stderr, check=True)


def seconds_arg(args):
    for flag, value in zip(args, args[1:]):
        if flag == "--seconds":
            return float(value)
    return 20.0


def main(args):
    try:
        build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        print("run.py: build failed: %s" % e, file=sys.stderr)
        return 1
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    # Set-up, both halves of a traced run and the checks fit well inside
    # this; a run that overstays it is hung.
    timeout = 3 * seconds_arg(args) + 120
    try:
        return subprocess.run([BINARY, *args, "--work-dir", WORK],
                              timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        print("run.py: artsparse_bench ran past %.0f s" % timeout,
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
