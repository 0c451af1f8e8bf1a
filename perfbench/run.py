#!/usr/bin/env python3
"""Builds the ERA benchmark driver from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload build_dna --seed 1 --seconds 15 --trace 0

The first run configures and compiles era_core plus the driver under
.bench_build/ (build output goes to stderr); later runs reuse the build.
Each run works in a fresh .bench_build/work/ and removes it afterwards, so
runs in one checkout must not overlap. The driver's standard output is passed through unchanged, so the
last line is the JSON result. Exits non-zero, without a result, when the
build or the run fails.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
BINARY = os.path.join(CMAKE_DIR, "era_perfbench")
WORKLOADS = ("build_dna", "build_repetitive", "query_cold", "query_warm")
# A run takes --seconds plus set-up, builds and oracle checks; the first run
# also compiles.
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        sys.exit("perfbench: no CMakeLists.txt at the repository root")
    steps = []
    if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", CMAKE_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", CMAKE_DIR, "--target", "era_perfbench",
                  "-j", "3"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    # On SIGTERM, unwind through the cleanup below.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # A fixed path: the index manifest records the text's path and a
    # checksum over it, so the index size must not depend on a run's name.
    work = os.path.join(BUILD, "work")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    sys.stdout.flush()
    # The driver starts build processes of its own; a session of its own lets
    # a timeout or a signal stop all of them.
    driver = subprocess.Popen(
        [BINARY, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--work-dir", work],
        start_new_session=True)
    try:
        returncode = driver.wait(timeout=RUN_TIMEOUT_S)
    except BaseException:
        os.killpg(driver.pid, signal.SIGKILL)
        driver.wait()
        raise
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.exit(returncode)


if __name__ == "__main__":
    main()
