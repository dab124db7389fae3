#!/usr/bin/env python3
"""Build the pipeline benchmark from source and run one workload.

    python3 pipebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
project's libraries plus the benchmark program into .pipebench_build/
(CMake, Release); later calls only rebuild what changed. Build output
goes to standard error, so the last line of standard output is the
benchmark's JSON result. Scratch files (packed models, the serving
socket, traces) live under .pipebench_work/.

Exit code: the benchmark program's (0 = every check passed, no operation
failed), or 1 when the build fails or the run exceeds its time limit.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = ".pipebench_build"
WORK_DIR = ".pipebench_work"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def run_step(cmd, timeout, **kwargs):
    """Run `cmd`, killing it (and waiting for it) if it outlives `timeout`."""
    proc = subprocess.Popen(cmd, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"pipebench: {cmd[0]} exceeded {timeout} s", file=sys.stderr)
        return 1
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def build():
    rel_src = os.path.relpath(HERE, ROOT)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        rc = run_step(["cmake", "-S", rel_src, "-B", BUILD_DIR,
                       "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S,
                      stdout=sys.stderr)
        if rc != 0:
            return rc
    jobs = str(min(4, os.cpu_count() or 1))
    return run_step(["cmake", "--build", BUILD_DIR, "--target", "pipebench",
                     "-j", jobs], BUILD_TIMEOUT_S, stdout=sys.stderr)


def main():
    os.chdir(ROOT)
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        print("pipebench: project sources (src/) not found next to "
              "pipebench/", file=sys.stderr)
        return 1
    if build() != 0:
        print("pipebench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(BUILD_DIR, "pipebench")
    sys.stdout.flush()
    return run_step([binary, *sys.argv[1:], "--work-dir", WORK_DIR],
                    RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
