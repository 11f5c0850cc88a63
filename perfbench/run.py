#!/usr/bin/env python3
"""Repository benchmark: build the binary from source, then run one workload.

    python3 perfbench/run.py --workload exact-kron --seed 1 --seconds 10 --trace 0

Run it from the repository root. The first run configures and builds
`perfbench` (the C++ sources in perfbench/cpp, linked against the library in
src/) under .bench_build/perfbench; later runs only re-check the build.
Build output goes to stderr. The binary's stdout is passed through, and its
last line is the JSON result. See perfbench/README.md for the workloads and
metrics.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("exact-kron", "msbfs-road", "partition-road", "daemon-citation")
BUILD_JOBS = 4
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run(cmd, timeout, **kwargs):
    """Runs `cmd`, killing it (and waiting for it) if it overruns."""
    with subprocess.Popen(cmd, **kwargs) as proc:
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            sys.exit(f"perfbench: {cmd[0]} timed out after {timeout} s")
        return proc.returncode


def build(root, build_dir):
    """Configures (once) and builds the binary; exits on failure."""
    log = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not (build_dir / "CMakeCache.txt").exists():
        code = run(["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                    "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S, **log)
        if code != 0:
            sys.exit("perfbench: cmake configure failed")
    jobs = str(min(BUILD_JOBS, os.cpu_count() or 1))
    code = run(["cmake", "--build", str(build_dir), "--target", "perfbench",
                "-j", jobs], BUILD_TIMEOUT_S, **log)
    if code != 0:
        sys.exit("perfbench: build failed")
    return build_dir / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    os.chdir(root)
    if not (root / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: library sources (src/) not found next to perfbench/")
    build_dir = Path(".bench_build") / "perfbench"
    binary = build(root, build_dir)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(build_dir / "work")]
    sys.stdout.flush()
    code = run(cmd, RUN_TIMEOUT_S)
    if code != 0:
        sys.exit(f"perfbench: benchmark exited with {code}")


if __name__ == "__main__":
    main()
