#!/usr/bin/env python3
"""Build and run the VO-formation benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds
perfbench/ (the repository's libraries from src/ plus the benchmark) into
.bench_build/perfbench; later runs only check that build is current.
Build output goes to stderr; stdout carries the benchmark's provenance
line and, last, its JSON result. The exit code is the benchmark's.
"""
import fcntl
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"


def build() -> None:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"perfbench: no library sources at {ROOT / 'src'}; "
                 "run from a full checkout")
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD / "CMakeCache.txt").is_file():
            subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", str(BUILD), "--target", "vo_bench",
                        "-j", jobs], stdout=sys.stderr, check=True)


def main() -> int:
    try:
        build()
    except subprocess.CalledProcessError as e:
        print(f"perfbench: build failed ({e})", file=sys.stderr)
        return 2
    proc = subprocess.Popen([str(BUILD / "vo_bench"), *sys.argv[1:]])
    stopped = []

    def stop(signum, _frame):
        # Only forward: the wait below (already in progress) reaps it.
        stopped.append(signum)
        proc.terminate()

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    code = proc.wait()
    return 128 + stopped[0] if stopped else code


if __name__ == "__main__":
    sys.exit(main())
