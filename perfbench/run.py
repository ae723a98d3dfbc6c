#!/usr/bin/env python3
"""Build and run the perfbench benchmark for one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Configures and builds perfbench/ (a CMake package compiling ../src) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable
is unset, then runs the benchmark binary. The binary's stdout is passed
through; its last line is the JSON result. Exits non-zero without a
result when the build or the run fails (for example when the simulator
sources are missing).
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("programs-2dmot", "adversarial-dmmpc", "adversarial-hashed",
             "zipf-durable-ida")
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = Path(target)
    return (path if path.is_absolute() else ROOT / path) / "perfbench"


def build(out):
    """Configure (once) and build; build chatter goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    steps = [] if (out / "CMakeCache.txt").exists() else [configure]
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return (out / "perfbench").is_file()


def source_id():
    """The commit when the checkout is a git repository, else a digest of
    the simulator and benchmark sources."""
    try:
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0:
            return rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted(list((ROOT / "src").rglob("*")) +
                       list(BENCH_DIR.rglob("*"))):
        if path.is_file() and path.suffix in (".cpp", ".hpp", ".txt", ".py"):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "sources-sha256:" + digest.hexdigest()[:16]


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pram" / "machine.cpp").is_file():
        print("perfbench: simulator sources (src/) not found", file=sys.stderr)
        return 1
    out = build_dir()
    if not build(out):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [str(out / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--io-dir", str(out / "io"),
           "--commit", source_id()]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(run.stdout)
        print(f"perfbench: benchmark exited with {run.returncode}",
              file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
