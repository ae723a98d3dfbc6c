#!/usr/bin/env python3
"""Smoke self-test for the perfbench benchmark.

Usage (from the root of a checkout):

    python3 perfbench/selftest.py [--seed N] [--seconds S]

Checks, in under a minute:
  * BENCHMARK.json has exactly the keys its format requires, unique names, and
    bounds within (0, 0.25];
  * every workload, run for a short time at a held-out seed (default 9001,
    never used while tuning), in both --trace modes: exits 0, ends with a
    result line of exactly {correct, attempted, failed, metrics}, reports
    correct with no failed operation, and prints exactly the metric names
    and units BENCHMARK.json declares for that mode;
  * the manifest line names the workload that was asked for;
  * run.py refuses an unknown workload, and exits non-zero without a
    result in a directory holding only BENCHMARK.json and perfbench/.
Exits 1 and lists the problems when any check fails.
"""

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end",
             "per_layer"}
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_bench(workload, seed, seconds, trace, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def check_spec(spec, problems):
    if set(spec) != SPEC_KEYS:
        problems.append(f"BENCHMARK.json keys {sorted(spec)}")
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    if len(names) != len(set(names)):
        problems.append("BENCHMARK.json repeats a name")
    for metric in spec["end_to_end"]:
        if not 0 < metric["bound"] <= 0.25:
            problems.append(f"{metric['name']}: bound {metric['bound']}")


def check_result(spec, workload, trace, proc, problems):
    where = f"{workload} --trace {trace}"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        problems.append(f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
        return
    manifest = [l for l in lines if l.startswith("# manifest ")]
    if not manifest or json.loads(manifest[0][len("# manifest "):]).get(
            "workload") != workload:
        problems.append(f"{where}: manifest missing or names another workload")
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        problems.append(f"{where}: result keys {sorted(result)}")
        return
    if result["correct"] is not True or result["failed"] != 0:
        problems.append(f"{where}: correct={result['correct']} "
                        f"failed={result['failed']}: "
                        + "; ".join(l for l in lines if "check failed" in l
                                    or "mismatch" in l))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append(f"{where}: attempted {result['attempted']}")
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != declared:
        problems.append(f"{where}: printed metrics/units differ from "
                        f"BENCHMARK.json: "
                        f"{sorted(set(printed.items()) ^ set(declared.items()))}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            problems.append(f"{where}: {name} is not a number")
        elif not trace and m["value"] == 0:
            problems.append(f"{where}: end-to-end {name} is 0")


def check_sources_missing(problems):
    """Run from a directory that holds only BENCHMARK.json + perfbench/."""
    scratch = ROOT / ".bench_build" / "selftest"
    scratch.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench("programs-2dmot", 1, 1, 0, cwd=bare)
        if proc.returncode == 0 or proc.stdout.strip().endswith("}"):
            problems.append("bare directory: run.py did not fail cleanly")


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=9001)
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args(argv)

    problems = []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec, problems)
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            proc = run_bench(workload, args.seed, args.seconds, trace)
            check_result(spec, workload, trace, proc, problems)
            print(f"ran {workload} --trace {trace}", flush=True)
    if run_bench("no-such-workload", 1, 1, 0).returncode == 0:
        problems.append("an unknown workload was accepted")
    check_sources_missing(problems)

    for problem in problems:
        print("FAIL:", problem)
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
