#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload campaign-mcl --seed 1 --seconds 20 --trace 0

Run from the repository root.  The first run configures and builds
perfbench/ (which compiles the libraries from src/) into the build
directory: $CARGO_TARGET_DIR when set, else .bench_build.  Progress, the
ladder and stage tables go to stdout; the last line of stdout is the
result object: {"correct", "attempted", "failed", "metrics"}.  The exit
code is non-zero when the build, the run or any output check fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("campaign-mcl", "campaign-stream")
RUN_LIMIT_S = 170.0


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j4"],
        check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def md5(path):
    with open(path, "rb") as handle:
        return hashlib.md5(handle.read()).hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                   ".bench_build"))
    try:
        binary = build(os.path.join(build_root, "perfbench"))
    except (subprocess.CalledProcessError, OSError) as error:
        log(f"build failed: {error}")
        return 1

    work = os.path.join(build_root, "work",
                        f"{args.workload}-{args.seed}-{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    try:
        done = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work-dir", work],
            stdout=subprocess.PIPE, text=True, timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_LIMIT_S:.0f} s")
        return 1

    lines = done.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]), flush=True)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("no result line")
        return 1
    correct = bool(result["correct"]) and done.returncode == 0

    for first, second in result.get("identical_files", []):
        digests = (md5(first), md5(second))
        print(f"md5 {digests[0]} {os.path.basename(first)}")
        print(f"md5 {digests[1]} {os.path.basename(second)}")
        if digests[0] != digests[1]:
            log(f"{first} and {second} differ")
            correct = False

    # Every metric of the mode, by the name and unit BENCHMARK.json gives
    # it.  A layer that does no work on this workload reports 0.
    metrics = result["metrics"]
    out = {}
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        if name in metrics:
            if metrics[name]["unit"] != unit:
                log(f"{name}: unit {metrics[name]['unit']}, expected {unit}")
                correct = False
            out[name] = {"value": metrics[name]["value"], "unit": unit}
        elif args.trace:
            out[name] = {"value": 0, "unit": unit}
        else:
            log(f"end-to-end metric {name} missing")
            correct = False
    extra = sorted(set(metrics) - set(out))
    if extra:
        log(f"metrics not in BENCHMARK.json: {extra}")
        correct = False

    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
