#!/usr/bin/env python3
"""Run one benchmark workload and print its result as one JSON line.

    python3 lmibench/run.py --workload fig12_detailed --seed 1 \
        --seconds 30 --trace 0

Builds lmibench_driver from the sources of this checkout (CMake,
Release) into $CARGO_TARGET_DIR/lmibench (default .bench_build/lmibench),
runs the workload, and prints the driver's report followed by a last
line {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end_to_end list of BENCHMARK.json, with --trace 1 the
per_layer list (from a traced run, whose Chrome trace JSON is kept under
the build directory and summarised per layer by report.py).

Exit codes: 0 correct, 1 an output check failed or the driver broke,
2 bad usage, 3 the simulator sources or the build are missing.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import report  # noqa: E402

WORKLOADS = ("fig12_detailed", "wide_launch_mt", "safety_functional")
DRIVER_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message, code):
    print(f"lmibench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "lmibench")


def build():
    """Configure and build the driver; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"simulator sources not found under {ROOT}/src", 3)
    if shutil.which("cmake") is None:
        fail("cmake not found", 3)
    bdir = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", bdir, "--target", "lmibench_driver",
              "-j", jobs]]
    # A configured tree re-runs CMake itself when a build file changes.
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", bdir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.insert(0, configure)
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out", 3)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}", 3)
    return os.path.join(bdir, "lmibench_driver")


def git_sha():
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def add_self_times(result, trace, per_layer):
    """Add the traced pass's `<layer>.self_ms` metrics from the trace."""
    self_ms = report.pass_self_ms(trace)
    for m in per_layer:
        if m["name"].endswith(".self_ms"):
            layer = m["name"][:-len(".self_ms")]
            result["metrics"][m["name"]] = {"value": self_ms.get(layer, 0.0),
                                            "unit": m["unit"]}


def metric_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["per_layer"]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "tiny"),
                        help="tiny shrinks every workload (tests only)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv):
    args = parse_args(argv)
    driver = build()
    end_to_end, per_layer = metric_spec()

    runs = os.path.join(build_dir(), "runs")
    os.makedirs(runs, exist_ok=True)
    stem = os.path.join(runs, f"{args.workload}-seed{args.seed}-"
                              f"trace{args.trace}-{os.getpid()}")
    cmd = [driver, "--workloads", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--size", args.size,
           "--json", stem + ".json", "--git-sha", git_sha()]
    if args.trace:
        cmd += ["--trace", stem + ".trace.json"]
    sys.stdout.flush()
    try:
        done = subprocess.run(cmd, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver did not finish within {DRIVER_TIMEOUT_S} s", 1)
    if done.returncode not in (0, 1):
        fail(f"driver exited with {done.returncode}", 1)
    try:
        with open(stem + ".json") as f:
            result = json.load(f)["workloads"][0]
    except (OSError, ValueError, KeyError, IndexError) as e:
        fail(f"driver wrote no result: {e}", 1)
    os.remove(stem + ".json")

    if args.trace:
        try:
            with open(stem + ".trace.json") as f:
                trace = json.load(f)
            add_self_times(result, trace, per_layer)
        except (OSError, ValueError, KeyError) as e:
            fail(f"unreadable trace: {e}", 1)
        print(report.render(trace))

    wanted = per_layer if args.trace else end_to_end
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(f"driver did not report {m['name']} in {m['unit']}", 1)
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}

    correct = done.returncode == 0 and result["failed"] == 0
    print(json.dumps({"correct": correct,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
