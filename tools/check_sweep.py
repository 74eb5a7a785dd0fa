#!/usr/bin/env python3
"""Deterministic-output gate for the simulator (DESIGN.md, "Key design
decisions": the sweep golden).

Reruns `lmi_explore sweep 0.25 --jobs 4` on the detailed and the
functional tier (the 28 Table V profiles x 4 Fig. 12 mechanisms, 112
cells each) and diffs CSV columns 1-23 (everything but wall_ms and
mcycles_per_sec, which are host timings) against the golden file
tools/sweep_expected.csv. Any change to simulated cycles, instruction
counts, cache/DRAM traffic, faults or heap footprint fails with a diff.
ctest runs it as SweepGolden.scale_0_25; locally:

    tools/check_sweep.py --explore build/tools/lmi_explore

A deliberate change to the timing model or a workload is recorded by
regenerating the golden and committing the diff for review:

    tools/check_sweep.py --explore build/tools/lmi_explore --update
"""

import argparse
import difflib
import os
import subprocess
import sys
import tempfile

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "sweep_expected.csv")
ARGS = ("sweep", "0.25", "--jobs", "4")
TIERS = ("detailed", "functional")
COLUMNS = 23


def run_tier(explore, tier, tmp):
    csv = os.path.join(tmp, f"{tier}.csv")
    env = dict(os.environ)
    env.pop("LMI_CACHE_DIR", None)  # every cell must be simulated
    done = subprocess.run([explore, *ARGS, "--tier", tier, "--csv", csv],
                          env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.exit(f"FAIL: {tier} sweep exited {done.returncode}:\n"
                 f"{done.stderr[-2000:]}")
    with open(csv) as f:
        rows = [",".join(line.rstrip("\n").split(",")[:COLUMNS]) + "\n"
                for line in f]
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--explore", required=True,
                    help="path to the lmi_explore binary")
    ap.add_argument("--update", action="store_true",
                    help="rewrite the golden file from this run")
    args = ap.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        got = []
        for tier in TIERS:
            rows = run_tier(args.explore, tier, tmp)
            got += rows if not got else rows[1:]  # one header line

    if args.update:
        with open(GOLDEN, "w") as f:
            f.writelines(got)
        print(f"wrote {len(got) - 1} cells to {GOLDEN}")
        return 0

    with open(GOLDEN) as f:
        want = f.readlines()
    if got == want:
        print(f"OK: {len(want) - 1} sweep cells match {GOLDEN}")
        return 0
    sys.stdout.writelines(difflib.unified_diff(
        want, got, fromfile=GOLDEN, tofile="this build"))
    print(f"FAIL: sweep output differs from {GOLDEN}; if the change "
          "is deliberate, rerun with --update and commit the diff")
    return 1


if __name__ == "__main__":
    sys.exit(main())
