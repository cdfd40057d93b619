#!/usr/bin/env python3
"""Cold-start benchmark for ictl.

Run from the repository root:

    python3 perfbench/run.py --workload symbolic --seed 1 --seconds 50 --trace 0

Builds the library and ictlbench (perfbench/ictlbench.cpp) into
$CARGO_TARGET_DIR or .bench_build, generates the workload's inputs, draws
the query order from the seed, runs ictlbench and prints its result as the
last line of standard output: one JSON object with the keys correct,
attempted, failed and metrics.  See perfbench/README.md for the workloads,
the metrics and what each should move.
"""

import argparse
import json
import os
import random
import shutil
import subprocess
import sys

WORKLOADS = ("symbolic", "explicit")
SAFETY = ("P1", "P2", "I2", "I3")
LIVENESS = ("P3", "P4", "D")
ALL_FORMULAS = ("P1", "P2", "P3", "P4", "I2", "I3", "D")
DECKS = 500  # far more than any run can use; a run stops on time


def negated(names):
    return [n for base in names for n in (base, "!" + base)]


def deck(workload):
    """Every (kind, size, formula) query of the workload once; the seed shuffles it."""
    if workload == "symbolic":
        return (
            [("sym_reach", r, "-") for r in (64, 96, 128)]
            + [("sym_check", r, f) for r in (64, 128) for f in negated(SAFETY)]
            + [("sym_check", r, f) for r in (12, 16, 20) for f in negated(LIVENESS)]
        )
    return [("explicit_check", 13, f) for f in negated(ALL_FORMULAS)] + [
        ("reduction", 3, f) for f in negated(ALL_FORMULAS)
    ]


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def step(cmd, timeout):
    """Runs a build or generation step; its output goes to standard error."""
    subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr, timeout=timeout)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(root, "src", "ictl.hpp"))):
        log("perfbench: the ictl sources (CMakeLists.txt, src/) are not next to perfbench/")
        return 2
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")

    try:
        if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
            step(["cmake", "-S", here, "-B", build, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], 300)
        step(["cmake", "--build", build, "--target", "ictlbench", "-j", "4"], 840)
        binary = os.path.join(build, "ictlbench")

        # Inputs depend only on the workload and the ictlbench binary, so runs
        # reuse them until the binary changes.
        inputs = os.path.join(build, "inputs", args.workload)
        stamp = os.path.join(inputs, "stamp")
        binary_id = f"{os.stat(binary).st_mtime_ns} {os.stat(binary).st_size}"
        if not os.path.isfile(stamp) or open(stamp).read() != binary_id:
            shutil.rmtree(inputs, ignore_errors=True)
            os.makedirs(inputs)
            step([binary, "gen", args.workload, inputs], 120)
            with open(stamp, "w") as out:
                out.write(binary_id)

        rng = random.Random(args.seed)
        plan = os.path.join(inputs, "plan.txt")
        with open(plan, "w") as out:
            for _ in range(DECKS):
                queries = deck(args.workload)
                rng.shuffle(queries)
                out.write(" ".join(f"{k}:{r}:{f}" for k, r, f in queries) + "\n")

        result = subprocess.run(
            [binary, "run", args.workload, inputs, plan, str(args.seconds), str(args.trace)],
            stdout=subprocess.PIPE, stderr=sys.stderr, text=True, timeout=170)
    except (subprocess.SubprocessError, OSError) as e:
        log(f"perfbench: {e}")
        return 2

    lines = result.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if not lines:
        log("perfbench: ictlbench printed nothing")
        return 2
    summary = json.loads(lines[-1])
    print(json.dumps(summary))
    if result.returncode != 0 or not summary["correct"]:
        return result.returncode or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
