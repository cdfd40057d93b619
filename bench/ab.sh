#!/usr/bin/env bash
# Same-day A/B of one perfbench workload: a git revision against the
# working tree, in alternating pairs, with the bench-discipline verdict for
# every end-to-end metric.
#
# Usage:
#   bench/ab.sh <rev> <workload> [pairs] [first-seed]
#
#   rev         the baseline: any git revision (HEAD~1, a tag, a hash)
#   workload    a perfbench workload: symbolic or explicit
#   pairs       number of (rev, working tree) pairs (default: 10)
#   first-seed  pair k runs seed first-seed + k on both sides (default: 1000)
#
# <rev> is exported with `git archive` into a temporary directory under
# $TMPDIR and builds there into its own .bench_build; the working tree
# builds into its own .bench_build (CARGO_TARGET_DIR is unset, so the two
# sides never share a build).  Both sides build and generate inputs first;
# then every run is `perfbench/run.py --seconds 50`, and the side that runs
# first alternates from pair to pair.
#
# Prints, per end-to-end metric of BENCHMARK.json: each side's median and
# quartiles, the median change, the working tree's wins (pairs where it is
# better in the metric's direction), and whether the bench-discipline rule
# holds: at least 10 pairs, the working tree better in at least 9 of every
# 10, and a median gap larger than the baseline's interquartile range.
#
# Environment:
#   AB_LOG      file that receives every run's summary, one JSON line each
#               (default: none)
#
# Exits 1 when a run fails (nonzero exit or a wrong answer), 2 on a usage
# error.
set -euo pipefail

usage() {
  # The usage text is the header comment above, minus the shebang and the
  # leading '# ' — one source of truth for both.
  sed -n '2,32p' "$0" | sed 's/^# \{0,1\}//'
}

if [ "${1:-}" = "--help" ] || [ "${1:-}" = "-h" ]; then
  usage
  exit 0
fi
if [ $# -lt 2 ] || [ $# -gt 4 ]; then
  usage >&2
  exit 2
fi
REV="$1"
WORKLOAD="$2"
PAIRS="${3:-10}"
FIRST_SEED="${4:-1000}"
case "$WORKLOAD" in
  symbolic | explicit) ;;
  *) echo "ab: unknown workload '$WORKLOAD' (symbolic or explicit)" >&2; exit 2 ;;
esac
if ! [[ "$PAIRS" =~ ^[1-9][0-9]*$ && "$FIRST_SEED" =~ ^[0-9]+$ ]]; then
  echo "ab: pairs must be a positive integer and first-seed a non-negative one" >&2
  exit 2
fi

cd "$(dirname "$0")/.." || exit 2
ROOT="$(pwd)"
if ! git rev-parse --verify --quiet "$REV^{commit}" >/dev/null; then
  echo "ab: '$REV' is not a revision of this repository" >&2
  exit 2
fi
unset CARGO_TARGET_DIR

WORK="$(mktemp -d "${TMPDIR:-/tmp}/ictl-ab.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT
mkdir "$WORK/base"
git archive "$REV" | tar -x -C "$WORK/base"
RUNS="$WORK/runs.jsonl"
: >"$RUNS"

# run_side <side> <checkout> <seed> <seconds>: one perfbench run; appends
# {"side", "seed", "summary"} to $RUNS.
run_side() {
  local side="$1" dir="$2" seed="$3" seconds="$4" out status=0
  out="$(cd "$dir" && python3 perfbench/run.py --workload "$WORKLOAD" --seed "$seed" \
    --seconds "$seconds" --trace 0 2>"$WORK/stderr.log")" || status=$?
  if [ "$status" -ne 0 ]; then
    echo "ab: the $side run with seed $seed failed (exit $status):" >&2
    tail -n 20 "$WORK/stderr.log" >&2
    printf '%s\n' "$out" | tail -n 1 >&2
    exit 1
  fi
  printf '{"side": "%s", "seed": %s, "summary": %s}\n' \
    "$side" "$seed" "$(printf '%s\n' "$out" | tail -n 1)" >>"$RUNS"
}

echo "ab: building $REV and the working tree, generating $WORKLOAD inputs" >&2
run_side base "$WORK/base" "$FIRST_SEED" 1
run_side tree "$ROOT" "$FIRST_SEED" 1
: >"$RUNS"

for ((k = 0; k < PAIRS; k++)); do
  seed=$((FIRST_SEED + k))
  echo "ab: pair $((k + 1))/$PAIRS, seed $seed" >&2
  if ((k % 2 == 0)); then
    run_side base "$WORK/base" "$seed" 50
    run_side tree "$ROOT" "$seed" 50
  else
    run_side tree "$ROOT" "$seed" 50
    run_side base "$WORK/base" "$seed" 50
  fi
done
if [ -n "${AB_LOG:-}" ]; then cp "$RUNS" "$AB_LOG"; fi

python3 - "$RUNS" "$ROOT/BENCHMARK.json" "$REV" "$WORKLOAD" <<'EOF'
import json
import math
import statistics
import sys

runs_path, benchmark_path, rev, workload = sys.argv[1:]
bench = json.load(open(benchmark_path))
runs = [json.loads(line) for line in open(runs_path)]
sides = {"base": {}, "tree": {}}
for run in runs:
    sides[run["side"]][run["seed"]] = run["summary"]
seeds = sorted(sides["tree"])


def values(side, name):
    return [sides[side][s]["metrics"].get(name, {}).get("value") for s in seeds]


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def fmt(x):
    return f"{x:.4g}"


n = len(seeds)
need = math.ceil(0.9 * n)
print(f"{workload}: {rev} (base) vs the working tree (tree), {n} pairs, seeds {seeds[0]}..{seeds[-1]}")
print(f"{'metric':<16} {'base median [q1, q3]':<28} {'tree median [q1, q3]':<28} "
      f"{'change':>9} {'wins':>6}  rule")
for metric in bench["end_to_end"]:
    name, lower = metric["name"], metric["better"] == "lower"
    base, tree = values("base", name), values("tree", name)
    if None in base or None in tree:
        print(f"{name:<16} missing from some runs")
        continue
    b1, b2, b3 = quartiles(base)
    t1, t2, t3 = quartiles(tree)
    wins = sum((t < b) if lower else (t > b) for b, t in zip(base, tree))
    gap = (b2 - t2) if lower else (t2 - b2)
    holds = n >= 10 and wins >= need and gap > b3 - b1
    change = (t2 - b2) / b2 * 100 if b2 else float("nan")
    print(f"{name:<16} {fmt(b2) + ' [' + fmt(b1) + ', ' + fmt(b3) + ']':<28} "
          f"{fmt(t2) + ' [' + fmt(t1) + ', ' + fmt(t3) + ']':<28} "
          f"{change:>+8.1f}% {wins:>3}/{n:<2}  {'holds' if holds else 'does not hold'}")
failed = {side: sum(sides[side][s]["failed"] for s in seeds) for side in sides}
print(f"failed queries: base {failed['base']}, tree {failed['tree']}")
EOF
