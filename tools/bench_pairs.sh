#!/usr/bin/env bash
# Paired comparison of one perfbench workload between two git revisions.
#
#   tools/bench_pairs.sh BASE NEW [--workload paper_mar] [--seed 1]
#                        [--pairs 10] [--seconds 45] [--metric rows_per_cpu_s]
#
# Each revision is checked out into its own detached git worktree under
# ${TMPDIR:-/tmp} and built there by its own perfbench/run.py (Release,
# into the worktree's .bench_build/). One uncounted warm-up run per side
# (same window) builds the binary and checks the answers; then N pairs
# run with the same workload, seed and window, alternating which side
# goes first. The script prints every pair, each side's median and
# quartiles of the metric, the share of pairs NEW wins (ties count for
# neither side), and whether the gain rule holds: NEW wins at least
# nine tenths of the pairs and the medians differ by more than BASE's
# interquartile range. The metric's direction comes from NEW's
# BENCHMARK.json.
#
# Runs are sequential and each perfbench process uses the host's CPUs,
# so nothing else should run meanwhile. perfbench/ and BENCHMARK.json
# are only read. The worktrees are removed on exit.

set -euo pipefail

usage() {
  sed -n '2,5p' "$0" >&2
  exit 2
}

[[ $# -ge 2 ]] || usage
base_rev=$1
new_rev=$2
shift 2
workload=paper_mar
seed=1
pairs=10
seconds=45
metric=rows_per_cpu_s
while [[ $# -gt 0 ]]; do
  case $1 in
    --workload) workload=$2 ;;
    --seed) seed=$2 ;;
    --pairs) pairs=$2 ;;
    --seconds) seconds=$2 ;;
    --metric) metric=$2 ;;
    *) usage ;;
  esac
  [[ $# -ge 2 ]] || usage
  shift 2
done

repo=$(git rev-parse --show-toplevel)
work=$(mktemp -d "${TMPDIR:-/tmp}/bench_pairs.XXXXXX")
cleanup() {
  for side in base new; do
    if [[ -d $work/$side ]]; then
      git -C "$repo" worktree remove --force "$work/$side" || true
    fi
  done
  rm -rf "$work"
}
trap cleanup EXIT

git -C "$repo" worktree add --quiet --detach "$work/base" "$base_rev"
git -C "$repo" worktree add --quiet --detach "$work/new" "$new_rev"

# Prints the metric's value from one run of `side`; a failed build,
# self-test or correctness check stops the script.
run_side() {
  local side=$1 window=$2 out
  out=$(cd "$work/$side" &&
        python3 perfbench/run.py --workload "$workload" --seed "$seed" \
          --seconds "$window" 2>>"$work/$side.log" | tail -n 1) || {
    echo "bench_pairs: $side run failed; see its log:" >&2
    tail -n 20 "$work/$side.log" >&2
    exit 1
  }
  python3 -c '
import json, sys
result = json.loads(sys.argv[1])
if not result.get("correct", False):
    sys.exit("bench_pairs: wrong answer")
print(result["metrics"][sys.argv[2]]["value"])
' "$out" "$metric"
}

echo "base $(git -C "$work/base" rev-parse --short HEAD)," \
     "new $(git -C "$work/new" rev-parse --short HEAD):" \
     "$workload seed $seed, $pairs pairs of ${seconds} s, $metric"
for side in base new; do
  run_side "$side" "$seconds" >/dev/null
done

results=()
for ((i = 0; i < pairs; ++i)); do
  if ((i % 2 == 0)); then order=(base new); else order=(new base); fi
  declare -A value=()
  for side in "${order[@]}"; do
    value[$side]=$(run_side "$side" "$seconds")
  done
  echo "pair $((i + 1)) (${order[0]} first): base ${value[base]}" \
       "new ${value[new]}"
  results+=("${value[base]},${value[new]}")
  unset value
done

python3 - "$work/new/BENCHMARK.json" "$metric" "${results[@]}" <<'EOF'
import json
import statistics
import sys

spec = json.load(open(sys.argv[1]))
metric = sys.argv[2]
better = next((m["better"] for m in spec["end_to_end"] + spec["per_layer"]
               if m["name"] == metric), "higher")
pairs = [tuple(float(v) for v in p.split(",")) for p in sys.argv[3:]]
base = [b for b, _ in pairs]
new = [n for _, n in pairs]


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def wins(a, b):
    return a > b if better == "higher" else a < b


for name, values in (("base", base), ("new", new)):
    q1, med, q3 = quartiles(values)
    print("%-4s median %.6g  q1 %.6g  q3 %.6g  (n=%d)"
          % (name, med, q1, q3, len(values)))
won = sum(wins(n, b) for b, n in pairs)
lost = sum(wins(b, n) for b, n in pairs)
b1, bmed, b3 = quartiles(base)
_, nmed, _ = quartiles(new)
gap = nmed - bmed if better == "higher" else bmed - nmed
print("new wins %d/%d pairs (loses %d, ties %d); median gap %.6g, "
      "base IQR %.6g; %s better; ratio of medians %.3f"
      % (won, len(pairs), lost, len(pairs) - won - lost, gap, b3 - b1,
         better, nmed / bmed if bmed else float("nan")))
claimed = won * 10 >= 9 * len(pairs) and gap > b3 - b1
print("gain rule: " + ("met" if claimed else "not met"))
EOF
