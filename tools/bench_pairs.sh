#!/usr/bin/env bash
# Paired comparison of one perfbench workload between two git revisions.
#
#   tools/bench_pairs.sh BASE NEW [--workload paper_mar] [--seed 1]
#                        [--pairs 10] [--seconds 45] [--metric rows_per_cpu_s]
#   tools/bench_pairs.sh BASE NEW --counters [--workload paper_mar] [--seed 1]
#
# Each revision is exported (git archive) into its own directory under
# ${TMPDIR:-/tmp} and built there by its own perfbench/run.py (Release,
# into the directory's .bench_build/). One uncounted warm-up run per
# side (same window) builds the binary and checks the answers; then N
# pairs run with the same workload, seed and window, alternating which
# side goes first. The script prints every pair, each side's median and
# quartiles of the metric, the share of pairs NEW wins (ties count for
# neither side), and whether the gain rule holds: NEW wins at least
# nine tenths of the pairs and the medians differ by more than BASE's
# interquartile range. The metric's direction comes from NEW's
# BENCHMARK.json.
#
# --counters instead runs one traced pass (--trace 1) per revision and
# compares the work counters that a change making the same work cheaper
# must keep: join.*, adaptive.steps.*, adaptive.transitions,
# adaptive.catchup_tuples and exec.parallel.epochs (the set
# tools/work_counters.py defines, and the CI work gate checks against
# its golden). It prints each counter of both sides and exits non-zero
# on any difference (or on a wrong answer); timings are not compared.
#
# Runs are sequential and each perfbench process uses the host's CPUs,
# so nothing else should run meanwhile. perfbench/ and BENCHMARK.json
# are only read. The exported trees are removed on exit.

set -euo pipefail

usage() {
  sed -n '2,6p' "$0" >&2
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
counters=0
while [[ $# -gt 0 ]]; do
  if [[ $1 == --counters ]]; then
    counters=1
    shift
    continue
  fi
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
base_id=$(git -C "$repo" rev-parse --short "$base_rev^{commit}")
new_id=$(git -C "$repo" rev-parse --short "$new_rev^{commit}")
work=$(mktemp -d "${TMPDIR:-/tmp}/bench_pairs.XXXXXX")
trap 'rm -rf "$work"' EXIT

for side in base new; do
  rev=$base_rev
  [[ $side == new ]] && rev=$new_rev
  mkdir "$work/$side"
  git -C "$repo" archive "$rev" | tar -x -C "$work/$side"
done

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

if ((counters)); then
  echo "base $base_id, new $new_id: $workload seed $seed, work counters" \
       "of one traced pass"
  for side in base new; do
    (cd "$work/$side" &&
     python3 perfbench/run.py --workload "$workload" --seed "$seed" \
       --seconds 5 --trace 1 2>>"$work/$side.log" | tail -n 1) \
      >"$work/$side.json" || {
      echo "bench_pairs: $side traced run failed; see its log:" >&2
      tail -n 20 "$work/$side.log" >&2
      exit 1
    }
  done
  python3 "$repo/tools/work_counters.py" diff "$work/base.json" \
    "$work/new.json"
  exit 0
fi

echo "base $base_id, new $new_id:" \
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
