#!/bin/sh
# Compare two checkouts on one benchmark workload in interleaved pairs.
#
#   scripts/bench_pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD PAIRS [SECONDS [FIRST_SEED]]
#
# Pair i (1..PAIRS) runs `python3 perfbench/run.py --workload WORKLOAD
# --seed FIRST_SEED+i-1 --seconds SECONDS --trace 0` in each checkout, with
# the same seed on both sides.  Odd pairs run the parent first, even pairs the
# change first, so neither side always meets the machine in the same state.
# SECONDS defaults to 25, the run length BENCHMARK.json sets, and FIRST_SEED
# to 11; FIRST_SEED 21 gives a held-out range beside the default one.
#
# Prints one line per pair with the three end-to-end metrics of both sides,
# then each side's median and quartiles per metric and how many pairs the
# change won (ties count for neither side).  Each checkout runs its own
# perfbench/ and src/; nothing is written into either.
set -eu

if [ $# -lt 4 ] || [ $# -gt 6 ]; then
    echo "usage: $0 PARENT_DIR CHANGE_DIR WORKLOAD PAIRS [SECONDS [FIRST_SEED]]" >&2
    exit 2
fi
PARENT=$(cd "$1" && pwd)
CHANGE=$(cd "$2" && pwd)
WORKLOAD=$3
PAIRS=$4
SECONDS_PER_RUN=${5:-25}
FIRST_SEED=${6:-11}
case $FIRST_SEED in
    '' | *[!0-9]*)
        echo "error: FIRST_SEED must be a nonnegative integer, got '$FIRST_SEED'" >&2
        exit 2
        ;;
esac
for dir in "$PARENT" "$CHANGE"; do
    if [ ! -f "$dir/perfbench/run.py" ]; then
        echo "error: no perfbench/run.py in $dir" >&2
        exit 2
    fi
done

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
trap 'exit 130' INT TERM

run_side() {  # run_side SIDE DIR SEED PAIR
    (cd "$2" && python3 perfbench/run.py --workload "$WORKLOAD" --seed "$3" \
        --seconds "$SECONDS_PER_RUN" --trace 0) | tail -n 1 >"$TMP/$1-$4.json"
}

i=1
while [ "$i" -le "$PAIRS" ]; do
    seed=$((FIRST_SEED + i - 1))
    if [ $((i % 2)) -eq 1 ]; then
        run_side parent "$PARENT" "$seed" "$i"
        run_side change "$CHANGE" "$seed" "$i"
    else
        run_side change "$CHANGE" "$seed" "$i"
        run_side parent "$PARENT" "$seed" "$i"
    fi
    i=$((i + 1))
done

python3 - "$TMP" "$PAIRS" "$WORKLOAD" "$FIRST_SEED" <<'EOF'
import json
import statistics
import sys
from pathlib import Path

tmp, pairs, workload = Path(sys.argv[1]), int(sys.argv[2]), sys.argv[3]
first_seed = int(sys.argv[4])
METRICS = (("samples_per_s", "higher"), ("setup_s", "lower"), ("peak_rss_mb", "lower"))
runs = {side: [json.loads((tmp / f"{side}-{i}.json").read_text()) for i in range(1, pairs + 1)]
        for side in ("parent", "change")}

print(f"workload {workload}, {pairs} pairs, seeds {first_seed}-{first_seed + pairs - 1}")
print(f"{'pair':>4} {'seed':>4} {'first':>6}  "
      + "  ".join(f"{m + ' parent':>20} {m + ' change':>20}" for m, _ in METRICS))
for i in range(pairs):
    first = "parent" if i % 2 == 0 else "change"
    cells = "  ".join(f"{runs['parent'][i]['metrics'][m]['value']:>20.4f} "
                      f"{runs['change'][i]['metrics'][m]['value']:>20.4f}" for m, _ in METRICS)
    print(f"{i + 1:>4} {first_seed + i:>4} {first:>6}  {cells}")

def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3

print()
for m, better in METRICS:
    p = [r["metrics"][m]["value"] for r in runs["parent"]]
    c = [r["metrics"][m]["value"] for r in runs["change"]]
    (pq1, pmed, pq3), (cq1, cmed, cq3) = summary(p), summary(c)
    sign = 1 if better == "higher" else -1
    wins = sum(1 for a, b in zip(p, c) if sign * (b - a) > 0)
    print(f"{m} ({better} is better): parent median {pmed:.4f} (quartiles {pq1:.4f}-{pq3:.4f}), "
          f"change median {cmed:.4f} (quartiles {cq1:.4f}-{cq3:.4f}), "
          f"ratio {cmed / pmed:.3f}, change won {wins} of {pairs} pairs")
for side in ("parent", "change"):
    failed = sum(r["failed"] for r in runs[side])
    attempted = sum(r["attempted"] for r in runs[side])
    wrong = sum(1 for r in runs[side] if not r["correct"])
    print(f"{side}: {failed} of {attempted} operations failed, {wrong} runs not correct")
EOF
