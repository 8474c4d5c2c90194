#!/bin/sh
# Write the benchmark's figures for one or more checkouts into one JSON file.
#
#   scripts/bench_json.sh OUT_JSON NAME=CHECKOUT [NAME=CHECKOUT ...]
#
# For every workload that BENCHMARK.json lists, each CHECKOUT runs
# `python3 perfbench/run.py --workload W --seed S --seconds RUN_SECONDS --trace 0`
# RUNS times, with seeds FIRST_SEED .. FIRST_SEED+RUNS-1, and then once with
# --trace 1 at FIRST_SEED for the per-layer figures.  The checkouts take turns
# run by run, and odd runs go in the order given, even runs in reverse, so no
# checkout always meets the machine in the same state.  RUNS (default 5),
# RUN_SECONDS (default BENCHMARK.json's run_seconds) and FIRST_SEED (default 11)
# are read from the environment.
#
# OUT_JSON holds the host (nproc, the numpy version and the BLAS thread count
# the runs had, which perfbench/run.py pins before numpy loads), the seeds and
# run length, and per NAME the checkout's commit ("-dirty" when tracked files
# differ from it) and per workload: each end-to-end metric's median, unit and
# values, the traced per-layer figures, and the attempted and failed
# operations and whether every run read correct.  Each checkout runs its own
# perfbench/ and src/; the traced runs write their spans to its perfbench/out/.
set -eu

if [ $# -lt 2 ]; then
    echo "usage: $0 OUT_JSON NAME=CHECKOUT [NAME=CHECKOUT ...]" >&2
    exit 2
fi
ROOT=$(cd "$(dirname "$0")/.." && pwd)
OUT=$1
shift
RUNS=${RUNS:-5}
FIRST_SEED=${FIRST_SEED:-11}
SECONDS_PER_RUN=${RUN_SECONDS:-$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$ROOT/BENCHMARK.json")}
for value in "$RUNS" "$FIRST_SEED"; do
    case $value in
        '' | *[!0-9]*)
            echo "error: RUNS and FIRST_SEED must be nonnegative integers, got '$value'" >&2
            exit 2
            ;;
    esac
done
if [ "$RUNS" -lt 1 ]; then
    echo "error: RUNS must be at least 1" >&2
    exit 2
fi

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
trap 'exit 130' INT TERM

NAMES=""
for arg in "$@"; do
    name=${arg%%=*}
    dir=${arg#*=}
    if [ "$name" = "$arg" ] || [ -z "$name" ] || [ ! -f "$dir/perfbench/run.py" ]; then
        echo "error: '$arg' is not NAME=CHECKOUT with a perfbench/run.py" >&2
        exit 2
    fi
    dir=$(cd "$dir" && pwd)
    commit=$(git -C "$dir" rev-parse HEAD 2>/dev/null || echo unknown)
    if [ "$commit" != unknown ] && [ -n "$(git -C "$dir" status --porcelain --untracked-files=no)" ]; then
        commit="$commit-dirty"
    fi
    printf '%s\n' "$dir" >"$TMP/$name.dir"
    printf '%s\n' "$commit" >"$TMP/$name.commit"
    NAMES="$NAMES $name"
done
REVERSED=""
for name in $NAMES; do
    REVERSED="$name $REVERSED"
done
WORKLOADS=$(python3 -c 'import json, sys; print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$ROOT/BENCHMARK.json")

run_one() {  # run_one NAME WORKLOAD SEED TRACE
    (cd "$(cat "$TMP/$1.dir")" && python3 perfbench/run.py --workload "$2" --seed "$3" \
        --seconds "$SECONDS_PER_RUN" --trace "$4") | tail -n 1 >"$TMP/$1-$2-$3-$4.json"
}

for workload in $WORKLOADS; do
    i=0
    while [ "$i" -lt "$RUNS" ]; do
        order=$NAMES
        if [ $((i % 2)) -eq 1 ]; then
            order=$REVERSED
        fi
        for name in $order; do
            run_one "$name" "$workload" $((FIRST_SEED + i)) 0
        done
        i=$((i + 1))
    done
    for name in $NAMES; do
        run_one "$name" "$workload" "$FIRST_SEED" 1
    done
done

python3 - "$TMP" "$OUT" "$ROOT/BENCHMARK.json" "$RUNS" "$SECONDS_PER_RUN" "$FIRST_SEED" $NAMES <<'EOF'
import ctypes
import json
import os
import statistics
import sys
from pathlib import Path

tmp, out, spec = Path(sys.argv[1]), Path(sys.argv[2]), json.loads(Path(sys.argv[3]).read_text())
runs, seconds, first_seed, names = int(sys.argv[4]), float(sys.argv[5]), int(sys.argv[6]), sys.argv[7:]

# the BLAS threads a run has: perfbench/run.py sets these before numpy loads
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
import numpy  # noqa: E402

blas_threads = None
with open("/proc/self/maps") as maps:
    libraries = dict.fromkeys(line.split()[-1] for line in maps if "openblas" in line.lower())
for path in libraries:
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
        get = getattr(ctypes.CDLL(path), symbol, None)
        if get is not None and blas_threads is None:
            blas_threads = get()

end_to_end = [m["name"] for m in spec["end_to_end"]]
report = {
    "host": {"nproc": os.cpu_count(), "numpy": numpy.__version__, "blas_threads": blas_threads},
    "runs_per_workload": runs,
    "seconds_per_run": seconds,
    "seeds": list(range(first_seed, first_seed + runs)),
    "traced_seed": first_seed,
    "checkouts": {},
}
for name in names:
    workloads = {}
    for w in spec["workloads"]:
        untraced = [json.loads((tmp / f"{name}-{w['name']}-{first_seed + i}-0.json").read_text())
                    for i in range(runs)]
        traced = json.loads((tmp / f"{name}-{w['name']}-{first_seed}-1.json").read_text())
        metrics = {}
        for m in end_to_end:
            values = [r["metrics"][m]["value"] for r in untraced]
            metrics[m] = {"median": statistics.median(values),
                          "unit": untraced[0]["metrics"][m]["unit"], "values": values}
        workloads[w["name"]] = {
            "end_to_end": metrics,
            "per_layer": {m: v for m, v in traced["metrics"].items() if m not in end_to_end},
            "attempted": sum(r["attempted"] for r in untraced + [traced]),
            "failed": sum(r["failed"] for r in untraced + [traced]),
            "correct": all(r["correct"] for r in untraced + [traced]),
        }
    report["checkouts"][name] = {"commit": (tmp / f"{name}.commit").read_text().strip(),
                                 "workloads": workloads}
out.write_text(json.dumps(report, indent=1) + "\n")
for name in names:
    for w, figures in report["checkouts"][name]["workloads"].items():
        cells = ", ".join(f"{m} {figures['end_to_end'][m]['median']:.4g}" for m in end_to_end)
        print(f"{name} {w}: {cells}; correct {figures['correct']}, {figures['failed']} failed")
EOF
