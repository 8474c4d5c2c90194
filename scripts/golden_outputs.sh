#!/bin/sh
# Write the deterministic outputs of the command line and the demos into OUTDIR,
# using the package source of the checkout this script lives in.
#
# To show that a change keeps every output byte for byte, run the script in a
# checkout of the parent commit and in the changed tree, then compare:
#
#   scripts/golden_outputs.sh /tmp/before   # in the parent checkout
#   scripts/golden_outputs.sh /tmp/after    # in the changed checkout
#   diff -r /tmp/before /tmp/after
#
# Wall-clock figures printed by demos/pipeline_end_to_end.py are replaced by
# "(T s)", since they are the only non-deterministic part of that output.
#
# BLAS runs on one thread.  The statevector readout sums with np.vdot, and
# OpenBLAS splits a long sum across threads, so the last bits of an expectation
# depend on the thread count (qep_run_nq16_all_pairs.csv differs between one
# and two threads).  With the count pinned, two checkouts compare byte for byte.
set -eu

if [ $# -ne 1 ]; then
    echo "usage: $0 OUTDIR" >&2
    exit 2
fi
ROOT=$(cd "$(dirname "$0")/.." && pwd)
OUT=$1
mkdir -p "$OUT"
OUT=$(cd "$OUT" && pwd)
export PYTHONPATH="$ROOT/src"
export OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1
cd "$ROOT"

cli() {
    python3 -m tnmpcqep "$@"
}

cli pipeline-demo --out "$OUT/pipeline_demo.json" >/dev/null
cli pipeline-demo --secure --out "$OUT/pipeline_demo_secure.json" >/dev/null
cli pipeline-demo --secure --kind mps --n-train 48 --n-test 16 \
    --out "$OUT/pipeline_demo_secure_mps.json" >/dev/null
cli bench-mpc --n-max 6 --dims 8,64 --theta 3 --out "$OUT/bench_mpc.csv" >/dev/null
for kind in mps mera; do
    cli pipeline-demo --mode classical --kind "$kind" \
        --out "$OUT/pipeline_demo_classical_$kind.json" >/dev/null
done
cli pipeline-demo --noise depolarizing --n-train 64 --n-test 32 \
    --out "$OUT/pipeline_demo_depolarizing.json" >/dev/null
cli qubit-sweep --nq 4,8,12 --seeds 1 --n-train 64 --n-test 32 \
    --out "$OUT/qubit_sweep.csv" >/dev/null
cli noise-sweep --seeds 1 --n-train 64 --n-test 32 --out "$OUT/noise_sweep.csv" >/dev/null
cli qep-run --noise mixed --out "$OUT/qep_run_mixed.csv" >/dev/null
cli qep-run --nq 16 --n 4 --out "$OUT/qep_run_nq16.csv" >/dev/null
cli qep-run --nq 16 --observables all_pairs --n 2 --out "$OUT/qep_run_nq16_all_pairs.csv" >/dev/null
cli qep-run --nq 10 --noise thermal --observables all_pairs --n 2 \
    --out "$OUT/qep_run_nq10_thermal_all_pairs.csv" >/dev/null
cli qep-run --nq 2 --noise depolarizing --n 4 --out "$OUT/qep_run_nq2_depolarizing.csv" >/dev/null
cli qep-run --nq 12 --n 40 --batch-size 7 --out "$OUT/qep_run_nq12_batch7.csv" >/dev/null
cli qep-run --nq 9 --observables all_pairs --n 3 --out "$OUT/qep_run_nq9_all_pairs.csv" >/dev/null
for kind in mps ttn mera; do
    cli encode --kind "$kind" --n 70 --out "$OUT/encode_$kind.csv" >/dev/null
done
cli encode --kind mera --n 2 --out "$OUT/encode_mera_n2.csv" \
    --save-params "$OUT/params_mera.tnp" >/dev/null
cli verify >"$OUT/verify.txt"

python3 demos/qsim_noise.py >"$OUT/demo_qsim_noise.txt"
python3 demos/mpc_protocol.py >"$OUT/demo_mpc_protocol.txt"
python3 demos/bench_costs.py >"$OUT/demo_bench_costs.txt"
python3 demos/ring_fixed_point.py >"$OUT/demo_ring_fixed_point.txt"
python3 demos/qep_processor.py >"$OUT/demo_qep_processor.txt"
python3 demos/tn_frontends.py >"$OUT/demo_tn_frontends.txt"
python3 demos/pipeline_end_to_end.py | sed -E 's/\([0-9]+\.[0-9]+s\)/(T s)/g' \
    >"$OUT/demo_pipeline_end_to_end.txt"
echo "wrote $(ls "$OUT" | wc -l) outputs to $OUT"
