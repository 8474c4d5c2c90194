"""Byte identity of a fast subset of the golden outputs, by SHA-256 digest.

scripts/golden_outputs.sh writes every deterministic output of the command line
and the demos; the files named in golden_digests.json are the ones of those that
run in a few seconds, one or more per layer: the plain and secure demo reports,
the cost grid, one encode per frontend kind, a saved MERA parameter bundle (the
kind with every entry), a 16-qubit all-pairs readout, three noisy runs (mixed at 8
qubits, thermal at 10 with every pair read out, depolarizing at 2: the largest and
smallest density matrices), a qubit sweep with its classical row, the invariant
suite and the simulator demo.  The test
regenerates them in a subprocess with one BLAS thread, set before numpy loads
(OpenBLAS splits a long dot product across threads, which moves its last bits,
and this process cannot change the count once numpy is loaded), and compares
digests.  The 16-qubit and 9-qubit all-pairs runs and the 10-qubit thermal run are
also made under two threads, to show that no BLAS call of the noiseless MPS or the
density path is split across them.

A change that moves these bytes on purpose refreshes the digests in its own diff:

    python3 tests/test_golden_digests.py > tests/golden_digests.json
"""

import contextlib
import hashlib
import io
import json
import os
import runpy
import subprocess
import sys
from importlib.metadata import version
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).with_name("golden_digests.json")
_ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# output file -> the command line that writes it (with --out, or --save-params for
# a .tnp bundle) or prints it
_COMMANDS = {
    "pipeline_demo.json": ["pipeline-demo"],
    "pipeline_demo_secure.json": ["pipeline-demo", "--secure"],
    "bench_mpc.csv": ["bench-mpc", "--n-max", "6", "--dims", "8,64", "--theta", "3"],
    "encode_mps.csv": ["encode", "--kind", "mps", "--n", "70"],
    "encode_ttn.csv": ["encode", "--kind", "ttn", "--n", "70"],
    "encode_mera.csv": ["encode", "--kind", "mera", "--n", "70"],
    "params_mera.tnp": ["encode", "--kind", "mera", "--n", "2", "--out", os.devnull],
    "qep_run_nq16_all_pairs.csv": ["qep-run", "--nq", "16", "--observables", "all_pairs", "--n", "2"],
    "qep_run_mixed.csv": ["qep-run", "--noise", "mixed"],
    "qep_run_nq10_thermal_all_pairs.csv": ["qep-run", "--nq", "10", "--noise", "thermal",
                                           "--observables", "all_pairs", "--n", "2"],
    "qep_run_nq2_depolarizing.csv": ["qep-run", "--nq", "2", "--noise", "depolarizing",
                                     "--n", "4"],
    "qubit_sweep.csv": ["qubit-sweep", "--nq", "4,8,12", "--seeds", "1", "--n-train", "64",
                        "--n-test", "32"],
    "verify.txt": ["verify"],
}
_DEMO = "demo_qsim_noise.txt", ROOT / "demos" / "qsim_noise.py"


def _digests(outdir: Path) -> dict:
    """Write the subset into outdir and return {file: sha256}, in one process."""
    from tnmpcqep import cli  # here, so that numpy loads after the thread count is set

    for name, argv in _COMMANDS.items():
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            flag = "--save-params" if name.endswith(".tnp") else "--out"
            out = [] if name == "verify.txt" else [flag, str(outdir / name)]
            code = cli.main(argv + out)
        if code != 0:
            raise SystemExit(f"{name}: tnmpcqep {' '.join(argv)} exited {code}")
        if name == "verify.txt":
            (outdir / name).write_text(printed.getvalue())
    name, script = _DEMO
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        runpy.run_path(str(script), run_name="__main__")
    (outdir / name).write_text(printed.getvalue())
    return {f: hashlib.sha256((outdir / f).read_bytes()).hexdigest() for f in [*_COMMANDS, name]}


def test_fast_golden_outputs_keep_their_digests(tmp_path):
    want = json.loads(DIGESTS.read_text())
    if version("numpy") != want["numpy"]:
        pytest.skip(f"the digests were made with numpy {want['numpy']}, this is {version('numpy')}")
    env = {k: v for k, v in os.environ.items() if k != "TNMPCQEP_SEED"}
    env.update(_ONE_THREAD, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, __file__, str(tmp_path)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    moved = [f for f in want["sha256"] if got["sha256"].get(f) != want["sha256"][f]]
    assert not moved, f"outputs changed their bytes: {moved}"
    assert got == want


def test_sixteen_qubit_readout_has_the_same_bytes_under_one_and_two_blas_threads(tmp_path):
    # the circuit's 4-qubit group maps are zgemms of blk rows of a W x W map with
    # blk x W^2 <= 2^15, which OpenBLAS runs on the calling thread: 32 blocks of 128
    # rows per 16x16 map at 16 qubits, one block of 32 rows at 9, where the first
    # qubit's 2x2 runs too; the readout's long sums are numpy reductions and einsum,
    # which run on one thread, and its BLAS calls are dots of at most 2^8 entries and
    # 2^8 x 2^8 gemvs.  The density path's maps are dgemms of at most 2^18 rows x inner
    # x outer, which OpenBLAS also runs on the calling thread, and its purity check is
    # an einsum
    runs = {"qep_run_nq16_all_pairs.csv": _COMMANDS["qep_run_nq16_all_pairs.csv"],
            "qep_run_nq9_all_pairs.csv": ["qep-run", "--nq", "9", "--observables", "all_pairs",
                                          "--n", "3"],
            "qep_run_nq10_thermal_all_pairs.csv": _COMMANDS["qep_run_nq10_thermal_all_pairs.csv"]}
    for name, argv in runs.items():
        written = []
        for threads in ("1", "2"):
            env = {k: v for k, v in os.environ.items() if k != "TNMPCQEP_SEED"}
            env.update(_ONE_THREAD, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=str(ROOT / "src"))
            out = tmp_path / f"threads_{threads}_{name}"
            proc = subprocess.run([sys.executable, "-m", "tnmpcqep", *argv, "--out", str(out)],
                                  env=env, cwd=ROOT, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            written.append(out.read_bytes())
        assert written[0] == written[1], name


if __name__ == "__main__":
    # usage: python3 tests/test_golden_digests.py [OUTDIR]; prints the digest JSON
    import tempfile

    os.environ.update(_ONE_THREAD)  # before numpy loads: this file does not import it
    os.environ.pop("TNMPCQEP_SEED", None)
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as scratch:
        outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(scratch)
        digests = {"numpy": version("numpy"), "sha256": _digests(outdir)}
    print(json.dumps(digests, indent=2, sort_keys=True))
