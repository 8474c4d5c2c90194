"""Exact simulation: the noiseless MPS vs the density matrix, and what each noise
channel does to a simple expectation value.

Run: python3 demos/qsim_noise.py
"""

import numpy as np

from tnmpcqep.qsim import (
    DensityMatrix,
    NoiseSpec,
    PauliTerm,
    depolarizing_kraus,
    expectation,
    run_circuit,
    run_noisy,
    ry_matrix,
)


def main():
    rng = np.random.default_rng(0)
    angles = rng.uniform(-np.pi, np.pi, size=(2, 3, 2))
    state = run_circuit(angles)
    z0 = PauliTerm(factors=((0, "Z"),))
    print(f"3-qubit depth-2 circuit: norm {np.linalg.norm(state.amplitudes):.12f}, "
          f"<Z_0> = {expectation(state, z0):+.6f}")

    noiseless = run_noisy(angles).density.expectation(z0)
    print(f"density simulation at zero noise agrees: <Z_0> = {noiseless:+.6f}")

    theta, p = 0.9, 0.05
    dm = DensityMatrix(1)
    dm.apply_single(ry_matrix(theta), 0)
    dm.apply_kraus(depolarizing_kraus(p), 0)
    print(f"\ndepolarizing closed form: <Z> = {dm.expectation(z0):+.8f}, "
          f"(1-p)cos(theta) = {(1 - p) * np.cos(theta):+.8f}")

    print("\n<Z_0> under increasing noise strength (same circuit):")
    print(f"  {'p':>5} {'depolarizing':>13} {'thermal':>13} {'mixed':>13}")
    for p in (0.0, 0.02, 0.05, 0.1):
        row = []
        for kind in ("depolarizing", "thermal", "mixed"):
            spec = NoiseSpec(kind=kind, p=p, gamma_amp=p, gamma_phase=p)
            row.append(run_noisy(angles, spec).density.expectation(z0))
        print(f"  {p:>5.2f} {row[0]:>+13.6f} {row[1]:>+13.6f} {row[2]:>+13.6f}")
    print("every channel pulls the observable toward its fixed point;")
    print("the pure-state value is recovered at p = 0")


if __name__ == "__main__":
    main()
