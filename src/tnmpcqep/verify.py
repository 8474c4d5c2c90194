"""Self-contained invariant suite plus the independent oracles it checks against.

The oracles deliberately take a different computational route from the library
code they validate: the circuit oracle materializes full 2^n x 2^n unitaries
with Kronecker products, the contraction oracle uses explicit nested loops,
and the protocol oracle is plain-integer fixed point (see mpc.eval_plaintext).
"""

from __future__ import annotations

import itertools
from collections import namedtuple

import numpy as np

from .qsim import PAULI, cnot_matrix, ry_matrix, rz_matrix

# the circuit oracle's state: all 2^n amplitudes, qubit 0 the MSB
DenseState = namedtuple("DenseState", ["n_qubits", "amplitudes"])


def dense_single_qubit_unitary(gate: np.ndarray, q: int, n: int) -> np.ndarray:
    """Embed a 2x2 gate on qubit q (qubit 0 = MSB) into the full 2^n unitary."""
    full = np.eye(1, dtype=complex)
    for i in range(n):
        full = np.kron(full, gate if i == q else np.eye(2, dtype=complex))
    return full


def dense_cnot_unitary(control: int, n: int) -> np.ndarray:
    """Adjacent CNOT(control, control+1) as a full 2^n unitary."""
    before, after = np.eye(2**control, dtype=complex), np.eye(2 ** (n - control - 2), dtype=complex)
    return np.kron(np.kron(before, cnot_matrix()), after)


def dense_circuit_state(angles: np.ndarray) -> DenseState:
    """Oracle evolution of |0...0> by explicit matrix products."""
    angles = np.asarray(angles, dtype=np.float64)
    layers, n, _ = angles.shape
    psi = np.zeros(2**n, dtype=complex)
    psi[0] = 1.0
    for layer in range(layers):
        for q in range(n):
            psi = dense_single_qubit_unitary(ry_matrix(angles[layer, q, 0]), q, n) @ psi
            psi = dense_single_qubit_unitary(rz_matrix(angles[layer, q, 1]), q, n) @ psi
        for q in range(n - 1):
            psi = dense_cnot_unitary(q, n) @ psi
    return DenseState(n, psi)


def dense_pauli_expectation(state, factors) -> float:
    """Oracle expectation via the full observable matrix of any state with amplitudes."""
    n = state.n_qubits
    op = np.eye(2**n, dtype=complex)
    for q, p in factors:
        op = op @ dense_single_qubit_unitary(PAULI[p], q, n)
    return float(np.real(np.vdot(state.amplitudes, op @ state.amplitudes)))


def dense_noisy_density(angles: np.ndarray, noise) -> np.ndarray:
    """Oracle of run_noisy: rho by full 2^n unitaries, and each Kraus operator of each
    channel after a gate embedded on its qubit, rho -> sum_k K rho K^dagger."""
    from .qsim import _channel_sequences

    angles = np.asarray(angles, dtype=np.float64)
    layers, n, _ = angles.shape
    rho = np.zeros((2**n, 2**n), dtype=complex)
    rho[0, 0] = 1.0

    def hit(rho, q):
        for family in _channel_sequences(noise):
            ks = [dense_single_qubit_unitary(k, q, n) for k in family]
            rho = sum(k @ rho @ k.conj().T for k in ks)
        return rho

    for layer in range(layers):
        for q in range(n):
            for gate in (ry_matrix(angles[layer, q, 0]), rz_matrix(angles[layer, q, 1])):
                u = dense_single_qubit_unitary(gate, q, n)
                rho = hit(u @ rho @ u.conj().T, q)
        for q in range(n - 1):
            c = dense_cnot_unitary(q, n)
            rho = hit(hit(c @ rho @ c.conj().T, q), q + 1)
    return rho


# --------------------------------------------------------------- check groups
#
# Each group returns (name, ok, detail) triples; run_all flattens them with the
# group tag so callers can filter.  Checks are sized to finish in seconds.

CHECK_GROUPS = ("ring", "mpc", "bench", "tn", "qsim", "qep")


def _passfail(name: str, ok: bool, detail: str):
    return (name, bool(ok), detail)


def check_ring():
    from .mpc import FixedPointCodec, Mpc3Session

    checks = []
    rng = np.random.default_rng(0xA11CE)
    session = Mpc3Session(k=64)
    session.rng = rng  # masks come from the check's own stream
    ok = True
    for _ in range(20):
        v = rng.integers(0, 1 << 63, size=int(rng.integers(1, 9)), dtype=np.uint64)
        if not np.array_equal(session.open(session.share(v)), v):
            ok = False
    checks.append(_passfail("share_reconstruct_roundtrip", ok, "20 random uint64 tensors"))

    codec = FixedPointCodec(k=64, fraction_bits=20)
    v = rng.uniform(-1e3, 1e3, size=200)
    worst = float(np.max(np.abs(codec.decode_array(codec.encode_array(v)) - v)))
    checks.append(_passfail("fixed_point_roundtrip", worst <= 2.0**-20,
                            f"max quantization {worst:.3e}"))
    return checks


def check_mpc():
    from .mpc import Instr, SecurityMode, eval_plaintext, run_protocol

    checks = []
    prog = [
        Instr("mul", "p", "x", "y"),
        Instr("trunc", "q", "p"),
        Instr("fixed_mul", "r", "q", "z"),
        Instr("add", "s", "r", "x"),
    ]
    inputs = {"x": 3.25, "y": -1.5, "z": 0.75}
    outs = ["q", "r", "s"]
    got, _ = run_protocol(prog, inputs, fraction_bits=20, seed=7, outputs=outs)
    want = eval_plaintext(prog, inputs, fraction_bits=20, outputs=outs)
    err = max(abs(got[n] - want[n]) for n in outs)
    checks.append(_passfail("program_matches_plain_oracle", err <= 2 * 2 * 2.0**-20,
                            f"max decode error {err:.3e}"))

    _, passive = run_protocol(prog, inputs, seed=7)
    _, active = run_protocol(prog, inputs, seed=7, mode=SecurityMode.ACTIVE)
    doubled = active == passive.scaled(2)
    checks.append(_passfail("active_doubles_traffic", doubled,
                            f"passive {passive.total_bits} active {active.total_bits}"))

    rng = np.random.default_rng(0x61F)
    worst = 0.0
    for _ in range(10):
        den = float(2.0 ** rng.uniform(-6, 6))
        num = float(rng.uniform(-4, 4))
        got, _ = run_protocol([Instr("div", "z", "x", "y")], {"x": num, "y": den},
                              fraction_bits=20, theta=5, seed=11, outputs=["z"])
        rel = abs(got["z"] - num / den) / max(abs(num / den), 2.0**-20)
        worst = max(worst, rel)
    checks.append(_passfail("goldschmidt_relative_error", worst <= 2.0**-10,
                            f"worst relative error {worst:.3e}"))
    return checks


def check_bench():
    from .bench import ACTIVE_OF, BenchConfig, run_scenario, verify_against_meter

    checks = []
    ok = True
    for scenario in (1, 2, 4, 5):
        for n, d in ((1, 1), (2, 4), (4, 16)):
            if not verify_against_meter(BenchConfig(n=n, d=d), scenario):
                ok = False
    checks.append(_passfail("closed_form_matches_meter", ok, "scenarios 1/2/4/5 small grid"))

    ok = True
    for n in (1, 5, 30):
        for d in (64, 784):
            cfg = BenchConfig(n=n, d=d)
            for active, passive in ACTIVE_OF.items():
                if run_scenario(cfg, active) != run_scenario(cfg, passive).scaled(2):
                    ok = False
    checks.append(_passfail("active_exactly_doubles_passive", ok, "spot grid, all pairs"))
    return checks


def check_tn(params_path=None):
    import dataclasses

    from .tn import (FRONTEND_KINDS, FrontendConfig, encode_batch, isometry_check, load_params,
                     make_frontend)

    checks = []
    for kind in FRONTEND_KINDS:
        dev = isometry_check(make_frontend(FrontendConfig(kind=kind, seed=0)))
        checks.append(_passfail(f"isometry_check[{kind}]", dev <= 1e-8,
                                f"max deviation {dev:.3e}"))

    ttn_params = make_frontend(FrontendConfig(kind="ttn", seed=0))
    mera_params = make_frontend(FrontendConfig(kind="mera", seed=0))
    dl = mera_params.config.d_loc
    ident = np.stack([np.eye(2 * dl, dtype=np.complex128)] * mera_params.config.n_levels)
    mera_id = dataclasses.replace(mera_params, disentanglers=ident)
    xs = np.random.default_rng(0x7E9).uniform(0.0, 1.0, size=(10, 784))
    worst = float(np.abs(encode_batch(xs, mera_id) - encode_batch(xs, ttn_params)).max())
    checks.append(_passfail("identity_disentanglers_match_ttn", worst <= 1e-12,
                            f"max deviation {worst:.3e}"))

    if params_path is not None:
        try:
            loaded = load_params(params_path)
            dev = isometry_check(loaded)
            checks.append(_passfail("bundle_isometry_check", dev <= 1e-8,
                                    f"{params_path}: max deviation {dev:.3e}"))
        except (OSError, ValueError) as exc:
            checks.append(_passfail("bundle_loads", False, f"{params_path}: {exc}"))
    return checks


def check_qsim():
    from .qsim import (NOISE_KINDS, DensityMatrix, NoiseSpec, PauliTerm, depolarizing_kraus,
                       expectation, run_circuit, run_noisy)

    checks = []
    rng = np.random.default_rng(0x51A)
    worst_amp = 0.0
    for _ in range(10):
        n = int(rng.integers(1, 4))
        angles = rng.uniform(-np.pi, np.pi, size=(2, n, 2))
        got = run_circuit(angles)
        want = dense_circuit_state(angles)
        worst_amp = max(worst_amp, float(np.abs(got.amplitudes - want.amplitudes).max()))
    checks.append(_passfail("statevector_matches_dense_oracle", worst_amp <= 1e-10,
                            f"max amplitude error {worst_amp:.3e}"))

    # every weight-1 and weight-2 term in every X/Y/Z combination, one circuit per n, on
    # a stream of its own so that the rows below keep their draws
    term_rng, worst_exp, count = np.random.default_rng(0x51B), 0.0, 0
    for n in range(2, 6):
        angles = term_rng.uniform(-np.pi, np.pi, size=(2, n, 2))
        got, want = run_circuit(angles), dense_circuit_state(angles)
        for k in (1, 2):
            for qubits in itertools.combinations(range(n), k):
                for paulis in itertools.product("XYZ", repeat=k):
                    term = PauliTerm(tuple(zip(qubits, paulis)))
                    worst_exp = max(worst_exp, abs(expectation(got, term)
                                                   - dense_pauli_expectation(want, term.factors)))
                    count += 1
    checks.append(_passfail("expectation_matches_dense_oracle", worst_exp <= 1e-10,
                            f"n = 2..5, all {count} weight-1 and weight-2 terms, "
                            f"max expectation error {worst_exp:.3e}"))

    state = run_circuit(rng.uniform(-np.pi, np.pi, size=(2, 8, 2)))
    norm = float(np.linalg.norm(state.amplitudes))
    checks.append(_passfail("norm_preserved", abs(norm - 1.0) <= 1e-12, f"norm {norm!r}"))

    # Rz(phi) Ry(theta) turns |0> to the Bloch vector (sin t cos f, sin t sin f, cos t), which
    # the channel shrinks by 1 - p; the transposed gate Ry(-theta) Rz(phi) gives (-sin t, 0, cos t)
    theta, phi, p = 0.9, 0.7, 0.03
    dm = DensityMatrix(1)
    dm.apply_single(rz_matrix(phi) @ ry_matrix(theta), 0)
    dm.apply_kraus(depolarizing_kraus(p), 0)
    got = np.array([dm.expectation(PauliTerm(factors=((0, a),))) for a in "XYZ"])
    bloch = np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)
    err = float(np.abs(got - (1.0 - p) * np.array(bloch)).max())
    checks.append(_passfail("depolarizing_closed_form", err <= 1e-10, f"error {err:.3e}"))

    zero = run_noisy(np.zeros((1, 2, 2)), NoiseSpec(kind="depolarizing", p=0.0))
    err = abs(zero.density.expectation(PauliTerm(factors=((0, "Z"),))) - 1.0)
    checks.append(_passfail("zero_noise_is_identity", err <= 1e-12, f"error {err:.3e}"))

    worst = 0.0
    for n in (1, 2, 3):
        for kind in NOISE_KINDS:
            angles = rng.uniform(-np.pi, np.pi, size=(2, n, 2))
            spec = NoiseSpec(kind=kind, p=0.1, gamma_amp=0.08, gamma_phase=0.06)
            got = run_noisy(angles, spec).density.rho
            worst = max(worst, float(np.abs(got - dense_noisy_density(angles, spec)).max()))
    checks.append(_passfail("noisy_cnots_match_dense_kraus", worst <= 1e-10,
                            f"n = 1..3, every noise kind, max entry error {worst:.3e}"))
    return checks


def check_qep():
    import dataclasses

    from .qep import make_qep, observable_count, qep_forward, quantum_features, suggest_qubits
    from .qsim import NoiseSpec

    checks = []
    checks.append(_passfail("suggest_qubits_sqrt_rule", suggest_qubits(64) == 8,
                            f"suggest_qubits(64) = {suggest_qubits(64)}"))
    counts = (observable_count(8, "nearest_neighbor"),
              observable_count(16, "nearest_neighbor"),
              observable_count(16, "all_pairs"))
    checks.append(_passfail("observable_counts", counts == (23, 47, 152), str(counts)))

    rng = np.random.default_rng(0x9E9)
    params = make_qep(d=16, n_q=4, seed=1)
    ok = True
    for _ in range(20):
        x = rng.normal(size=16)
        q = quantum_features(x, params)
        if q.min() < -1.0 or q.max() > 1.0:
            ok = False
        qn = quantum_features(x, params, noise=NoiseSpec(kind="mixed"))
        if qn.min() < -1.0 or qn.max() > 1.0:
            ok = False
    checks.append(_passfail("observables_bounded", ok, "20 latents, noiseless and mixed"))

    x = rng.normal(size=(4, 16))
    outs = {}
    for beta in (0.0, 1.0, 0.25):
        out, _ = qep_forward(x, dataclasses.replace(params, beta=beta))
        outs[beta] = out
    mix = 0.75 * outs[0.0] + 0.25 * outs[1.0]
    dev = float(np.abs(outs[0.25] - mix).max())
    checks.append(_passfail("beta_mixing_is_convex", dev <= 1e-12, f"max deviation {dev:.3e}"))

    pinned = dataclasses.replace(params, alpha_w=np.zeros(16), alpha_b=-1000.0)
    out, _ = qep_forward(x, pinned)
    dev = float(np.abs(out - x).max())
    checks.append(_passfail("alpha_zero_is_identity", dev == 0.0, f"max deviation {dev:.3e}"))
    return checks


def run_all(groups=None, tn_params=None):
    """Run the named groups (all by default); returns (group, name, ok, detail) rows."""
    selected = CHECK_GROUPS if groups is None else tuple(groups)
    for g in selected:
        if g not in CHECK_GROUPS:
            raise ValueError(f"unknown check group {g!r}, expected one of {CHECK_GROUPS}")
    runners = {
        "ring": check_ring,
        "mpc": check_mpc,
        "bench": check_bench,
        "tn": lambda: check_tn(params_path=tn_params),
        "qsim": check_qsim,
        "qep": check_qep,
    }
    rows = []
    for g in selected:
        for name, ok, detail in runners[g]():
            rows.append((g, name, ok, detail))
    return rows
