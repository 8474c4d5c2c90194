"""Simulator checks against dense-Kronecker oracles and closed forms."""

import itertools
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tnmpcqep import qsim
from tnmpcqep.qep import observable_set
from tnmpcqep.qsim import (
    MAX_DENSITY_QUBITS,
    NOISELESS,
    PAULI,
    DensityMatrix,
    MpsState,
    NoiseSpec,
    PauliTerm,
    amplitude_damping_kraus,
    depolarizing_kraus,
    expectation,
    kraus_ptm,
    phase_damping_kraus,
    run_circuit,
    run_noisy,
    ry_matrix,
    rz_matrix,
)
from tnmpcqep.verify import (
    DenseState,
    dense_circuit_state,
    dense_cnot_unitary,
    dense_noisy_density,
    dense_pauli_expectation,
    dense_single_qubit_unitary,
)


def _loaded(n, rho):
    """A DensityMatrix on n qubits with rho assigned to it; a fresh one for None."""
    dm = DensityMatrix(n)
    if rho is not None:
        dm.rho = rho
    return dm


# The in-place gate kernels of the first simulator, kept here as the reference that
# the density-matrix evolution is pinned against bit for bit, the MPS circuit's
# amplitudes to an ulp per gate and the readout to 1e-12: _mix_axis applies one gate
# (or Pauli) to a qubit, _flip_cnot one chain CNOT.


def _mix_axis(amps, m, axis):
    """In place: apply the 2x2 matrix m along one axis of a C-contiguous [2]*N buffer."""
    v = amps.reshape(1 << axis, 2, amps.size >> (axis + 1))
    a0, a1 = v[:, 0, :], v[:, 1, :]
    new0 = m[0, 0] * a0 + m[0, 1] * a1
    a1[...] = m[1, 0] * a0 + m[1, 1] * a1
    a0[...] = new0


def _flip_cnot(amps, control, scratch):
    """In place: swap the halves of axis control+1 on the control=1 slice via scratch."""
    one = amps.reshape(1 << control, 2, 2, amps.size >> (control + 2))[:, 1]
    staged = scratch.reshape(-1)[: one.size].reshape(one.shape)  # half of amps' size
    np.copyto(staged, one[:, ::-1])
    one[...] = staged


def _zero_amplitudes(n):
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = 1.0
    return amps


def _gray(n):
    """The CNOT chain CNOT(0, 1) ... CNOT(n-2, n-1) as a gather: new[j] = old[j ^ (j >> 1)]."""
    j = np.arange(1 << n)
    return j ^ (j >> 1)


def test_ry_pi_flips_zero_to_one():
    amps = _zero_amplitudes(1)
    _mix_axis(amps, ry_matrix(np.pi), 0)
    assert np.allclose(amps, [0.0, 1.0], atol=1e-15)


def test_rz_changes_only_phases():
    rng = np.random.default_rng(0)
    amps = run_circuit(rng.uniform(-np.pi, np.pi, size=(1, 3, 2))).amplitudes.copy()
    before = np.abs(amps)
    for q in range(3):
        _mix_axis(amps, rz_matrix(0.7 + q), q)
    assert np.allclose(np.abs(amps), before, atol=1e-13)


def test_cnot_msb_convention():
    # |10>: qubit 0 (MSB) set -> CNOT(0,1) flips qubit 1, giving |11>, in both the
    # reference kernel and run_noisy, whose Ry(pi) sets the qubit; control clear: |01>
    # stays |01>
    for before, after, set_qubit in (([0, 0, 1, 0], [0, 0, 0, 1], 0),
                                     ([0, 1, 0, 0], [0, 1, 0, 0], 1)):
        amps = np.array(before, dtype=complex)
        _flip_cnot(amps, 0, np.empty_like(amps))
        assert np.allclose(amps, after)
        angles = np.zeros((1, 2, 2))
        angles[0, set_qubit, 0] = np.pi
        assert np.allclose(run_noisy(angles).density.rho, np.outer(after, after))


def test_random_circuits_match_dense_oracle():
    rng = np.random.default_rng(20260818)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        layers = int(rng.integers(1, 4))
        angles = rng.uniform(-np.pi, np.pi, size=(layers, n, 2))
        fast = run_circuit(angles)
        slow = dense_circuit_state(angles)
        assert np.max(np.abs(fast.amplitudes - slow.amplitudes)) <= 1e-10


def test_expectations_match_dense_oracle():
    rng = np.random.default_rng(7)
    for _ in range(30):
        n = int(rng.integers(2, 5))
        angles = rng.uniform(-np.pi, np.pi, size=(2, n, 2))
        state = run_circuit(angles)
        q1, q2 = rng.choice(n, size=2, replace=False)
        for factors in ([(int(q1), "Z")], [(int(q1), "X")], [(int(q1), "Z"), (int(q2), "Z")]):
            got = expectation(state, PauliTerm(tuple(factors)))
            want = dense_pauli_expectation(state, factors)
            assert abs(got - want) <= 1e-12


def test_sixteen_qubit_depth_two_norm_and_speed():
    rng = np.random.default_rng(16)
    angles = rng.uniform(-np.pi, np.pi, size=(2, 16, 2))
    run_circuit(angles)  # warm-up: allocator and BLAS paths
    t0 = time.perf_counter()
    state = run_circuit(angles)
    elapsed = time.perf_counter() - t0
    assert abs(np.linalg.norm(state.amplitudes) - 1.0) <= 1e-12
    assert elapsed < 0.05, f"16-qubit depth-2 took {elapsed * 1e3:.1f} ms"


def test_pauli_term_validation():
    with pytest.raises(ValueError):
        PauliTerm(())
    with pytest.raises(ValueError):
        PauliTerm(((0, "X"), (1, "Y"), (2, "Z")))
    with pytest.raises(ValueError):
        PauliTerm(((0, "Q"),))
    with pytest.raises(ValueError):
        PauliTerm(((0, "X"), (0, "Z")))
    assert PauliTerm(((1, "Z"), (0, "X"))).factors == ((0, "X"), (1, "Z"))


def test_expectation_bounds():
    rng = np.random.default_rng(3)
    angles = rng.uniform(-np.pi, np.pi, size=(2, 4, 2))
    state = run_circuit(angles)
    for q in range(4):
        assert -1.0 <= expectation(state, PauliTerm(((q, "X"),))) <= 1.0
        assert -1.0 <= expectation(state, PauliTerm(((q, "Z"),))) <= 1.0


# --- noise ---


def test_depolarizing_z_closed_form():
    for theta in (0.3, 1.1, 2.0, -0.7):
        for p in (0.0, 0.01, 0.1, 0.5):
            angles = np.array([[[theta, 0.0]]])
            result = run_noisy(angles, NoiseSpec(kind="depolarizing", p=p))
            got = result.density.expectation(PauliTerm(((0, "Z"),)))
            # Rz after Ry commutes with the Z observable; each gate applies the
            # channel once, so <Z> = (1-p)^2 cos(theta)
            assert abs(got - (1 - p) ** 2 * np.cos(theta)) <= 1e-10


def test_depolarizing_single_gate_closed_form():
    # apply Ry then one depolarizing hit manually: <Z> = (1-p) cos(theta)
    theta, p = 0.9, 0.07
    dm = DensityMatrix(1)
    dm.apply_single(ry_matrix(theta), 0)
    dm.apply_kraus(depolarizing_kraus(p), 0)
    assert abs(dm.expectation(PauliTerm(((0, "Z"),))) - (1 - p) * np.cos(theta)) <= 1e-10


def test_noiseless_density_equals_statevector():
    rng = np.random.default_rng(5)
    angles = rng.uniform(-np.pi, np.pi, size=(2, 3, 2))
    amps = run_circuit(angles).amplitudes
    pure = np.outer(amps, amps.conj())
    noisy = run_noisy(angles, NOISELESS)
    assert np.max(np.abs(pure - noisy.density.rho)) <= 1e-12


def test_noise_preserves_trace_and_reduces_purity():
    def purity(rho):
        return float(np.trace(rho @ rho).real)

    rng = np.random.default_rng(6)
    angles = rng.uniform(-np.pi, np.pi, size=(2, 4, 2))
    pure = purity(run_noisy(angles, NOISELESS).density.rho)
    for kind in ("depolarizing", "thermal", "mixed"):
        result = run_noisy(angles, NoiseSpec(kind=kind, p=0.05, gamma_amp=0.05, gamma_phase=0.05))
        rho = result.density.rho
        assert abs(np.trace(rho) - 1.0) <= 1e-9
        assert np.max(np.abs(rho - rho.conj().T)) <= 1e-9  # hermitian
        assert np.linalg.eigvalsh(rho).min() >= -1e-10  # positive semidefinite
        assert purity(result.density.rho) <= 1.0 + 1e-12
        assert purity(result.density.rho) < pure + 1e-12


def test_density_qubit_cap():
    with pytest.raises(ValueError):
        DensityMatrix(MAX_DENSITY_QUBITS + 1)


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(kind="loud")
    with pytest.raises(ValueError):
        NoiseSpec(kind="depolarizing", p=1.5)
    assert NoiseSpec().is_noiseless


def test_mixed_noise_expectations_match_manual_composition():
    theta, p, g = 0.8, 0.03, 0.02
    angles = np.array([[[theta, 0.4]]])
    got = run_noisy(angles, NoiseSpec(kind="mixed", p=p, gamma_amp=g, gamma_phase=g))
    # manual: Ry, dep+amp+phase, Rz, dep+amp+phase
    dm = DensityMatrix(1)
    dm.apply_single(ry_matrix(theta), 0)
    for kraus in (depolarizing_kraus(p), amplitude_damping_kraus(g), phase_damping_kraus(g)):
        dm.apply_kraus(kraus, 0)
    dm.apply_single(rz_matrix(0.4), 0)
    for kraus in (depolarizing_kraus(p), amplitude_damping_kraus(g), phase_damping_kraus(g)):
        dm.apply_kraus(kraus, 0)
    assert np.max(np.abs(got.density.rho - dm.rho)) <= 1e-12


@pytest.mark.parametrize("kind", qsim.NOISE_KINDS)
def test_one_qubit_paths_keep_the_bytes_of_a_matvec_per_map(kind):
    # no golden output prints these to more than 8 digits: one qubit's 4 coefficients,
    # from (1, 0, 0, 1), go through each map m as m @ v, in run_noisy's gate maps
    # Ry, noise, Rz, noise and in apply_single -> apply_kraus -> apply_single
    spec = NoiseSpec(kind=kind, p=0.05, gamma_amp=0.03, gamma_phase=0.02)
    angles = np.random.default_rng(22).uniform(-np.pi, np.pi, size=(3, 1, 2))
    hit = np.eye(4)
    for family in _kraus_families(spec):
        hit = kraus_ptm(family) @ hit
    v = np.array([1.0, 0.0, 0.0, 1.0])
    for theta_y, theta_z in angles[:, 0]:
        ry, rz = kraus_ptm([ry_matrix(theta_y)]), kraus_ptm([rz_matrix(theta_z)])
        v = (hit @ rz @ hit @ ry) @ v
    assert run_noisy(angles, spec).density._r.tobytes() == v.tobytes()
    dm = DensityMatrix(1)
    first, last = rz_matrix(0.3) @ ry_matrix(1.1), ry_matrix(-0.4)
    dm.apply_single(first, 0)
    v = kraus_ptm([first]) @ np.array([1.0, 0.0, 0.0, 1.0])
    for family in _kraus_families(spec):
        dm.apply_kraus(family, 0)
        v = kraus_ptm(family) @ v
    dm.apply_single(last, 0)
    v = kraus_ptm([last]) @ v
    assert dm._r.tobytes() == v.tobytes()


def test_run_circuit_validates_shape():
    with pytest.raises(ValueError):
        run_circuit(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        run_circuit(np.zeros((2, 3, 3)))



# --- in-place kernels ---


def test_statevector_ops_leave_their_input_unchanged():
    state = run_circuit(np.random.default_rng(8).uniform(-np.pi, np.pi, size=(2, 3, 2)))
    before = state.amplitudes.copy()
    expectation(state, PauliTerm(((0, "X"), (2, "Z"))))
    expectation(state, PauliTerm(((1, "Y"),)))
    assert np.array_equal(state.amplitudes, before)


def test_density_matrix_never_writes_into_the_callers_rho():
    amps = run_circuit(np.random.default_rng(9).uniform(-np.pi, np.pi, size=(1, 3, 2))).amplitudes
    rho = np.outer(amps, amps.conj())
    before = rho.copy()
    dm = _loaded(3, rho)
    dm.apply_single(ry_matrix(0.7), 0)
    dm.apply_kraus(depolarizing_kraus(0.1), 2)
    dm.expectation(PauliTerm(((1, "Z"),)))
    assert np.array_equal(rho, before)
    assert not np.array_equal(dm.rho, before)


def test_density_cnot_matches_dense_conjugation():
    # every chain CNOT's map on r, a random gate on every qubit through apply_single and
    # a random channel on every qubit through apply_kraus, on random mixed states at
    # n = 1..4, against the dense U rho U^dagger and the dense Kraus sum
    rng = np.random.default_rng(10)
    for n in range(1, 5):
        a = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
        rho = a @ a.conj().T / np.trace(a @ a.conj().T)
        for control in range(n - 1):  # every chain pair, the last one included
            dm = _loaded(n, rho)
            dm._r[...] = _map_on_axes(dm._r, qsim._CNOT_PTM, [control, control + 1], n)
            c = dense_cnot_unitary(control, n)
            assert np.max(np.abs(dm.rho - c @ rho @ c.conj().T)) <= 1e-15
        for q in range(n):
            gate = rz_matrix(rng.uniform(-np.pi, np.pi)) @ ry_matrix(rng.uniform(-np.pi, np.pi))
            dm = _loaded(n, rho)
            dm.apply_single(gate, q)
            u = dense_single_qubit_unitary(gate, q, n)
            assert np.max(np.abs(dm.rho - u @ rho @ u.conj().T)) <= 1e-15
            kraus = _random_kraus(rng)
            dm = _loaded(n, rho)
            dm.apply_kraus(kraus, q)
            dense = [dense_single_qubit_unitary(k, q, n) for k in kraus]
            assert np.max(np.abs(dm.rho - sum(k @ rho @ k.conj().T for k in dense))) <= 1e-15
    # a qubit out of range raises before r moves
    dm = _loaded(4, rho)
    before = dm._r.copy()
    for bad in (4, -1):
        with pytest.raises(ValueError, match=f"qubit index {bad} out of range for 4 qubits"):
            dm.apply_single(gate, bad)
        with pytest.raises(ValueError, match=f"qubit index {bad} out of range for 4 qubits"):
            dm.apply_kraus(kraus, bad)
    assert np.array_equal(dm._r, before)


def test_verify_fails_a_density_gate_applied_transposed(monkeypatch):
    # Ry's transpose Ry(-theta) reads the same <Z>; the Rz.Ry gate's X and Y readouts do not
    from tnmpcqep import verify

    def rows():
        return {name: ok for _, name, ok, _ in verify.run_all(["qsim"])}

    assert all(rows().values())
    orig = qsim.DensityMatrix.apply_single
    monkeypatch.setattr(qsim.DensityMatrix, "apply_single",
                        lambda self, gate, q: orig(self, gate.T, q))
    assert rows()["depolarizing_closed_form"] is False


@pytest.mark.parametrize("kind", ["Y", "XZ", "ZX"])
def test_verify_fails_a_statevector_readout_wrong_in_one_term_kind(kind, monkeypatch):
    # the dense-oracle row reads every weight-1 and weight-2 term, not only Z_0
    from tnmpcqep import verify

    orig = qsim.expectation

    def wrong(state, term):
        value = orig(state, term)
        return -value if "".join(p for _, p in term.factors) == kind else value

    monkeypatch.setattr(qsim, "expectation", wrong)
    rows = {name: ok for _, name, ok, _ in verify.run_all(["qsim"])}
    assert rows["expectation_matches_dense_oracle"] is False


def test_density_expectation_matches_dense_trace_for_every_term():
    n = 3
    angles = np.random.default_rng(11).uniform(-np.pi, np.pi, size=(2, n, 2))
    spec = NoiseSpec(kind="mixed", p=0.1, gamma_amp=0.05, gamma_phase=0.05)
    rho = run_noisy(angles, spec).density.rho
    singles = [((q, p),) for q in range(n) for p in "XYZ"]
    pairs = [((a, pa), (b, pb)) for a in range(n) for b in range(a + 1, n)
             for pa in "XYZ" for pb in "XYZ"]
    for factors in singles + pairs:
        op = np.eye(2**n, dtype=complex)
        for q, p in factors:
            op = op @ dense_single_qubit_unitary(PAULI[p], q, n)
        got = _loaded(n, rho).expectation(PauliTerm(factors))
        assert abs(got - np.trace(op @ rho).real) <= 1e-12


def test_density_evolution_allocates_no_full_size_array():
    n = 6
    dm = DensityMatrix(n)
    terms = [PauliTerm(((0, "X"), (1, "Y"))), PauliTerm(((n - 1, "Z"),))]
    tracemalloc.start()
    try:
        for q in range(n):
            dm.apply_kraus(depolarizing_kraus(0.05), q)
        for t in terms:
            dm.expectation(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < dm._r.nbytes // 4


# --- noiseless readout ---


def _vdot_readout(amps, term):
    """The readout written out as the oracle: Re vdot(psi, P psi), clipped to [-1, 1],
    with P psi a copy of the amplitudes psi mixed by each factor's 2x2 matrix in turn."""
    phi = amps.copy()
    for q, p in term.factors:
        _mix_axis(phi, PAULI[p], q)
    return float(np.clip(np.vdot(amps, phi).real, -1.0, 1.0))


@st.composite
def _small_circuits(draw):
    n = draw(st.integers(1, 6))
    layers = draw(st.integers(1, 3))
    return draw(arrays(np.float64, (layers, n, 2), elements=st.floats(-np.pi, np.pi)))


@settings(max_examples=60, deadline=None)
@given(_small_circuits())
def test_every_low_weight_term_matches_the_dense_oracle(angles):
    # every X, Y and Z factor on one qubit and on every pair, all read from one state
    state, dense = run_circuit(angles), dense_circuit_state(angles)
    amps = state.amplitudes
    for term in _every_term(angles.shape[1]):
        got = expectation(state, term)
        assert abs(got - dense_pauli_expectation(dense, term.factors)) <= 1e-12, term.label()
        assert abs(got - _vdot_readout(amps, term)) <= 1e-12, term.label()


_PAULI_PHASE = {"X": (1, 1), "Y": (-1j, 1j), "Z": (1, -1)}


def _block_copy_pauli_into(out, src, neg, factors):
    """out = P src for a weight-1 or weight-2 term by block copies: each block of out
    takes a block of src, or of its negation neg, with real and imaginary parts traded
    for a factor of +-i."""
    if any(p != "X" for _, p in factors):
        np.negative(src.view(np.float64), out=neg.view(np.float64))
    shape, start = [], 0
    for q, _ in factors:
        shape, start = shape + [1 << (q - start), 2], q + 1
    dst, src, neg = (a.reshape(*shape, -1) for a in (out, src, neg))
    for bits in itertools.product((0, 1), repeat=len(factors)):
        phase, to, fro = 1, (), ()
        for (_, p), b in zip(factors, bits):
            phase *= _PAULI_PHASE[p][b]
            to, fro = to + (slice(None), b), fro + (slice(None), b ^ (p != "Z"))
        o, s, m = dst[to], src[fro], neg[fro]
        if phase in (1, -1):
            np.copyto(o, s if phase == 1 else m)
        else:
            np.copyto(o.real, s.imag if phase == -1j else m.imag)
            np.copyto(o.imag, m.real if phase == -1j else s.real)


def _every_term(n):
    """Every single-qubit X/Y/Z term and every pair of qubits under all nine products."""
    terms = [PauliTerm(((q, p),)) for q in range(n) for p in "XYZ"]
    terms += [PauliTerm(((i, a), (j, b))) for i in range(n) for j in range(i + 1, n)
              for a in "XYZ" for b in "XYZ"]
    return terms


@pytest.mark.parametrize("mode", ["nearest_neighbor", "all_pairs"])
@pytest.mark.parametrize("n", range(2, 17))
def test_every_qep_observable_is_within_1e_12_of_the_vdot_readout(n, mode):
    # X and Z on every site from the first to the last, and Z Z on neighbours and on pairs
    # as far apart as the chain allows
    state = run_circuit(np.random.default_rng(100 + n).uniform(-np.pi, np.pi, size=(2, n, 2)))
    amps = state.amplitudes
    for term in observable_set(n, mode):
        assert abs(expectation(state, term) - _vdot_readout(amps, term)) <= 1e-12, term.label()


def _per_term_z_readout(state, term):
    """A Z string's readout written out for one term: w_hi . P . w_lo on a fresh
    P = |psi|^2, one gemv per term with a Z in each half."""
    n, h = state.n_qubits, state.n_qubits // 2
    P = np.square(np.abs(state.amplitudes)).reshape(1 << h, -1)
    hi = sum(1 << (h - 1 - q) for q, _ in term.factors if q < h)
    lo = sum(1 << (n - 1 - q) for q, _ in term.factors if q >= h)

    def signs(bits, mask):
        return np.where(np.bitwise_count(np.arange(1 << bits) & mask) & 1, -1.0, 1.0)

    if not lo:
        val = np.dot(P.sum(axis=1), signs(h, hi))
    elif not hi:
        val = np.dot(P.sum(axis=0), signs(n - h, lo))
    else:
        val = np.dot(signs(h, hi), P @ signs(n - h, lo))
    return float(np.clip(val, -1.0, 1.0))


@pytest.mark.parametrize("n", [12, 16])
def test_all_pairs_z_readout_is_within_1e_12_of_the_per_term_form(n):
    # the marginal readout of the statevector kernel, written out, against the carries of
    # every pair: Z strings inside either half of the qubits and across them
    state = run_circuit(np.random.default_rng(300 + n).uniform(-np.pi, np.pi, size=(2, n, 2)))
    dense = DenseState(n, state.amplitudes)
    terms = [t for t in observable_set(n, "all_pairs") if {p for _, p in t.factors} == {"Z"}]
    assert len(terms) == n + n * (n - 1) // 2
    for term in terms:
        assert abs(expectation(state, term) - _per_term_z_readout(dense, term)) <= 1e-12, term.label()


def _y_or_mixed(term):
    """Whether a term is other than X_q, Z_q and Z_i Z_j: Y alone, or a mixed pair."""
    return "".join(p for _, p in term.factors) not in ("X", "Z", "ZZ")


@st.composite
def _circuit_and_terms(draw):
    # terms read as Re vdot(psi, P psi): Y alone, or any pair of factors but Z Z
    n = draw(st.integers(2, 8))
    layers = draw(st.integers(1, 3))
    angles = draw(arrays(np.float64, (layers, n, 2), elements=st.floats(-np.pi, np.pi)))
    terms = []
    for _ in range(draw(st.integers(1, 6))):
        qubits = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2, unique=True))
        paulis = draw(st.sampled_from(
            ["Y"] if len(qubits) == 1 else [a + b for a in "XYZ" for b in "XYZ" if a + b != "ZZ"]))
        terms.append(PauliTerm(tuple(zip(qubits, paulis))))
    return angles, terms


@settings(max_examples=80, deadline=None)
@given(_circuit_and_terms())
def test_expectation_is_within_1e_12_of_the_mix_axis_readout(case):
    # several terms read from one state, in any order: Y alone, and pairs of any two
    # factors but Z Z, near and far apart
    angles, terms = case
    state = run_circuit(angles)
    amps = state.amplitudes
    for term in terms:
        got = expectation(state, term)
        assert abs(got - _vdot_readout(amps, term)) <= 1e-12
        assert abs(got - dense_pauli_expectation(state, term.factors)) <= 1e-12


@pytest.mark.parametrize("n", list(range(1, 13)) + [16])
def test_y_and_mixed_pair_terms_are_within_1e_12_of_the_mix_axis_readout(n):
    # every term that is not X, Z or Z Z, adjacent and distant pairs at every position,
    # nearest neighbours at n = 16
    state = run_circuit(np.random.default_rng(100 + n).uniform(-np.pi, np.pi, size=(2, n, 2)))
    amps = state.amplitudes
    if n < 16:
        terms = _every_term(n)
    else:
        terms = [PauliTerm(((q, p),)) for q in range(n) for p in "XYZ"]
        terms += [PauliTerm(((q, a), (q + 1, b))) for q in range(n - 1) for a in "XYZ" for b in "XYZ"]
    terms = [t for t in terms if _y_or_mixed(t)]
    pairs = n * (n - 1) // 2 if n < 16 else n - 1
    assert len(terms) == n + 8 * pairs  # each Y, and each pair under all products but Z Z
    for term in terms:
        assert abs(expectation(state, term) - _vdot_readout(amps, term)) <= 1e-12, term.label()


def test_a_nan_amplitude_reads_nan_for_every_qep_observable():
    # a NaN real or imaginary part in any entry of any site tensor, the zeros of the
    # chain's reindex among them, makes amplitudes NaN and reaches every X, Z and ZZ
    # readout, so the QEP's finiteness check after its readout stage fails on it
    n = 6
    tensors = run_circuit(np.random.default_rng(6).uniform(-np.pi, np.pi, size=(2, n, 2))).tensors
    for i in (0, 37, 129, tensors.size - 1):
        bad = tensors.copy()
        bad.reshape(-1).view(np.float64)[2 * i + i % 2] = np.nan
        state = MpsState(bad)
        assert np.isnan(state.amplitudes).any()
        for term in observable_set(n, "all_pairs"):
            assert np.isnan(expectation(state, term)), (i, term.label())


def test_run_circuit_tensors_are_read_only_and_a_state_reads_its_environments_once():
    # the first readout keeps the environments, and every later term reads them; a new
    # state, of a copy of another's tensors, reads its own
    angles = np.random.default_rng(5).uniform(-np.pi, np.pi, size=(2, 4, 2))
    state, other = run_circuit(angles), run_circuit(angles[::-1])
    with pytest.raises(ValueError, match="read-only"):
        state.tensors[0, 0, 0, 0] = 1.0
    z = PauliTerm(((1, "Z"), (3, "Z")))
    before = expectation(state, z)
    kept = state._kept
    expectation(state, PauliTerm(((0, "X"),)))
    assert state._kept is kept and expectation(state, z) == before
    mine = MpsState(other.tensors.copy())
    assert mine.n_qubits == 4 and expectation(mine, z) == expectation(other, z) != before


@pytest.mark.parametrize("layers", range(4))
def test_run_circuit_is_an_mps_of_bond_two_to_the_layers(layers):
    # one stacked (n, 2^L, 2, 2^L) array, exact: its norm is 1 and its amplitudes are the
    # dense oracle's
    n = 5
    angles = np.random.default_rng(50 + layers).uniform(-np.pi, np.pi, size=(layers, n, 2))
    state = run_circuit(angles)
    assert state.tensors.shape == (n, 2**layers, 2, 2**layers)
    assert np.abs(state.amplitudes - dense_circuit_state(angles).amplitudes).max() <= 1e-12
    assert abs(np.linalg.norm(state.amplitudes) - 1.0) <= 1e-12


def _block_copy_density_expectation(rho, term):
    """DensityMatrix.expectation with the block-copy image of all-ones as its phases."""
    n = len(rho).bit_length() - 1
    phase, flip = np.empty(len(rho), dtype=complex), 0
    _block_copy_pauli_into(phase, np.ones_like(phase), np.empty_like(phase), term.factors)
    for q, p in term.factors:
        flip |= (p != "Z") << (n - 1 - q)
    rows = np.arange(len(rho))
    val = np.sum(phase * rho[rows ^ flip, rows])
    return float(np.clip(val.real, -1.0, 1.0))


def _pauli_index(term, n):
    """The flat index of term's coefficient in a C-ordered [4]*n r: I, X, Y, Z are 0..3."""
    return sum("IXYZ".index(p) * 4 ** (n - 1 - q) for q, p in term.factors)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_density_readout_reads_the_plan(n):
    # the readout is the coefficient at the term's Pauli string, and within 1e-12 of the
    # block-copy readout of the materialised rho
    rng = np.random.default_rng(200 + n)
    dm = run_noisy(rng.uniform(-np.pi, np.pi, size=(2, n, 2)),
                   NoiseSpec(kind="mixed", p=0.05, gamma_amp=0.03, gamma_phase=0.02)).density
    rho = dm.rho
    for term in _every_term(n):
        got = dm.expectation(term)
        assert got == dm._r[_pauli_index(term, n)]
        assert abs(got - _block_copy_density_expectation(rho, term)) <= 1e-12


@st.composite
def _hermitian_and_term(draw):
    n = draw(st.integers(1, 6))
    dim = 1 << n
    parts = draw(arrays(np.float64, (2, dim, dim), elements=st.floats(-1.0, 1.0)))
    rho = parts[0] + 1j * parts[1]
    qubits = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2, unique=True))
    term = PauliTerm(tuple((q, draw(st.sampled_from("XYZ"))) for q in qubits))
    return n, (rho + rho.conj().T) / (2 * dim), term


@settings(max_examples=80, deadline=None)
@given(_hermitian_and_term())
def test_density_expectation_keeps_its_block_copy_values(case):
    # the block-copy readout of the complex path, kept as the oracle, to 1e-12
    n, rho, term = case
    dm = _loaded(n, rho)
    terms = [term]
    if n > 1:
        terms += observable_set(n, "nearest_neighbor") + observable_set(n, "all_pairs")
    for t in terms:
        got = dm.expectation(t)
        assert abs(got - _block_copy_density_expectation(rho, t)) <= 1e-12, t.label()


def test_density_readout_is_one_coefficient_read_without_allocation():
    n = 8
    angles = np.random.default_rng(18).uniform(-np.pi, np.pi, size=(2, n, 2))
    dm = run_noisy(angles, NoiseSpec(kind="depolarizing", p=0.05)).density
    terms = observable_set(n, "all_pairs")
    dm.expectation(terms[0])
    tracemalloc.start()
    try:
        got = [dm.expectation(t) for t in terms]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < dm._r.nbytes // 16
    assert got == [float(dm._r[_pauli_index(t, n)]) for t in terms]


def test_pauli_terms_sort_their_factors_for_equality_and_hash():
    a, b = PauliTerm(((3, "Z"), (1, "Y"))), PauliTerm(((1, "Y"), (3, "Z")))
    assert a == b and hash(a) == hash(b) and a.factors == ((1, "Y"), (3, "Z"))
    assert a != PauliTerm(((1, "Y"), (3, "X")))


def test_sixteen_qubit_three_layer_circuit_and_readouts_allocate_no_state_sized_array():
    # the bond-8 MPS and all that its 47 nearest-neighbour readouts keep stay below one
    # array of 2^16 amplitudes, the state vector they replace
    n = 16
    angles = np.random.default_rng(1603).uniform(-np.pi, np.pi, size=(3, n, 2))
    terms = observable_set(n, "nearest_neighbor")
    assert len(terms) == 47
    run_circuit(angles)  # warm-up: the chain's gather index is cached per (n, bond)
    tracemalloc.start()
    try:
        state = run_circuit(angles)
        for t in terms:
            expectation(state, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert state.tensors.shape == (n, 8, 2, 8)
    assert peak < (1 << n) * np.dtype(complex).itemsize


def test_run_noisy_raises_when_the_trace_drifts(monkeypatch):
    angles = np.random.default_rng(13).uniform(-np.pi, np.pi, size=(1, 3, 2))
    spec = NoiseSpec(kind="depolarizing", p=0.05)
    ptm = qsim.kraus_ptm
    monkeypatch.setattr(qsim, "kraus_ptm", lambda kraus: 1.01 * ptm(kraus))
    qsim._noise_maps.cache_clear()  # the noise-only maps are kept per NoiseSpec
    with pytest.raises(ValueError, match=r"trace drifted to 1\.\d*[1-9]"):
        run_noisy(angles, spec)
    monkeypatch.undo()
    qsim._noise_maps.cache_clear()
    assert abs(np.trace(run_noisy(angles, spec).density.rho) - 1.0) <= 1e-12


def test_run_noisy_checks_two_necessary_conditions_of_positivity(monkeypatch):
    angles = np.random.default_rng(13).uniform(-np.pi, np.pi, size=(1, 3, 2))
    spec = NoiseSpec(kind="depolarizing", p=0.05)
    ptm = qsim.kraus_ptm
    # every map scaled out of CP but still trace preserving: rows X, Y, Z times 1.5
    monkeypatch.setattr(qsim, "kraus_ptm", lambda kraus: ptm(kraus) * [[1.0], [1.5], [1.5], [1.5]])
    qsim._noise_maps.cache_clear()
    with pytest.raises(ValueError, match=r"a Pauli coefficient reached [1-9]"):
        run_noisy(angles, spec)
    monkeypatch.undo()
    qsim._noise_maps.cache_clear()
    run_noisy(angles, spec)
    # a NaN angle fails them too, past a trace check that would fail it first
    monkeypatch.setattr(DensityMatrix, "check_trace", lambda self: None)
    with pytest.raises(ValueError, match="a Pauli coefficient reached nan"):
        run_noisy(np.where(angles == angles[0, 1, 0], np.nan, angles), spec)


def test_bounds_check_reads_every_coefficient_and_the_purity():
    # (I + s (X + Y + Z)) / 2 at s = 0.9: every |r_P| <= 1 but purity (1 + 3 s^2) / 2 > 1
    bloch = _loaded(1, (PAULI["I"] + 0.9 * (PAULI["X"] + PAULI["Y"] + PAULI["Z"])) / 2)
    bloch.check_trace()
    with pytest.raises(ValueError, match=r"purity reached 1\.71"):
        bloch.check_bounds()
    run_noisy(np.zeros((1, 3, 2)), NOISELESS).density.check_bounds()  # |000>: all at 1
    dm = _loaded(3, np.eye(8) / 8)  # purity 1/8, so one coefficient moves only the first
    for at in (1, 37, 63):
        for bad, ok in ((1.0 + 2e-9, False), (-1.0 - 2e-9, False), (np.nan, False),
                        (1.0 + 5e-10, True), (-1.0, True)):
            dm._r[1:] = 0.0
            dm._r[at] = bad
            if ok:
                dm.check_bounds()
            else:
                with pytest.raises(ValueError, match="a Pauli coefficient reached"):
                    dm.check_bounds()


# --- the complex density path, written out as the oracle of the Pauli-coefficient one ---


def _gather_scatter_channel(rho, scratch, superop, q, n):
    """The channel before tracked storage orders: gather q's row and column bit in
    front, one 4x4 matmul, scatter back; returns (rho, scratch) after the swap."""
    lead, trail = 1 << q, 1 << (n - q - 1)
    split = (lead, 2, trail * lead, 2, trail)
    grouped = (2, 2, lead, trail * lead, trail)
    np.copyto(scratch.reshape(grouped), rho.reshape(split).transpose(1, 3, 0, 2, 4))
    np.matmul(superop.reshape(4, 4), scratch.reshape(4, -1), out=rho.reshape(4, -1))
    np.copyto(scratch.reshape(split), rho.reshape(grouped).transpose(2, 0, 3, 1, 4))
    return scratch, rho


def _reference_evolution(rho, ops, n):
    """rho after ops on the complex (2^n, 2^n) matrix: (superop, q) a (2, 2, 2, 2)
    superoperator channel, (None, c, c + 1) a CNOT."""
    rho, scratch = rho.copy(), np.empty_like(rho)
    for superop, *qubits in ops:
        if superop is None:  # the CNOT before: flip rows, then columns, in place
            _flip_cnot(rho, qubits[0], scratch)
            _flip_cnot(rho, n + qubits[0], scratch)
        else:
            rho, scratch = _gather_scatter_channel(rho, scratch, superop, qubits[0], n)
    return rho


def _one_family_superoperator(kraus):
    """S[r,s,u,v] = sum_i K_i[r,u] conj(K_i[s,v]), so rho'_{rs} = S[r,s,u,v] rho_{uv}."""
    ks = np.asarray(kraus, dtype=complex)
    return np.einsum("iru,isv->rsuv", ks, ks.conj())


def _one_by_one_composition(superops):
    """Channels applied left to right, fused into one superoperator."""
    flat = None
    for s in superops:
        flat = s.reshape(4, 4) if flat is None else s.reshape(4, 4) @ flat
    return flat.reshape(2, 2, 2, 2)


def _random_kraus(rng):
    """A random trace-preserving family of 1-3 Kraus operators, K_i G^-1/2 for
    G = sum_i K_i^dagger K_i."""
    k = int(rng.integers(1, 4))
    ks = rng.normal(size=(k, 2, 2)) + 1j * rng.normal(size=(k, 2, 2))
    w, v = np.linalg.eigh(np.einsum("kba,kbc->ac", ks.conj(), ks))
    return ks @ (v / np.sqrt(w)) @ v.conj().T


def _hermitian(rng, n):
    a = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    return (a + a.conj().T) / 2 ** (n + 1)


def _pair_map(rng, c):
    """CNOT(c, c + 1) and a random channel on each of its qubits: the fused 16x16 op on
    (c, c + 1), and the same as the oracle's ops."""
    kc, kt = _random_kraus(rng), _random_kraus(rng)
    fused = (np.kron(kraus_ptm(kc), kraus_ptm(kt)) @ qsim._CNOT_PTM, c, c + 1)
    return fused, [(None, c, c + 1), (_one_family_superoperator(kc), c),
                   (_one_family_superoperator(kt), c + 1)]


def _random_chain(rng, n, layers):
    """An (layers, n - 1, 16, 16) stack of random fused pair maps, as _run_chain takes it,
    and the oracle's ops for it, layer by layer."""
    pairs = [[_pair_map(rng, c) for c in range(n - 1)] for _ in range(layers)]
    maps = np.array([[fused[0] for fused, _ in layer] for layer in pairs])
    oracle_ops = [op for layer in pairs for _, separate in layer for op in separate]
    return maps.reshape(layers, n - 1, 16, 16), oracle_ops


def _stack_ops(maps):
    """The ops of a run_noisy map stack, layer by layer: (g, 0) for each of one qubit's
    (L, 1, 4, 4) gates, else (m, q, q + 1) for an (L, n - 1, 16, 16) stack."""
    if maps.shape[-1] == 4:
        return [(m, 0) for m in maps[:, 0]]
    return [(m, q, q + 1) for layer in maps for q, m in enumerate(layer)]


@st.composite
def _evolution_cases(draw):
    """1-8 qubits, a Hermitian rho, a stack of 0-3 layers of random fused CNOT-and-noise
    maps (none on one qubit) with the oracle's ops, and a run of 0 to 2n random channels."""
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    maps, chain_ops = _random_chain(rng, n, draw(st.integers(0, 3)) if n > 1 else 0)
    qubits = draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
    return n, _hermitian(rng, n), maps, chain_ops, [(_random_kraus(rng), q) for q in qubits]


@settings(max_examples=150, deadline=None)
@given(_evolution_cases())
def test_evolution_matches_gather_scatter_and_flip_cnot(case):
    # the chain of fused maps from |0...0><0...0| and then the channels, and the
    # channels alone from the drawn rho
    n, explicit, maps, chain_ops, channels = case
    channel_ops = [(_one_family_superoperator(kraus), q) for kraus, q in channels]
    for rho in (None, explicit):
        dm = _loaded(n, rho)
        if rho is None and len(maps):
            dm._run_chain(maps)
        for kraus, q in channels:
            dm.apply_kraus(kraus, q)
        if rho is None:
            want = _reference_evolution(_zero_rho(n), chain_ops + channel_ops, n)
        else:
            want = _reference_evolution(rho, channel_ops, n)
        got = dm.rho
        assert got.shape == (2**n, 2**n) and got.flags.c_contiguous
        assert np.abs(got - want).max() <= 1e-12


def test_noisy_run_op_list_allocates_no_quarter_of_rho():
    # two layers of pair maps with gates folded in through the chain, then a gate map on
    # every qubit
    n = 6
    rng = np.random.default_rng(15)
    hit = kraus_ptm(depolarizing_kraus(0.05))
    pair = np.kron(hit, hit) @ qsim._CNOT_PTM
    maps = np.array([[pair @ np.kron(np.eye(4), kraus_ptm(_random_kraus(rng)))
                      for _ in range(n - 1)] for _ in range(2)])
    gates = [kraus_ptm(_random_kraus(rng)) for _ in range(n)]
    dm = DensityMatrix(n)
    tracemalloc.start()
    try:
        dm._run_chain(maps)
        for q, g in enumerate(gates):
            dm._apply(g, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < dm._r.nbytes // 4


def _kraus_families(noise):
    """The Kraus families that land, in order, after every gate under noise."""
    thermal = [amplitude_damping_kraus(noise.gamma_amp), phase_damping_kraus(noise.gamma_phase)]
    return {"noiseless": [], "depolarizing": [depolarizing_kraus(noise.p)],
            "thermal": thermal, "mixed": [depolarizing_kraus(noise.p)] + thermal}[noise.kind]


def _zero_rho(n):
    rho = np.zeros((2**n, 2**n), dtype=complex)
    rho[0, 0] = 1.0
    return rho


@pytest.mark.parametrize("kind", qsim.NOISE_KINDS)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("layers", [1, 2])
def test_run_noisy_matches_the_dense_kraus_sum(kind, n, layers):
    rng = np.random.default_rng(100 * n + 10 * layers + qsim.NOISE_KINDS.index(kind))
    angles = rng.uniform(-np.pi, np.pi, size=(layers, n, 2))
    spec = NoiseSpec(kind=kind, p=0.1, gamma_amp=0.08, gamma_phase=0.06)
    got = run_noisy(angles, spec)
    want = dense_noisy_density(angles, spec)
    assert np.max(np.abs(got.density.rho - want)) <= 1e-12
    singles = [((q, p),) for q in range(n) for p in "XYZ"]
    pairs = [((a, pa), (b, pb)) for a in range(n) for b in range(a + 1, n)
             for pa in "XYZ" for pb in "XYZ"]
    for factors in singles + pairs:
        op = np.eye(2**n, dtype=complex)
        for q, p in factors:
            op = op @ dense_single_qubit_unitary(PAULI[p], q, n)
        assert abs(got.expectations([PauliTerm(factors)])[0] - np.trace(op @ want).real) <= 1e-12


# --- run_noisy against the complex path, gate by gate ---


def _per_gate_ops(angles, noise):
    """run_noisy's op list for the complex path, built gate by gate: Ry, noise, Rz, noise
    fused into one superoperator per gate, then each CNOT and the noise on its qubits."""
    layers, n, _ = angles.shape
    families = [_one_family_superoperator(k) for k in _kraus_families(noise)]
    hits = [_one_by_one_composition(families)] if families else []
    ops = []
    for layer in range(layers):
        for q in range(n):
            ry = _one_family_superoperator([ry_matrix(angles[layer, q, 0])])
            rz = _one_family_superoperator([rz_matrix(angles[layer, q, 1])])
            ops.append((_one_by_one_composition([ry, *hits, rz, *hits]), q))
        for q in range(n - 1):
            ops += [(None, q, q + 1)] + [(h, c) for c in (q, q + 1) for h in hits]
    return ops


def _per_gate_ptm_ops(angles, noise):
    """run_noisy's own op list, built gate by gate from kraus_ptm of single families."""
    layers, n, _ = angles.shape
    hit = np.eye(4)
    for family in _kraus_families(noise):
        hit = kraus_ptm(family) @ hit
    pair = np.kron(hit, hit) @ qsim._CNOT_PTM
    ops = []
    for layer in range(layers):
        for q in range(n):
            ry = kraus_ptm([ry_matrix(angles[layer, q, 0])])
            rz = kraus_ptm([rz_matrix(angles[layer, q, 1])])
            ops.append((hit @ rz @ hit @ ry, q))
        ops += [(pair, q, q + 1) for q in range(n - 1)]
    return ops


def _written_out_fold(ops, n):
    """Per-gate ops, n gate maps then n - 1 pair maps a layer, with each layer's gates
    folded into its pair maps: pair . kron(g_0, g_1) on (0, 1) and pair . kron(I, g_q+1)
    on (q, q + 1).  One qubit keeps its gate maps."""
    if n == 1:
        return ops
    folded = []
    for start in range(0, len(ops), 2 * n - 1):
        gates = [m for m, _ in ops[start : start + n]]
        for q, (pair, c, t) in enumerate(ops[start + n : start + 2 * n - 1]):
            left = gates[0] if q == 0 else np.eye(4)
            folded.append((pair @ np.kron(left, gates[q + 1]), c, t))
    return folded


def _written_out_ptm(kraus):
    """R[i, j] = tr(P_i sum_k K_k P_j K_k^dagger) / 2, entry by entry."""
    paulis = [PAULI[p] for p in "IXYZ"]
    return np.array([[np.trace(pi @ sum(k @ pj @ k.conj().T for k in kraus)).real / 2
                      for pj in paulis] for pi in paulis])


# as for the statevector, angles whose gates hold signed zeros or exact +-1 entries
# (Ry(0) holds -sin(0) = -0.0) are drawn by name, since uniform floats almost never hit them
_NOISY_ANGLES = st.sampled_from(
    (0.0, -0.0, np.pi, -np.pi, np.pi / 2, -np.pi / 2, 2 * np.pi, 1e-300)
) | st.floats(-2 * np.pi, 2 * np.pi)
_STRENGTHS = st.sampled_from((0.0, 1.0)) | st.floats(0.0, 1.0)


@st.composite
def _noisy_runs(draw):
    n = draw(st.integers(1, 8))
    layers = draw(st.integers(1, 3))
    angles = draw(arrays(np.float64, (layers, n, 2), elements=_NOISY_ANGLES))
    spec = NoiseSpec(kind=draw(st.sampled_from(qsim.NOISE_KINDS)), p=draw(_STRENGTHS),
                     gamma_amp=draw(_STRENGTHS), gamma_phase=draw(_STRENGTHS))
    return angles, spec


@settings(max_examples=120, deadline=None)
@given(_noisy_runs())
def test_run_noisy_matches_the_per_gate_complex_path(case):
    angles, spec = case
    n = angles.shape[1]
    want = _reference_evolution(_zero_rho(n), _per_gate_ops(angles, spec), n)
    got = run_noisy(angles, spec).density.rho
    assert got.shape == (2**n, 2**n) and got.flags.c_contiguous
    assert np.abs(got - want).max() <= 1e-12


def _gamma(k):
    """gamma_k = k u / (1 - k u), u = eps / 2: a sum of k products, in any order and
    fused or not, errs by at most gamma_k |a| . |b|, plus half the smallest subnormal for
    each product that underflows (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., 2002, sections 2.1 and 3.1)."""
    u = np.finfo(float).eps / 2
    return k * u / (1 - k * u)


# eta, the underflow bound of one product: half the smallest subnormal is not a float,
# so a whole one
_ETA = np.finfo(float).smallest_subnormal


def _rounding_bound(n, steps):
    """A first-order bound, entry by entry, on how far r after steps, run from a new
    DensityMatrix's |0...0><0...0|, lies from the same maps in exact arithmetic.  Each
    step (m, local, k, qubits) maps its qubits' axes by m, its own roundings err by at
    most local . |x| + k eta on the x it reads, and the error it reads is carried on as
    |m| . e."""
    a, e = np.abs(DensityMatrix(n)._r), np.zeros(4**n)
    for m, local, k, qubits in steps:
        e = _map_on_axes(e, np.abs(m), qubits, n) + _map_on_axes(a, local, qubits, n) + k * _ETA
        a = _map_on_axes(a, np.abs(m), qubits, n)
    return e


@settings(max_examples=120, deadline=None)
@given(_noisy_runs())
# an all-zero-angle thermal run whose r erred by 10 ulp of 1, above layers * n = 9
@example((np.zeros((3, 3, 2)), NoiseSpec("thermal", p=0.0, gamma_amp=0.0, gamma_phase=0.75)))
def test_stacked_gate_maps_keep_the_bytes_of_the_per_gate_build(case):
    angles, spec = case
    for family in _kraus_families(spec):
        assert np.abs(kraus_ptm(family) - _written_out_ptm(family)).max() <= 1e-15
    # a stack of families gives each member's bytes
    stack = np.array([depolarizing_kraus(p) for p in angles.ravel() / (4 * np.pi) + 0.5])
    maps = kraus_ptm(stack)
    assert maps.shape == stack.shape[:1] + (4, 4)
    for family, got in zip(stack, maps):
        assert got.tobytes() == kraus_ptm(family).tobytes()
        assert np.abs(got - _written_out_ptm(family)).max() <= 1e-15
    # run_noisy's own maps: each folded map within 1e-15 of the per-gate ops folded
    # written out, and r within the roundings of both runs of the per-gate ops
    n = angles.shape[1]
    got_ops, want_ops = _stack_ops(qsim._layer_ops(angles, spec)), _per_gate_ptm_ops(angles, spec)
    folded = _written_out_fold(want_ops, n)
    assert len(got_ops) == len(folded)
    for (got, *got_qubits), (want, *want_qubits) in zip(got_ops, folded):
        assert got_qubits == want_qubits
        assert np.abs(got - want).max() <= 1e-15
    # Both runs start from the same exact |0...0><0...0| and the same bytes of the gate
    # maps g and of pair (the CNOT and its noise), whose entries are at most 1, and each
    # is bounded against the per-gate ops in exact arithmetic (_gamma):
    # - the per-gate run (_grow_then_map) applies each g as sums of 4 products,
    #   gamma_4 |g|; grows layer 0's product with n - 1 rounded products per entry,
    #   gamma_(n-1) relative; and applies each pair as sums of 16 products, gamma_16 |pair|
    # - run_noisy applies each folded F = pair . kron(left, g) as sums of 16 products,
    #   gamma_16 |F| (layer 0's fold of a qubit's (1, 0, 0, 1) and its 4-product sums on
    #   the block stay within it); F's build, one rounded product per kron entry and
    #   sums of 16 products, leaves each entry within gamma_17 |pair| . kron(|left|, |g|)
    #   + 32 eta of the exact fold, and that error reaches r through the 16 entries of x
    # - at n = 1 both runs apply each g as sums of 4 products
    want_steps = [(m, _gamma(4 ** len(q)) * np.abs(m), 4 ** len(q), tuple(q)) for m, *q in want_ops]
    if n == 1:
        got_steps = want_steps
    else:
        want_steps.insert(n, (np.eye(4), _gamma(n - 1) * np.eye(4), n - 1, (0,)))
        kron_bounds = _written_out_fold([(np.abs(m), *q) for m, *q in want_ops], n)
        got_steps = [(m, _gamma(16) * np.abs(m) + _gamma(17) * b + 32 * _ETA, 16, tuple(q))
                     for (m, *q), (b, *_) in zip(got_ops, kron_bounds)]
    bound = _rounding_bound(n, got_steps) + _rounding_bound(n, want_steps)
    got_r = run_noisy(angles, spec).density._r
    assert (np.abs(got_r - _grow_then_map(n, want_ops)) <= bound).all()


@st.composite
def _fresh_state_steps(draw):
    """A stack of 0-2 layers of random fused pair maps, then 1-4 apply_single or
    apply_kraus steps."""
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    maps, _ = _random_chain(rng, n, draw(st.integers(0, 2)) if n > 1 else 0)
    steps = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            gate = rz_matrix(draw(_NOISY_ANGLES)) @ ry_matrix(draw(_NOISY_ANGLES))
            steps.append(("single", gate, draw(st.integers(0, n - 1))))
        else:
            family = draw(st.sampled_from((depolarizing_kraus, amplitude_damping_kraus,
                                           phase_damping_kraus)))(draw(_STRENGTHS))
            steps.append(("kraus", family, draw(st.integers(0, n - 1))))
    return n, maps, steps


@settings(max_examples=150, deadline=None)
@given(_fresh_state_steps())
def test_fresh_density_matrix_matches_the_explicit_zero_rho_path(case):
    # a new DensityMatrix holds the r that assigning |0...0><0...0| sets, so the chain,
    # which starts from it, runs the same on both
    n, maps, steps = case
    fresh, explicit = DensityMatrix(n), _loaded(n, _zero_rho(n))
    assert np.array_equal(fresh._r, explicit._r)
    for dm in (fresh, explicit):
        if len(maps):
            dm._run_chain(maps)
        for kind, what, q in steps:
            if kind == "single":
                dm.apply_single(what, q)
            else:
                dm.apply_kraus(what, q)
    assert np.abs(fresh._r - explicit._r).max() <= 1e-12


def _grow_then_map(n, ops):
    """r after ops on a fresh |0...0><0...0|, written out: one-qubit maps act on each
    qubit's 4 coefficients until the first pair map, the product of all n is grown, and
    every later map runs on its axes of the [4]*n tensor."""
    lone = [np.array([1.0, 0.0, 0.0, 1.0]) for _ in range(n)]
    first = next((i for i, op in enumerate(ops) if len(op) == 3), len(ops))
    for m, q in ops[:first]:
        lone[q] = m @ lone[q]
    r = lone[0]
    for v in lone[1:]:
        r = np.multiply.outer(r, v)
    for m, *qubits in ops[first:]:
        r = _map_on_axes(r, m, qubits, n)
    return np.ravel(r)


def _map_on_axes(r, m, qubits, n):
    """The flat r of a [4]*n tensor with the map m on its qubits' axes, written out."""
    w = len(qubits)
    front = np.moveaxis(np.reshape(r, (4,) * n), qubits, range(w))
    mapped = (np.reshape(m, (4**w, 4**w)) @ front.reshape(4**w, -1)).reshape(front.shape)
    return np.moveaxis(mapped, range(w), qubits).ravel()


@pytest.mark.parametrize("n", range(2, 7))
def test_lone_fold_on_a_fresh_state_matches_grow_then_map_and_the_dense_kraus_sum(n):
    # layer 0's pair map on (t - 1, t) takes qubit t's 4 coefficients into the map, for
    # random pair maps on 1-3 layers and as run_noisy's layers
    rng = np.random.default_rng(60 + n)
    for layers in (1, 2, 3, 1, 2, 3):
        maps, oracle_ops = _random_chain(rng, n, layers)
        fresh = DensityMatrix(n)
        fresh._run_chain(maps)
        assert np.abs(fresh._r - _grow_then_map(n, _stack_ops(maps))).max() <= 1e-14
        want = _reference_evolution(_zero_rho(n), oracle_ops, n)
        assert np.abs(fresh.rho - want).max() <= 1e-12
    for kind in ("depolarizing", "thermal", "mixed"):
        angles = rng.uniform(-np.pi, np.pi, size=(2, n, 2))
        spec = NoiseSpec(kind=kind, p=0.1, gamma_amp=0.08, gamma_phase=0.06)
        got = run_noisy(angles, spec).density
        want_r = _grow_then_map(n, _stack_ops(qsim._layer_ops(angles, spec)))
        assert np.abs(got._r - want_r).max() <= 1e-14
        assert np.abs(got.rho - dense_noisy_density(angles, spec)).max() <= 1e-12


def test_noisy_expectations_are_one_gather_with_the_per_term_bytes():
    n = 5
    angles = np.random.default_rng(17).uniform(-np.pi, np.pi, size=(2, n, 2))
    result = run_noisy(angles, NoiseSpec(kind="mixed", p=0.05, gamma_amp=0.03,
                                         gamma_phase=0.02))
    terms = _every_term(n)

    def per_term():  # one clipped coefficient per term, NaN kept
        return np.array([float(min(max(result.density._r[_pauli_index(t, n)], -1.0), 1.0))
                         for t in terms])

    assert result.expectations(terms).tobytes() == per_term().tobytes()
    # out of range, signed zeros, tiny and NaN coefficients, in every term's slot
    special = np.array([1.5, -1.5, 1.0 + 1e-12, -0.0, 0.0, 1e-300, -np.inf, np.inf, np.nan])
    result.density._r[1:] = np.resize(special, result.density._r.size - 1)
    got = result.expectations(terms)
    assert got.tobytes() == per_term().tobytes()
    assert np.isnan(got).any() and set(np.abs(got[np.isfinite(got)])) >= {1.0, 0.0, 1e-300}
    assert result.expectations(tuple(terms)).tobytes() == per_term().tobytes()
    assert result.expectations([]).shape == (0,)
    # the flat indices are kept read-only per (n, terms)
    index = qsim._coefficient_indices(n, tuple(terms))
    assert qsim._coefficient_indices(n, tuple(list(terms))) is index
    assert not index.flags.writeable
    # a qubit out of range raises as the per-term readout did, for the first such term
    for bad in (n, -1):
        with pytest.raises(ValueError, match=f"qubit index {bad} out of range for {n} qubits"):
            result.expectations(terms[:3] + [PauliTerm(((0, "Z"), (bad, "X"))),
                                             PauliTerm(((n + 1, "Y"),))])


@pytest.mark.parametrize("n", [8, 10])
def test_every_noisy_matmul_fits_one_blas_thread(n):
    # OpenBLAS splits a real matmul of 2^20 rows x inner x outer (an 8-qubit 16x16 map
    # on 4096 rows) across its threads, so the density path makes none above 2^18: not
    # in the map build, the folds, the pair maps, or a one-qubit map on the first or the
    # last qubit
    real = np.matmul
    angles = np.random.default_rng(20).uniform(-np.pi, np.pi, size=(2, n, 2))
    with mock.patch.object(np, "matmul", side_effect=real) as matmul:
        run_noisy(angles, NoiseSpec(kind="thermal"))
        dm = DensityMatrix(n)
        for q in (0, n - 1):
            dm.apply_single(rz_matrix(0.3) @ ry_matrix(1.1), q)
    sizes = [a.shape[-2] * a.shape[-1] * b.shape[-1] for (a, b), _ in matmul.call_args_list]
    assert len(sizes) > 2 * n and max(sizes) <= 1 << 18


def test_warm_noisy_run_peaks_at_its_two_buffer_block():
    n = 6
    angles = np.random.default_rng(16).uniform(-np.pi, np.pi, size=(2, n, 2))
    spec = NoiseSpec(kind="mixed", p=0.05, gamma_amp=0.05, gamma_phase=0.05)
    run_noisy(angles, spec)  # warm: imports, caches and the einsum paths
    tracemalloc.start()
    try:
        result = run_noisy(angles, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = 2 * result.density._r.nbytes  # r and the scratch, 64 KiB at n = 6
    assert peak <= block + 32 * 1024
    assert result.density._scratch.base is result.density._r.base


# --- every noisy expectation against the complex path, guards ---


def _oracle_terms(n):
    """Both observable sets, or every one-qubit term at n = 1."""
    if n == 1:
        return [PauliTerm(((0, p),)) for p in "XYZ"]
    return observable_set(n, "nearest_neighbor") + observable_set(n, "all_pairs")


def _check_against_the_complex_path(n, kind, seed):
    angles = np.random.default_rng(seed).uniform(-np.pi, np.pi, size=(2, n, 2))
    spec = NoiseSpec(kind=kind, p=0.05, gamma_amp=0.03, gamma_phase=0.02)
    terms = _oracle_terms(n)
    rho = _reference_evolution(_zero_rho(n), _per_gate_ops(angles, spec), n)
    want = [_block_copy_density_expectation(rho, t) for t in terms]
    assert np.abs(run_noisy(angles, spec).expectations(terms) - want).max() <= 1e-12


@pytest.mark.parametrize("kind", qsim.NOISE_KINDS)
@pytest.mark.parametrize("n", range(1, 9))
def test_noisy_expectations_match_the_complex_path(n, kind):
    _check_against_the_complex_path(n, kind, 800 + n)


@pytest.mark.parametrize("kind", qsim.NOISE_KINDS)
@pytest.mark.parametrize("n", [9, 10])
def test_run_noisy_on_nine_and_ten_qubits_is_within_1e_12_of_gather_scatter(n, kind):
    # the 9- and 10-qubit cases of the test above
    _check_against_the_complex_path(n, kind, 900 + n)


@pytest.mark.parametrize("kind", ["depolarizing", "thermal", "mixed"])
def test_two_layer_noisy_run_never_copies_rho(kind):
    # the first layer's CNOT chain grows a product block, and every later map finds its
    # pair in front: every pass over r is a matmul from one half of the block into the
    # other, and nothing is copied
    n = 8
    angles = np.random.default_rng(19).uniform(-np.pi, np.pi, size=(2, n, 2))
    real, copyto = np.matmul, np.copyto
    with mock.patch.object(np, "matmul", side_effect=real) as matmul, \
            mock.patch.object(np, "copyto", side_effect=copyto) as copy:
        dm = run_noisy(angles, NoiseSpec(kind=kind)).density
    assert copy.call_count == 0
    halves = (dm._r, dm._scratch)
    passes = [(a, kw["out"]) for (a, _), kw in matmul.call_args_list
              if np.shares_memory(kw["out"], dm._r.base)]
    assert len(passes) >= 2 * (n - 1)
    for a, out in passes:
        reads = [np.shares_memory(a, h) for h in halves]
        assert sorted(reads) == [False, True]
        assert [np.shares_memory(out, h) for h in halves] == reads[::-1]


def test_a_non_finite_trace_fails_the_trace_check():
    for bad in (np.nan, np.inf, -np.inf, complex(np.nan, 0.0), complex(1.0, np.nan)):
        with pytest.raises(ValueError, match="trace drifted"):
            _loaded(2, np.full((4, 4), bad)).check_trace()
    with pytest.raises(ValueError, match=r"trace drifted to \(?nan"):
        run_noisy(np.full((1, 2, 2), np.nan), NoiseSpec(kind="depolarizing"))


def test_check_trace_reads_the_identity_coefficient():
    dm = DensityMatrix(2)
    dm.check_trace()
    for bad in (1.0 + 2e-9, 1.0 - 2e-9, np.nan, np.inf, -np.inf):
        dm._r[0] = bad
        with pytest.raises(ValueError, match="trace drifted"):
            dm.check_trace()
    dm._r[0] = 1.0 + 5e-10
    dm.check_trace()


def test_a_non_hermitian_rho_is_rejected_and_a_non_finite_one_has_nan_coefficients():
    n = 3
    rng = np.random.default_rng(21)
    rho = _hermitian(rng, n)
    skew = rho.copy()
    skew[0, 1] += 1e-6
    with pytest.raises(ValueError, match="not Hermitian"):
        _loaded(n, skew)
    dm = _loaded(n, rho)
    before = dm._r.copy()
    with pytest.raises(ValueError, match="not Hermitian"):
        dm.rho = skew
    assert np.array_equal(dm._r, before)
    near = rho.copy()
    near[0, 1] += 5e-10  # within the 1e-9 that a computed rho may miss by
    _loaded(n, near)
    # a non-finite entry, on or off the diagonal, leaves no coefficient finite
    for at in ((1, 2), (3, 3)):
        for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
            broken = rho.copy()
            broken[at] = bad
            dm = _loaded(n, broken)
            assert np.isnan(dm._r).all()
            assert np.isnan(dm.expectation(PauliTerm(((0, "X"), (2, "Z")))))
            with pytest.raises(ValueError, match="trace drifted to nan"):
                dm.check_trace()


@pytest.mark.parametrize("n", [1, 2, 5])
def test_rho_getter_and_setter_round_trip(n):
    rng = np.random.default_rng(40 + n)
    rho = _hermitian(rng, n)
    dm = _loaded(n, rho)
    for term in _every_term(n):  # r_P = tr(P rho), written out densely
        op = np.eye(2**n, dtype=complex)
        for q, p in term.factors:
            op = op @ dense_single_qubit_unitary(PAULI[p], q, n)
        assert abs(dm._r[_pauli_index(term, n)] - np.trace(op @ rho).real) <= 1e-14
    assert abs(dm._r[0] - np.trace(rho).real) <= 1e-14
    got = dm.rho
    assert got.shape == (2**n, 2**n) and np.abs(got - rho).max() <= 1e-15
    got[0, 0] += 1.0  # a read is a copy
    assert np.abs(dm.rho - rho).max() <= 1e-15
    again = DensityMatrix(n)
    again.rho = dm.rho
    assert np.abs(again._r - dm._r).max() <= 1e-15


def test_the_density_path_needs_at_least_one_qubit():
    for n in (0, -1):
        with pytest.raises(ValueError, match="at least one qubit"):
            DensityMatrix(n)
    for shape in ((1, 0, 2), (0, 0, 2)):
        with pytest.raises(ValueError, match="at least one qubit"):
            run_noisy(np.zeros(shape), NoiseSpec(kind="depolarizing"))


# --- noiseless circuit: the MPS against the statevector kernels it replaced ---


def _sequential_circuit(angles):
    """The circuit before the ping-pong kernel: |0...0>, one in-place _mix_axis of the
    fused gate per qubit, then the _flip_cnot chain, layer by layer."""
    layers, n, _ = angles.shape
    amps = _zero_amplitudes(n)
    scratch = np.empty(amps.size // 2, dtype=complex)
    for layer in range(layers):
        for q in range(n):
            _mix_axis(amps, rz_matrix(angles[layer, q, 1]) @ ry_matrix(angles[layer, q, 0]), q)
        for q in range(n - 1):
            _flip_cnot(amps, q, scratch)
    return amps


# angles whose gates hold signed zeros (theta = +-0), exact +-1 entries (theta_y = +-2pi
# gives cos(theta_y / 2) = -1) or near-zero ones (+-pi, 1e-300): uniform floats almost
# never hit these, so they are also drawn by name, with 1e300 for an angle far outside
# one period
_ANGLES = st.sampled_from(
    (0.0, -0.0, np.pi, -np.pi, 2 * np.pi, -2 * np.pi, 1e-300, 1e300)) | st.floats(-2 * np.pi, 2 * np.pi)


@st.composite
def _layered_angles(draw, max_qubits):
    n = draw(st.integers(1, max_qubits))
    layers = draw(st.integers(1, 3))
    return draw(arrays(np.float64, (layers, n, 2), elements=_ANGLES))


def _assert_run_circuit_within_an_ulp_per_gate(angles, want):
    # the MPS sums each amplitude over its bond in another order than 2x2 mixes, one
    # gate at a time, and each gate rounds amplitudes of the unit-norm state; angles that
    # keep it near one basis state (every theta +-2pi) add their rounding up, to at most
    # 0.28 ulp of 1 per gate in 3,000 draws tried
    got = run_circuit(angles).amplitudes
    layers, n, _ = angles.shape
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= layers * n * np.finfo(np.float64).eps


@settings(max_examples=150, deadline=None)
@given(_layered_angles(12))
def test_run_circuit_is_within_an_ulp_per_gate_of_the_sequential_kernel(angles):
    _assert_run_circuit_within_an_ulp_per_gate(angles, _sequential_circuit(angles))


def test_sixteen_qubit_depth_two_circuit_is_within_an_ulp_per_gate_of_the_sequential_kernel():
    angles = np.random.default_rng(1616).uniform(-np.pi, np.pi, size=(2, 16, 2))
    _assert_run_circuit_within_an_ulp_per_gate(angles, _sequential_circuit(angles))


def test_run_circuit_with_no_layers_is_the_zero_state_and_needs_a_qubit():
    state = run_circuit(np.zeros((0, 3, 2)))
    assert state.tensors.shape == (3, 1, 2, 1)
    assert np.array_equal(state.amplitudes, _zero_amplitudes(3))
    with pytest.raises(ValueError, match="at least one qubit"):
        run_circuit(np.zeros((1, 0, 2)))


@pytest.mark.parametrize("n", range(1, 13))
def test_cnot_chain_is_the_gray_code_permutation(n):
    # the written-out chain permutes amplitudes by the Gray code, and the chain's gather
    # on the site tensors of a random MPS at bond 1, 2 and 4 gathers its amplitudes so
    rng = np.random.default_rng(100 + n)
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    chained = amps.copy()
    for q in range(n - 1):
        _flip_cnot(chained, q, np.empty_like(chained))
    assert chained.tobytes() == amps[_gray(n)].tobytes()
    for bond in (1, 2, 4):
        shape = (n, bond, 2, bond)
        sites = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) / (2 * bond)
        flat = np.append(sites.ravel(), 0.0)
        gathered = flat[qsim._chain_gather(n, bond)].reshape(n, 2 * bond, 2, 2 * bond)
        want = MpsState(sites).amplitudes[_gray(n)]
        assert np.abs(MpsState(gathered).amplitudes - want).max() <= 1e-12 * np.abs(want).max()


@st.composite
def _circuit_and_low_weight_terms(draw):
    angles = draw(_layered_angles(8))
    n = angles.shape[1]
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        qubits = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=min(2, n), unique=True))
        terms.append(PauliTerm(tuple((q, draw(st.sampled_from("XYZ"))) for q in qubits)))
    return angles, terms


@settings(max_examples=60, deadline=None)
@given(_circuit_and_low_weight_terms())
def test_random_layered_circuits_match_the_dense_oracle(case):
    angles, terms = case
    state = run_circuit(angles)
    dense = dense_circuit_state(angles)
    assert np.max(np.abs(state.amplitudes - dense.amplitudes)) <= 1e-12
    for term in terms:
        assert abs(expectation(state, term) - dense_pauli_expectation(dense, term.factors)) <= 1e-12


def test_run_circuit_peaks_below_four_states():
    # the MPS holds its site tensors, the gates and one layer's gather at a time, and
    # peaks at under three copies of its (n, 8, 2, 8) tensors at 3 layers, far below one
    # state
    for n in (12, 16):
        angles = np.random.default_rng(n).uniform(-np.pi, np.pi, size=(3, n, 2))
        state = run_circuit(angles)  # warm-up: the chain's gather index is cached per (n, bond)
        tracemalloc.start()
        try:
            run_circuit(angles)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * state.tensors.nbytes + 8192
        assert 3 * state.tensors.nbytes + 8192 < 4 * 2**n * np.dtype(complex).itemsize


def _per_gate_circuit(angles):
    """The circuit with every layer after the first run gate by gate over the whole
    state, as before pair maps: gate q mixes the halves of the leading qubit into the
    other buffer, pairs interleaved, then the Gray-code gather."""
    cur = _sequential_circuit(angles[:1])
    other, t = np.empty_like(cur), np.empty(cur.size // 2, dtype=complex)
    fused = rz_matrix(angles[..., 1]) @ ry_matrix(angles[..., 0])
    for layer in range(1, len(angles)):
        for q in range(angles.shape[1]):
            a0, a1 = cur.reshape(2, -1)
            out = other.reshape(-1, 2)
            for r in (0, 1):
                np.multiply(fused[layer, q, r, 0], a0, out=out[:, r])
                np.multiply(fused[layer, q, r, 1], a1, out=t)
                np.add(out[:, r], t, out=out[:, r])
            cur, other = other, cur
        np.take(cur, _gray(angles.shape[1]), out=other)
        cur, other = other, cur
    return cur


@pytest.mark.parametrize("n", range(1, 18))
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_pair_map_layers_are_within_an_ulp_per_gate_of_the_per_gate_loop(n, data):
    # one to three layers at every n up to 17, one qubit above the QEP's cap
    layers = data.draw(st.integers(1, 3))
    angles = data.draw(arrays(np.float64, (layers, n, 2), elements=_ANGLES))
    _assert_run_circuit_within_an_ulp_per_gate(angles, _per_gate_circuit(angles))


def _gathered_product(angles):
    """A one-layer circuit written out: the product of the columns (Rz . Ry)|0>, grown
    qubit by qubit at the back, then the CNOT chain as the Gray-code gather."""
    amps = np.ones(1, dtype=complex)
    for theta_y, theta_z in angles[0]:
        amps = np.multiply.outer(amps, (rz_matrix(theta_z) @ ry_matrix(theta_y))[:, 0]).ravel()
    j = np.arange(amps.size)
    return amps[j ^ (j >> 1)]


@pytest.mark.parametrize("n", range(1, 17))
def test_one_layer_circuit_is_the_gathered_product_state_bit_for_bit(n):
    angles = np.random.default_rng(700 + n).uniform(-np.pi, np.pi, size=(1, n, 2))
    assert run_circuit(angles).amplitudes.tobytes() == _gathered_product(angles).tobytes()


def _pair_map_circuit(angles):
    """The circuit as pair maps ran it: the gathered product, then each later layer's
    kron(m_q, m_q+1) on each qubit pair (a lone 2x2 on the last qubit at odd n), as
    complex matmuls of at most 2048 rows, and the gather."""
    layers, n, _ = angles.shape
    cur = _gathered_product(angles)
    other = np.empty_like(cur)
    fused = rz_matrix(angles[..., 1]) @ ry_matrix(angles[..., 0])
    for layer in range(1, layers):
        for q in range(0, n, 2):
            m = np.kron(fused[layer, q], fused[layer, q + 1]) if q + 1 < n else fused[layer, q]
            src, dst = cur.reshape(len(m), -1).T, other.reshape(-1, len(m))
            for r in range(0, len(dst), 2048):
                np.matmul(src[r : r + 2048], m.T, out=dst[r : r + 2048])
            cur, other = other, cur
        cur = cur[_gray(n)]
        other = np.empty_like(cur)
    return cur


def _pair_map_readout(amps, term):
    """The readout as pair maps were read: X_q as one einsum over the halves of qubit
    q's axis, Z strings from the marginals of |psi|^2, one term at a time."""
    n = amps.size.bit_length() - 1
    if term.factors[0][1] == "X":
        f = amps.view(np.float64).reshape(1 << term.factors[0][0], 2, -1)
        return float(np.clip(2.0 * np.einsum("ij,ij->", f[:, 0], f[:, 1]), -1.0, 1.0))
    return _per_term_z_readout(DenseState(n, amps), term)


@pytest.mark.parametrize("mode", ["nearest_neighbor", "all_pairs"])
@pytest.mark.parametrize("n", range(2, 17))
def test_every_qep_observable_is_within_1e_12_of_the_pair_map_readout(n, mode):
    # the MPS and its readout against the statevector kernel's pair maps and readout,
    # written out, on one to three layers
    for layers in (1, 2, 3):
        angles = np.random.default_rng(40 * n + layers).uniform(-np.pi, np.pi, size=(layers, n, 2))
        state, before = run_circuit(angles), _pair_map_circuit(angles)
        for term in observable_set(n, mode):
            assert abs(expectation(state, term) - _pair_map_readout(before, term)) <= 1e-12, term.label()


@pytest.mark.parametrize("n", [9, 12, 16])
def test_every_statevector_matmul_fits_one_blas_thread(n):
    # OpenBLAS splits a complex product across its threads from 2^16 multiply-adds (256
    # rows of a 16x16 map), so the noiseless path makes none above 2^15: not in
    # run_circuit at 3 layers, nor in its environments, nor in the carries of every pair
    real_matmul, real_dot = np.matmul, np.dot
    angles = np.random.default_rng(30 + n).uniform(-np.pi, np.pi, size=(3, n, 2))
    with mock.patch.object(np, "matmul", side_effect=real_matmul) as matmul, \
            mock.patch.object(np, "dot", side_effect=real_dot) as dot:
        state = run_circuit(angles)
        for term in observable_set(n, "all_pairs"):
            expectation(state, term)
    calls = [args for args, _ in matmul.call_args_list + dot.call_args_list]
    assert len(calls) > 4 * n
    for a, b in calls:  # multiply-adds per matrix of a stack
        rows, cols = (a.shape[-2] if a.ndim > 1 else 1), (b.shape[-1] if b.ndim > 1 else 1)
        assert rows * a.shape[-1] * cols <= 1 << 15
