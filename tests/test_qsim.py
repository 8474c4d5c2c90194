"""Simulator checks against dense-Kronecker oracles and closed forms."""

import itertools
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tnmpcqep import qsim
from tnmpcqep.qep import observable_set
from tnmpcqep.qsim import (
    MAX_DENSITY_QUBITS,
    NOISELESS,
    PAULI,
    DensityMatrix,
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
    zero_state,
)
from tnmpcqep.verify import (
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
# the circuit, the readout and the density-matrix evolution are pinned against bit for
# bit: _mix_axis applies one gate (or Pauli) to a qubit, _flip_cnot one chain CNOT.


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


def test_ry_pi_flips_zero_to_one():
    amps = zero_state(1).amplitudes
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
    # reference kernel and the density matrix; control clear: |01> stays |01>
    for before, after in (([0, 0, 1, 0], [0, 0, 0, 1]), ([0, 1, 0, 0], [0, 1, 0, 0])):
        amps = np.array(before, dtype=complex)
        _flip_cnot(amps, 0, np.empty_like(amps))
        assert np.allclose(amps, after)
        dm = _loaded(2, np.outer(before, before))
        dm._evolve([(qsim._CNOT_PTM, 0, 1)])
        assert np.allclose(dm.rho, np.outer(after, after))


def test_cnot_rejects_non_chain_pairs():
    with pytest.raises(ValueError):
        DensityMatrix(3)._evolve([(qsim._CNOT_PTM, 0, 2)])
    with pytest.raises(ValueError):
        DensityMatrix(3)._evolve([(qsim._CNOT_PTM, 2, 1)])


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
    dm._evolve([(qsim._CNOT_PTM, 1, 2)])
    dm.apply_kraus(depolarizing_kraus(0.1), 2)
    dm.expectation(PauliTerm(((1, "Z"),)))
    assert np.array_equal(rho, before)
    assert not np.array_equal(dm.rho, before)


def test_density_cnot_matches_dense_conjugation():
    # every chain CNOT, and a random gate on every qubit through apply_single, on
    # random mixed states at n = 1..4, against the dense U rho U^dagger
    rng = np.random.default_rng(10)
    for n in range(1, 5):
        a = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
        rho = a @ a.conj().T / np.trace(a @ a.conj().T)
        for control in range(n - 1):  # every chain pair, the last one included
            dm = _loaded(n, rho)
            dm._evolve([(qsim._CNOT_PTM, control, control + 1)])
            c = dense_cnot_unitary(control, n)
            assert np.max(np.abs(dm.rho - c @ rho @ c.conj().T)) <= 1e-15
        for q in range(n):
            gate = rz_matrix(rng.uniform(-np.pi, np.pi)) @ ry_matrix(rng.uniform(-np.pi, np.pi))
            dm = _loaded(n, rho)
            dm.apply_single(gate, q)
            u = dense_single_qubit_unitary(gate, q, n)
            assert np.max(np.abs(dm.rho - u @ rho @ u.conj().T)) <= 1e-15
    with pytest.raises(ValueError):
        DensityMatrix(4)._evolve([(qsim._CNOT_PTM, 3, 4)])
    with pytest.raises(ValueError):
        DensityMatrix(4)._evolve([(qsim._CNOT_PTM, 0, 2)])


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
    hit = kraus_ptm(depolarizing_kraus(0.05))
    terms = [PauliTerm(((0, "X"), (1, "Y"))), PauliTerm(((n - 1, "Z"),))]
    tracemalloc.start()
    try:
        for q in range(n - 1):
            dm._evolve([(hit, q)])
            dm._evolve([(qsim._CNOT_PTM, q, q + 1)])
        for t in terms:
            dm.expectation(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < dm._r.nbytes // 4


# --- readout by exact Pauli permutation ---


def _mix_axis_readout(state, term):
    """The readout before exact permutations: copy, one 2x2 mix per factor, vdot."""
    phi = state.amplitudes.copy()
    for q, p in term.factors:
        _mix_axis(phi, PAULI[p], q)
    return float(np.clip(np.vdot(state.amplitudes, phi).real, -1.0, 1.0))


@st.composite
def _circuit_and_terms(draw):
    n = draw(st.integers(2, 8))
    layers = draw(st.integers(1, 3))
    angles = draw(arrays(np.float64, (layers, n, 2), elements=st.floats(-np.pi, np.pi)))
    terms = []
    for _ in range(draw(st.integers(1, 6))):
        qubits = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2, unique=True))
        terms.append(PauliTerm(tuple((q, draw(st.sampled_from("XYZ"))) for q in qubits)))
    return angles, terms


@settings(max_examples=80, deadline=None)
@given(_circuit_and_terms())
def test_expectation_is_bit_identical_to_the_mix_axis_readout(case):
    # several terms read from one state, so the reused buffer is overwritten in between
    angles, terms = case
    state = run_circuit(angles)
    for term in terms:
        got = expectation(state, term)
        assert np.float64(got).tobytes() == np.float64(_mix_axis_readout(state, term)).tobytes()
        assert abs(got - dense_pauli_expectation(state, term.factors)) <= 1e-12


_OLD_PAULI_PHASE = {"X": (1, 1), "Y": (-1j, 1j), "Z": (1, -1)}


def _unplanned_pauli_into(out, src, neg, factors):
    """_pauli_into before readout plans and sign bits: block copies of src and of its
    negation, neg, with the shape and blocks rebuilt from the factors per call."""
    if any(p != "X" for _, p in factors):
        np.negative(src.view(np.float64), out=neg.view(np.float64))
    shape, start = [], 0
    for q, _ in factors:
        shape, start = shape + [1 << (q - start), 2], q + 1
    dst, src, neg = (a.reshape(*shape, -1) for a in (out, src, neg))
    for bits in itertools.product((0, 1), repeat=len(factors)):
        phase, to, fro = 1, (), ()
        for (_, p), b in zip(factors, bits):
            phase *= _OLD_PAULI_PHASE[p][b]
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


# every special value an amplitude's real or imaginary part can take, NaNs with their sign
# and payload bits set included: a sign flip must be np.negative's, bit for bit
_SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -1.0]
                     + list(np.array([0x7FF0000000000001, 0xFFF4000000000123], np.uint64)
                            .view(np.float64)))


def _special_amplitudes(rng, n):
    src = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    parts = src.view(np.float64)
    hit = rng.random(parts.size) < 0.25
    parts[hit] = rng.choice(_SPECIALS, size=int(hit.sum()))
    return src


def _image_and_block_copy_image(src, term):
    n = src.size.bit_length() - 1
    got, want = np.full(src.size, np.nan, dtype=complex), np.empty((2, src.size), dtype=complex)
    qsim._pauli_into(got, src, term._plan, qsim._sign_scratch(n))
    _unplanned_pauli_into(want[0], src, want[1], term.factors)
    return got, want[0]


@pytest.mark.parametrize("n", list(range(1, 13)) + [16])
def test_planned_readout_is_bit_identical_to_the_mix_axis_readout(n):
    # adjacent and distant pairs at every position, nearest neighbours at n = 16; from
    # n = 9 the sign tile holds the last 8 qubits only, so pairs straddle its edge and
    # a factor can sit above it, and from n = 13 above the 12-qubit chunk; q = n - 4
    # has the 8-element stride at which numpy 2.4's strided np.negative goes wrong
    rng = np.random.default_rng(100 + n)
    state = run_circuit(rng.uniform(-np.pi, np.pi, size=(2, n, 2)))
    src = _special_amplitudes(rng, n)
    if n < 16:
        terms = _every_term(n)
    else:
        terms = [PauliTerm(((q, p),)) for q in range(n) for p in "XYZ"]
        terms += [PauliTerm(((q, a), (q + 1, b))) for q in range(n - 1) for a in "XYZ" for b in "XYZ"]
    for term in terms:
        value = expectation(state, term)
        assert np.float64(value).tobytes() == np.float64(_mix_axis_readout(state, term)).tobytes()
        got, want = _image_and_block_copy_image(src, term)
        assert got.tobytes() == want.tobytes(), term.label()


def _block_copy_density_expectation(rho, term):
    """DensityMatrix.expectation with the block-copy image of all-ones as its phases."""
    n = len(rho).bit_length() - 1
    phase, flip = np.empty(len(rho), dtype=complex), 0
    _unplanned_pauli_into(phase, np.ones_like(phase), np.empty_like(phase), term.factors)
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


_any_part = st.sampled_from(list(_SPECIALS)) | st.floats(allow_nan=True, allow_infinity=True)


@st.composite
def _amplitudes_and_term(draw):
    n = draw(st.integers(1, 12))
    qubits = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2, unique=True))
    term = PauliTerm(tuple((q, draw(st.sampled_from("XYZ"))) for q in qubits))
    parts = draw(arrays(np.float64, 2 << n, elements=_any_part, fill=_any_part))
    return parts.view(complex), term


@settings(max_examples=150, deadline=None)
@given(_amplitudes_and_term())
def test_pauli_image_of_any_amplitudes_keeps_the_block_copy_bytes(case):
    src, term = case
    got, want = _image_and_block_copy_image(src, term)
    assert got.tobytes() == want.tobytes()


def _view_copy_image(src, term):
    """P src through the one copy from a view with the X and Y axes reversed, then the signs."""
    plan, n = term._plan, src.size.bit_length() - 1
    out, view = np.empty_like(src), src.reshape(plan.shape)[plan.flip]
    if plan.swap:
        np.copyto(out.reshape(plan.shape).real, view.imag)
        np.copyto(out.reshape(plan.shape).imag, view.real)
    else:
        np.copyto(out.reshape(plan.shape), view)
    signs = qsim._sign_masks(n, plan, qsim._sign_scratch(n))
    if signs is not None:
        qsim._xor_signs(out, out, signs)
    return out


@pytest.mark.parametrize("n", range(9, 17))
def test_tile_gather_keeps_the_bytes_of_the_view_copy(n):
    # the gather runs where every X and Y lies in the last 8 qubits and the view's runs are
    # at most 4 amplitudes; terms reaching one qubit above the tile take the view copy
    rng = np.random.default_rng(300 + n)
    src = _special_amplitudes(rng, n)
    terms = [t for t in _every_term(n)
             if t.factors[0][0] >= n - 9 and any(p != "Z" for _, p in t.factors)]
    gathered = 0
    for term in terms:
        moved = [q for q, p in term.factors if p != "Z"]
        tiled = min(moved) >= n - 8 and max(moved) >= n - 3
        got = np.full(src.size, np.nan, dtype=complex)
        with mock.patch.object(qsim, "_tile_perm", wraps=qsim._tile_perm) as perm:
            qsim._pauli_into(got, src, term._plan, qsim._sign_scratch(n))
        assert perm.called == tiled, term.label()
        assert got.tobytes() == _view_copy_image(src, term).tobytes(), term.label()
        gathered += tiled
    assert gathered == 6 + 72 + 48  # one X or Y, two of them, one with a Z


@st.composite
def _hermitian_and_term(draw):
    n = draw(st.integers(1, 6))
    dim = 1 << n
    parts = draw(arrays(np.float64, (2, dim, dim), elements=st.floats(-1.0, 1.0)))
    rho = parts[0] + 1j * parts[1]
    qubits = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2, unique=True))
    term = PauliTerm(tuple((q, draw(st.sampled_from("XYZ"))) for q in qubits))
    return n, (rho + rho.conj().T) / (2 * dim), term


def _fancy_index_density_expectation(rho, term):
    """DensityMatrix.expectation before its readout plans: per call, the phase vector is
    _pauli_into of all-ones and rho's entries are read by a 2-D fancy index."""
    n = len(rho).bit_length() - 1
    phase, flip = np.empty(len(rho), dtype=complex), 0
    for q, p in term.factors:
        flip |= (p != "Z") << (n - 1 - q)
    qsim._pauli_into(phase, np.ones_like(phase), term._plan, qsim._sign_scratch(n))
    rows = np.arange(len(rho))
    val = np.sum(phase * rho[rows ^ flip, rows])
    return float(np.clip(val.real, -1.0, 1.0))


@settings(max_examples=80, deadline=None)
@given(_hermitian_and_term())
def test_density_expectation_keeps_its_block_copy_values(case):
    # the two readouts of the complex path, kept as the oracle, to 1e-12
    n, rho, term = case
    dm = _loaded(n, rho)
    terms = [term]
    if n > 1:
        terms += observable_set(n, "nearest_neighbor") + observable_set(n, "all_pairs")
    for t in terms:
        got = dm.expectation(t)
        assert abs(got - _block_copy_density_expectation(rho, t)) <= 1e-12
        assert abs(got - _fancy_index_density_expectation(rho, t)) <= 1e-12, t.label()


def test_density_readout_is_one_coefficient_read_without_allocation():
    n = 8
    angles = np.random.default_rng(18).uniform(-np.pi, np.pi, size=(2, n, 2))
    dm = run_noisy(angles, NoiseSpec(kind="depolarizing", p=0.05)).density
    terms = observable_set(n, "all_pairs")
    dm.expectation(terms[0])
    with mock.patch.object(qsim, "_pauli_into") as pauli:
        tracemalloc.start()
        try:
            got = [dm.expectation(t) for t in terms]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert not pauli.called and peak < dm._r.nbytes // 16
    assert got == [float(dm._r[_pauli_index(t, n)]) for t in terms]


def test_pauli_terms_hold_their_plan_outside_equality_and_hash():
    a, b = PauliTerm(((3, "Z"), (1, "Y"))), PauliTerm(((1, "Y"), (3, "Z")))
    assert a == b and hash(a) == hash(b) and "_plan" not in repr(a)
    assert a._plan.shape == (2, 2, 2, 2, -1) and a._plan.signed == (1, 3)
    assert not PauliTerm(((0, "X"),))._plan.signed
    assert a._plan.swap and a._plan.rows == (4,) and a._plan.flip[1] == slice(None, None, -1)
    assert PauliTerm(((0, "Z"), (2, "Z")))._plan.flip is None


def test_statevector_readout_allocates_no_state_sized_array():
    n = 12
    state = run_circuit(np.random.default_rng(12).uniform(-np.pi, np.pi, size=(2, n, 2)))
    terms = observable_set(n, "all_pairs")
    expectation(state, terms[0])  # warm-up: the first readout allocates the buffer
    tracemalloc.start()
    try:
        for t in terms:
            expectation(state, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < state.amplitudes.nbytes // 4


def test_run_circuit_state_reads_out_into_its_second_ping_pong_buffer():
    # one block holds both buffers, so even the first readout allocates only sign scratch
    n = 16
    state = run_circuit(np.random.default_rng(16).uniform(-np.pi, np.pi, size=(1, n, 2)))
    assert np.shares_memory(state._readout, state.amplitudes.base)
    assert not np.shares_memory(state._readout, state.amplitudes)
    tracemalloc.start()
    try:
        expectation(state, PauliTerm(((0, "Z"), (n - 1, "Z"))))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < state.amplitudes.nbytes // 4


def test_run_noisy_raises_when_the_trace_drifts(monkeypatch):
    angles = np.random.default_rng(13).uniform(-np.pi, np.pi, size=(1, 3, 2))
    spec = NoiseSpec(kind="depolarizing", p=0.05)
    ptm = qsim.kraus_ptm
    monkeypatch.setattr(qsim, "kraus_ptm", lambda kraus: 1.01 * ptm(kraus))
    with pytest.raises(ValueError, match=r"trace drifted to 1\.\d*[1-9]"):
        run_noisy(angles, spec)
    monkeypatch.undo()
    assert abs(np.trace(run_noisy(angles, spec).density.rho) - 1.0) <= 1e-12


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
    """CNOT(c, c + 1) and a random channel on each of its qubits: the fused 16x16 op that
    _evolve takes, and the same as the oracle's ops."""
    kc, kt = _random_kraus(rng), _random_kraus(rng)
    fused = (np.kron(kraus_ptm(kc), kraus_ptm(kt)) @ qsim._CNOT_PTM, c, c + 1)
    return fused, [(None, c, c + 1), (_one_family_superoperator(kc), c),
                   (_one_family_superoperator(kt), c + 1)]


@st.composite
def _evolution_cases(draw):
    """1-10 groups on 1-8 qubits, each a run of 1-3 CNOTs, a chain of fused CNOT-and-noise
    maps on (c, c + 1), (c + 1, c + 2), ..., or a run of 1 to 2n channels, and a
    Hermitian rho; the ops as _evolve takes them and as the oracle does."""
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ops, oracle_ops = [], []
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(("cnots", "chain", "channels") if n > 1 else ("channels",)))
        if kind == "cnots":
            for _ in range(draw(st.integers(1, 3))):
                control = draw(st.integers(0, n - 2))
                ops.append((qsim._CNOT_PTM, control, control + 1))
                oracle_ops.append((None, control, control + 1))
        elif kind == "chain":
            start = draw(st.integers(0, n - 2))
            for c in range(start, draw(st.integers(start + 1, n - 1))):
                fused, separate = _pair_map(rng, c)
                ops.append(fused)
                oracle_ops += separate
        else:
            for q in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n)):
                kraus = _random_kraus(rng)
                ops.append((kraus_ptm(kraus), q))
                oracle_ops.append((_one_family_superoperator(kraus), q))
    return n, _hermitian(rng, n), ops, oracle_ops


@settings(max_examples=150, deadline=None)
@given(_evolution_cases())
def test_evolution_matches_gather_scatter_and_flip_cnot(case):
    n, explicit, ops, oracle_ops = case
    for rho in (explicit, None):  # every op list from the drawn rho and from a fresh one
        want = _reference_evolution(_zero_rho(n) if rho is None else rho, oracle_ops, n)
        whole = _loaded(n, rho)
        whole._evolve(ops)
        one_by_one = _loaded(n, rho)
        for op in ops:
            one_by_one._evolve([op])
        for dm in (whole, one_by_one):
            got = dm.rho
            assert got.shape == (2**n, 2**n) and got.flags.c_contiguous
            assert np.abs(got - want).max() <= 1e-12


def test_evolution_rejects_a_bad_op_before_rho_moves():
    n = 3
    rng = np.random.default_rng(14)

    def channel():
        return kraus_ptm(_random_kraus(rng))

    pair = _pair_map(rng, 1)[0][0]
    good = [(channel(), 2), (qsim._CNOT_PTM, 0, 1), (pair, 1, 2), (channel(), 0)]
    bad_ops = [
        (channel(), n),  # qubit out of range
        (channel(), -1),
        (qsim._CNOT_PTM, 0, 2),  # not the chain pattern
        (qsim._CNOT_PTM, n - 1, n),
        (pair, 0, 2),
        (np.eye(2), 0),  # not a one-qubit PTM
        (pair, 0),  # a pair map on one qubit
        (channel(), 0, 1),  # a one-qubit map on a pair
        (channel() + 0j, 0),  # PTMs are real
        (None, 0),  # a map is an array: no bare CNOT form
        (None, 0, 1),
    ]
    for bad in bad_ops:
        dm = _loaded(n, _hermitian(rng, n))
        before = dm._r
        want = before.copy()
        with pytest.raises(ValueError):
            dm._evolve(good + [bad] + good)
        assert dm._r is before and np.array_equal(dm._r, want)
    fresh = DensityMatrix(n)
    with pytest.raises(ValueError):
        fresh._evolve(good + [bad_ops[0]])
    assert fresh._fresh and np.array_equal(fresh.rho, _zero_rho(n))


def test_noisy_run_op_list_allocates_no_quarter_of_rho():
    n = 6
    rng = np.random.default_rng(15)
    hit = kraus_ptm(depolarizing_kraus(0.05))
    pair = np.kron(hit, hit) @ qsim._CNOT_PTM
    ops = []
    for _ in range(2):  # the shape of a two-layer run_noisy
        ops += [(kraus_ptm(_random_kraus(rng)), q) for q in range(n)]
        ops += [(pair, q, q + 1) for q in range(n - 1)]
    dm = DensityMatrix(n)
    tracemalloc.start()
    try:
        dm._evolve(ops)
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


@settings(max_examples=120, deadline=None)
@given(_noisy_runs())
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
    # run_noisy's own op list, gate maps and pair maps alike
    with mock.patch.object(DensityMatrix, "_evolve", autospec=True,
                           side_effect=DensityMatrix._evolve) as evolve:
        run_noisy(angles, spec)
    got_ops, want_ops = evolve.call_args.args[1], _per_gate_ptm_ops(angles, spec)
    assert len(got_ops) == len(want_ops)
    for (got, *got_qubits), (want, *want_qubits) in zip(got_ops, want_ops):
        assert got_qubits == want_qubits
        assert np.asarray(got).tobytes() == want.tobytes()


@st.composite
def _fresh_state_steps(draw):
    """Steps on a fresh density matrix: apply_single, apply_kraus, a CNOT, or a run of
    channels on distinct qubits, often followed by a chain of CNOTs and fused pair maps,
    so the leading run is often shorter than n."""
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    steps = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("single", "kraus", "cnot", "run") if n > 1
                                    else ("single", "kraus", "run")))
        if kind == "single":
            gate = rz_matrix(draw(_NOISY_ANGLES)) @ ry_matrix(draw(_NOISY_ANGLES))
            steps.append(("single", gate, draw(st.integers(0, n - 1))))
        elif kind == "kraus":
            family = draw(st.sampled_from((depolarizing_kraus, amplitude_damping_kraus,
                                           phase_damping_kraus)))(draw(_STRENGTHS))
            steps.append(("kraus", family, draw(st.integers(0, n - 1))))
        else:
            qubits = draw(st.lists(st.integers(0, n - 1), max_size=n, unique=True))
            ops = [(kraus_ptm(_random_kraus(rng)), q) for q in qubits]
            if kind == "cnot" or (n > 1 and draw(st.booleans())):
                start = draw(st.integers(0, n - 2))
                for c in range(start, draw(st.integers(start + 1, n - 1))):
                    ops.append((qsim._CNOT_PTM, c, c + 1) if draw(st.booleans())
                               else _pair_map(rng, c)[0])
            steps.append(("run", ops, None))
    return n, steps


@settings(max_examples=150, deadline=None)
@given(_fresh_state_steps())
def test_fresh_density_matrix_matches_the_explicit_zero_rho_path(case):
    n, steps = case
    fresh, explicit = DensityMatrix(n), _loaded(n, _zero_rho(n))
    assert np.array_equal(fresh._r, explicit._r)
    for kind, what, q in steps:
        for dm in (fresh, explicit):
            if kind == "single":
                dm.apply_single(what, q)
            elif kind == "kraus":
                dm.apply_kraus(what, q)
            else:
                dm._evolve(what)
        assert np.abs(fresh._r - explicit._r).max() <= 1e-12


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
def test_run_noisy_on_nine_and_ten_qubits_is_bit_identical_to_gather_scatter(n, kind):
    # the 9- and 10-qubit cases of the test above: within 1e-12 of the gather-scatter
    # oracle, since Pauli coefficients do not round as the complex path did
    _check_against_the_complex_path(n, kind, 900 + n)


@pytest.mark.parametrize("kind", ["depolarizing", "thermal", "mixed"])
def test_two_layer_noisy_run_copies_rho_once_per_cnot_and_twice_for_its_second_layer(kind):
    # the bound the name gives (17 copies at 8 qubits) is now 0: the first layer and its
    # CNOT chain grow a product block, and every later map finds its axes in front
    n = 8
    angles = np.random.default_rng(19).uniform(-np.pi, np.pi, size=(2, n, 2))
    with mock.patch.object(qsim, "_permute_into", side_effect=qsim._permute_into) as copy:
        run_noisy(angles, NoiseSpec(kind=kind))
    assert copy.call_count == 0


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
    assert np.abs(again._r - dm._r).max() <= 1e-15 and not again._fresh


def test_the_density_path_needs_at_least_one_qubit():
    for n in (0, -1):
        with pytest.raises(ValueError, match="at least one qubit"):
            DensityMatrix(n)
    for shape in ((1, 0, 2), (0, 0, 2)):
        with pytest.raises(ValueError, match="at least one qubit"):
            run_noisy(np.zeros(shape), NoiseSpec(kind="depolarizing"))


# --- statevector circuit: product-state first layer, Gray-code gather, ping-pong gates ---


def _sequential_circuit(angles):
    """The circuit before the ping-pong kernel: |0...0>, one in-place _mix_axis of the
    fused gate per qubit, then the _flip_cnot chain, layer by layer."""
    layers, n, _ = angles.shape
    amps = zero_state(n).amplitudes
    scratch = np.empty(amps.size // 2, dtype=complex)
    for layer in range(layers):
        for q in range(n):
            _mix_axis(amps, rz_matrix(angles[layer, q, 1]) @ ry_matrix(angles[layer, q, 0]), q)
        for q in range(n - 1):
            _flip_cnot(amps, q, scratch)
    return amps


# the first layer mixes signed zeros: theta_y = +-2pi gives cos(theta_y / 2) = -1, so
# products with zeros come out -0.0, and the later gates' zeros depend on those signs;
# uniform floats almost never hit these angles, so they are also drawn by name, with
# 1e300 for an angle far outside one period
_ANGLES = st.sampled_from(
    (0.0, -0.0, np.pi, -np.pi, 2 * np.pi, -2 * np.pi, 1e-300, 1e300)) | st.floats(-2 * np.pi, 2 * np.pi)


@st.composite
def _layered_angles(draw, max_qubits):
    n = draw(st.integers(1, max_qubits))
    layers = draw(st.integers(1, 3))
    return draw(arrays(np.float64, (layers, n, 2), elements=_ANGLES))


@settings(max_examples=150, deadline=None)
@given(_layered_angles(12))
def test_run_circuit_is_bit_identical_to_the_sequential_kernel(angles):
    assert run_circuit(angles).amplitudes.tobytes() == _sequential_circuit(angles).tobytes()


def test_sixteen_qubit_depth_two_circuit_is_bit_identical_to_the_sequential_kernel():
    angles = np.random.default_rng(1616).uniform(-np.pi, np.pi, size=(2, 16, 2))
    assert run_circuit(angles).amplitudes.tobytes() == _sequential_circuit(angles).tobytes()


def test_run_circuit_with_no_layers_is_the_zero_state_and_needs_a_qubit():
    assert np.array_equal(run_circuit(np.zeros((0, 3, 2))).amplitudes, zero_state(3).amplitudes)
    with pytest.raises(ValueError, match="at least one qubit"):
        run_circuit(np.zeros((1, 0, 2)))


@pytest.mark.parametrize("n", range(1, 13))
def test_cnot_chain_is_the_gray_code_permutation(n):
    rng = np.random.default_rng(100 + n)
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    chained = amps.copy()
    for q in range(n - 1):
        _flip_cnot(chained, q, np.empty_like(chained))
    j = np.arange(2**n)
    assert chained.tobytes() == amps[j ^ (j >> 1)].tobytes()
    assert chained.tobytes() == amps[qsim._gray_gather(n)].tobytes()


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
    # its one block: two state buffers plus a half-size temporary, 2.5 states, and no
    # iterator buffers on top; at n = 16 the blocked layers work inside the temporary,
    # and the gather takes the cached writeable index without copying it
    for n in (12, 16):
        angles = np.random.default_rng(n).uniform(-np.pi, np.pi, size=(3, n, 2))
        state = run_circuit(angles)  # warm-up: the Gray-code index array is cached per n
        tracemalloc.start()
        try:
            run_circuit(angles)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * state.amplitudes.nbytes + 8192
        j = np.arange(2**n)
        assert np.array_equal(qsim._gray_gather(n), j ^ (j >> 1))


def _per_gate_circuit(angles):
    """run_circuit with every layer after the first run gate by gate over the whole
    state, as before blocked layers: gate q mixes the halves of the leading qubit into
    the other buffer, pairs interleaved, then the Gray-code gather."""
    state = run_circuit(angles[:1])
    cur = state.amplitudes.copy()
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
        np.take(cur, qsim._gray_gather(angles.shape[1]), out=other)
        cur, other = other, cur
    return cur


@pytest.mark.parametrize("n", range(1, 18))
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_blocked_layers_are_bit_identical_to_the_per_gate_loop(n, data):
    # from n = 16 a layer after the first runs in groups of 8 gates over 2^14-amplitude
    # blocks (n = 17 ends in a group of one); below, gate by gate as in the oracle
    layers = data.draw(st.integers(1, 3))
    angles = data.draw(arrays(np.float64, (layers, n, 2), elements=_ANGLES))
    got = run_circuit(angles).amplitudes
    assert np.array_equal(got.view(np.uint64), _per_gate_circuit(angles).view(np.uint64))


def _chunk_loop_xor_signs(out, src, signs):
    """_xor_signs with one call per chunk whatever the signs, as before the broadcast."""
    masks, lead = signs
    o, s = out.view(np.uint64), src.view(np.uint64)
    if masks.shape[1] == o.size:
        np.bitwise_xor(s, masks[0], out=o)
        return
    o, s = o.reshape(-1, masks.shape[1]), s.reshape(-1, masks.shape[1])
    for i in range(len(o)):
        np.bitwise_xor(s[i], masks[(i & lead).bit_count() & 1], out=o[i])


@pytest.mark.parametrize("n", range(13, 18))
def test_readout_is_bit_identical_to_the_chunk_loop_xor(n, monkeypatch):
    # all pairs hold the nearest neighbours; a signed qubit among the first n - 12 sits
    # above the 12-qubit chunk (lead != 0), every other term XORs one mask (lead == 0)
    state = run_circuit(np.random.default_rng(300 + n).uniform(-np.pi, np.pi, size=(2, n, 2)))
    terms = observable_set(n, "all_pairs")
    terms += [PauliTerm(((q, "Y"), (q + 1, a))) for q in range(n - 1) for a in "XYZ"]
    leads = {qsim._sign_masks(n, t._plan, qsim._sign_scratch(n))[1]
             for t in terms if t._plan.signed}
    assert 0 in leads and len(leads) > 1
    got = [(expectation(state, term), state._readout.copy()) for term in terms]
    monkeypatch.setattr(qsim, "_xor_signs", _chunk_loop_xor_signs)
    for term, (value, image) in zip(terms, got):
        assert np.float64(value).tobytes() == np.float64(expectation(state, term)).tobytes()
        assert np.array_equal(image.view(np.uint64), state._readout.view(np.uint64)), term.label()
