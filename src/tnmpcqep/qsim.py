"""Exact quantum circuit simulation: statevector for noiseless runs, density
matrix for noisy ones.

Bit convention (frozen): qubit 0 is the most significant bit of the basis
index, so reshaping amplitudes to [2]*n puts qubit q on axis q.  Gates are
Ry(t) = exp(-i t Y / 2), Rz(t) = exp(-i t Z / 2), and nearest-neighbor
CNOT(q, q+1).  One hardware-efficient layer applies Ry then Rz on every qubit
followed by the CNOT chain q = 0 .. n-2.  The statevector circuit ping-pongs
between two buffers.  The first layer starts from |0...0>, so its gates leave the
product of the columns m_q|0>, grown a qubit at a time.  Every later layer applies
its fused Rz.Ry gates as 4-qubit group maps, kron(m_q, ..., m_q+3) as one 16x16
complex map, the first group taking the 1-4 qubits left over from groups of 4 as a
smaller W x W map: with the group leading, the state is a (W, 2^n / W) matrix, and
one stacked complex matmul of its transpose, in row blocks of blk rows with
blk x W^2 <= 2^15, writes the group at the back, so a layer ends in C order, as in
the density path below.  numpy loops over the blocks in C, and OpenBLAS runs each
block's zgemm on the calling thread; it splits a larger one across threads, and a
starved worker thread then stalls every such call.  The CNOT chain is one gather by
the Gray code.  The QEP's observables, X_q, Z_q and Z_i Z_j, fall into two
qubit-wise commuting groups, and neither is read by writing P|psi> out.  A Z string
is a sum over p = |psi|^2 held as a (2^h, 2^(n-h)) matrix P of the high h = n // 2
qubits by the low ones: w_hi . P . w_lo with +-1 Walsh vectors, or one dot with P's
row or column sums when every Z lies in one half.  X_q is 2 Re <psi_{q=0}|psi_{q=1}>,
the two halves of qubit q's axis, summed on the float view: one einsum, or, where
einsum would loop over more than 2^8 rows of L <= 8 floats one by one (the last
three of 12 or more qubits), the traces of one stacked matmul of the halves' (L, 2^8)
blocks by their (2^8, L) partners, which OpenBLAS runs on the calling thread.  A run_circuit state's amplitudes are read-only,
so it reads p once, into the circuit's half-size temporary, and keeps it with its
row and column sums and each P . w_lo it has taken.  Any other term (Y, or X beside
another factor) is Re <psi|P psi> with P psi built a factor at a time.

Noise is channel application after every gate on the gate's support qubits:
depolarizing(p); "thermal", a stand-in composition of amplitude damping and
phase damping; "mixed" = depolarizing followed by thermal.  A density matrix is
held as its 4^n real Pauli coefficients r_P = tr(P rho), so rho = 2^-n sum_P r_P
P: a [4]*n tensor with one base-4 axis per qubit (I, X, Y, Z).  A one-qubit
channel is then a real 4x4 Pauli transfer matrix on its qubit's axis and a CNOT
a signed permutation of the 16 Pauli pairs on its two axes (Chow et al., PRL
109, 060501, 2012; Greenbaum, arXiv:1509.02921).  run_noisy builds each gate's
Ry, noise, Rz, noise as one 4x4 map g_q, all gates in one stack, and folds them
into the CNOTs: with n >= 2 a layer is n - 1 real 16x16 maps, pair . kron(g_0, g_1)
on (0, 1) and pair . kron(I, g_q+1) on (q, q + 1), where pair is the CNOT followed
by the noise on its two qubits, built once per NoiseSpec.  g_q+1 commutes with the
CNOTs before it, so a layer is n - 1 passes over r.  One qubit keeps its gate
maps.  The chain is one fixed program.  A new density matrix is a product, (1, 0,
0, 1) on every qubit, so layer 0 grows a C-ordered block of qubits 0..t - 1 in r's
first entries: the map on (t - 1, t) takes t's 4 coefficients into itself, a (16,
4) map on the block's last qubit.  In every later layer each map finds its pair in
front and reads it as the (16, rest) block transposed: all but the last write their
target in front for the next, and the last writes its pair at the back, so a layer
ends in C order.  apply_single and apply_kraus run a 4x4 map on one qubit's axis of
the C-ordered r.  OpenBLAS splits a long real matmul across its threads, so every
map runs in row chunks of at most 2^18 rows x inner x outer, which stay on the
calling thread.  A Pauli readout is one coefficient, and a list of them one gather.
rho is built from r when it is read, and assigning a Hermitian rho sets r.  r and
the scratch are the two halves of one block.  Density-matrix evolution is exact (no
sampling), limited to 1..10 qubits, and every noisy run ends with three checks,
each failed by NaN: |tr rho - 1| = |r_I - 1| <= 1e-9, and two necessary conditions
of positivity, every |r_P| <= 1 and the purity 2^-n sum_P r_P^2 <= 1, each within
1e-9.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

MAX_DENSITY_QUBITS = 10

_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = {"I": _I2, "X": _X, "Y": _Y, "Z": _Z}
_ZERO_PROJECTOR = np.array([[1, 0], [0, 0]], dtype=complex)


def ry_matrix(theta) -> np.ndarray:
    """Ry(theta) as (2, 2); an array of angles gives a stack of shape theta.shape + (2, 2)."""
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    m = np.empty(np.shape(theta) + (2, 2), dtype=complex)
    m[..., 0, 0] = m[..., 1, 1] = c
    m[..., 0, 1], m[..., 1, 0] = -s, s
    return m


def rz_matrix(theta) -> np.ndarray:
    """Rz(theta) as (2, 2); an array of angles gives a stack of shape theta.shape + (2, 2)."""
    m = np.zeros(np.shape(theta) + (2, 2), dtype=complex)
    m[..., 0, 0], m[..., 1, 1] = np.exp(-0.5j * theta), np.exp(0.5j * theta)
    return m


def cnot_matrix() -> np.ndarray:
    """Control on the more significant qubit of the adjacent pair."""
    m = np.eye(4, dtype=complex)
    m[[2, 3]] = m[[3, 2]]
    return m


@dataclass
class StateVector:
    """Pure state on n_qubits; amplitudes indexed with qubit 0 as the MSB.

    run_circuit's amplitudes are read-only, so the |psi|^2 marginals that Z readouts
    take, and each P . w_lo they take, are read once and kept for as long as the same
    array is the amplitudes; a state with writeable amplitudes reads them afresh every
    time.
    """

    n_qubits: int
    amplitudes: np.ndarray
    # room for |psi|^2 (run_circuit's half-size temporary, else allocated by the first
    # Z readout) and the kept (amplitudes, P, row sums, column sums, {lo: P . w_lo}) of
    # _marginals
    _probs: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)
    _kept: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex).ravel()
        if self.amplitudes.size != 2**self.n_qubits:
            raise ValueError(
                f"state on {self.n_qubits} qubits needs {2**self.n_qubits} amplitudes, "
                f"got {self.amplitudes.size}"
            )

    def _marginals(self):
        """(P, P's row sums, P's column sums, {lo: P . w_lo}), with P = |psi|^2 as a
        (2^h, 2^(n-h)) matrix of the high h = n // 2 qubits by the low ones, and the
        products with low-half Walsh vectors filled in by the readouts that take them."""
        amps = self.amplitudes
        if self._kept is not None and self._kept[0] is amps:
            return self._kept[1:]
        if self._probs is None:
            self._probs = np.empty(amps.size)
        p = np.square(np.abs(amps, out=self._probs), out=self._probs)
        P = p.reshape(1 << self.n_qubits // 2, -1)
        got = (P, P.sum(axis=1), P.sum(axis=0), {})
        self._kept = None if amps.flags.writeable else (amps,) + got
        return got


def zero_state(n_qubits: int) -> StateVector:
    if n_qubits < 1:
        raise ValueError("need at least one qubit")
    amps = np.zeros(2**n_qubits, dtype=complex)
    amps[0] = 1.0
    return StateVector(n_qubits, amps)


def _check_qubit(n: int, q: int) -> None:
    if not 0 <= q < n:
        raise ValueError(f"qubit index {q} out of range for {n} qubits")


# OpenBLAS (0.3.31) runs a complex matmul of blk rows of W x W maps with blk x W^2 <= 2^15
# (128 rows of 16, 512 of 8, 2048 of 4, 8192 of 2) on the calling thread, and splits
# one of 2^16 or more across its threads
_GEMM_SIZE = 1 << 15


@functools.cache
def _gray_gather(n: int) -> np.ndarray:
    """The CNOT chain CNOT(0, 1) ... CNOT(n-2, n-1) as one gather: new[j] = old[j ^ (j >> 1)].
    Left writeable, as np.take copies a read-only index on every call; nothing writes it."""
    j = np.arange(1 << n)
    return j ^ (j >> 1)


def _unit_clip(v) -> float:
    """float(np.clip(v, -1.0, 1.0)) for a real scalar, NaN kept, without a ufunc call."""
    return float(min(max(v, -1.0), 1.0))


def _layer_maps(angles: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(columns, maps) for the fused gates m = Rz(theta_z) . Ry(theta_y) of angles: the
    (n, 2) columns m_q|0> of layer 0, and an (L - 1, ceil(n / 4), 16, 16) stack of each
    later layer's 4-qubit group maps kron(m_q, ..., m_q+3), the first map holding the
    qubits 0 .. n - 4 (ceil(n / 4) - 1) - 1 left over in its top-left block."""
    layers, n, _ = angles.shape
    pad = -n % 4
    # |0><0| gates ahead of qubit 0 fill the first group: kron(|0><0|, a) = [[a, 0], [0, 0]]
    fused = np.empty((layers, n + pad, 2, 2), dtype=complex)
    fused[:, :pad] = _ZERO_PROJECTOR
    np.matmul(rz_matrix(angles[..., 1]), ry_matrix(angles[..., 0]), out=fused[:, pad:])
    # kron(a, b)[2 i + k, 2 j + l] = a[i, j] b[k, l], of adjacent gates, then of adjacent pairs
    pairs = np.multiply(fused[1:, 0::2, :, None, :, None], fused[1:, 1::2, None, :, None, :])
    pairs = pairs.reshape(layers - 1, (n + pad) // 2, 4, 4)
    maps = np.multiply(pairs[:, 0::2, :, None, :, None], pairs[:, 1::2, None, :, None, :])
    return fused[0, pad:, :, 0].copy(), maps.reshape(layers - 1, (n + pad) // 4, 16, 16)


def run_circuit(angles: np.ndarray) -> StateVector:
    """Evolve |0...0> through the layered ansatz; angles has shape (L, n, 2)
    holding (theta_y, theta_z) per layer and qubit.

    Each gate is the fused m = Rz(theta_z) . Ry(theta_y).  Layer 0 is the product state
    whose qubit q is m[:, 0]; every later layer applies kron(m_q, ..., m_q+3) to each
    group of 4 qubits (module docstring).
    """
    angles = np.asarray(angles, dtype=np.float64)
    if angles.ndim != 3 or angles.shape[2] != 2:
        raise ValueError(f"angles must have shape (layers, n_qubits, 2), got {angles.shape}")
    n = angles.shape[1]
    if n < 1 or not len(angles):
        return zero_state(n)  # raises for no qubits; no layers leave |0...0>
    columns, maps = _layer_maps(angles)  # before the block, so only they outlive the build
    # one block holds the two ping-pong buffers and the half-size temporary t, and the
    # state keeps it: t is where its readout reads |psi|^2 into.  A freed
    # state is one block the next circuit reuses whole; with separate buffers, glibc
    # trimmed and refaulted about 4 MiB per 16-qubit sample.
    block = np.empty(5 << (n - 1), dtype=complex)
    cur, other, t = block[: 1 << n], block[1 << n : 2 << n], block[2 << n :]
    cur[:2] = columns[0]
    for q in range(1, n):  # qubit q joins at the back
        grown = other[: 2 << q].reshape(-1, 2)
        for b in (0, 1):
            np.multiply(cur[: 1 << q], columns[q, b], out=grown[:, b])
        cur, other = other, cur
    gray = _gray_gather(n)
    first = 16 >> -n % 4  # the first group's width, 2^(its 1-4 qubits)
    for layer in range(len(angles)):
        for g, m in enumerate(maps[layer - 1] if layer else ()):  # group g leads after those before it
            w = 16 if g else first
            blk = min(cur.size // w, _GEMM_SIZE // (w * w))
            np.matmul(cur.reshape(w, -1).T.reshape(-1, blk, w), m[:w, :w].T,
                      out=other.reshape(-1, blk, w))
            cur, other = other, cur
        # mode="clip" writes straight into out; the default "raise" buffers it
        np.take(cur, gray, out=other, mode="clip")
        cur, other = other, cur
    cur.flags.writeable = False
    state = StateVector(n, cur)
    state._probs = t.view(np.float64)
    return state


@dataclass(frozen=True)
class PauliTerm:
    """Tensor product of X/Y/Z factors on distinct qubits; weight 1 or 2."""

    factors: Tuple[Tuple[int, str], ...]

    def __post_init__(self):
        if not 1 <= len(self.factors) <= 2:
            raise ValueError("observables here are weight-1 or weight-2 Pauli terms")
        seen = set()
        for q, p in self.factors:
            if p not in ("X", "Y", "Z"):
                raise ValueError(f"unknown Pauli factor {p!r}")
            if q in seen:
                raise ValueError("repeated qubit in a Pauli term")
            seen.add(q)
        object.__setattr__(self, "factors", tuple(sorted(self.factors)))

    def label(self) -> str:
        return "*".join(f"{p}{q}" for q, p in self.factors)


@functools.cache
def _walsh(bits: int, mask: int) -> np.ndarray:
    """The read-only +-1 vector w[k] = (-1)^popcount(k & mask), k < 2^bits."""
    w = np.ones(1 << bits)
    for b in range(bits):
        if mask >> b & 1:
            w.reshape(-1, 2, 1 << b)[:, 1] *= -1.0
    w.flags.writeable = False
    return w


def expectation(state: StateVector, term: PauliTerm) -> float:
    """<psi|P|psi>: a Z string sum_i p_i (-1)^popcount(i & S) from the marginals of
    p = |psi|^2, X_q from the halves of qubit q's axis, any other term as
    Re <psi|P psi> (module docstring)."""
    n = state.n_qubits
    for q, _ in term.factors:
        _check_qubit(n, q)
    paulis = "".join(p for _, p in term.factors)
    if paulis in ("Z", "ZZ"):
        h = n // 2
        hi = sum(1 << (h - 1 - q) for q, _ in term.factors if q < h)
        lo = sum(1 << (n - 1 - q) for q, _ in term.factors if q >= h)
        P, rows, cols, by_lo = state._marginals()
        if not lo:
            val = np.dot(rows, _walsh(h, hi))
        elif not hi:
            val = np.dot(cols, _walsh(n - h, lo))
        else:
            if lo not in by_lo:
                by_lo[lo] = P @ _walsh(n - h, lo)
            val = np.dot(_walsh(h, hi), by_lo[lo])
    elif paulis == "X":
        q = term.factors[0][0]
        f = state.amplitudes.view(np.float64).reshape(1 << q, 2, -1)
        if f.shape[2] > 8 or q <= 8:
            val = 2.0 * np.einsum("ij,ij->", f[:, 0], f[:, 1])
        else:  # einsum would loop over 2^q rows of <= 8 floats: per 2^8 rows, a trace
            f = f.reshape(-1, 256, 2, f.shape[2])
            val = 2.0 * np.einsum("aii->", np.matmul(f[:, :, 0].transpose(0, 2, 1), f[:, :, 1]))
    else:
        phi = state.amplitudes
        for q, p in term.factors:
            phi = (PAULI[p] @ phi.reshape(1 << q, 2, -1)).ravel()
        val = np.vdot(state.amplitudes, phi).real
    return _unit_clip(val)


# --- noise channels and density-matrix evolution ---

NOISE_KINDS = ("noiseless", "depolarizing", "thermal", "mixed")


@dataclass(frozen=True)
class NoiseSpec:
    """Channel selection; defaults p = gamma_amp = gamma_phase = 0.01."""

    kind: str = "noiseless"
    p: float = 0.01
    gamma_amp: float = 0.01
    gamma_phase: float = 0.01

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"noise kind must be one of {NOISE_KINDS}, got {self.kind!r}")
        for name in ("p", "gamma_amp", "gamma_phase"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")

    @property
    def is_noiseless(self) -> bool:
        return self.kind == "noiseless"


NOISELESS = NoiseSpec()


def depolarizing_kraus(p: float):
    return [
        np.sqrt(1.0 - 0.75 * p) * _I2,
        np.sqrt(0.25 * p) * _X,
        np.sqrt(0.25 * p) * _Y,
        np.sqrt(0.25 * p) * _Z,
    ]


def amplitude_damping_kraus(gamma: float):
    k0 = np.array([[1, 0], [0, np.sqrt(1 - gamma)]], dtype=complex)
    k1 = np.array([[0, np.sqrt(gamma)], [0, 0]], dtype=complex)
    return [k0, k1]


def phase_damping_kraus(gamma: float):
    k0 = np.array([[1, 0], [0, np.sqrt(1 - gamma)]], dtype=complex)
    k1 = np.array([[0, 0], [0, np.sqrt(gamma)]], dtype=complex)
    return [k0, k1]


def _channel_sequences(noise: NoiseSpec):
    """Kraus families applied, in order, after each gate on each support qubit."""
    if noise.is_noiseless:
        return []
    if noise.kind == "depolarizing":
        return [depolarizing_kraus(noise.p)]
    thermal = [amplitude_damping_kraus(noise.gamma_amp), phase_damping_kraus(noise.gamma_phase)]
    if noise.kind == "thermal":
        return thermal
    return [depolarizing_kraus(noise.p)] + thermal


# I, X, Y, Z, and the maps between one qubit's rho entries, flat index 2 row + column, and
# its Pauli coefficients: r_i = tr(P_i rho) = sum T[i, 2b + c] rho[b, c] and
# rho[b, c] = sum F[2b + c, j] r_j, with F = P_j[b, c] / 2
_PAULI4 = np.array([_I2, _X, _Y, _Z])
_TO_PAULI = _PAULI4.transpose(0, 2, 1).reshape(4, 4)
_FROM_PAULI = _PAULI4.reshape(4, 4).T / 2
# |0><0| = (I + Z) / 2 as Pauli coefficients
_ZERO = np.array([1.0, 0.0, 0.0, 1.0])


def kraus_ptm(kraus) -> np.ndarray:
    """The real Pauli transfer matrix R[i, j] = tr(P_i E(P_j)) / 2 of the one-qubit channel
    E(rho) = sum_k K_k rho K_k^dagger, so r' = R r: T S F for its superoperator
    S[rs, uv] = sum_k K_k[r, u] conj(K_k[s, v]).  A (..., k, 2, 2) stack of Kraus families
    gives a (..., 4, 4) stack of maps."""
    ks = np.asarray(kraus, dtype=complex)
    s = np.einsum("...kru,...ksv->...rsuv", ks, ks.conj()).reshape(-1, 4, 4)
    # T S F for the whole stack in two matmuls, where a broadcast makes two per map
    ts = (_TO_PAULI @ s.transpose(1, 0, 2).reshape(4, -1)).reshape(4, -1, 4).transpose(1, 0, 2)
    return (ts.reshape(-1, 4) @ _FROM_PAULI).real.reshape(ks.shape[:-3] + (4, 4))


# CNOT(q, q + 1) on the 16 Pauli pairs of its qubits, index 4 P_q + P_q+1, from
# tr(P_i C P_j C) / 4: a signed permutation (IY -> ZY, XZ -> -YY, YY -> -XZ, ...), exact
_PAULI16 = np.einsum("iab,jcd->ijacbd", _PAULI4, _PAULI4).reshape(16, 4, 4)
_CNOT_PTM = np.einsum("iab,bc,jcd,ad->ij", _PAULI16, cnot_matrix(), _PAULI16,
                      cnot_matrix()).real / 4


class DensityMatrix:
    """rho on n qubits as its 4^n real Pauli coefficients r_P = tr(P rho), so that
    rho = 2^-n sum_P r_P P; r is a C-ordered [4]*n tensor with qubit q on axis q and
    Pauli index 0, 1, 2, 3 for I, X, Y, Z."""

    def __init__(self, n_qubits: int):
        if n_qubits < 1:
            raise ValueError("need at least one qubit")
        if n_qubits > MAX_DENSITY_QUBITS:
            raise ValueError(
                f"density evolution is exact and capped at {MAX_DENSITY_QUBITS} qubits, "
                f"got {n_qubits}"
            )
        self.n_qubits = n_qubits
        # r and the scratch that maps write through are the halves of one block: evolution
        # allocates no array of r's size, and a freed block is reused whole
        self._r, self._scratch = np.empty((2, 4**n_qubits))
        # |0><0| = (I + Z) / 2 on every qubit: r = (1, 0, 0, 1)^(x n)
        self._r.fill(0.0)
        self._r.reshape((4,) * n_qubits)[(slice(None, None, 3),) * n_qubits] = 1.0

    @property
    def rho(self) -> np.ndarray:
        """rho as a new complex (2^n, 2^n) array; assigning one sets r from it, a copy."""
        n = self.n_qubits
        x = self._r
        for _ in range(n):  # the leading Pauli axis becomes a (row, column) pair at the back
            x = x.reshape(4, -1).T @ _FROM_PAULI.T
        rows_then_columns = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
        return x.reshape((2,) * 2 * n).transpose(rows_then_columns).reshape(2**n, 2**n)

    @rho.setter
    def rho(self, rho: np.ndarray) -> None:
        """A Hermitian rho within 1e-9 sets r; any other finite rho is rejected before r
        moves.  A rho with a non-finite entry has no Pauli coefficients: every r_P is NaN,
        so check_trace fails it."""
        n = self.n_qubits
        rho = np.reshape(np.asarray(rho, dtype=complex), (2**n, 2**n))
        if not np.isfinite(rho).all():
            self._r.fill(np.nan)
        elif np.abs(rho - rho.conj().T).max() > 1e-9:
            raise ValueError("rho is not Hermitian")
        else:
            pairs = [a for q in range(n) for a in (q, n + q)]
            x = rho.reshape((2,) * 2 * n).transpose(pairs).reshape(-1)
            for _ in range(n):  # as in the getter, a (row, column) pair in, a Pauli axis out
                x = x.reshape(4, -1).T @ _TO_PAULI.T
            self._r[...] = x.real.reshape(-1)

    def apply_single(self, gate: np.ndarray, q: int) -> None:
        """gate . rho . gate^dagger, as the one-Kraus channel [gate]."""
        self._apply(kraus_ptm([gate]), q)

    def apply_kraus(self, kraus, q: int) -> None:
        self._apply(kraus_ptm(kraus), q)

    def _apply(self, m: np.ndarray, q: int) -> None:
        """The one-qubit map m, a real 4x4 PTM, on qubit q: with r as (4^q, 4, rest), each
        (4, rest) block goes to m . block, run as its rest rows times m^T (_matmul_rows)."""
        _check_qubit(self.n_qubits, q)
        src = self._r.reshape(4**q, 4, -1).transpose(0, 2, 1)
        _matmul_rows(src, m.T, self._scratch.reshape(4**q, 4, -1).transpose(0, 2, 1))
        self._r, self._scratch = self._scratch, self._r

    def _run_chain(self, maps: np.ndarray) -> None:
        """Run an (L, n - 1, 16, 16) stack of pair maps, L >= 1, on a new DensityMatrix's
        |0...0><0...0|, each layer's map q on (q, q + 1) (module docstring): in layer 0 the
        map on (t - 1, t) takes t's (1, 0, 0, 1) into itself, and each later map but a
        layer's last writes [t, rest, t - 1], so t leads for the next."""
        # the block of qubit 0 is r's first 4 entries, (1, 0, 0, 1) like every qubit's
        cur, other = self._r, self._scratch
        for t, m in enumerate(maps[0], 1):
            folded = (m.reshape(64, 4) @ _ZERO).reshape(16, 4)
            _matmul_rows(cur[: 4**t].reshape(-1, 4), folded.T,
                         other[: 4 ** (t + 1)].reshape(-1, 16))
            cur, other = other, cur
        rest = cur.size >> 4
        for layer in maps[1:]:
            for m in layer[:-1]:
                _matmul_rows(cur.reshape(16, rest).T, m.reshape(4, 4, 16).transpose(1, 2, 0),
                             other.reshape(4, rest, 4))
                cur, other = other, cur
            _matmul_rows(cur.reshape(16, rest).T, layer[-1].T, other.reshape(rest, 16))
            cur, other = other, cur
        self._r, self._scratch = cur, other

    def check_trace(self) -> None:
        """|tr rho - 1| = |r_I - 1| <= 1e-9, which a NaN or infinite trace fails."""
        tr = self._r[0]
        if not abs(tr - 1.0) <= 1e-9:
            raise ValueError(f"trace drifted to {tr}")

    def check_bounds(self) -> None:
        """Two necessary conditions of a positive rho: every |r_P| = |tr(P rho)| <= 1 and the
        purity tr rho^2 = 2^-n sum_P r_P^2 <= 1, each within 1e-9; NaN fails both."""
        r = self._r
        top = max(r.max(), -r.min())
        if not top <= 1.0 + 1e-9:
            raise ValueError(f"a Pauli coefficient reached {top}")
        purity = np.einsum("i,i->", r, r) / (1 << self.n_qubits)  # no BLAS dot: one thread
        if not purity <= 1.0 + 1e-9:
            raise ValueError(f"purity reached {purity}")

    def expectation(self, term: PauliTerm) -> float:
        """tr(P rho) = r_P, one entry of r."""
        return _unit_clip(self._r[_coefficient_index(self.n_qubits, term)])


def _coefficient_index(n: int, term: PauliTerm) -> int:
    """r's flat index of the term's coefficient; a qubit out of range raises ValueError."""
    index = 0
    for q, p in term.factors:
        _check_qubit(n, q)
        index += "IXYZ".index(p) << 2 * (n - 1 - q)
    return index


@functools.lru_cache(maxsize=32)
def _coefficient_indices(n: int, terms: Tuple[PauliTerm, ...]) -> np.ndarray:
    """The read-only flat indices of the terms' coefficients in r."""
    index = np.array([_coefficient_index(n, t) for t in terms], dtype=np.intp)
    index.flags.writeable = False
    return index


# OpenBLAS (0.3.31) splits a real matmul of 2^20 rows x inner x outer, an 8-qubit pair
# map on 4096 rows, across its threads, and ran every one of up to 3 x 2^18 on the
# calling thread; 2^18 keeps a margin
_DGEMM_SIZE = 1 << 18


def _matmul_rows(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """np.matmul(a, b, out=out), in calls of at most 2^18 / (b's last two sizes) rows
    of a and out, on their second-to-last axes."""
    rows = _DGEMM_SIZE // (b.shape[-2] * b.shape[-1])
    for r in range(0, a.shape[-2], rows):
        np.matmul(a[..., r : r + rows, :], b, out=out[..., r : r + rows, :])


@dataclass
class NoisyResult:
    """Final density matrix of a noisy run."""

    density: DensityMatrix

    def expectations(self, terms: Sequence[PauliTerm]) -> np.ndarray:
        """Each term's coefficient, clipped to [-1, 1] with NaN kept: one gather of r."""
        dm = self.density
        values = dm._r.take(_coefficient_indices(dm.n_qubits, tuple(terms)))
        return np.clip(values, -1.0, 1.0, out=values)


@functools.lru_cache(maxsize=32)
def _noise_maps(noise: NoiseSpec) -> Tuple[np.ndarray, np.ndarray]:
    """(hit, pair), read-only: the channel stack that lands after every gate on each of
    its qubits as one 4x4 map, and CNOT(q, q + 1) followed by it on both qubits as one
    16x16 map."""
    hit = np.eye(4)
    for kraus in _channel_sequences(noise):
        hit = kraus_ptm(kraus) @ hit
    pair = np.kron(hit, hit) @ _CNOT_PTM
    hit.flags.writeable = pair.flags.writeable = False
    return hit, pair


def _layer_ops(angles: np.ndarray, noise: NoiseSpec) -> np.ndarray:
    """run_noisy's maps: every gate map g_q built in one stack, the (L, 1, 4, 4) gates at
    n = 1, else folded into its layer's CNOT maps, an (L, n - 1, 16, 16) stack (module
    docstring)."""
    layers, n, _ = angles.shape
    hit, pair = _noise_maps(noise)
    rotations = np.stack([ry_matrix(angles[..., 0]), rz_matrix(angles[..., 1])])
    ry, rz = kraus_ptm(rotations[..., None, :, :])
    gates = hit @ rz @ hit @ ry
    if n < 2:
        return gates
    # pair . kron(I, g) is pair[a, 4 b + j] g[j, c], a matmul of pair's (16, 4, 4) view;
    # kron(g_0, g_1)[4 i + j, 4 b + c] = g_0[i, b] g_1[j, c]
    maps = np.empty((layers, n - 1, 16, 16))
    np.matmul(pair.reshape(16, 4, 4), gates[:, 2:, None],
              out=maps[:, 1:].reshape(layers, n - 2, 16, 4, 4))
    first = np.multiply(gates[:, 0, :, None, :, None], gates[:, 1, None, :, None, :])
    np.matmul(pair, first.reshape(layers, 16, 16), out=maps[:, 0])
    return maps


def run_noisy(angles: np.ndarray, noise: NoiseSpec = NOISELESS) -> NoisyResult:
    """Density-matrix evolution of the layered ansatz with per-gate channels, as one
    16x16 map per CNOT that carries its noise and the gates (_layer_ops).  The result
    passes check_trace and check_bounds."""
    angles = np.asarray(angles, dtype=np.float64)
    if angles.ndim != 3 or angles.shape[2] != 2:
        raise ValueError(f"angles must have shape (layers, n_qubits, 2), got {angles.shape}")
    maps = _layer_ops(angles, noise)  # before the block, so only the maps outlive their build
    dm = DensityMatrix(angles.shape[1])
    if dm.n_qubits == 1:
        for m in maps[:, 0]:
            dm._apply(m, 0)
    elif len(maps):
        dm._run_chain(maps)
    dm.check_trace()
    dm.check_bounds()
    return NoisyResult(density=dm)
