"""Exact quantum circuit simulation: a matrix product state for noiseless runs, a
density matrix for noisy ones.

Bit convention (frozen): qubit 0 is the most significant bit of the basis index, so
reshaping amplitudes to [2]*n puts qubit q on axis q.  Gates are Ry(t) = exp(-i t Y /
2), Rz(t) = exp(-i t Z / 2), and nearest-neighbor CNOT(q, q+1).  One
hardware-efficient layer applies Ry then Rz on every qubit followed by the CNOT chain
q = 0 .. n-2.  A noiseless state is an exact matrix product state (MPS), psi(x) =
e_0^T A_0^{x_0} ... A_{n-1}^{x_{n-1}} (1, ..., 1), its site tensors one (n, D, 2, D)
stack.  A fused gate m = Rz.Ry acts on one site, and the chain is psi'(y) = psi(x) with
x_k = y_k xor y_{k-1}, one CNOT across each cut, which on the MPS is a reindex: B_k^y[(a,
p), (b, y')] = A_k^{y xor p}[a, b] delta(y', y), the new bond bit p carrying the last
qubit's y.  So L layers give an exact MPS of bond D = 2^L, with no SVD and no truncation
(Vidal, PRL 91, 147902, 2003; Markov & Shi, SIAM J. Comput. 38, 963, 2008).  The readout
keeps, for P = X, Y and Z, L_q T^P_q, T^P_q R_{q+1} and <P_q>, from the D x D left and
right environments and the transfer maps T_k = sum_s A_k^s (x) conj(A_k^s), applied as
small matmuls and never formed (at L = 3 the T_k of 16 sites hold 2^16 entries, as many
as the state vector).  A single-site term is one kept value, a nearest-neighbour pair
one dot, and a longer pair carries L_i T^P_i through the T_k between, all i at once.

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


def _check_qubit(n: int, q: int) -> None:
    if not 0 <= q < n:
        raise ValueError(f"qubit index {q} out of range for {n} qubits")


def _unit_clip(v) -> float:
    """float(np.clip(v, -1.0, 1.0)) for a real scalar, NaN kept, without a ufunc call."""
    return float(min(max(v, -1.0), 1.0))


@dataclass(frozen=True)
class PauliTerm:
    """Tensor product of X/Y/Z factors on distinct qubits; weight 1 or 2."""

    factors: Tuple[Tuple[int, str], ...]

    def __post_init__(self):
        if not 1 <= len(self.factors) <= 2:
            raise ValueError("observables here are weight-1 or weight-2 Pauli terms")
        for _, p in self.factors:
            if p not in ("X", "Y", "Z"):
                raise ValueError(f"unknown Pauli factor {p!r}")
        if len({q for q, _ in self.factors}) < len(self.factors):
            raise ValueError("repeated qubit in a Pauli term")
        object.__setattr__(self, "factors", tuple(sorted(self.factors)))

    def label(self) -> str:
        return "*".join(f"{p}{q}" for q, p in self.factors)


# [P, (t, s)] = P[s, t] for P = X, Y, Z: the weights of (A^t)^T L conj(A^s) in L T^P
_PAULI_WEIGHTS = np.array([_X, _Y, _Z]).transpose(0, 2, 1).reshape(3, 4)


@dataclass
class MpsState:
    """A pure state as the complex (n, D, 2, D) stack of site tensors A_k[a, x, b] of an
    exact MPS.  The first readout keeps what every later one reads (module docstring), so
    the tensors must not change after it; run_circuit's are read-only."""

    tensors: np.ndarray
    # (L_q T^P_q and T^P_q R_q+1 as (3, n, D^2), {P: [<P_q>]}, conj(A_k), {p: _carried(p)})
    _kept: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    @property
    def n_qubits(self) -> int:
        return len(self.tensors)

    @property
    def amplitudes(self) -> np.ndarray:
        """psi as a new (2^n,) array, psi[x, a] A[a] summed over a elementwise site by site:
        a one-layer state's amplitudes are products of gate entries, as a dense product's."""
        psi = self.tensors[0, 0]  # l = e_0 reads row 0
        for site in self.tensors[1:]:
            psi = (psi[:, :, None, None] * site).sum(axis=1).reshape(-1, len(site))
        return psi.sum(axis=1)  # r = (1, ..., 1)

    def _environments(self) -> tuple:
        """_kept, read on the first call.  R_k are the L_k of the chain mirrored (sites in
        reverse, a and b swapped), so one sweep runs both: L_k conj(A_k), kept, and L_k+1 =
        sum_s (A_k^s)^T L_k conj(A_k^s), each a stacked matmul.  The kept products make the
        stack [t, s] of (A_k^t)^T L_k conj(A_k^s), which each P weighs by P[s, t]."""
        if self._kept is None:
            a = self.tensors
            n, bond = a.shape[:2]
            ends = np.stack([a, a[::-1].transpose(0, 3, 2, 1)], axis=1)
            rows = ends.reshape(n, 2, 2 * bond, bond).swapaxes(2, 3)  # A_k as [b, (a, s)]
            cols = ends.conj().reshape(n, 2, bond, 2 * bond)  # conj(A_k) as [a', (s, b')]
            kept = np.empty((n, 2, bond, 2 * bond), dtype=complex)
            envs = np.zeros((n + 1, 2, bond, bond), dtype=complex)
            envs[0, 0, 0, 0] = envs[0, 1] = 1.0  # L_0 = e_0 e_0^T, R_n = 1 1^T
            for k in range(n):
                np.matmul(envs[k], cols[k], out=kept[k])
                np.matmul(rows[k], kept[k].reshape(2, 2 * bond, bond), out=envs[k + 1])
            ts = np.matmul(ends.transpose(3, 0, 1, 4, 2)[:, None],
                           kept.reshape(n, 2, bond, 2, bond).transpose(3, 0, 1, 2, 4))
            weighed = np.matmul(_PAULI_WEIGHTS, ts.reshape(4, -1)).reshape(3, n, 2, -1)
            lp, pr = weighed[:, :, 0], weighed[:, ::-1, 1]
            values = np.einsum("pki,ki->pk", lp, envs[-2::-1, 1].reshape(n, -1)).real
            self._kept = lp, pr, dict(zip("XYZ", values.tolist())), cols[:, 0], {}
        return self._kept

    def _carried(self, p: int) -> list:
        """[d][i] = L_i T^P_i T_i+1 ... T_i+d-1 as (D, D) for the p-th of X, Y, Z, read on the
        first call: every i carried a site further per step, two stacked matmuls."""
        lp, _, _, cols, carries = self._environments()
        if p not in carries:
            n, bond = self.tensors.shape[:2]
            rows = self.tensors.reshape(n, 2 * bond, bond).swapaxes(1, 2)
            v = lp[p].reshape(n, bond, bond)[:-1]
            carries[p] = [None, v]
            for d in range(2, n):  # v[i] = sum_s (A_k^s)^T v[i] conj(A_k^s), k = i + d - 1
                sites = slice(d - 1, n - 1)
                w = np.matmul(v[:-1], cols[sites]).reshape(n - d, 2 * bond, bond)
                v = np.matmul(rows[sites], w)
                carries[p].append(v)
        return carries[p]


@functools.cache
def _chain_gather(n: int, bond: int) -> np.ndarray:
    """The CNOT chain as a gather from the (n, bond, 2, bond) site tensors, flat and one zero
    after: B[k, (a, p), y, (b, y')] = A[k, a, y ^ p, b] where y' = y, else the zero.  Left
    writeable, as np.take copies a read-only index on every call; nothing writes it."""
    k, a, p, y, b, y2 = np.indices((n, bond, 2, 2, bond, 2), sparse=True)
    index = ((k * bond + a) * 2 + (y ^ p)) * bond + b
    return np.where(y2 == y, index, n * bond * 2 * bond).ravel()


def run_circuit(angles: np.ndarray) -> MpsState:
    """The exact MPS of bond 2^L that the layered ansatz makes of |0...0>; angles has shape
    (L, n, 2), (theta_y, theta_z) per layer and qubit.  Layer 0's fused gates m = Rz . Ry
    leave the columns m_q|0>, every later layer's are one stacked matmul, and each layer
    ends in the chain's gather (module docstring)."""
    angles = np.asarray(angles, dtype=np.float64)
    if angles.ndim != 3 or angles.shape[2] != 2:
        raise ValueError(f"angles must have shape (layers, n_qubits, 2), got {angles.shape}")
    n = angles.shape[1]
    if n < 1:
        raise ValueError("need at least one qubit")
    # Rz is diagonal, so m = Rz . Ry is Ry with its rows scaled
    gates = ry_matrix(angles[..., 0])
    gates *= np.exp(np.multiply.outer(angles[..., 1], [-0.5j, 0.5j]))[..., None]
    sites = np.zeros((n, 1, 2, 1), dtype=complex)  # |0...0> at bond 1
    sites[:, 0, 0, 0] = 1.0
    for layer, m in enumerate(gates):
        flat = np.zeros(sites.size + 1, dtype=complex)  # the sites, then the chain's zero
        if layer:
            np.matmul(m[:, None], sites, out=flat[:-1].reshape(sites.shape))
        else:  # the columns m_q|0>
            flat[:-1] = m[:, :, 0].ravel()
        bond = sites.shape[1]
        sites = flat.take(_chain_gather(n, bond)).reshape(n, 2 * bond, 2, 2 * bond)
    sites.flags.writeable = False
    return MpsState(sites)


def expectation(state: MpsState, term: PauliTerm) -> float:
    """<psi|P|psi>: a kept value or one dot of the state's kept products (module docstring)."""
    for q, _ in term.factors:
        _check_qubit(state.n_qubits, q)
    (i, a), *rest = term.factors
    if not rest:
        return _unit_clip(state._environments()[2][a][i])
    ((j, b),) = rest
    lp, pr = state._environments()[:2]
    p = "XYZ".index(a)
    v = lp[p, i] if j == i + 1 else state._carried(p)[j - i][i].ravel()
    return _unit_clip(np.dot(v, pr["XYZ".index(b), j]).real)


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
        (4, rest) block goes to m . block, run as its rest rows times m^T (_matmul_rows).
        On the last qubit the blocks are single rows, run as one (4^q, 4) matrix."""
        _check_qubit(self.n_qubits, q)
        src = self._r.reshape(4**q, 4, -1).transpose(0, 2, 1)
        dst = self._scratch.reshape(4**q, 4, -1).transpose(0, 2, 1)
        if src.shape[1] == 1:
            src, dst = src.reshape(1, -1, 4), dst.reshape(1, -1, 4)
        _matmul_rows(src, m.T, dst)
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
