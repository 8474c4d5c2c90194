"""Exact quantum circuit simulation: statevector for noiseless runs, density
matrix for noisy ones.

Bit convention (frozen): qubit 0 is the most significant bit of the basis
index, so reshaping amplitudes to [2]*n puts qubit q on axis q.  Gates are
Ry(t) = exp(-i t Y / 2), Rz(t) = exp(-i t Z / 2), and nearest-neighbor
CNOT(q, q+1).  One hardware-efficient layer applies Ry then Rz on every qubit
followed by the CNOT chain q = 0 .. n-2.  The statevector circuit ping-pongs
between two buffers: each fused Rz.Ry gate mixes the two contiguous halves of
the leading qubit and writes the pairs interleaved, so that qubit moves to the
back and a layer of n gates ends in C order.  The first layer starts from
|0...0>, so it grows a product state qubit by qubit instead of mixing zeros,
and the CNOT chain is one gather by the Gray code.  Readouts are exact Pauli
permutations: X and Y swap the halves of their axis, Y and Z scale a half by
-i, +i or -1.  P|psi> is one copy from a view with the X and Y axes reversed
(real and imaginary parts traded for an odd number of Y's), or one gather per
256-amplitude tile where that view would copy runs of at most 4, and every sign
is a flip of bit 63 of a real or imaginary part, XORed into the state's uint64
words a chunk at a time, so a Z string is one XOR pass and nothing is negated.  The
statevector writes P|psi> into one buffer reused by every term, the ping-pong
buffer its circuit did not end in.  Each PauliTerm plans its readout once, when
it is made (the reshape, the reversed axes and the signed qubits), and its sign
masks are built from a small table of tiles in scratch that the state owns.

Noise is channel application after every gate on the gate's support qubits:
depolarizing(p); "thermal", a stand-in composition of amplitude damping and
phase damping; "mixed" = depolarizing followed by thermal.  Between calls a
density matrix is a C-ordered (2^n, 2^n) array, i.e. the same layout on 2n axes
(rows 0..n-1, columns n..2n-1).  Channels and CNOTs run through one path that
keeps the 2n axes in a tracked storage order: a channel on q copies rho once,
with q's row and column axes in front, for one 4x4 matmul against the
(4, rest) block, and a CNOT rides along the next copy, which reads the target
axis backwards where the control is 1.  A fresh density matrix starts as a
product block: until the first CNOT, the first layer's channels act on distinct
qubits of |0...0><0...0|, so rho grows from [1] a qubit at a time, each step the
same 4x4 matmul on the block padded with zeros, and the first CNOT's copy reads
the finished block where it lies.  Copies are exact and each matmul column is
the same 4x4 product in any column order, so the bytes do not depend on the
storage orders.  rho and the scratch are the two halves of one block.
Density-matrix evolution is exact, limited to 10 qubits, and every noisy run
ends in C order with a check that |tr rho - 1| <= 1e-9.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence, Tuple

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


@dataclass
class StateVector:
    """Pure state on n_qubits; amplitudes indexed with qubit 0 as the MSB."""

    n_qubits: int
    amplitudes: np.ndarray
    # P|psi> of the term being read out (run_circuit's second buffer, else allocated by
    # the first readout) and the room its sign masks are built in (the first readout's)
    _readout: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)
    _signs: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex).ravel()
        if self.amplitudes.size != 2**self.n_qubits:
            raise ValueError(
                f"state on {self.n_qubits} qubits needs {2**self.n_qubits} amplitudes, "
                f"got {self.amplitudes.size}"
            )


def zero_state(n_qubits: int) -> StateVector:
    if n_qubits < 1:
        raise ValueError("need at least one qubit")
    amps = np.zeros(2**n_qubits, dtype=complex)
    amps[0] = 1.0
    return StateVector(n_qubits, amps)


def _check_qubit(n: int, q: int) -> None:
    if not 0 <= q < n:
        raise ValueError(f"qubit index {q} out of range for {n} qubits")


def _mix_to_back(a0: np.ndarray, a1: np.ndarray, m: np.ndarray, out: np.ndarray, t: np.ndarray) -> None:
    """out[:, r] = m[r, 0] a0 + m[r, 1] a1 for r = 0, 1: the pairs (a0[i], a1[i]) mixed by m
    and written interleaved into out, shape (len(a0), 2), through t, a temporary of a0's size."""
    for r in (0, 1):
        o = out[:, r]
        np.multiply(m[r, 0], a0, out=o)
        np.multiply(m[r, 1], a1, out=t)
        np.add(o, t, out=o)


@functools.cache
def _gray_gather(n: int) -> np.ndarray:
    """The CNOT chain CNOT(0, 1) ... CNOT(n-2, n-1) as one gather: new[j] = old[j ^ (j >> 1)]."""
    j = np.arange(1 << n)
    gray = j ^ (j >> 1)
    gray.flags.writeable = False
    return gray


# Signs as bits.  Negating a float64 flips its bit 63, so P|psi> is read out on the
# state's uint64 words (real, imaginary, real, ...), where a term's signs are the
# parity of some bits of the word index: bit 0 picks the imaginary part and bit j + 1
# is bit j of the amplitude index, qubit n - 1 - j.  Every XOR is a one-dimensional
# ufunc call: numpy runs a call over more dimensions through its buffered iterator,
# which allocates 8192 elements (64 KiB here) each time.  A mask is built a tile of 2^9
# words (the last 8 qubits) at a time and XORed a chunk of 2^13 words (the last 12
# qubits) per call.  _SIGN_TILES rows 0-3 are [0, S, S, 0], the parity of one or two
# bits, and row 4 + k has S = 2^63 on the words whose index has bit k set.
_TILE_QUBITS, _CHUNK_QUBITS = 8, 12


def _sign_tiles() -> np.ndarray:
    tiles = np.zeros((13, 2 << _TILE_QUBITS), dtype=np.uint64)
    tiles[1:3] = 1 << 63
    for k in range(_TILE_QUBITS + 1):  # bit k is set in every second run of 2^k words
        tiles[4 + k].reshape(-1, 2, 1 << k)[:, 1] = 1 << 63
    tiles.flags.writeable = False
    return tiles


_SIGN_TILES = _sign_tiles()


class _ReadoutPlan(NamedTuple):
    """How _pauli_into writes P src for one term, on any number of qubits above its last.

    shape splits a flat [2]*n buffer at each factor's axis, with a trailing -1 for the
    rest; flip reverses the X and Y axes of that split (None for a Z string), moved holds
    those X and Y qubits and swap trades real and imaginary parts (an odd number of Y's).
    signed holds the Z and Y qubits, whose half 1 flips the sign, and rows the
    _SIGN_TILES rows every term's mask holds: the imaginary parts for one Y, every word
    for two (-i)(-i) = -1.
    """

    shape: Tuple[int, ...]
    flip: Optional[tuple]
    moved: Tuple[int, ...]
    swap: bool
    signed: Tuple[int, ...]
    rows: Tuple[int, ...]


def _readout_plan(factors) -> _ReadoutPlan:
    """The plan for factors on ascending qubits.

    P = prod (-i)^[Y] (-1)^b over the Y and Z factors, with b the factor's bit of the
    output index, so after the swap a word's sign flips iff the parity of those bits,
    plus its imaginary-part bit for one Y, plus 1 for two, is odd.
    """
    shape, start = (), 0
    for q, _ in factors:
        shape, start = shape + (1 << (q - start), 2), q + 1
    flip = sum(((slice(None), slice(None) if p == "Z" else slice(None, None, -1))
                for _, p in factors), ())
    ys = sum(p == "Y" for _, p in factors)
    moved = tuple(q for q, p in factors if p != "Z")
    return _ReadoutPlan(shape + (-1,), flip if moved else None, moved, ys == 1,
                        tuple(q for q, p in factors if p != "X"), ((), (4,), (1,))[ys])


def _sign_scratch(n: int) -> np.ndarray:
    """Room to build a mask on n qubits in, as rows of a tile: four parity tiles, a base
    tile and, when a chunk spans several tiles, a chunk mask per parity of the signed
    bits above the chunk (one when there are none)."""
    t, c = min(n, _TILE_QUBITS), min(n, _CHUNK_QUBITS)
    lanes = 2 if n > c else 1
    return np.empty((5 + (lanes << (c - t) if c > t else 0), 2 << t), dtype=np.uint64)


def _sign_masks(n: int, plan: _ReadoutPlan, scratch: np.ndarray):
    """(masks, lead): the term's signs on n qubits, where chunk i of the words XORs
    masks[parity of i & lead]; None when no sign flips.

    The signed bits inside a tile give its base, the XOR of their rows; the others turn
    the base into parity tiles (base, base ^ S, ...), one per pattern of the bits, and
    one broadcast copy lays those out along the bits inside a chunk.  Signed bits above
    the chunk only pick which of the two chunk masks a chunk takes.
    """
    t, c = min(n, _TILE_QUBITS), min(n, _CHUNK_QUBITS)
    tile, rows, lead = 2 << t, plan.rows, 0
    dst, src, prev = (), (), c - t  # axes over the chunk's tiles, most significant first
    for q in plan.signed:
        j = n - 1 - q
        if j < t:
            rows += (5 + j,)
        elif j < c:
            dst, src, prev = dst + (1 << (prev - 1 - (j - t)), 2), src + (1, 2), j - t
        else:
            lead |= 1 << (j - c)
    if not rows and not dst and not lead:
        return None
    base = _SIGN_TILES[rows[0] if rows else 0, :tile]
    if len(rows) > 1:
        base = np.bitwise_xor(base, _SIGN_TILES[rows[1], :tile], out=scratch[4])
        for r in rows[2:]:
            np.bitwise_xor(base, _SIGN_TILES[r, :tile], out=base)
    if t == c:  # n <= 8: the tile is the whole state
        return base[None], 0
    k, tiles = len(dst) // 2 + (lead != 0), base[None]
    if k:
        tiles = scratch[: 1 << k]
        for r in range(1 << k):
            np.bitwise_xor(base, _SIGN_TILES[r, :tile], out=tiles[r])
    masks = scratch[5:].reshape(-1, 2 << c)
    lanes = 2 if lead else 1
    np.copyto(masks[:lanes].reshape((lanes,) + dst + (1 << prev, tile)),
              tiles.reshape((lanes,) + src + (1, tile)))
    return masks, lead


def _xor_signs(out: np.ndarray, src: np.ndarray, signs) -> None:
    """out = src with the sign bits of signs = _sign_masks(...) flipped, chunk by chunk."""
    masks, lead = signs
    o, s = out.view(np.uint64), src.view(np.uint64)
    if masks.shape[1] == o.size:  # a state of up to 12 qubits is one chunk
        np.bitwise_xor(s, masks[0], out=o)
        return
    o, s = o.reshape(-1, masks.shape[1]), s.reshape(-1, masks.shape[1])
    for i in range(len(o)):
        np.bitwise_xor(s[i], masks[(i & lead).bit_count() & 1], out=o[i])


@functools.cache
def _tile_perm(bits: int, swap: bool) -> np.ndarray:
    """The gather that permutes a tile of the last _TILE_QUBITS qubits: amplitude i reads
    i ^ bits, as float64 words with real and imaginary parts traded when swap."""
    perm = np.arange(1 << _TILE_QUBITS) ^ bits
    if swap:
        perm = (2 * perm[:, None] + np.array([1, 0])).ravel()
    perm.flags.writeable = False
    return perm


def _pauli_into(out: np.ndarray, src: np.ndarray, plan: _ReadoutPlan, scratch: np.ndarray) -> None:
    """out = P src on flat [2]*n complex buffers, exactly: X and Y factors permute the
    amplitudes by one copy from a view with their axes reversed, and every sign is a
    flip of bit 63 of a real or imaginary part, which is what np.negative does to
    float64 (+-0, +-inf and NaN alike), XORed in chunk by chunk (_sign_masks).  A Z
    string is that XOR alone, straight from src.  When every X and Y lies in the last
    _TILE_QUBITS qubits and the view's contiguous runs are at most 4 amplitudes, the
    copy is one gather per tile (_tile_perm) instead, which moves the same words."""
    n = src.size.bit_length() - 1
    signs = _sign_masks(n, plan, scratch)
    if plan.flip is None:
        _xor_signs(out, src, signs)
        return
    low = n - 1 - plan.moved[-1]  # the view's contiguous runs are 2^low amplitudes
    if n >= _TILE_QUBITS and low < 3 and plan.moved[0] >= n - _TILE_QUBITS:
        perm = _tile_perm(sum(1 << (n - 1 - q) for q in plan.moved), plan.swap)
        dtype = np.float64 if plan.swap else complex
        # mode="clip" writes straight into out; the default "raise" buffers it
        np.take(src.view(dtype).reshape(-1, perm.size), perm, axis=1,
                out=out.view(dtype).reshape(-1, perm.size), mode="clip")
    else:
        o, s = out.reshape(plan.shape), src.reshape(plan.shape)[plan.flip]
        if plan.swap:
            np.copyto(o.real, s.imag)
            np.copyto(o.imag, s.real)
        else:
            np.copyto(o, s)
    if signs is not None:
        _xor_signs(out, out, signs)


def _unit_clip(v) -> float:
    """float(np.clip(v, -1.0, 1.0)) for a real scalar, NaN kept, without a ufunc call."""
    return float(min(max(v, -1.0), 1.0))


def _check_cnot(n: int, control: int, target: int) -> None:
    _check_qubit(n, control)
    _check_qubit(n, target)
    if target != control + 1:
        raise ValueError("CNOT is restricted to the chain pattern target = control + 1")


def run_circuit(angles: np.ndarray) -> StateVector:
    """Evolve |0...0> through the layered ansatz; angles has shape (L, n, 2)
    holding (theta_y, theta_z) per layer and qubit.

    The amplitudes have the bytes of applying each fused gate m = Rz(theta_z) . Ry(theta_y)
    in place, pair by pair as m[r, 0] a0 + m[r, 1] a1.  In layer 0, before gate q,
    amplitude (p, c) with p on qubits 0..q-1 is a[p] for c = 0 and one signed zero z[p]
    for every other c; gate q grows a <- [m[b,0] a + m[b,1] z for b = 0, 1] and z
    likewise from (z, z), so the zeros keep the signs that mixing in place gives them.
    """
    angles = np.asarray(angles, dtype=np.float64)
    if angles.ndim != 3 or angles.shape[2] != 2:
        raise ValueError(f"angles must have shape (layers, n_qubits, 2), got {angles.shape}")
    n = angles.shape[1]
    if n < 1 or not len(angles):
        return zero_state(n)  # raises for no qubits; no layers leave |0...0>
    fused = rz_matrix(angles[..., 1]) @ ry_matrix(angles[..., 0])
    # one block holds the two ping-pong buffers and the half-size temporary t, and the
    # state keeps it: the buffer cur does not end in is its readout buffer.  A freed
    # state is one block the next circuit reuses whole; with separate buffers, glibc
    # trimmed and refaulted about 4 MiB per 16-qubit sample.
    block = np.empty(5 << (n - 1), dtype=complex)
    cur, other, t = block[: 1 << n], block[1 << n : 2 << n], block[2 << n :]
    # cur holds [a; z; z]: rows (a; z) and (z; z) are the pairs that gate q mixes
    cur[0], cur[1:3] = 1.0, 0.0
    for q in range(n):
        s, rows = 1 << q, 1 if q == n - 1 else 2  # the last gate needs no zeros after it
        _mix_to_back(cur[: rows * s], cur[s : (rows + 1) * s], fused[0, q],
                     other[: 2 * rows * s].reshape(-1, 2), t[: rows * s])
        if q < n - 2:  # the new [a; z; z]
            other[4 * s : 6 * s] = other[2 * s : 4 * s]
        cur, other = other, cur
    gray = _gray_gather(n)
    for layer in range(len(angles)):
        if layer:
            for q in range(n):
                a0, a1 = cur.reshape(2, -1)  # qubit q leads after the q gates before it
                _mix_to_back(a0, a1, fused[layer, q], other.reshape(-1, 2), t)
                cur, other = other, cur
        # mode="clip" writes straight into out; the default "raise" buffers it
        np.take(cur, gray, out=other, mode="clip")
        cur, other = other, cur
    state = StateVector(n, cur)
    state._readout = other
    return state


@dataclass(frozen=True)
class PauliTerm:
    """Tensor product of X/Y/Z factors on distinct qubits; weight 1 or 2.

    Holds its readout plan, built once here; a readout adds only its sign masks, which
    depend on the state's qubit count.
    """

    factors: Tuple[Tuple[int, str], ...]
    _plan: _ReadoutPlan = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "_plan", _readout_plan(self.factors))

    def label(self) -> str:
        return "*".join(f"{p}{q}" for q, p in self.factors)


def expectation(state: StateVector, term: PauliTerm) -> float:
    for q, _ in term.factors:
        _check_qubit(state.n_qubits, q)
    if state._readout is None:
        state._readout = np.empty_like(state.amplitudes)
    if state._signs is None:
        state._signs = _sign_scratch(state.n_qubits)
    _pauli_into(state._readout, state.amplitudes, term._plan, state._signs)
    val = np.vdot(state.amplitudes, state._readout)
    if abs(val.imag) > 1e-9:
        raise ValueError(f"non-real Pauli expectation ({val}); state is inconsistent")
    return _unit_clip(val.real)


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


def kraus_superoperator(kraus) -> np.ndarray:
    """S[r,s,u,v] = sum_i K_i[r,u] conj(K_i[s,v]), so rho'_{rs} = S[r,s,u,v] rho_{uv};
    a (..., i, 2, 2) stack of Kraus families gives a (..., 2, 2, 2, 2) stack of maps."""
    ks = np.asarray(kraus, dtype=complex)
    return np.einsum("...iru,...isv->...rsuv", ks, ks.conj())


def compose_superoperators(superops) -> Optional[np.ndarray]:
    """Fuse channels applied left to right into one map; None when the list is empty.
    Each entry is a (2, 2, 2, 2) map or a stack of them, and stacks broadcast."""
    flat = None
    for s in superops:
        s = np.reshape(s, np.shape(s)[:-4] + (4, 4))
        flat = s if flat is None else s @ flat
    return None if flat is None else flat.reshape(flat.shape[:-2] + (2, 2, 2, 2))


def _cnot_axes(n: int, control: Optional[int]):
    """Row and column axes of CNOT(control, control + 1): none for no CNOT."""
    return [] if control is None else [control, n + control, control + 1, n + control + 1]


def _copy_folding_cnot(src: np.ndarray, dst: np.ndarray, order, new_order, control) -> None:
    """dst, with its [2]*2n axes stored in new_order, = src stored in order; a control
    that is not None applies CNOT(control, control + 1) to rows and columns on the way,
    as four quarter copies that read the target axis backwards where its control is 1."""
    n2 = len(order)
    view = src.reshape((2,) * n2).transpose([order.index(a) for a in new_order])
    out = dst.reshape((2,) * n2)
    if control is None:
        np.copyto(out, view)
        return
    rc, cc, rt, ct = (new_order.index(a) for a in _cnot_axes(n2 // 2, control))
    for r, c in itertools.product((0, 1), repeat=2):
        to = [slice(None)] * n2
        to[rc], to[cc] = r, c
        fro = list(to)
        fro[rt], fro[ct] = slice(None, None, 1 - 2 * r), slice(None, None, 1 - 2 * c)
        np.copyto(out[tuple(to)], view[tuple(fro)])


class DensityMatrix:
    """rho as a C-contiguous (2^n, 2^n) array, i.e. a [2]*2n tensor, row axes first."""

    def __init__(self, n_qubits: int, rho: Optional[np.ndarray] = None):
        if n_qubits > MAX_DENSITY_QUBITS:
            raise ValueError(
                f"density evolution is exact and capped at {MAX_DENSITY_QUBITS} qubits, "
                f"got {n_qubits}"
            )
        self.n_qubits = n_qubits
        dim = 2**n_qubits
        # rho and the scratch that channels and CNOTs stage through are the halves of one
        # block: evolution allocates no rho-sized array, and a freed block is reused whole
        self.rho, self._scratch = np.empty((2, dim, dim), dtype=complex)
        self._zero = rho is None  # rho is |0...0><0...0| until the first evolution
        if rho is None:
            self.rho.fill(0.0)
            self.rho[0, 0] = 1.0
        else:  # a private copy: in-place gates never write into the caller's array
            self.rho[...] = np.reshape(rho, (dim, dim))

    def apply_single(self, gate: np.ndarray, q: int) -> None:
        """gate . rho . gate^dagger, as the one-Kraus channel [gate]."""
        self._evolve([(kraus_superoperator([gate]), q)])

    def _evolve(self, ops) -> None:
        """Apply ops in order: (superop, q) is a one-qubit channel given as a (2,2,2,2)
        superoperator S[r,s,u,v], (None, control, target) a CNOT.

        rho's 2n axes live in a tracked storage order between ops.  A channel on q
        copies rho once, with the row and column axis of q in front, and contracts
        that (4, rest) block against S.  A CNOT is held and rides along the next copy.
        On a fresh |0...0><0...0|, the leading run of channels on distinct qubits
        q_0, q_1, ... instead grows a product block in rho's first 4^k entries, stored
        as [q_k, n+q_k, ..., q_0, n+q_0] behind the untouched qubits' axes (all 0):
        each step writes the block into row 0 of a zeroed (4, 4^k) operand in the
        scratch and applies the same 4x4 matmul back into rho.  One last copy puts rho
        back in C order.
        """
        n = self.n_qubits
        for op in ops:  # every op is checked before rho moves
            if len(op) == 3 and op[0] is None:
                _check_cnot(n, op[1], op[2])
            elif len(op) == 2 and np.size(op[0]) == 16:
                _check_qubit(n, op[1])
            else:
                raise ValueError(f"not a (superop, q) channel or (None, control, target) CNOT: {op!r}")
        cur, other = self.rho, self._scratch
        order, pending = list(range(2 * n)), None  # storage axis i holds logical axis order[i]
        grown = []  # the qubits of the product block, oldest first
        if self._zero:
            block, pad = cur.reshape(-1), other.reshape(-1)
            for superop, *qubits in ops:
                if superop is None or qubits[0] in grown:
                    break
                size = 4 ** len(grown)
                pad[:size] = block[:size]
                pad[size : 4 * size] = 0.0
                np.matmul(np.reshape(superop, (4, 4)), pad[: 4 * size].reshape(4, size),
                          out=block[: 4 * size].reshape(4, size))
                grown.append(qubits[0])
            front = [a for q in reversed(grown) for a in (q, n + q)]
            order = [a for a in order if a not in front] + front
            self._zero = False
        for superop, *qubits in ops[len(grown):]:
            if superop is None and pending is None:
                pending = qubits[0]
                continue
            # a channel's axes go in front and a held CNOT's right behind them, so its
            # quarters and reversed axes leave long contiguous runs for the copy; a
            # CNOT meeting a held one settles it by a copy with no front of its own
            lead = [] if superop is None else [qubits[0], n + qubits[0]]
            lead = list(dict.fromkeys(lead + _cnot_axes(n, pending)))
            lead += [a for a in order if a not in lead]
            if lead != order or pending is not None:
                _copy_folding_cnot(cur, other, order, lead, pending)
                cur, other, order, pending = other, cur, lead, None
            if superop is None:
                pending = qubits[0]
            else:
                np.matmul(np.reshape(superop, (4, 4)), cur.reshape(4, -1), out=other.reshape(4, -1))
                cur, other = other, cur
        if order != sorted(order) or pending is not None:
            _copy_folding_cnot(cur, other, order, sorted(order), pending)
            cur, other = other, cur
        self.rho, self._scratch = cur, other

    def apply_kraus(self, kraus, q: int) -> None:
        self._evolve([(kraus_superoperator(kraus), q)])

    def check_trace(self) -> None:
        """|tr rho - 1| <= 1e-9: O(2^n), cheap enough for every run."""
        if abs(np.trace(self.rho) - 1.0) > 1e-9:
            raise ValueError(f"trace drifted to {np.trace(self.rho)}")

    def expectation(self, term: PauliTerm) -> float:
        # tr(P rho) = sum_i P[i, i ^ flip] rho[i ^ flip, i]; P times all-ones is that phase
        n, flip, phase = self.n_qubits, 0, np.empty(len(self.rho), dtype=complex)
        for q, p in term.factors:
            _check_qubit(n, q)
            flip |= (p != "Z") << (n - 1 - q)  # X and Y flip the bit of qubit q
        _pauli_into(phase, np.ones_like(phase), term._plan, _sign_scratch(n))
        rows = np.arange(len(self.rho))
        val = np.sum(phase * self.rho[rows ^ flip, rows])
        if abs(val.imag) > 1e-9:
            raise ValueError("non-real expectation from density matrix")
        return _unit_clip(val.real)


@dataclass
class NoisyResult:
    """Final density matrix plus the NoiseSpec that produced it."""

    density: DensityMatrix
    noise: NoiseSpec

    def expectations(self, terms: Sequence[PauliTerm]) -> np.ndarray:
        return np.array([self.density.expectation(t) for t in terms])


def run_noisy(angles: np.ndarray, noise: NoiseSpec = NOISELESS) -> NoisyResult:
    """Density-matrix evolution of the layered ansatz with per-gate channels."""
    angles = np.asarray(angles, dtype=np.float64)
    if angles.ndim != 3 or angles.shape[2] != 2:
        raise ValueError(f"angles must have shape (layers, n_qubits, 2), got {angles.shape}")
    n = angles.shape[1]
    dm = DensityMatrix(n)
    # the same channel stack lands after every gate, so fuse it once up front
    hit_map = compose_superoperators(kraus_superoperator(k) for k in _channel_sequences(noise))
    hits = [] if hit_map is None else [hit_map]
    # Ry, noise, Rz, noise on one qubit compose into a single map; the maps of every
    # gate are built at once, each gate a Kraus family of one operator
    ry = kraus_superoperator(ry_matrix(angles[..., 0])[..., None, :, :])
    rz = kraus_superoperator(rz_matrix(angles[..., 1])[..., None, :, :])
    gates = compose_superoperators([ry, *hits, rz, *hits])
    ops = []  # (superop, q) channels and (None, q, q + 1) CNOTs, in circuit order
    for layer in range(angles.shape[0]):
        ops += [(gates[layer, q], q) for q in range(n)]
        for q in range(n - 1):
            ops += [(None, q, q + 1)] + [(h, c) for c in (q, q + 1) for h in hits]
    dm._evolve(ops)
    dm.check_trace()
    return NoisyResult(density=dm, noise=noise)

