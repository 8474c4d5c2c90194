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
words a chunk at a time (all chunks at once where they share a mask), so a Z
string is one XOR pass and nothing is negated.  The statevector writes P|psi>
into one buffer reused by every term, the ping-pong buffer its circuit did not
end in.  Each PauliTerm plans its readout once, when it is made (the reshape,
the reversed axes and the signed qubits), and its sign masks are built from a
small table of tiles in scratch that the state owns.

On 16 or more qubits a layer after the first runs its gates in groups of 8 leading
qubits, a block of 2^14 amplitudes at a time, instead of streaming the whole state
through memory once per gate.  After g gates of a group, the amplitudes of one column
below the group's qubits depend on that column alone, so a block of columns is copied
out once and runs its g gates through two buffers that stay in cache, the last gate
writing into the block's slot of the other ping-pong buffer.  Every amplitude pair still
gets the same multiply, multiply, add, with the gates in the same order, so every byte
is kept, and the block buffers are carved from the circuit's half-size temporary.

Noise is channel application after every gate on the gate's support qubits:
depolarizing(p); "thermal", a stand-in composition of amplitude damping and
phase damping; "mixed" = depolarizing followed by thermal.  A density matrix is
held as its 4^n real Pauli coefficients r_P = tr(P rho), so rho = 2^-n sum_P r_P
P: a [4]*n tensor with one base-4 axis per qubit (I, X, Y, Z).  A one-qubit
channel is then a real 4x4 Pauli transfer matrix on its qubit's axis and a CNOT
a signed permutation of the 16 Pauli pairs on its two axes (Chow et al., PRL
109, 060501, 2012; Greenbaum, arXiv:1509.02921).  run_noisy builds each gate's
Ry, noise, Rz, noise as one 4x4 map, all gates in one stack, and each CNOT with
the noise on its two qubits as one 16x16 map.  Between maps the axes keep a
tracked storage order: a map whose axes lead runs as one matmul that writes them
at the back, so a layer of gates ends in the order it began, and in a CNOT chain
each pair keeps its target in front for the next.  A fresh density matrix is a
product, (1, 0, 0, 1) on every qubit, so the first layer acts on each qubit's 4
coefficients and its CNOT chain grows the product into a block a qubit at a
time.  A Pauli readout is one coefficient.  rho is built from r when it is read,
and assigning a Hermitian rho sets r.  r and the scratch are the two halves of
one block.  Density-matrix evolution is exact (no sampling), limited to 1..10
qubits, and every noisy run ends in C order with a check that
|tr rho - 1| = |r_I - 1| <= 1e-9, which NaN fails.
"""

from __future__ import annotations

import functools
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


# A layer after the first on a state of at least four blocks of 2^_BLOCK_QUBITS amplitudes
# runs its gates in groups of _GROUP_QUBITS leading qubits, a block at a time, so that a
# block's gates stay in cache instead of streaming the whole state once per gate.
_GROUP_QUBITS, _BLOCK_QUBITS = 8, 14


def _mix_group(cur: np.ndarray, other: np.ndarray, ms: np.ndarray, t: np.ndarray) -> None:
    """other = the gates ms applied in turn to the leading qubit of cur, each moving it to
    the back, as many _mix_to_back passes over the whole state would leave it; t is cur's
    half-size temporary and holds at least 1.5 blocks.

    After g gates, amplitude (b, c) of cur, with b on the g leading qubits, sits at (c, b'),
    so each column c is a 2^g-amplitude problem of its own.  A block of w columns is copied
    out of cur, rows of w amplitudes, and ping-pongs through two block buffers, its slot
    in other and a spare carved from t, in the order that leaves gate g-1 writing the slot.
    """
    n, g, size = cur.size.bit_length() - 1, len(ms), 1 << _BLOCK_QUBITS
    cols, w = 1 << (n - g), size >> g
    tmp, spare = t[: size >> 1], t[size >> 1 : (size >> 1) + size]
    src, dst = cur.reshape(-1, cols), other.reshape(cols, -1)
    for c in range(0, cols, w):
        bufs = (dst[c : c + w].reshape(-1), spare)
        into = bufs[g & 1]
        np.copyto(into.reshape(-1, w), src[:, c : c + w])
        for j, m in enumerate(ms):
            a0, a1 = into.reshape(2, -1)
            into = bufs[(g - 1 - j) & 1]
            _mix_to_back(a0, a1, m, into.reshape(-1, 2), tmp)


@functools.cache
def _gray_gather(n: int) -> np.ndarray:
    """The CNOT chain CNOT(0, 1) ... CNOT(n-2, n-1) as one gather: new[j] = old[j ^ (j >> 1)].
    Left writeable, as np.take copies a read-only index on every call; nothing writes it."""
    j = np.arange(1 << n)
    return j ^ (j >> 1)


# Signs as bits.  Negating a float64 flips its bit 63, so P|psi> is read out on the
# state's uint64 words (real, imaginary, real, ...), where a term's signs are the
# parity of some bits of the word index: bit 0 picks the imaginary part and bit j + 1
# is bit j of the amplitude index, qubit n - 1 - j.  Every XOR reads contiguous rows:
# numpy runs a strided call over more dimensions through its buffered iterator, which
# allocates 8192 elements (64 KiB here) each time, while contiguous chunks against one
# broadcast mask need no buffer.  A mask is built a tile of 2^9 words (the last 8
# qubits) at a time and XORed a chunk of 2^13 words (the last 12 qubits) per call, or
# over every chunk in one call when they all take the same mask.  _SIGN_TILES rows 0-3
# are [0, S, S, 0], the parity of one or two bits, and row 4 + k has S = 2^63 on the
# words whose index has bit k set.
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
    if not lead:  # every chunk takes masks[0]: one broadcast call
        np.bitwise_xor(s, masks[0], out=o)
        return
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
        if layer and n < _BLOCK_QUBITS + 2:
            for q in range(n):
                a0, a1 = cur.reshape(2, -1)  # qubit q leads after the q gates before it
                _mix_to_back(a0, a1, fused[layer, q], other.reshape(-1, 2), t)
                cur, other = other, cur
        elif layer:
            for q in range(0, n, _GROUP_QUBITS):
                _mix_group(cur, other, fused[layer, q : q + _GROUP_QUBITS], t)
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


# I, X, Y, Z, and the maps between one qubit's rho entries, flat index 2 row + column, and
# its Pauli coefficients: r_i = tr(P_i rho) = sum T[i, 2b + c] rho[b, c] and
# rho[b, c] = sum F[2b + c, j] r_j, with F = P_j[b, c] / 2
_PAULI4 = np.array([_I2, _X, _Y, _Z])
_TO_PAULI = _PAULI4.transpose(0, 2, 1).reshape(4, 4)
_FROM_PAULI = _PAULI4.reshape(4, 4).T / 2


def kraus_ptm(kraus) -> np.ndarray:
    """The real Pauli transfer matrix R[i, j] = tr(P_i E(P_j)) / 2 of the one-qubit channel
    E(rho) = sum_k K_k rho K_k^dagger, so r' = R r: T S F for its superoperator
    S[rs, uv] = sum_k K_k[r, u] conj(K_k[s, v]).  A (..., k, 2, 2) stack of Kraus families
    gives a (..., 4, 4) stack of maps."""
    ks = np.asarray(kraus, dtype=complex)
    s = np.einsum("...kru,...ksv->...rsuv", ks, ks.conj()).reshape(ks.shape[:-3] + (4, 4))
    return (_TO_PAULI @ s @ _FROM_PAULI).real


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
        self._fresh = True  # r is |0...0><0...0| until the first evolution or assignment
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
        self._fresh = False

    def apply_single(self, gate: np.ndarray, q: int) -> None:
        """gate . rho . gate^dagger, as the one-Kraus channel [gate]."""
        self._evolve([(kraus_ptm([gate]), q)])

    def apply_kraus(self, kraus, q: int) -> None:
        self._evolve([(kraus_ptm(kraus), q)])

    def _evolve(self, ops) -> None:
        """Apply ops in order: (R, q) is a one-qubit map, a real 4x4 PTM, and (R, c, c + 1)
        a real 16x16 map on a chain pair.

        r's axes live in a tracked storage order between ops.  A map whose axes lead, in
        its order, runs where they lie: one matmul reads the (4^w, rest) block transposed
        and writes the map's axes at the back, so a layer of n gates ends where it began.
        A pair map whose second qubit leads the next op keeps that qubit in front instead,
        writing [t, rest, c] as four matmuls, so a CNOT chain runs without a copy.  A map
        whose axes do not lead copies r once to put them in front, and one last copy puts
        r back in C order.  On a fresh |0...0><0...0|, r is a product: one-qubit maps act
        on a lone qubit's 4 coefficients, and a pair map on (c, c + 1) grows a C-ordered
        block of qubits 0..c + 1 in r's first entries and runs on its two trailing axes,
        as long as c + 1 is the block's last qubit or outside it.
        """
        n = self.n_qubits
        steps = []  # (map, qubits)
        for op in ops:  # every op is checked before r moves
            m, *qubits = op
            w = len(qubits)
            if w not in (1, 2) or np.size(m) != 16**w or not np.isrealobj(m):
                raise ValueError(f"not a (PTM, q) or (PTM, c, c + 1) op: {op!r}")
            if w == 1:
                _check_qubit(n, qubits[0])
            else:
                _check_cnot(n, *qubits)
            steps.append((np.reshape(m, (4**w, 4**w)), qubits))
        cur, other = self._r, self._scratch
        if self._fresh:
            lone = np.tile([1.0, 0.0, 0.0, 1.0], (n, 1))  # the qubits outside the block
            k, done = 0, 0  # cur[:4^k] holds qubits 0..k-1
            cur[0] = 1.0
            for m, qubits in steps:
                if len(qubits) == 1 and qubits[0] >= k:
                    lone[qubits[0]] = m @ lone[qubits[0]]
                elif len(qubits) == 2 and qubits[1] >= k - 1:
                    cur, other = _grow_block(cur, other, lone, k, qubits[1] + 1)
                    k = max(k, qubits[1] + 1)
                    np.matmul(cur[: 4**k].reshape(-1, 16), m.T, out=other[: 4**k].reshape(-1, 16))
                    cur, other = other, cur
                else:
                    break
                done += 1
            cur, other = _grow_block(cur, other, lone, k, n)
            steps, self._fresh = steps[done:], False
        order = list(range(n))  # storage axis i holds qubit order[i]
        for i, (m, qubits) in enumerate(steps):
            w = len(qubits)
            if order[:w] != qubits:
                new = qubits + [q for q in order if q not in qubits]
                _permute_into(other, cur, order, new)
                cur, other, order = other, cur, new
            rest = cur.size >> 2 * w
            if w == 2 and i + 1 < len(steps) and steps[i + 1][1][0] == qubits[1]:
                np.matmul(cur.reshape(16, rest).T, m.reshape(4, 4, 16).transpose(1, 2, 0),
                          out=other.reshape(4, rest, 4))
                order = order[1:] + order[:1]
            else:
                np.matmul(cur.reshape(4**w, rest).T, m.T, out=other.reshape(rest, 4**w))
                order = order[w:] + order[:w]
            cur, other = other, cur
        if order != sorted(order):
            _permute_into(other, cur, order, sorted(order))
            cur, other = other, cur
        self._r, self._scratch = cur, other

    def check_trace(self) -> None:
        """|tr rho - 1| = |r_I - 1| <= 1e-9, which a NaN or infinite trace fails."""
        tr = self._r[0]
        if not abs(tr - 1.0) <= 1e-9:
            raise ValueError(f"trace drifted to {tr}")

    def expectation(self, term: PauliTerm) -> float:
        """tr(P rho) = r_P, one entry of r."""
        n, index = self.n_qubits, 0
        for q, p in term.factors:
            _check_qubit(n, q)
            index += "IXYZ".index(p) << 2 * (n - 1 - q)
        return _unit_clip(self._r[index])


def _grow_block(cur: np.ndarray, other: np.ndarray, lone: np.ndarray, k: int, top: int):
    """The block of qubits 0..k-1 in cur[:4^k] times the lone qubits k..top-1, one at a
    time through other; returns (cur, other) with the block of qubits 0..top-1 in cur.
    Each product is a matmul: a broadcast np.multiply allocates numpy's 64 KiB buffer."""
    for j in range(k, top):
        np.matmul(cur[: 4**j, None], lone[j, None], out=other[: 4 ** (j + 1)].reshape(-1, 4))
        cur, other = other, cur
    return cur, other


def _permute_into(dst: np.ndarray, src: np.ndarray, order, new_order) -> None:
    """dst, with its [4]*n axes stored in new_order, = src stored in order."""
    axes = [order.index(q) for q in new_order]
    np.copyto(dst.reshape((4,) * len(order)), src.reshape((4,) * len(order)).transpose(axes))


@dataclass
class NoisyResult:
    """Final density matrix of a noisy run."""

    density: DensityMatrix

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
    hit = np.eye(4)
    for kraus in _channel_sequences(noise):
        hit = kraus_ptm(kraus) @ hit
    # Ry, noise, Rz, noise on one qubit compose into a single map, every gate's built at
    # once from one stack of Ry and Rz; a CNOT and the noise on its two qubits are one map
    rotations = np.stack([ry_matrix(angles[..., 0]), rz_matrix(angles[..., 1])])
    ry, rz = kraus_ptm(rotations[..., None, :, :])
    gates = hit @ rz @ hit @ ry
    pair = np.kron(hit, hit) @ _CNOT_PTM
    ops = []  # (PTM, q) gates and (PTM, q, q + 1) CNOTs with their noise, in circuit order
    for layer in range(angles.shape[0]):
        ops += [(gates[layer, q], q) for q in range(n)]
        ops += [(pair, q, q + 1) for q in range(n - 1)]
    dm._evolve(ops)
    dm.check_trace()
    return NoisyResult(density=dm)
