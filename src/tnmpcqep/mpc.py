"""Three-party replicated secret sharing over Z_{2^k} with metered communication.

A secret v is split as v = v_0 + v_1 + v_2 (mod 2^k) with v_0, v_1 uniform
from the session's seeded stream; party i holds the pair (v_i, v_{i+1 mod 3}).
A SharedTensor keeps the three components of a tensor of secrets as one
(3, *shape) uint64 array, so every local op is one ring op over that array.
It owns that array: every op builds a fresh, reduced one and nothing copies
it again.  An Mpc3Session runs all three logical parties in lockstep inside
one process and sends no messages.  It is also the meter: plain integers that
change only through Mpc3Session.charge, one counter per link, read as a
CostReport, and one per primitive (share, mul, trunc, div, open), read
through Mpc3Session.traffic and summing to the same total.

Each op charges once, the bit-exact cost of the protocol it models:
sharing 6k bits per element, multiplication 3k, opening 3k, truncation 6k
and division 3k(k + 4*theta + 2).  Active security is a cost model only:
every charge is doubled, the dataflow is unchanged.  Truncation and the
normalization inside division share one step, Mpc3Session._shift: it rebuilds
the value, shifts it and reshares it, standing in for an interactive
truncation, and is the one place outside open where a value is rebuilt.

The binary ops (add, sub, mul, divide) take operands of one shape, or a
one-dimensional first operand and a shape-(1,) second one, which stands for
that one secret at every element; the charge counts the first's elements.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence

import numpy as np

from .ring import (
    MAX_K,
    FixedPointCodec,
    as_ring_array,
    radd,
    ring_mask,
    rmul,
    rneg,
    rsub,
    to_signed,
)


class SecurityMode(Enum):
    PASSIVE = "passive"
    ACTIVE = "active"


class ProtocolError(Exception):
    """Malformed program or misuse of a session."""


class DomainError(ValueError):
    """Operand outside an operation's mathematical domain."""


# --- metering ---


@dataclass(frozen=True)
class CostReport:
    """Immutable per-link bit counters for one protocol run or closed form."""

    client_to_node_bits: int = 0
    node_to_node_bits: int = 0
    reconstruction_bits: int = 0

    @property
    def total_bits(self) -> int:
        return self.client_to_node_bits + self.node_to_node_bits + self.reconstruction_bits

    def __add__(self, other: "CostReport") -> "CostReport":
        return CostReport(
            self.client_to_node_bits + other.client_to_node_bits,
            self.node_to_node_bits + other.node_to_node_bits,
            self.reconstruction_bits + other.reconstruction_bits,
        )

    def scaled(self, factor: int) -> "CostReport":
        return CostReport(
            self.client_to_node_bits * factor,
            self.node_to_node_bits * factor,
            self.reconstruction_bits * factor,
        )


CLIENT_TO_NODE = "client_to_node"
NODE_TO_NODE = "node_to_node"
RECONSTRUCTION = "reconstruction"
_CATEGORIES = (CLIENT_TO_NODE, NODE_TO_NODE, RECONSTRUCTION)  # CostReport field order


# --- shares ---

# component i+1 beside component i: party i's second row, and mul's cross terms
_NEXT = np.array([1, 2, 0])


def _uniform_ring(rng, shape, k: int) -> np.ndarray:
    """Uniform draw over Z_{2^k} as uint64: the generator's raw 64-bit words,
    the same stream as rng.integers(0, 2**64, shape, dtype=np.uint64) at k=64."""
    full = rng.bit_generator.random_raw(shape)
    return full & np.uint64(ring_mask(k)) if k < MAX_K else full


class SharedTensor:
    """Tensor of secrets as one (3, *shape) array of components v_0, v_1, v_2;
    party i holds rows i and i+1 mod 3.

    Takes ownership of components without copying: pass a fresh array
    reduced mod 2^k.
    """

    __slots__ = ("components", "k")

    def __init__(self, components: np.ndarray, k: int):
        if not isinstance(components, np.ndarray) or components.dtype != np.uint64 \
                or components.ndim < 2 or components.shape[0] != 3:
            raise ProtocolError("a SharedTensor needs a (3, *shape) uint64 component array")
        self.components = components
        self.k = k

    @property
    def shape(self):
        return self.components.shape[1:]

    @property
    def size(self) -> int:
        return self.components[0].size


@functools.cache
def _divide_constants(codec: FixedPointCodec):
    """divide's encoded 2.9142 and 2.0, once per codec (read-only)."""
    consts = codec.encode_array(2.9142), codec.encode_array(2.0)
    for c in consts:
        c.flags.writeable = False
    return consts


class Mpc3Session:
    """Lockstep three-party session: all secure ops, one meter, one seed.

    fraction_bits and theta fix the codec and the division refinement count
    for every fixed-point op of the session.
    """

    def __init__(
        self,
        k: int = MAX_K,
        fraction_bits: int = 20,
        theta: int = 5,
        mode: SecurityMode = SecurityMode.PASSIVE,
        seed: int = 0,
    ):
        if theta < 1:
            raise ValueError(f"theta must be >= 1, got {theta}")
        self.k = k
        self.codec = FixedPointCodec(k=k, fraction_bits=fraction_bits)
        self.theta = theta
        self.mode = mode if isinstance(mode, SecurityMode) else SecurityMode(mode)
        self.rng = np.random.default_rng(seed)
        self._multiplier = 2 if self.mode is SecurityMode.ACTIVE else 1
        self._mute_depth = 0
        self._link_bits = dict.fromkeys(_CATEGORIES, 0)
        self._primitive_bits: dict = {}

    # -- metering --

    def charge(self, category: str, bits: int, primitive: str) -> None:
        """Add bits (x2 under active security) to one link's and one primitive's counter unless muted."""
        if category not in self._link_bits:
            raise ProtocolError(f"unknown meter category {category!r}")
        if bits < 0:
            raise ProtocolError("cannot charge negative bits")
        if self._mute_depth == 0:
            bits *= self._multiplier
            self._link_bits[category] += bits
            self._primitive_bits[primitive] = self._primitive_bits.get(primitive, 0) + bits

    @contextmanager
    def muted(self):
        """Suspend metering for internal sub-steps whose cost is charged as a model total."""
        self._mute_depth += 1
        try:
            yield self
        finally:
            self._mute_depth -= 1

    def report(self) -> CostReport:
        return CostReport(*self._link_bits.values())

    def traffic(self) -> dict:
        """Bits per primitive tag in first-charged order, summing to report().total_bits.

        The session's ops tag share, mul, trunc, div and open; a plaintext
        upload is tagged plain.
        """
        return dict(self._primitive_bits)

    # -- sharing / opening --

    def share(self, values) -> SharedTensor:
        """Client-side split; party i receives the pair (v_i, v_{i+1}) (6k bits/element)."""
        x = self._split(np.atleast_1d(as_ring_array(values, self.k)))
        self.charge(CLIENT_TO_NODE, 6 * self.k * x.size, "share")
        return x

    def share_encoded(self, real_values) -> SharedTensor:
        return self.share(self.codec.encode_array(np.asarray(real_values, dtype=np.float64)))

    def share_public(self, values) -> SharedTensor:
        """Trivial sharing (v, 0, 0) of a publicly known value; no traffic."""
        v = np.atleast_1d(as_ring_array(values, self.k))
        comps = np.zeros((3,) + v.shape, dtype=np.uint64)
        comps[0] = v
        return SharedTensor(comps, self.k)

    def open(self, x: SharedTensor) -> np.ndarray:
        """Reveal to all parties: each party forwards one missing component (3k bits/element)."""
        self.charge(RECONSTRUCTION, 3 * self.k * x.size, "open")
        return self._combine(x)

    def open_decoded(self, x: SharedTensor) -> np.ndarray:
        return self.codec.decode_array(self.open(x))

    # -- linear ops (local) --

    def add(self, x: SharedTensor, y: SharedTensor) -> SharedTensor:
        self._same_ring(x, y)
        return SharedTensor(radd(x.components, y.components, self.k), self.k)

    def sub(self, x: SharedTensor, y: SharedTensor) -> SharedTensor:
        self._same_ring(x, y)
        return SharedTensor(rsub(x.components, y.components, self.k), self.k)

    def neg(self, x: SharedTensor) -> SharedTensor:
        return SharedTensor(rneg(x.components, self.k), self.k)

    def add_public(self, x: SharedTensor, const) -> SharedTensor:
        comps = x.components.copy()
        comps[0] = radd(comps[0], as_ring_array(const, self.k), self.k)
        return SharedTensor(comps, self.k)

    def mul_public(self, x: SharedTensor, const) -> SharedTensor:
        c = np.broadcast_to(np.atleast_1d(as_ring_array(const, self.k)), x.shape)
        return SharedTensor(rmul(x.components, c, self.k), self.k)

    # -- interactive ops --

    def mul(self, x: SharedTensor, y: SharedTensor) -> SharedTensor:
        """Replicated product: z_i = x_i y_i + x_{i+1} y_i + x_i y_{i+1}; party i
        sends z_i to party i-1 (3k bits/element)."""
        self._same_ring(x, y)
        xc, yc = x.components, y.components
        x_next, y_next = xc[_NEXT], yc[_NEXT]
        z = radd(rmul(xc, radd(yc, y_next, self.k), self.k), rmul(x_next, yc, self.k), self.k)
        self.charge(NODE_TO_NODE, 3 * self.k * x.size, "mul")
        return SharedTensor(z, self.k)

    def truncate(self, x: SharedTensor, rounding: str = "floor") -> SharedTensor:
        """Divide by 2^F with floor semantics, staying shared; meters 6k bits/element.

        Realized by _shift, an exact reshare of the arithmetic shift; the 6k
        charge is the protocol model cost of the interactive variant this
        stands in for.
        """
        out = self._shift(x, np.int64(self.codec.fraction_bits), rounding)
        self.charge(NODE_TO_NODE, 6 * self.k * x.size, "trunc")
        return out

    def fixed_mul(self, x: SharedTensor, y: SharedTensor) -> SharedTensor:
        """Scale-preserving product: secure mul (3k) then truncation (6k)."""
        return self.truncate(self.mul(x, y))

    def divide(self, num: SharedTensor, den: SharedTensor) -> SharedTensor:
        """Fixed-point quotient num/den via reciprocal refinement.

        The denominator's bit width is published as a power-of-two
        normalization exponent; theta iterations of two fixed-point
        multiplications refine the reciprocal of the normalized denominator,
        and one final multiplication forms the quotient.  Meters exactly
        3k(k + 4*theta + 2) node-to-node bits per element, independent of the
        operands; its internal steps are muted, not metered separately.
        """
        self._same_ring(num, den)
        codec, theta, k = self.codec, self.theta, self.k
        f = codec.fraction_bits

        den_signed = to_signed(self._combine(den), k)
        if np.any(den_signed <= 0):
            raise DomainError("secure division requires a strictly positive denominator")

        with self.muted():
            widths = np.array([int(v).bit_length() for v in den_signed], dtype=np.int64)
            # normalize both operands by 2^(f - e): den lands in [0.5, 1)
            b0 = self._scale_pow2(den, f - widths, rounding="nearest")
            n0 = self._scale_pow2(num, f - widths, rounding="nearest")

            # linear initial estimate of 1/b0 on [0.5, 1): r = 2.9142 - 2 b0
            init, two = _divide_constants(codec)
            r = self.add_public(self.neg(self.mul_public(b0, 2)), init)
            for _ in range(theta):
                t = self.truncate(self.mul(b0, r), rounding="nearest")
                u = self.add_public(self.neg(t), two)
                r = self.truncate(self.mul(r, u), rounding="nearest")
            q = self.truncate(self.mul(n0, r), rounding="nearest")

        self.charge(NODE_TO_NODE, 3 * k * (k + 4 * theta + 2) * num.size, "div")
        return q

    # -- internals --

    def _same_ring(self, x: SharedTensor, y: SharedTensor) -> None:
        if x.k != self.k or y.k != self.k:
            raise ProtocolError("shared tensors belong to a different ring width")
        if x.shape != y.shape and not (y.shape == (1,) and len(x.shape) == 1):
            raise ProtocolError(f"shape mismatch: {x.shape} vs {y.shape}")

    def _combine(self, x: SharedTensor) -> np.ndarray:
        # one reduction over the component axis: uint64 sums wrap mod 2^64 in any order
        total = np.add.reduce(x.components, axis=0)
        if self.k < MAX_K:
            total &= np.uint64(ring_mask(self.k))
        return total

    def _split(self, values: np.ndarray) -> SharedTensor:
        """Fresh sharing from the session stream: v_0, v_1 uniform, v_2 the residual,
        each reduced mod 2^k whether or not values are."""
        comps = np.empty((3,) + values.shape, dtype=np.uint64)
        comps[0] = _uniform_ring(self.rng, values.shape, self.k)
        comps[1] = _uniform_ring(self.rng, values.shape, self.k)
        comps[2] = rsub(rsub(values, comps[0], self.k), comps[1], self.k)
        return SharedTensor(comps, self.k)

    def _shift(self, x: SharedTensor, down, rounding: str) -> SharedTensor:
        """Fresh sharing of x's value shifted right by down bits (a public int64 or one
        per element); "nearest" first adds 2^(down-1) where down > 0."""
        signed = to_signed(self._combine(x), self.k)
        if rounding == "nearest":
            signed = signed + np.where(down > 0, np.int64(1) << np.maximum(down - 1, 0), 0)
        # the shift's int64 bits as uint64, unreduced: _split reduces v_2 mod 2^k
        return self._split((signed >> down).view(np.uint64))

    def _scale_pow2(self, x: SharedTensor, exps: np.ndarray, rounding: str = "floor") -> SharedTensor:
        """Multiply element j by 2^exps[j]; negative exponents shift down exactly."""
        exps = np.broadcast_to(np.asarray(exps, dtype=np.int64), x.shape)
        up = self.mul_public(x, np.uint64(1) << np.maximum(exps, 0).astype(np.uint64))
        return self._shift(up, np.maximum(-exps, 0), rounding)


# --- straight-line programs and the plaintext oracle ---


@dataclass(frozen=True)
class Instr:
    """One step of a straight-line secure program.

    ops: add, sub, mul (scale doubles), trunc (scale drops by F),
    fixed_mul (scale preserved), cmul (integer constant, local), div.
    """

    op: str
    dst: str
    a: str
    b: Optional[str] = None
    const: Optional[int] = None


def _program_scales(program: Sequence[Instr], input_names: Iterable[str]) -> dict:
    """Track each wire's fixed-point scale in multiples of F; validate the program."""
    scales = {name: 1 for name in input_names}
    for ins in program:
        if ins.a not in scales:
            raise ProtocolError(f"undefined wire {ins.a!r}")
        sa = scales[ins.a]
        if ins.op in ("add", "sub", "mul", "fixed_mul", "div"):
            if ins.b is None or ins.b not in scales:
                raise ProtocolError(f"op {ins.op} needs a defined second operand")
            sb = scales[ins.b]
        if ins.op in ("add", "sub"):
            if sa != sb:
                raise ProtocolError("cannot add wires at different scales")
            scales[ins.dst] = sa
        elif ins.op == "mul":
            scales[ins.dst] = sa + sb
        elif ins.op == "fixed_mul":
            if sa != 1 or sb != 1:
                raise ProtocolError("fixed_mul expects scale-F operands")
            scales[ins.dst] = 1
        elif ins.op == "trunc":
            if sa < 2:
                raise ProtocolError("trunc expects a scale >= 2F wire")
            scales[ins.dst] = sa - 1
        elif ins.op == "cmul":
            if ins.const is None or int(ins.const) != ins.const:
                raise ProtocolError("cmul needs an integer constant")
            scales[ins.dst] = sa
        elif ins.op == "div":
            if sa != 1 or sb != 1:
                raise ProtocolError("div expects scale-F operands")
            scales[ins.dst] = 1
        else:
            raise ProtocolError(f"unknown op {ins.op!r}")
    return scales


def run_protocol(
    program: Sequence[Instr],
    inputs: dict,
    k: int = MAX_K,
    fraction_bits: int = 20,
    theta: int = 5,
    mode: SecurityMode = SecurityMode.PASSIVE,
    seed: int = 0,
    outputs: Optional[Sequence[str]] = None,
):
    """Execute a straight-line program under the session; returns (decoded outputs, CostReport).

    Only inputs actually referenced are shared; outputs default to the last
    destination.  An empty program therefore costs nothing.
    """
    session = Mpc3Session(k=k, fraction_bits=fraction_bits, theta=theta, mode=mode, seed=seed)
    if not program:
        return {}, session.report()
    scales = _program_scales(program, inputs.keys())
    used = set()
    for ins in program:
        used.add(ins.a)
        if ins.b is not None:
            used.add(ins.b)
    wires = {}
    for name, value in inputs.items():
        if name in used:
            wires[name] = session.share_encoded(float(value))
    for ins in program:
        a = wires[ins.a]
        if ins.op == "add":
            wires[ins.dst] = session.add(a, wires[ins.b])
        elif ins.op == "sub":
            wires[ins.dst] = session.sub(a, wires[ins.b])
        elif ins.op == "mul":
            wires[ins.dst] = session.mul(a, wires[ins.b])
        elif ins.op == "fixed_mul":
            wires[ins.dst] = session.fixed_mul(a, wires[ins.b])
        elif ins.op == "trunc":
            wires[ins.dst] = session.truncate(a)
        elif ins.op == "cmul":
            wires[ins.dst] = session.mul_public(a, int(ins.const) % (1 << k))
        elif ins.op == "div":
            wires[ins.dst] = session.divide(a, wires[ins.b])
    if outputs is None:
        outputs = [program[-1].dst]
    decoded = {}
    for name in outputs:
        if name not in wires:
            raise ProtocolError(f"requested output {name!r} was never computed")
        raw = session.open(wires[name])
        scale_codec = FixedPointCodec(k=k, fraction_bits=fraction_bits * scales[name])
        decoded[name] = float(scale_codec.decode_array(raw)[0])
    return decoded, session.report()


def eval_plaintext(
    program: Sequence[Instr],
    inputs: dict,
    k: int = MAX_K,
    fraction_bits: int = 20,
    outputs: Optional[Sequence[str]] = None,
) -> dict:
    """Reference fixed-point evaluation on plain python integers.

    Mirrors the ring semantics (two's complement, floor truncation) with no
    sharing, so secure executions can be checked against it exactly.
    """
    mod = 1 << k
    half = 1 << (k - 1)
    f = fraction_bits

    def enc(v: float) -> int:
        scaled = v * (1 << f)
        m = int(np.floor(abs(scaled) + 0.5))
        return (-m if scaled < 0 else m) % mod

    def signed(x: int) -> int:
        return x - mod if x >= half else x

    if not program:
        return {}
    scales = _program_scales(program, inputs.keys())
    wires = {name: enc(float(v)) for name, v in inputs.items()}
    for ins in program:
        a = wires[ins.a]
        if ins.op == "add":
            wires[ins.dst] = (a + wires[ins.b]) % mod
        elif ins.op == "sub":
            wires[ins.dst] = (a - wires[ins.b]) % mod
        elif ins.op == "mul":
            wires[ins.dst] = (a * wires[ins.b]) % mod
        elif ins.op == "fixed_mul":
            prod = (a * wires[ins.b]) % mod
            wires[ins.dst] = (signed(prod) >> f) % mod
        elif ins.op == "trunc":
            wires[ins.dst] = (signed(a) >> f) % mod
        elif ins.op == "cmul":
            wires[ins.dst] = (a * (int(ins.const) % mod)) % mod
        elif ins.op == "div":
            num = signed(a) / (1 << f)
            den = signed(wires[ins.b]) / (1 << f)
            if den <= 0:
                raise DomainError("non-positive denominator")
            wires[ins.dst] = enc(num / den)
    if outputs is None:
        outputs = [program[-1].dst]
    return {name: signed(wires[name]) / float(1 << (f * scales[name])) for name in outputs}
