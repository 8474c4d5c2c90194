"""Exact arithmetic in Z_{2^k} and the fixed-point encoding layered on it.

Values live in the unsigned residue ring modulo 2^k (k <= 64) and are
interpreted as two's-complement signed integers when decoding.  Every value,
scalar or vector, is a numpy uint64 array (0-d for a scalar), whose
wraparound is exact modular arithmetic; radd/rsub/rmul/rneg reduce mod 2^k.
They call the ufuncs explicitly: a ufunc call never warns on uint64
wraparound, while the operators on numpy scalars (which an op on 0-d arrays
returns) do.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_K = 64


def ring_mask(k: int) -> int:
    """All-ones bit mask for a k-bit ring."""
    _check_k(k)
    return (1 << k) - 1


def _check_k(k: int) -> None:
    if not isinstance(k, (int, np.integer)) or not 1 <= k <= MAX_K:
        raise ValueError(f"ring width k must be an integer in [1, {MAX_K}], got {k!r}")


def as_ring_array(values, k: int = MAX_K) -> np.ndarray:
    """Coerce ints / sequences to a uint64 array reduced mod 2^k."""
    _check_k(k)
    arr = np.asarray(values)
    if arr.dtype == np.uint64:
        out = arr.copy()
    elif arr.dtype.kind in "iu":
        out = arr.astype(np.int64, copy=False).view(np.uint64).copy()
    elif arr.dtype == object:
        # python ints of arbitrary size: reduce before conversion
        mask = (1 << MAX_K) - 1
        out = np.array([int(v) & mask for v in arr.ravel()], dtype=np.uint64).reshape(arr.shape)
    else:
        raise TypeError(f"ring arrays take integer inputs, got dtype {arr.dtype}")
    if k < MAX_K:
        out &= np.uint64(ring_mask(k))
    return out


def radd(a: np.ndarray, b: np.ndarray, k: int = MAX_K) -> np.ndarray:
    out = np.add(a, b)
    if k < MAX_K:
        out &= np.uint64(ring_mask(k))
    return out


def rsub(a: np.ndarray, b: np.ndarray, k: int = MAX_K) -> np.ndarray:
    out = np.subtract(a, b)
    if k < MAX_K:
        out &= np.uint64(ring_mask(k))
    return out


def rmul(a: np.ndarray, b: np.ndarray, k: int = MAX_K) -> np.ndarray:
    out = np.multiply(a, b)
    if k < MAX_K:
        out &= np.uint64(ring_mask(k))
    return out


def rneg(a: np.ndarray, k: int = MAX_K) -> np.ndarray:
    out = np.subtract(np.uint64(0), a)
    if k < MAX_K:
        out &= np.uint64(ring_mask(k))
    return out


def to_signed(a: np.ndarray, k: int = MAX_K) -> np.ndarray:
    """Two's-complement interpretation of k-bit residues, as int64."""
    if k == MAX_K:
        return a.view(np.int64) if a.dtype == np.uint64 else np.asarray(a, np.int64)
    half = np.uint64(1 << (k - 1))
    signed = a.astype(np.int64)
    step = np.int64(1 << (k - 1))  # subtract twice: 2^k itself can overflow int64
    return np.where(a >= half, signed - step - step, signed)


def from_signed(a: np.ndarray, k: int = MAX_K) -> np.ndarray:
    return as_ring_array(np.asarray(a, dtype=np.int64), k)


@dataclass(frozen=True)
class FixedPointCodec:
    """Scale-2^F two's-complement encoding of reals into Z_{2^k}.

    encode rounds half away from zero; representable magnitudes are
    |v| < 2^(k-1-F).  decode maps residues >= 2^(k-1) to negatives.
    """

    k: int = MAX_K
    fraction_bits: int = 20

    def __post_init__(self):
        _check_k(self.k)
        if not 0 < self.fraction_bits < self.k:
            raise ValueError(
                f"fraction_bits must satisfy 0 < F < k, got F={self.fraction_bits}, k={self.k}"
            )

    @property
    def scale(self) -> int:
        return 1 << self.fraction_bits

    @property
    def max_abs(self) -> float:
        """Exclusive bound on representable magnitude."""
        return float(2 ** (self.k - 1 - self.fraction_bits))

    @property
    def ulp(self) -> float:
        return 2.0 ** (-self.fraction_bits)

    def encode_array(self, values) -> np.ndarray:
        v = np.asarray(values, dtype=np.float64)
        if not np.all(np.isfinite(v)):
            raise ValueError("cannot encode non-finite values")
        if np.any(np.abs(v) >= self.max_abs):
            bad = float(np.max(np.abs(v)))
            raise ValueError(
                f"value magnitude {bad} outside representable range |v| < {self.max_abs} "
                f"(k={self.k}, F={self.fraction_bits})"
            )
        # scaling by a power of two is exact in binary floating point
        scaled = v * float(self.scale)
        magnitude = np.floor(np.abs(scaled) + 0.5)
        signed = np.where(scaled < 0, -magnitude, magnitude)
        # a value just below max_abs can round up to 2^(k-1), which would wrap to
        # -2^(k-1); that negative end itself stays representable
        if np.any(signed >= float(1 << (self.k - 1))):
            raise ValueError("rounded value does not fit the signed ring range")
        return from_signed(signed.astype(np.int64), self.k)

    def decode_array(self, residues: np.ndarray) -> np.ndarray:
        arr = as_ring_array(residues, self.k)
        return to_signed(arr, self.k).astype(np.float64) / float(self.scale)
