"""Ring and fixed-point codec checks against a pure-python integer oracle."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tnmpcqep.ring import (
    FixedPointCodec,
    as_ring_array,
    radd,
    ring_mask,
    rmul,
    rneg,
    rsub,
    to_signed,
)


def oracle_add(a, b, k):
    return (a + b) % (1 << k)


def oracle_mul(a, b, k):
    return (a * b) % (1 << k)


def test_add_wraps_at_full_width():
    assert int(radd(as_ring_array(2**64 - 1), as_ring_array(1))) == 0


def test_mul_wraps_at_full_width():
    assert int(rmul(as_ring_array(2**63), as_ring_array(2))) == 0


def test_narrow_width_add():
    assert int(radd(as_ring_array(200, k=8), as_ring_array(100, k=8), k=8)) == 44


def test_rejects_bad_width():
    with pytest.raises(ValueError):
        as_ring_array(1, k=65)
    with pytest.raises(ValueError):
        as_ring_array(1, k=0)
    with pytest.raises(ValueError):
        ring_mask(65)


def test_negative_canonicalized():
    assert int(as_ring_array(-1)) == 2**64 - 1
    assert int(as_ring_array(-1, k=8)) == 255
    assert int(rneg(as_ring_array(5, k=8), k=8)) == 251


def test_signed_interpretation():
    assert int(to_signed(as_ring_array(2**64 - 1))) == -1
    assert int(to_signed(as_ring_array(2**63 - 1))) == 2**63 - 1
    assert int(to_signed(as_ring_array(2**63))) == -(2**63)
    assert int(to_signed(as_ring_array(200, k=8), k=8)) == -56


@pytest.mark.parametrize("k", [8, 32, 64])
def test_random_ops_match_oracle(k):
    rng = np.random.default_rng(20260818 + k)
    mod = 1 << k
    for _ in range(300):
        a, b = int(rng.integers(0, mod, dtype=np.uint64) if k == 64 else rng.integers(0, mod)), int(
            rng.integers(0, mod, dtype=np.uint64) if k == 64 else rng.integers(0, mod)
        )
        av, bv = as_ring_array(a, k), as_ring_array(b, k)
        assert int(radd(av, bv, k)) == oracle_add(a, b, k)
        assert int(rmul(av, bv, k)) == oracle_mul(a, b, k)
        assert int(rsub(av, bv, k)) == (a - b) % mod


@pytest.mark.parametrize("k", [8, 32, 64])
def test_vector_ops_match_oracle(k):
    rng = np.random.default_rng(7 + k)
    mod = 1 << k
    a = [int(x) for x in rng.integers(0, min(mod, 2**63), size=64)]
    b = [int(x) for x in rng.integers(0, min(mod, 2**63), size=64)]
    av, bv = as_ring_array(a, k), as_ring_array(b, k)
    assert [int(x) for x in radd(av, bv, k)] == [oracle_add(x, y, k) for x, y in zip(a, b)]
    assert [int(x) for x in rmul(av, bv, k)] == [oracle_mul(x, y, k) for x, y in zip(a, b)]
    assert [int(x) for x in rsub(av, bv, k)] == [(x - y) % mod for x, y in zip(a, b)]
    assert [int(x) for x in rneg(av, k)] == [(-x) % mod for x in a]


def test_algebraic_laws_random():
    rng = np.random.default_rng(99)
    for _ in range(200):
        a, b, c = (as_ring_array(int(x)) for x in rng.integers(0, 2**63, size=3))
        assert int(radd(a, b)) == int(radd(b, a))
        assert int(rmul(a, b)) == int(rmul(b, a))
        lhs = rmul(a, radd(b, c))
        rhs = radd(rmul(a, b), rmul(a, c))
        assert int(lhs) == int(rhs)


def test_to_signed_roundtrip():
    rng = np.random.default_rng(3)
    for k in (8, 32, 63, 64):
        vals = rng.integers(-(2 ** (k - 1)), 2 ** (k - 1), size=50, dtype=np.int64)
        arr = as_ring_array(vals, k)
        assert np.array_equal(to_signed(arr, k), vals)


# --- fixed-point codec ---


def test_codec_rejects_bad_fraction_bits():
    with pytest.raises(ValueError):
        FixedPointCodec(k=64, fraction_bits=64)
    with pytest.raises(ValueError):
        FixedPointCodec(k=64, fraction_bits=0)
    with pytest.raises(ValueError):
        FixedPointCodec(k=32, fraction_bits=40)


def test_encode_known_values():
    c2 = FixedPointCodec(k=64, fraction_bits=2)
    assert int(c2.encode_array(-0.25)) == 2**64 - 1  # -1 in two's complement
    assert int(c2.encode_array(0.3)) == 1  # 1.2 rounds down
    assert int(c2.encode_array(0.375)) == 2  # 1.5 ties away from zero
    assert int(c2.encode_array(-0.375)) == 2**64 - 2
    assert float(c2.decode_array(2**64 - 1)) == -0.25


def test_encode_decode_roundtrip_exact_on_grid():
    codec = FixedPointCodec(k=64, fraction_bits=20)
    assert float(codec.decode_array(codec.encode_array(1.5))) == 1.5
    rng = np.random.default_rng(11)
    grid = rng.integers(-(2**30), 2**30, size=500) / codec.scale
    enc = codec.encode_array(grid)
    assert np.array_equal(codec.decode_array(enc), grid)


def test_encode_rounding_error_bound():
    codec = FixedPointCodec(k=64, fraction_bits=20)
    rng = np.random.default_rng(12)
    v = rng.uniform(-1000, 1000, size=2000)
    err = np.abs(codec.decode_array(codec.encode_array(v)) - v)
    assert err.max() <= 0.5 * codec.ulp + 1e-18


def test_encode_range_error():
    codec = FixedPointCodec(k=64, fraction_bits=20)
    with pytest.raises(ValueError):
        codec.encode_array(float(2**43))
    with pytest.raises(ValueError):
        codec.encode_array(-float(2**43) - 1.0)
    # just inside the bound is fine
    codec.encode_array(float(2**43) - 1.0)


def test_encode_rejects_non_finite():
    codec = FixedPointCodec()
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError):
            codec.encode_array(bad)


def test_round_half_away_from_zero_on_ties():
    codec = FixedPointCodec(k=64, fraction_bits=4)
    # .5 ulp ties: 0.03125 * 16 = 0.5
    assert int(codec.encode_array(0.03125)) == 1
    assert int(to_signed(codec.encode_array(-0.03125))) == -1
    assert int(codec.encode_array(0.09375)) == 2  # 1.5 -> 2
    assert int(to_signed(codec.encode_array(-0.09375))) == -2


def test_decode_array_handles_width_32():
    codec = FixedPointCodec(k=32, fraction_bits=10)
    vals = np.array([1.5, -2.25, 0.0])
    assert np.allclose(codec.decode_array(codec.encode_array(vals)), vals)


_OPERAND_KINDS = {
    "scalar": lambda v: np.uint64(v),
    "0-d": lambda v: np.array(v, dtype=np.uint64),
    "1-d": lambda v: np.array([v, 1], dtype=np.uint64),
}


@pytest.mark.parametrize("kind", sorted(_OPERAND_KINDS))
@pytest.mark.parametrize("k", [64, 8])
def test_ring_ops_wrap_without_an_overflow_warning(k, kind):
    # operands at the top of the 64-bit range wrap in every op; numpy scalar
    # operators would warn on that, the ufunc calls must not
    top = (1 << 64) - 1
    make = _OPERAND_KINDS[kind]
    a, b = make(top), make(1 << 63)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = {
            "add": radd(a, b, k), "sub": rsub(b, a, k),
            "mul": rmul(a, b, k), "neg": rneg(a, k),
        }
    want = {
        "add": oracle_add(top, 1 << 63, k), "sub": (2**63 - top) % (1 << k),
        "mul": oracle_mul(top, 1 << 63, k), "neg": (-top) % (1 << k),
    }
    for op, value in got.items():
        assert np.asarray(value).dtype == np.uint64
        assert int(np.ravel(value)[0]) == want[op], op


@pytest.mark.parametrize("k, f, v", [(8, 1, 63.75), (16, 4, 2047.99)])
def test_encode_rejects_a_value_that_rounds_up_to_the_top_of_the_ring(k, f, v):
    codec = FixedPointCodec(k=k, fraction_bits=f)
    with pytest.raises(ValueError, match="does not fit"):
        codec.encode_array([v])
    assert codec.decode_array(codec.encode_array([-v]))[0] == -codec.max_abs  # -2^(k-1) fits


def _below(top, steps):
    for _ in range(steps):
        top = np.nextafter(top, 0.0)
    return float(top)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_encode_keeps_the_sign_or_rejects(data):
    k = data.draw(st.integers(8, 64))
    codec = FixedPointCodec(k=k, fraction_bits=data.draw(st.integers(1, k - 1)))
    top = codec.max_abs
    v = data.draw(st.one_of(
        st.floats(-top, top, exclude_min=True, exclude_max=True),
        st.builds(lambda steps, sign: sign * _below(top, steps),
                  st.integers(0, 3), st.sampled_from([-1.0, 1.0]))))
    try:
        got = float(codec.decode_array(codec.encode_array([v]))[0])
    except ValueError:
        return
    assert got == 0.0 or np.sign(got) == np.sign(v)
    assert abs(got - v) <= max(codec.ulp / 2, float(np.spacing(abs(v))))
