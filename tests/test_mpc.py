"""Replicated-sharing protocol checks: correctness vs a plain-integer oracle,
bit-exact metering, determinism, share-distribution sanity."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from tnmpcqep.mpc import (
    CostReport,
    DomainError,
    Instr,
    Mpc3Session,
    ProtocolError,
    SecurityMode,
    SharedTensor,
    _uniform_ring,
    eval_plaintext,
    run_protocol,
)
from tnmpcqep.ring import as_ring_array, from_signed, radd, rmul, rsub, to_signed


class _ForcedRng:
    """Stub generator feeding predetermined 'random' components, one per raw draw."""

    def __init__(self, values):
        self.values = list(values)
        self.bit_generator = self

    def random_raw(self, size=None):
        v = self.values.pop(0)
        return np.full(size if size else 1, v, dtype=np.uint64)


# --- share / open ---


def test_share_forced_randomness_example():
    s = Mpc3Session(k=64)
    s.rng = _ForcedRng([3, 5])
    x = s.share(7)
    v2 = (7 - 3 - 5) % 2**64
    assert v2 == 2**64 - 1
    assert [int(c[0]) for c in x.components] == [3, 5, v2]
    # party i holds the pair (v_i, v_{i+1 mod 3})
    for i, pair in enumerate([(3, 5), (5, v2), (v2, 3)]):
        assert tuple(x.components[[i, (i + 1) % 3], 0].tolist()) == pair
    assert int(s.open(x)[0]) == 7


@pytest.mark.parametrize("shape", [(1,), (3,), (64,), (16, 64)])
def test_share_masks_are_the_generators_uint64_stream(shape):
    for seed in (0, 11, 2**40 + 3):
        values = np.arange(np.prod(shape), dtype=np.uint64).reshape(shape)
        x = Mpc3Session(k=64, seed=seed).share(values)
        ref = np.random.default_rng(seed)
        assert np.array_equal(x.components[0], ref.integers(0, 2**64, shape, dtype=np.uint64))
        assert np.array_equal(x.components[1], ref.integers(0, 2**64, shape, dtype=np.uint64))
        s32 = Mpc3Session(k=32, seed=seed)
        x32 = s32.share(values)
        assert x32.components.max() < 2**32
        assert np.array_equal(s32.open(x32), values)


def test_share_reconstruct_roundtrip_random():
    rng = np.random.default_rng(2)
    for k in (32, 64):
        s = Mpc3Session(k=k)
        s.rng = rng
        for _ in range(50):
            v = int(rng.integers(0, 1 << k, dtype=np.uint64))
            assert int(s.open(s.share(v))[0]) == v


def test_share_vector_roundtrip():
    rng = np.random.default_rng(3)
    v = rng.integers(0, 2**63, size=17, dtype=np.int64).view(np.uint64)
    s = Mpc3Session(k=64)
    s.rng = rng
    assert np.array_equal(s.open(s.share(v)), v)


def test_share_components_look_uniform_regardless_of_secret():
    # a single party's component histogram must not depend on the secret
    n, bins = 6000, 16
    tables = []
    for secret, seed in ((0, 101), (42, 202)):
        session = Mpc3Session(seed=seed)
        vals = []
        for _ in range(n):
            sh = session.share(secret)
            vals.append(int(sh.components[2][0]) >> 60)  # party 2 sees the residual v_2
        tables.append(np.bincount(vals, minlength=bins))
    chi2, p, _, _ = stats.chi2_contingency(np.array(tables))
    assert p > 0.01


# --- share ownership ---


@pytest.mark.parametrize("op", ["add", "mul", "truncate", "add_public"])
def test_op_output_components_are_separate_from_its_inputs(op):
    s = Mpc3Session(seed=4)
    x = s.share(np.array([10, 20, 30], dtype=np.uint64))
    y = s.share(np.array([1, 2, 3], dtype=np.uint64))
    before = x.components.copy(), y.components.copy()
    if op == "truncate":
        out = s.truncate(x)
    elif op == "add_public":
        out = s.add_public(x, 5)
    else:
        out = getattr(s, op)(x, y)
    out.components += np.uint64(1)
    assert np.array_equal(x.components, before[0])
    assert np.array_equal(y.components, before[1])


# --- session linear and multiplicative ops ---


def test_session_add_sub_public_ops():
    s = Mpc3Session(seed=1)
    x = s.share(np.array([10, 20, 30], dtype=np.uint64))
    y = s.share(np.array([1, 2, 3], dtype=np.uint64))
    assert [int(v) for v in s.open(s.add(x, y))] == [11, 22, 33]
    assert [int(v) for v in s.open(s.sub(x, y))] == [9, 18, 27]
    assert [int(v) for v in s.open(s.mul_public(x, 3))] == [30, 60, 90]
    assert [int(v) for v in s.open(s.add_public(x, 5))] == [15, 25, 35]
    assert int(s.open(s.sum(x))[0]) == 60


def test_secure_mul_integers():
    s = Mpc3Session(seed=7)
    x = s.share(3)
    y = s.share(5)
    z = s.mul(x, y)
    assert int(s.open(z)[0]) == 15


def test_secure_mul_random_vectors_match_oracle():
    rng = np.random.default_rng(8)
    s = Mpc3Session(seed=8)
    a = rng.integers(0, 2**31, size=40, dtype=np.int64).view(np.uint64)
    b = rng.integers(0, 2**31, size=40, dtype=np.int64).view(np.uint64)
    z = s.open(s.mul(s.share(a), s.share(b)))
    expect = [(int(x) * int(y)) % 2**64 for x, y in zip(a, b)]
    assert [int(v) for v in z] == expect


def test_mul_meters_3k_per_element():
    s = Mpc3Session(k=64, seed=0)
    x, y = s.share(3), s.share(5)
    before = s.report().node_to_node_bits
    s.mul(x, y)
    assert s.report().node_to_node_bits - before == 192
    x7 = s.share(np.arange(7, dtype=np.uint64))
    y7 = s.share(np.arange(7, dtype=np.uint64))
    before = s.report().node_to_node_bits
    s.mul(x7, y7)
    assert s.report().node_to_node_bits - before == 192 * 7


def test_share_and_open_metering():
    s = Mpc3Session(k=64, seed=0)
    x = s.share(9)
    assert s.report().client_to_node_bits == 384  # 6k per element
    s.open(x)
    assert s.report().reconstruction_bits == 192  # 3k per element


def test_truncate_value_and_meter():
    s = Mpc3Session(k=64, fraction_bits=20, seed=4)
    codec = s.codec
    v = 3.25
    raw = int(codec.encode_array(v))  # scale F
    scaled = (raw * codec.scale) % 2**64  # lift to scale 2F
    x = s.share(scaled)
    before = s.report().node_to_node_bits
    t = s.truncate(x)
    assert s.report().node_to_node_bits - before == 384  # 6k
    out = codec.decode_array(s.open(t))[0]
    assert abs(out - v) <= 2 * codec.ulp


def test_fixed_mul_value_and_meter():
    s = Mpc3Session(k=64, fraction_bits=20, seed=5)
    x = s.share_encoded(2.5)
    y = s.share_encoded(-1.5)
    before = s.report().node_to_node_bits
    z = s.fixed_mul(x, y)
    assert s.report().node_to_node_bits - before == 576  # 9k
    assert abs(s.open_decoded(z)[0] - (-3.75)) <= 2 * s.codec.ulp


def test_fixed_mul_random_within_two_ulp():
    rng = np.random.default_rng(6)
    s = Mpc3Session(seed=6)
    a = rng.uniform(-100, 100, size=200)
    b = rng.uniform(-100, 100, size=200)
    # the 2-ulp contract is on the product of the quantized operands; raw
    # encode error of +-0.5 ulp per operand scales with the other magnitude
    aq = s.codec.decode_array(s.codec.encode_array(a))
    bq = s.codec.decode_array(s.codec.encode_array(b))
    z = s.open_decoded(s.fixed_mul(s.share_encoded(a), s.share_encoded(b)))
    assert np.max(np.abs(z - aq * bq)) <= 2 * s.codec.ulp


# --- division ---


def test_divide_known_values():
    s = Mpc3Session(seed=9)
    q = s.open_decoded(s.divide(s.share_encoded(6.0), s.share_encoded(2.0)))[0]
    assert abs(q - 3.0) <= 2 ** -10
    rng = np.random.default_rng(10)
    for v in rng.uniform(0.1, 50, size=10):
        q = s.open_decoded(s.divide(s.share_encoded(v), s.share_encoded(1.0)))[0]
        assert abs(q - v) <= max(1e-4, abs(v) * 2 ** -10)


def test_divide_relative_error_over_denominator_band():
    s = Mpc3Session(seed=11)
    rng = np.random.default_rng(11)
    dens = np.concatenate([[2.0**-6, 2.0**6], np.exp(rng.uniform(np.log(2.0**-6), np.log(2.0**6), 60))])
    for den in dens:
        ratio = rng.uniform(0.1, 20)
        num = den * ratio
        q = s.open_decoded(s.divide(s.share_encoded(num), s.share_encoded(den)))[0]
        assert abs(q - ratio) / ratio <= 2 ** -10, (num, den, q)


def test_divide_meter_exact_regardless_of_operands():
    for num, den in ((6.0, 2.0), (0.37, 41.0), (100.0, 0.02)):
        s = Mpc3Session(k=64, theta=5, seed=12)
        s.divide(s.share_encoded(num), s.share_encoded(den))
        # charges only the closed form on node_to_node: 3k(k + 4*theta + 2)
        assert s.report().node_to_node_bits == 3 * 64 * (64 + 4 * 5 + 2) == 16512
    s = Mpc3Session(k=64, theta=5, seed=13)
    vec = s.share_encoded(np.array([1.0, 2.0, 3.0]))
    den = s.share_encoded(np.array([2.0, 4.0, 8.0]))
    before = s.report().node_to_node_bits
    s.divide(vec, den)
    assert s.report().node_to_node_bits - before == 16512 * 3


def test_divide_rejects_nonpositive_denominator():
    s = Mpc3Session(seed=14)
    x = s.share_encoded(1.0)
    for bad in (0.0, -2.0):
        with pytest.raises(DomainError):
            s.divide(x, s.share_encoded(bad))


def test_divide_deterministic_given_seed():
    outs = []
    for _ in range(2):
        s = Mpc3Session(seed=15)
        q = s.open(s.divide(s.share_encoded(7.3), s.share_encoded(2.9)))
        outs.append(int(q[0]))
    assert outs[0] == outs[1]


# --- straight-line programs vs the plaintext oracle ---


def test_run_protocol_empty_program():
    outputs, report = run_protocol([], {"x": 1.0})
    assert outputs == {}
    assert report == CostReport(0, 0, 0)


def test_run_protocol_single_fixed_mul_costs():
    prog = [Instr("fixed_mul", "z", "x", "y")]
    outputs, report = run_protocol(prog, {"x": 2.5, "y": -1.5}, seed=3)
    assert abs(outputs["z"] - (-3.75)) <= 2 * 2**-20
    assert report.node_to_node_bits == 576
    assert report.client_to_node_bits == 2 * 384
    assert report.reconstruction_bits == 192


def test_run_protocol_active_doubles_every_counter():
    prog = [Instr("fixed_mul", "z", "x", "y")]
    _, passive = run_protocol(prog, {"x": 2.5, "y": -1.5}, seed=3, mode=SecurityMode.PASSIVE)
    _, active = run_protocol(prog, {"x": 2.5, "y": -1.5}, seed=3, mode=SecurityMode.ACTIVE)
    assert active.node_to_node_bits == 2 * passive.node_to_node_bits == 1152
    assert active.client_to_node_bits == 2 * passive.client_to_node_bits
    assert active.reconstruction_bits == 2 * passive.reconstruction_bits


def test_run_protocol_deterministic():
    prog = [
        Instr("mul", "p", "x", "y"),
        Instr("trunc", "q", "p"),
        Instr("add", "r", "q", "z"),
    ]
    inputs = {"x": 3.5, "y": -2.25, "z": 10.0}
    a = run_protocol(prog, inputs, seed=99, outputs=["r"])
    b = run_protocol(prog, inputs, seed=99, outputs=["r"])
    assert a == b


def _random_program(rng, n_inputs=3, max_ops=10):
    """Random straight-line program; tracks approximate values to stay in range."""
    names = [f"in{i}" for i in range(n_inputs)]
    inputs = {n: float(rng.uniform(-100, 100)) for n in names}
    approx = {n: (inputs[n], 1) for n in names}  # value, scale multiple of F
    prog = []
    wid = 0
    for _ in range(int(rng.integers(1, max_ops + 1))):
        for _attempt in range(8):
            op = rng.choice(["add", "sub", "cmul", "mul", "trunc", "fixed_mul"])
            f_wires = [n for n, (_, s) in approx.items() if s == 1]
            f2_wires = [n for n, (_, s) in approx.items() if s == 2]
            if op in ("add", "sub", "mul", "fixed_mul"):
                a, b = rng.choice(f_wires), rng.choice(f_wires)
                va, vb = approx[a][0], approx[b][0]
                if op == "add":
                    v, s = va + vb, 1
                elif op == "sub":
                    v, s = va - vb, 1
                elif op == "mul":
                    v, s = va * vb, 2
                else:
                    v, s = va * vb, 1
                if op in ("mul", "fixed_mul") and abs(v) > 4e6:
                    continue
                if abs(v) > 2e3 and s == 1 and op in ("add", "sub"):
                    continue
                wid += 1
                dst = f"w{wid}"
                prog.append(Instr(op, dst, a, b))
                approx[dst] = (v, s)
                break
            if op == "cmul":
                a = rng.choice(f_wires)
                c = int(rng.integers(-4, 5)) or 2
                v = approx[a][0] * c
                if abs(v) > 2e3:
                    continue
                wid += 1
                dst = f"w{wid}"
                prog.append(Instr("cmul", dst, a, const=c))
                approx[dst] = (v, 1)
                break
            if op == "trunc" and f2_wires:
                a = rng.choice(f2_wires)
                wid += 1
                dst = f"w{wid}"
                prog.append(Instr("trunc", dst, a))
                approx[dst] = (approx[a][0], 1)
                break
    return prog, inputs


def test_thousand_random_programs_match_oracle():
    rng = np.random.default_rng(20260818)
    f = 20
    for trial in range(1000):
        prog, inputs = _random_program(rng)
        if not prog:
            continue
        outs = sorted({ins.dst for ins in prog})
        got, _ = run_protocol(prog, inputs, fraction_bits=f, seed=trial, outputs=outs)
        want = eval_plaintext(prog, inputs, fraction_bits=f, outputs=outs)
        n_trunc = sum(1 for ins in prog if ins.op in ("trunc", "fixed_mul"))
        tol = 2 * 2.0**-f * max(n_trunc, 1)
        for name in outs:
            assert abs(got[name] - want[name]) <= tol, (trial, name)


def test_program_validation_errors():
    with pytest.raises(ProtocolError):
        run_protocol([Instr("nope", "z", "x")], {"x": 1.0})
    with pytest.raises(ProtocolError):
        run_protocol([Instr("add", "z", "x", "missing")], {"x": 1.0})
    with pytest.raises(ProtocolError):
        # adding wires at different scales is rejected
        run_protocol(
            [Instr("mul", "p", "x", "y"), Instr("add", "z", "p", "x")],
            {"x": 1.0, "y": 2.0},
        )
    with pytest.raises(ProtocolError):
        run_protocol([Instr("trunc", "z", "x")], {"x": 1.0})  # not a 2F wire


# --- meter plumbing ---


def test_charge_rejects_unknown_category_and_negative_bits():
    s = Mpc3Session(mode=SecurityMode.ACTIVE)
    s.charge("node_to_node", 10, "mul")
    s.charge("client_to_node", 5, "share")
    assert s.report() == CostReport(client_to_node_bits=10, node_to_node_bits=20)
    with pytest.raises(ProtocolError):
        s.charge("sideways", 1, "mul")
    with pytest.raises(ProtocolError):
        s.charge("node_to_node", -1, "mul")
    assert s.report().total_bits == 30
    assert s.traffic() == {"mul": 20, "share": 10}


def test_muted_nests_and_restores_metering_after_an_exception():
    s = Mpc3Session(k=64)
    with s.muted():
        s.charge("node_to_node", 7, "mul")
        with s.muted():
            s.charge("client_to_node", 5, "share")
        s.charge("reconstruction", 3, "open")
    with pytest.raises(RuntimeError):
        with s.muted():
            raise RuntimeError("inside a muted block")
    assert s.report() == CostReport() and s.traffic() == {}
    s.charge("node_to_node", 11, "trunc")
    assert s.report() == CostReport(node_to_node_bits=11)
    assert s.traffic() == {"trunc": 11}


@pytest.mark.parametrize("k", [64, 32])
def test_sum_wraps_mod_2k_without_an_overflow_warning(k):
    s = Mpc3Session(k=k)
    top = (1 << k) - 1
    x = s.share(np.full(5, top, dtype=np.uint64))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        total = s.sum(x)
    assert total.shape == (1,)
    assert total.components.max() <= top
    assert int(s.open(total)[0]) == (5 * top) % (1 << k)


def test_traffic_per_primitive_sums_to_the_link_counters():
    s = Mpc3Session(k=64, seed=3, mode=SecurityMode.ACTIVE)
    x, y = s.share_encoded([1.5, 2.0]), s.share_encoded([4.0, 0.5])
    s.open(s.divide(s.fixed_mul(x, y), y))
    k, theta, active, elems = 64, 5, 2, 2
    assert s.traffic() == {
        "share": active * 2 * elems * 6 * k,  # two shared vectors
        "mul": active * elems * 3 * k,
        "trunc": active * elems * 6 * k,
        "div": active * elems * 3 * k * (k + 4 * theta + 2),
        "open": active * elems * 3 * k,
    }
    assert sum(s.traffic().values()) == s.report().total_bits


def test_session_rejects_bad_theta():
    with pytest.raises(ValueError):
        Mpc3Session(theta=0)


# --- primitives without redundant passes, against their old forms ---


def _old_combine(x, k):
    c = x.components
    return radd(radd(c[0], c[1], k), c[2], k)


def _old_split(rng, values, k):
    comps = np.empty((3,) + values.shape, dtype=np.uint64)
    comps[0] = _uniform_ring(rng, values.shape, k)
    comps[1] = _uniform_ring(rng, values.shape, k)
    comps[2] = rsub(rsub(values, comps[0], k), comps[1], k)
    return comps


def _old_mul(x, y, k):
    xc, yc = x.components, y.components
    x_next, y_next = xc[[1, 2, 0]], yc[[1, 2, 0]]
    return radd(rmul(xc, radd(yc, y_next, k), k), rmul(x_next, yc, k), k)


def _old_truncate(session, x, rounding):
    k, f = session.k, session.codec.fraction_bits
    signed = to_signed(_old_combine(x, k), k)
    if rounding == "nearest":
        signed = signed + (np.int64(1) << np.int64(f - 1))
    return _old_split(session.rng, from_signed(signed >> np.int64(f), k), k)


def _old_divide(s, num, den):
    """divide with its constants encoded on every call and the old truncate and mul."""
    codec, k = s.codec, s.k
    f = codec.fraction_bits

    def trunc(x):
        return SharedTensor(_old_truncate(s, x, "nearest"), k)

    def mul(x, y):
        return SharedTensor(_old_mul(x, y, k), k)

    den_signed = to_signed(_old_combine(den, k), k)
    widths = np.array([int(v).bit_length() for v in den_signed], dtype=np.int64)
    b0 = s._scale_pow2(den, f - widths, rounding="nearest")
    n0 = s._scale_pow2(num, f - widths, rounding="nearest")
    r = s.add_public(s.neg(s.mul_public(b0, 2)), codec.encode_array(2.9142))
    two = codec.encode_array(2.0)
    for _ in range(s.theta):
        u = s.add_public(s.neg(trunc(mul(b0, r))), two)
        r = trunc(mul(r, u))
    return trunc(mul(n0, r)).components


def _twins(k, seed):
    f = 20 if k == 64 else 4
    return Mpc3Session(k=k, fraction_bits=f, seed=seed), Mpc3Session(k=k, fraction_bits=f, seed=seed)


@settings(max_examples=60, deadline=None)
@given(k=st.sampled_from([64, 16]), seed=st.integers(0, 2**32), data=st.data())
def test_mul_truncate_and_open_are_bit_identical_to_their_old_forms(k, seed, data):
    m = data.draw(st.integers(1, 12))
    ints = st.integers(-(1 << (k - 1)), (1 << (k - 1)) - 1)
    xv = np.array(data.draw(st.lists(ints, min_size=m, max_size=m)), dtype=np.int64)
    yv = np.array(data.draw(st.lists(ints, min_size=m, max_size=m)), dtype=np.int64)
    s, old = _twins(k, seed)
    x, y = s.share(xv), s.share(yv)
    xo, yo = old.share(xv), old.share(yv)
    z = s.mul(x, y)
    assert z.components.tobytes() == _old_mul(xo, yo, k).tobytes()
    for rounding in ("floor", "nearest"):
        for a, b in ((x, xo), (z, SharedTensor(_old_mul(xo, yo, k), k))):  # xv has negatives
            assert s.truncate(a, rounding).components.tobytes() == \
                _old_truncate(old, b, rounding).tobytes()
    assert s._combine(z).tobytes() == _old_combine(z, k).tobytes()
    assert s.open(x).tobytes() == _old_combine(x, k).tobytes()
    assert s.rng.bit_generator.state == old.rng.bit_generator.state


@settings(max_examples=25, deadline=None)
@given(k=st.sampled_from([64, 16]), seed=st.integers(0, 2**32), data=st.data())
def test_divide_is_bit_identical_to_its_old_form(k, seed, data):
    m = data.draw(st.integers(1, 6))
    top = 1e3 if k == 64 else 100.0
    num = data.draw(st.lists(st.floats(-top, top), min_size=m, max_size=m))
    den = data.draw(st.lists(st.floats(0.5, top), min_size=m, max_size=m))
    s, old = _twins(k, seed)
    got = s.divide(s.share_encoded(num), s.share_encoded(den))
    want = _old_divide(old, old.share_encoded(num), old.share_encoded(den))
    assert got.components.tobytes() == want.tobytes()


def _old_as_ring_array(values, k):
    arr = np.asarray(values)
    if arr.dtype == np.uint64:
        out = arr.copy()
    elif np.issubdtype(arr.dtype, np.integer):
        out = arr.astype(np.int64, copy=False).view(np.uint64).copy()
    elif arr.dtype == object:
        out = np.array([int(v) & ((1 << 64) - 1) for v in arr.ravel()],
                       dtype=np.uint64).reshape(arr.shape)
    else:
        raise TypeError(f"ring arrays take integer inputs, got dtype {arr.dtype}")
    if k < 64:
        out &= np.uint64((1 << k) - 1)
    return out


@pytest.mark.parametrize("k", [64, 16])
def test_as_ring_array_takes_the_same_dtypes_as_before(k):
    rng = np.random.default_rng(k)
    raw = rng.integers(-(2**62), 2**62, size=7)
    for dtype in (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32,
                  np.uint64, np.intp, np.uintp):
        values = raw.astype(dtype)
        assert as_ring_array(values, k).tobytes() == _old_as_ring_array(values, k).tobytes()
    for values in (5, -3, np.int64(-9), [1, -2, 3], np.array([2**70, -1], dtype=object)):
        assert as_ring_array(values, k).tobytes() == _old_as_ring_array(values, k).tobytes()
    for values in (np.array([True, False]), np.array([1.0]), np.array([1 + 2j])):
        with pytest.raises(TypeError):
            as_ring_array(values, k)
        with pytest.raises(TypeError):
            _old_as_ring_array(values, k)
