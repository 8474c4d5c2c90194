"""Tensor-network frontend tests.

The MPS chain is checked against a brute-force nested-sum contraction on a
tiny instance; the tree encoders are checked through structural symmetries
(shared-weight identities, order sensitivity, MERA-with-identity == TTN).
"""

import dataclasses
import functools
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tnmpcqep.tn import (
    FrontendConfig,
    _mps_states,
    _site_vectors,
    _tree_levels,
    disentangle_layer,
    encode_batch,
    isometry_check,
    load_params,
    make_frontend,
    patchify,
    qr_isometry,
    realify,
    save_params,
)


def _encode_one(x, params):
    """One image, flat or 28x28, through the batch encoder."""
    return encode_batch(np.reshape(x, (1, -1)), params)[0]


def _levels_one(x, params):
    """The tree levels of one flat image, without the batch axis."""
    return [states[0] for states in _tree_levels(x[None], params)]


# ---------------------------------------------------------------- qr_isometry

def test_qr_isometry_identity_is_identity():
    for n in (1, 3, 8):
        q = qr_isometry(np.eye(n))
        assert np.abs(q - np.eye(n)).max() <= 1e-14


def test_qr_isometry_random_product_and_span():
    rng = np.random.default_rng(41)
    for _ in range(20):
        m = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
        q = qr_isometry(m)
        assert np.abs(q.conj().T @ q - np.eye(4)).max() <= 1e-10
        # projector onto col(q) must reproduce m exactly
        resid = m - q @ (q.conj().T @ m)
        assert np.abs(resid).max() <= 1e-10 * np.abs(m).max()


def test_qr_isometry_duplicated_columns_regularized():
    rng = np.random.default_rng(42)
    col = rng.standard_normal((6, 1)) + 1j * rng.standard_normal((6, 1))
    m = np.concatenate([col, col, col], axis=1)
    q = qr_isometry(m)
    assert np.abs(q.conj().T @ q - np.eye(3)).max() <= 1e-10


def test_qr_isometry_rejects_wide_matrix():
    with pytest.raises(ValueError):
        qr_isometry(np.ones((3, 5)))


# ------------------------------------------------------------------- patchify

def test_patchify_indexing_identity():
    img = np.arange(784, dtype=np.float64).reshape(28, 28)
    patches = patchify(img)
    assert patches.shape == (16, 49)
    # patch 0 is the top-left 7x7 block, row-major
    assert np.array_equal(patches[0], img[:7, :7].reshape(-1))
    # patch 1 is columns 7..13 of the top row of blocks
    assert np.array_equal(patches[1], img[:7, 7:14].reshape(-1))
    # patch 4 starts the second block row
    assert np.array_equal(patches[4], img[7:14, :7].reshape(-1))


def test_patchify_constant_image():
    patches = patchify(np.full((28, 28), 2.5))
    assert np.array_equal(patches, np.full((16, 49), 2.5))


def test_patchify_stack_is_patchify_per_image():
    imgs = np.random.default_rng(43).standard_normal((3, 28, 28))
    for patch in (7, 14, 28):
        stacked = patchify(imgs, patch)
        for i in range(3):
            assert np.array_equal(stacked[i], patchify(imgs[i], patch))


def test_patchify_wrong_shape_raises():
    with pytest.raises(ValueError):
        patchify(np.zeros((28, 27)))


# -------------------------------------------------------------------- realify

def test_realify_examples():
    out = realify(np.array([1.0, 1.0j]))
    assert np.array_equal(out, np.array([1.0, 0.0, 0.0, 1.0]))
    real_in = np.array([2.0, -3.0, 0.5], dtype=np.complex128)
    assert np.array_equal(realify(real_in)[3:], np.zeros(3))
    rng = np.random.default_rng(44)
    for _ in range(10):
        psi = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        assert abs(np.linalg.norm(realify(psi)) - np.linalg.norm(psi)) <= 1e-12


# ------------------------------------------------------------- configuration

def test_config_validation():
    with pytest.raises(ValueError):
        FrontendConfig(kind="cnn")
    with pytest.raises(ValueError):
        FrontendConfig(h=255)  # not divisible by l_sites
    with pytest.raises(ValueError):
        FrontendConfig(n_patches=15, patch=7)
    with pytest.raises(ValueError):
        FrontendConfig(d_loc=12)
    with pytest.raises(ValueError):
        FrontendConfig(seed=-1)


def test_make_frontend_isometries_within_tolerance():
    for kind in ("mps", "ttn", "mera"):
        params = make_frontend(FrontendConfig(kind=kind, seed=5))
        assert isometry_check(params) <= 1e-8


# ------------------------------------------------------------------------ MPS

def _nested_sum_state(cores, z):
    # brute-force contraction of a 3-site chain with boundary e_1
    r = cores.shape[1]
    dp = cores.shape[2]
    total = np.zeros(r, dtype=np.complex128)
    for s1 in range(dp):
        for s2 in range(dp):
            for s3 in range(dp):
                for a1 in range(r):
                    for a2 in range(r):
                        for b in range(r):
                            total[b] += (
                                cores[0][0, s1, a1] * z[0, s1]
                                * cores[1][a1, s2, a2] * z[1, s2]
                                * cores[2][a2, s3, b] * z[2, s3]
                            )
    return total / np.linalg.norm(total)


def test_mps_tiny_matches_nested_sum_oracle():
    cfg = FrontendConfig(kind="mps", d=4, h=6, l_sites=3, d_phys=2, bond=2, seed=7)
    params = make_frontend(cfg)
    rng = np.random.default_rng(45)
    checked = 0
    for _ in range(400):
        x = rng.uniform(0.0, 1.0, size=784)
        z = _site_vectors(x[None], params)[0]
        if np.linalg.norm(z, axis=1).min() < 1e-6:
            continue  # ReLU zeroed a whole block; outside the oracle's domain
        expected = _nested_sum_state(params.cores, z)
        got = _mps_states(x[None], params)[0]
        assert np.abs(got - expected).max() <= 1e-10
        checked += 1
        if checked == 10:
            break
    assert checked == 10


def test_mps_zero_image_boundary_propagation():
    params = make_frontend(FrontendConfig(kind="mps", seed=8))
    params = dataclasses.replace(params, premap_b=np.zeros_like(params.premap_b))
    out = _encode_one(np.zeros(784), params)
    boundary = np.zeros(params.config.bond, dtype=np.complex128)
    boundary[0] = 1.0
    expected = params.proj @ realify(boundary)
    assert np.all(np.isfinite(out))
    assert np.abs(out - expected).max() <= 1e-12


def test_mps_deterministic_across_rebuilds():
    cfg = FrontendConfig(kind="mps", seed=9)
    rng = np.random.default_rng(46)
    x = rng.uniform(0.0, 1.0, size=784)
    out1 = _encode_one(x, make_frontend(cfg))
    out2 = _encode_one(x, make_frontend(cfg))
    assert np.array_equal(out1, out2)


def test_mps_state_unit_norm_and_output_dim():
    params = make_frontend(FrontendConfig(kind="mps", seed=10))
    rng = np.random.default_rng(47)
    x = rng.uniform(0.0, 1.0, size=784)
    assert abs(np.linalg.norm(_mps_states(x[None], params)[0]) - 1.0) <= 1e-10
    out = _encode_one(x, params)
    assert out.shape == (64,)
    assert np.all(np.isfinite(out))


# ------------------------------------------------------------------------ TTN

def test_ttn_root_norm_one():
    params = make_frontend(FrontendConfig(kind="ttn", seed=11))
    rng = np.random.default_rng(48)
    for _ in range(5):
        x = rng.uniform(0.0, 1.0, size=784)
        root = _levels_one(x, params)[-1][0]
        assert abs(np.linalg.norm(root) - 1.0) <= 1e-10


def test_ttn_identical_patches_identical_parents():
    params = make_frontend(FrontendConfig(kind="ttn", seed=12))
    rng = np.random.default_rng(49)
    tile = rng.uniform(0.0, 1.0, size=(7, 7))
    img = np.tile(tile, (4, 4))  # all 16 patches equal
    levels = _levels_one(img.reshape(-1), params)
    leaves, parents = levels[0], levels[1]
    for p in range(1, leaves.shape[0]):
        assert np.abs(leaves[p] - leaves[0]).max() <= 1e-12
    for p in range(1, parents.shape[0]):
        assert np.abs(parents[p] - parents[0]).max() <= 1e-12


def test_tree_leaves_cut_tiles_of_config_patch():
    params = make_frontend(FrontendConfig(kind="ttn", n_patches=4, patch=14, seed=14))
    img = np.random.default_rng(53).uniform(0.0, 1.0, size=(28, 28))
    tiles = [img[r:r + 14, c:c + 14].reshape(-1) for r in (0, 14) for c in (0, 14)]
    want = []
    for tile in tiles:
        h = params.stem_w @ tile + params.stem_b
        stem = np.maximum((h - h.mean()) / np.sqrt(h.var() + 1e-5), 0.0)
        want.append(params.embed_re @ stem + 1j * (params.embed_im @ stem))
    leaves = _levels_one(img.reshape(-1), params)[0]
    assert leaves.shape == (4, params.config.d_loc)
    assert np.abs(leaves - np.array(want)).max() <= 1e-12
    single = make_frontend(FrontendConfig(kind="ttn", n_patches=1, patch=28, seed=14))
    assert _encode_one(img.reshape(-1), single).shape == (64,)


def _written_out_make_frontend(config):
    """make_frontend's draws spelled out per kind, stream by stream (labels
    11-13 for the MPS, 21-24 for the trees, 31 for the projection)."""
    def rng(label):
        return np.random.default_rng([config.seed, label])

    def complex_gaussian(g, shape):
        return (g.standard_normal(shape) + 1j * g.standard_normal(shape)) / np.sqrt(2.0)

    fields = {}
    if config.kind == "mps":
        premap = rng(11)
        fields["premap_w"] = premap.standard_normal((config.h, 784)) / np.sqrt(784)
        fields["premap_b"] = 0.1 * premap.standard_normal(config.h)
        emb = rng(12)
        fields["embed_re"] = emb.standard_normal((config.d_phys, config.block)) / np.sqrt(config.block)
        fields["embed_im"] = emb.standard_normal((config.d_phys, config.block)) / np.sqrt(config.block)
        cores_rng, r, dp = rng(13), config.bond, config.d_phys
        cores = np.empty((config.l_sites, r, dp, r), dtype=np.complex128)
        for k in range(config.l_sites):
            cores[k] = qr_isometry(complex_gaussian(cores_rng, (r * dp, r))).reshape(r, dp, r)
        fields["cores"] = cores
        fields["proj"] = rng(31).standard_normal((config.d, 2 * r)) / np.sqrt(2 * r)
        return fields
    stem, pd = rng(21), config.patch * config.patch
    fields["stem_w"] = stem.standard_normal((config.d_p, pd)) / np.sqrt(pd)
    fields["stem_b"] = 0.1 * stem.standard_normal(config.d_p)
    emb = rng(22)
    fields["embed_re"] = emb.standard_normal((config.d_loc, config.d_p)) / np.sqrt(config.d_p)
    fields["embed_im"] = emb.standard_normal((config.d_loc, config.d_p)) / np.sqrt(config.d_p)
    dl = config.d_loc
    for name, label, cols in (("isometries", 23, dl), ("disentanglers", 24, 2 * dl)):
        if name == "disentanglers" and config.kind != "mera":
            fields[name] = None
            continue
        g = rng(label)
        stack = np.empty((config.n_levels, 2 * dl, cols), dtype=np.complex128)
        for lvl in range(config.n_levels):
            stack[lvl] = qr_isometry(complex_gaussian(g, (2 * dl, cols)))
        fields[name] = stack
    fields["proj"] = rng(31).standard_normal((config.d, 2 * dl)) / np.sqrt(2 * dl)
    return fields


def _assert_draws_match(config):
    params = make_frontend(config)
    for name, want in _written_out_make_frontend(config).items():
        got = getattr(params, name)
        if want is None:
            assert got is None, name
        else:
            assert got.shape == want.shape and got.dtype == want.dtype, name
            assert got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("fields", [
    dict(kind="mps"), dict(kind="ttn"), dict(kind="mera"), dict(kind="mps", l_sites=1),
    dict(kind="ttn", n_patches=1, patch=28), dict(kind="mera", n_patches=1, patch=28),
], ids=["mps", "ttn", "mera", "mps-one-site", "ttn-one-patch", "mera-one-patch"])
def test_make_frontend_keeps_the_written_out_draws_at_fixed_configs(fields):
    _assert_draws_match(FrontendConfig(seed=5, **fields))


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["mps", "ttn", "mera"]),
       tiling=st.sampled_from([(1, 28), (4, 14), (16, 7)]),
       l_sites=st.sampled_from([1, 2, 4]), block=st.integers(1, 4),
       d=st.integers(1, 9), d_loc=st.sampled_from([1, 2, 4]), d_phys=st.integers(1, 4),
       bond=st.integers(1, 4), d_p=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_make_frontend_keeps_the_written_out_draws(kind, tiling, l_sites, block, d, d_loc,
                                                   d_phys, bond, d_p, seed):
    n_patches, patch = tiling
    _assert_draws_match(FrontendConfig(kind=kind, d=d, h=l_sites * block, l_sites=l_sites,
                                       d_loc=d_loc, d_phys=d_phys, bond=bond,
                                       n_patches=n_patches, patch=patch, d_p=d_p, seed=seed))


def test_ttn_order_sensitivity():
    params = make_frontend(FrontendConfig(kind="ttn", seed=13))
    rng = np.random.default_rng(50)
    img = rng.uniform(0.0, 1.0, size=(28, 28))
    base = _encode_one(img.reshape(-1), params)

    def unpatchify(patches):
        return patches.reshape(4, 4, 7, 7).transpose(0, 2, 1, 3).reshape(-1)

    patches = patchify(img)
    siblings = patches.copy()
    siblings[[0, 1]] = siblings[[1, 0]]
    out_sib = _encode_one(unpatchify(siblings), params)
    assert np.abs(out_sib - base).max() > 1e-6

    crossed = patches.copy()  # 0 and 5 sit in different level-2 subtrees
    crossed[[0, 5]] = crossed[[5, 0]]
    out_cross = _encode_one(unpatchify(crossed), params)
    assert np.abs(out_cross - base).max() > 1e-6


# ----------------------------------------------------------------------- MERA

def test_mera_identity_disentanglers_match_ttn():
    seed = 14
    ttn_params = make_frontend(FrontendConfig(kind="ttn", seed=seed))
    mera_params = make_frontend(FrontendConfig(kind="mera", seed=seed))
    # shared streams: everything except the disentanglers coincides
    assert np.array_equal(ttn_params.isometries, mera_params.isometries)
    assert np.array_equal(ttn_params.proj, mera_params.proj)

    dl = mera_params.config.d_loc
    ident = np.stack([np.eye(2 * dl, dtype=np.complex128)] * mera_params.config.n_levels)
    mera_id = dataclasses.replace(mera_params, disentanglers=ident)

    rng = np.random.default_rng(51)
    for _ in range(100):
        x = rng.uniform(0.0, 1.0, size=784)
        diff = np.abs(_encode_one(x, mera_id) - _encode_one(x, ttn_params)).max()
        assert diff <= 1e-12


def test_mera_disentangler_unitarity():
    params = make_frontend(FrontendConfig(kind="mera", seed=15))
    dl = params.config.d_loc
    eye = np.eye(2 * dl)
    for lvl in range(params.config.n_levels):
        u = params.disentanglers[lvl]
        assert np.abs(u.conj().T @ u - eye).max() <= 1e-8
        assert np.abs(u @ u.conj().T - eye).max() <= 1e-8


def test_disentangle_layer_preserves_stacked_norm():
    params = make_frontend(FrontendConfig(kind="mera", seed=16))
    dl = params.config.d_loc
    rng = np.random.default_rng(52)
    states = rng.standard_normal((16, dl)) + 1j * rng.standard_normal((16, dl))
    before = np.linalg.norm(states)
    for parity in (0, 1):
        states = disentangle_layer(states, params.disentanglers[0], parity)
        assert abs(np.linalg.norm(states) - before) <= 1e-10


def test_mera_differs_from_ttn_with_real_disentanglers():
    seed = 17
    ttn_params = make_frontend(FrontendConfig(kind="ttn", seed=seed))
    mera_params = make_frontend(FrontendConfig(kind="mera", seed=seed))
    rng = np.random.default_rng(53)
    x = rng.uniform(0.0, 1.0, size=784)
    assert np.abs(_encode_one(x, mera_params) - _encode_one(x, ttn_params)).max() > 1e-6


# ------------------------------------------------------------------ dispatch

def test_encode_dispatch_and_batch():
    rng = np.random.default_rng(54)
    xs = rng.uniform(0.0, 1.0, size=(5, 784))
    for kind in ("mps", "ttn", "mera"):
        params = make_frontend(FrontendConfig(kind=kind, seed=18))
        batch = encode_batch(xs, params)
        assert batch.shape == (5, 64)
        for i in range(5):
            assert np.array_equal(batch[i], _encode_one(xs[i], params))


def test_non_finite_input_raises():
    x = np.zeros(784)
    x[3] = np.nan
    for kind in ("mps", "ttn", "mera"):
        params = make_frontend(FrontendConfig(kind=kind, seed=20))
        with pytest.raises(ValueError):
            _encode_one(x, params)
    with pytest.raises(ValueError):
        _encode_one(np.zeros(100), make_frontend(FrontendConfig(kind="mps", seed=20)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_encode_batch_rejects_a_non_finite_value_in_any_chunk(bad):
    xs = np.random.default_rng(56).uniform(0.0, 1.0, size=(40, 784))
    xs[-1, 700] = bad  # the last row sits in the second 32-row chunk
    for kind in ("mps", "ttn", "mera"):
        params = make_frontend(FrontendConfig(kind=kind, seed=20))
        with pytest.raises(ValueError, match="row 39"):
            encode_batch(xs, params)


def test_encode_batch_rejects_shapes_other_than_rows_of_784():
    params = make_frontend(FrontendConfig(kind="ttn", seed=20))
    for shape in ((784,), (3, 783), (2, 28, 28), (1, 1, 784)):
        with pytest.raises(ValueError):
            encode_batch(np.zeros(shape), params)
    assert encode_batch(np.zeros((0, 784)), params).shape == (0, 64)


# ------------------------------------------------------- batch bit identity

def _ref_normalize(w, fallback=None):
    n = np.linalg.norm(w)
    if n <= 1e-12:
        return w if fallback is None else fallback
    return w / n


def _ref_layer_norm(v):
    return (v - v.mean()) / np.sqrt(v.var() + 1e-5)


def _ref_encode(x, params):
    """The per-sample encoders that encode_batch replaced, one image at a time."""
    cfg = params.config
    if cfg.kind == "mps":
        pre = np.maximum(_ref_layer_norm(params.premap_w @ x + params.premap_b), 0.0)
        blocks = pre.reshape(cfg.l_sites, cfg.block)
        z = blocks @ params.embed_re.T + 1j * (blocks @ params.embed_im.T)
        top = np.zeros(cfg.bond, dtype=np.complex128)
        top[0] = 1.0
        for k in range(cfg.l_sites):
            w = np.einsum("a,asb,s->b", top, params.cores[k], z[k])
            top = _ref_normalize(w, fallback=top)
    else:
        g, dl = 28 // cfg.patch, cfg.d_loc
        patches = x.reshape(g, cfg.patch, g, cfg.patch).transpose(0, 2, 1, 3).reshape(g * g, -1)
        stems = np.empty((cfg.n_patches, cfg.d_p))
        for p in range(cfg.n_patches):
            stems[p] = np.maximum(_ref_layer_norm(params.stem_w @ patches[p] + params.stem_b), 0.0)
        states = stems @ params.embed_re.T + 1j * (stems @ params.embed_im.T)
        for lvl in range(cfg.n_levels):
            if params.disentanglers is not None:
                u = params.disentanglers[lvl]
                for parity in (0, 1):
                    states = states.copy()
                    for i in range(parity, states.shape[0] - 1, 2):
                        pair = u @ np.concatenate([states[i], states[i + 1]])
                        states[i], states[i + 1] = pair[:dl], pair[dl:]
            q = params.isometries[lvl]
            merged = np.empty((states.shape[0] // 2, dl), dtype=np.complex128)
            for i in range(merged.shape[0]):
                merged[i] = _ref_normalize(q.conj().T @ np.concatenate([states[2 * i], states[2 * i + 1]]))
            states = merged
        top = states[0]
    return params.proj @ np.concatenate([top.real, top.imag])


_BATCH_CONFIGS = {
    "mps": dict(kind="mps"),
    "mps-tiny": dict(kind="mps", d=4, h=6, l_sites=3, d_phys=2, bond=2),
    "ttn": dict(kind="ttn"),
    "mera": dict(kind="mera"),
    "ttn-4x14": dict(kind="ttn", n_patches=4, patch=14),
    "mera-4x14": dict(kind="mera", n_patches=4, patch=14),
    "ttn-1x28": dict(kind="ttn", n_patches=1, patch=28),
    "mera-1x28": dict(kind="mera", n_patches=1, patch=28),
}


@functools.lru_cache(maxsize=None)
def _batch_params(name, zero_bias):
    """Seeded params; with zero_bias an all-zero image degenerates every node."""
    params = make_frontend(FrontendConfig(seed=31, **_BATCH_CONFIGS[name]))
    if zero_bias:
        bias = "premap_b" if params.config.kind == "mps" else "stem_b"
        params = dataclasses.replace(params, **{bias: np.zeros_like(getattr(params, bias))})
    return params


def _assert_batch_matches_per_sample(params, xs):
    want = np.stack([_ref_encode(x, params) for x in xs])
    got = encode_batch(xs, params)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(encode_batch(xs[-1:], params)[0], want[-1])


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(_BATCH_CONFIGS)), zero_bias=st.booleans(),
       m=st.one_of(st.sampled_from([1, 31, 32, 33, 64, 65, 70]), st.integers(1, 70)),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_encode_batch_is_bit_identical_to_the_per_sample_encoders(name, zero_bias, m, seed, data):
    params = _batch_params(name, zero_bias)
    xs = np.random.default_rng(seed).uniform(0.0, 1.0, size=(m, 784))
    xs[data.draw(st.lists(st.integers(0, m - 1), max_size=4))] = 0.0
    _assert_batch_matches_per_sample(params, xs)


@pytest.mark.parametrize("m", [31, 32, 33, 64, 65])
@pytest.mark.parametrize("kind", ["mps", "ttn", "mera"])
def test_encode_batch_is_bit_identical_across_chunk_edges(kind, m):
    params = _batch_params(kind, True)
    xs = np.random.default_rng(57 + m).uniform(0.0, 1.0, size=(m, 784))
    xs[[i for i in (0, 31, 32, m - 1) if i < m]] = 0.0  # degenerate rows around the first chunk edge
    _assert_batch_matches_per_sample(params, xs)


def test_zero_image_rows_take_the_degenerate_fallback():
    for name in ("mps", "ttn", "mera"):
        params = _batch_params(name, True)
        out = encode_batch(np.zeros((2, 784)), params)
        if params.config.kind == "mps":  # the boundary state e_1 carries through
            top = np.zeros(2 * params.config.bond)
            top[0] = 1.0
        else:  # zero leaves merge to a zero root
            top = np.zeros(2 * params.config.d_loc)
        assert np.array_equal(out, np.stack([params.proj @ top] * 2))


# ------------------------------------------------------------------- bundles

@pytest.mark.parametrize("kind", ["mps", "ttn", "mera"])
def test_bundle_roundtrip(kind, tmp_path):
    params = make_frontend(FrontendConfig(kind=kind, seed=21))
    path = tmp_path / f"{kind}.tnp"
    save_params(params, path)
    loaded = load_params(path)
    assert loaded.config == params.config
    for field in dataclasses.fields(params):
        if field.name == "config":
            continue
        a, b = getattr(params, field.name), getattr(loaded, field.name)
        if a is None:
            assert b is None
        else:
            assert np.array_equal(a, b)
    rng = np.random.default_rng(55)
    x = rng.uniform(0.0, 1.0, size=784)
    assert np.array_equal(_encode_one(x, params), _encode_one(x, loaded))
    assert isometry_check(loaded) <= 1e-8


def test_bundle_truncated_payload_raises(tmp_path):
    params = make_frontend(FrontendConfig(kind="ttn", seed=22))
    path = tmp_path / "t.tnp"
    save_params(params, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(ValueError):
        load_params(path)


def test_bundle_bad_version_raises(tmp_path):
    import json as _json

    params = make_frontend(FrontendConfig(kind="mps", seed=23))
    path = tmp_path / "v.tnp"
    save_params(params, path)
    raw = path.read_bytes()
    (hlen,) = struct.unpack_from("<I", raw, 0)
    header = _json.loads(raw[4 : 4 + hlen])
    header["version"] = 99
    blob = _json.dumps(header, sort_keys=True).encode()
    path.write_bytes(struct.pack("<I", len(blob)) + blob + raw[4 + hlen :])
    with pytest.raises(ValueError):
        load_params(path)


def _rewrite_entries(path, edit):
    """Apply edit to the bundle header's entry list and give the payload the matching length."""
    import json as _json

    raw = path.read_bytes()
    (hlen,) = struct.unpack_from("<I", raw, 0)
    header = _json.loads(raw[4 : 4 + hlen])
    edit(header["entries"])
    blob = _json.dumps(header, sort_keys=True).encode()
    total = sum(int(np.prod(e["shape"])) for e in header["entries"])
    path.write_bytes(struct.pack("<I", len(blob)) + blob + bytes(16 * total))


def _entry(entries, name):
    return next(e for e in entries if e["name"] == name)


_BUNDLE_EDITS = {
    "none": ("mera", lambda es: None, None),
    "extra": ("ttn", lambda es: es.append({"name": "disentanglers", "shape": [4, 32, 32],
                                           "dtype": "complex"}), "entry names"),
    "missing": ("mera", lambda es: es.remove(_entry(es, "disentanglers")), "entry names"),
    "transposed": ("mps", lambda es: _entry(es, "proj").update(shape=[16, 64]), "entry proj"),
    "extra_level": ("ttn", lambda es: _entry(es, "isometries").update(shape=[5, 32, 16]),
                    "entry isometries"),
}


@pytest.mark.parametrize("case", sorted(_BUNDLE_EDITS))
def test_bundle_entries_must_be_what_its_config_draws(tmp_path, case):
    kind, edit, match = _BUNDLE_EDITS[case]
    path = tmp_path / "e.tnp"
    save_params(make_frontend(FrontendConfig(kind=kind, seed=26)), path)
    _rewrite_entries(path, edit)  # the payload length always fits the header
    if match is None:
        assert load_params(path).config.kind == kind
    else:
        with pytest.raises(ValueError, match=match):
            load_params(path)


def test_bundle_garbage_header_raises(tmp_path):
    path = tmp_path / "g.tnp"
    junk = b"this is not a json header!!!"
    path.write_bytes(struct.pack("<I", len(junk)) + junk + b"\x00" * 32)
    with pytest.raises(ValueError):
        load_params(path)
    path.write_bytes(b"\xff\xff")  # shorter than the length prefix
    with pytest.raises(ValueError):
        load_params(path)


_GOOD_ENTRY = {"name": "w", "shape": [2, 1], "dtype": "real"}
_MALFORMED_HEADERS = {
    "list_header": [_GOOD_ENTRY],
    "entries_not_a_list": {"version": 1, "entries": _GOOD_ENTRY},
    "entry_not_an_object": {"version": 1, "entries": [_GOOD_ENTRY, ["w2", [1], "real"]]},
    "entry_without_name": {"version": 1, "entries": [{"shape": [1], "dtype": "real"}]},
    "name_not_a_string": {"version": 1, "entries": [{**_GOOD_ENTRY, "name": 3}]},
    "repeated_name": {"version": 1, "entries": [_GOOD_ENTRY, _GOOD_ENTRY]},
    "string_shape": {"version": 1, "entries": [{**_GOOD_ENTRY, "shape": "2x1"}]},
    "negative_dimension": {"version": 1, "entries": [{**_GOOD_ENTRY, "shape": [-2, -1]}]},
    "float_dimension": {"version": 1, "entries": [{**_GOOD_ENTRY, "shape": [2.0, 1]}]},
    "bool_dimension": {"version": 1, "entries": [{**_GOOD_ENTRY, "shape": [True, 2]}]},
    "entry_without_shape": {"version": 1, "entries": [{"name": "w", "dtype": "real"}]},
    "unknown_dtype": {"version": 1, "entries": [{**_GOOD_ENTRY, "dtype": "int"}]},
    "entry_without_dtype": {"version": 1, "entries": [{"name": "w", "shape": [2, 1]}]},
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_HEADERS))
def test_container_rejects_a_malformed_header_with_value_error(tmp_path, case):
    # each of these raised KeyError, TypeError, AttributeError or a numpy error before;
    # the payload fits two elements, so only the header's structure can be at fault
    import json as _json

    from tnmpcqep.container import read_container

    path = tmp_path / "h.tnp"
    blob = _json.dumps(_MALFORMED_HEADERS[case]).encode()
    path.write_bytes(struct.pack("<I", len(blob)) + blob + bytes(32))
    with pytest.raises(ValueError):
        read_container(path)
    with pytest.raises(ValueError):
        load_params(path)
    good = {"version": 1, "entries": [_GOOD_ENTRY]}
    blob = _json.dumps(good).encode()
    path.write_bytes(struct.pack("<I", len(blob)) + blob + bytes(32))
    assert read_container(path)[1]["w"].tobytes() == bytes(16)


_MALFORMED_CONFIGS = {
    "no_config": None,  # the key is left out
    "list_config": [1, 2],
    "unknown_key": {"kind": "mps", "bogus": 1},
    "string_value": {"kind": "mps", "d": "64"},
    "float_seed": {"kind": "mps", "seed": 1.5},
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_CONFIGS))
def test_bundle_rejects_a_malformed_config_with_value_error(tmp_path, case):
    # a well-formed container header whose config is missing, not an object or not a
    # FrontendConfig raised KeyError or TypeError before
    import json as _json

    header = {"version": 1, "kind": "mps", "entries": [_GOOD_ENTRY]}
    if _MALFORMED_CONFIGS[case] is not None:
        header["config"] = _MALFORMED_CONFIGS[case]
    path = tmp_path / "c.tnp"
    blob = _json.dumps(header).encode()
    path.write_bytes(struct.pack("<I", len(blob)) + blob + bytes(32))
    with pytest.raises(ValueError, match="bundle config"):
        load_params(path)


def test_bundle_corrupted_real_entry_detected(tmp_path):
    params = make_frontend(FrontendConfig(kind="mps", seed=24))
    path = tmp_path / "c.tnp"
    save_params(params, path)
    raw = bytearray(path.read_bytes())
    (hlen,) = struct.unpack_from("<I", raw, 0)
    # premap_w is the first entry; poke an imaginary slot (second float of pair 0)
    struct.pack_into("<d", raw, 4 + hlen + 8, 1.0)
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError):
        load_params(path)


def test_bundle_corrupted_core_fails_isometry_check(tmp_path):
    params = make_frontend(FrontendConfig(kind="mps", seed=25))
    cfg = params.config
    path = tmp_path / "i.tnp"
    save_params(params, path)
    raw = bytearray(path.read_bytes())
    (hlen,) = struct.unpack_from("<I", raw, 0)
    # offset of the first core element: after premap_w, premap_b, embeds
    n_before = cfg.h * 784 + cfg.h + 2 * cfg.d_phys * cfg.block
    struct.pack_into("<d", raw, 4 + hlen + 16 * n_before, 5.0)
    path.write_bytes(bytes(raw))
    loaded = load_params(path)  # structurally fine, numerically tampered
    assert isometry_check(loaded) > 1e-8
