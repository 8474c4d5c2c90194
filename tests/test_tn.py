"""Tensor-network frontend tests.

The MPS chain is checked against a brute-force nested-sum contraction on a
tiny instance; the tree encoders are checked through structural symmetries
(shared-weight identities, order sensitivity, MERA-with-identity == TTN).
"""

import dataclasses
import struct

import numpy as np
import pytest

from tnmpcqep.tn import (
    FrontendConfig,
    disentangle_layer,
    encode,
    encode_batch,
    isometry_check,
    load_params,
    make_frontend,
    mps_encode,
    mps_site_vectors,
    mps_state,
    patchify,
    qr_isometry,
    realify,
    save_params,
    tree_encode,
    tree_levels,
    unpatchify,
)


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


def test_unpatchify_roundtrip():
    rng = np.random.default_rng(43)
    img = rng.standard_normal((28, 28))
    assert np.array_equal(unpatchify(patchify(img)), img)


def test_patchify_wrong_shape_raises():
    with pytest.raises(ValueError):
        patchify(np.zeros((28, 27)))
    with pytest.raises(ValueError):
        unpatchify(np.zeros((15, 49)))


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
        z = mps_site_vectors(x, params)
        if np.linalg.norm(z, axis=1).min() < 1e-6:
            continue  # ReLU zeroed a whole block; outside the oracle's domain
        expected = _nested_sum_state(params.cores, z)
        got = mps_state(x, params)
        assert np.abs(got - expected).max() <= 1e-10
        checked += 1
        if checked == 10:
            break
    assert checked == 10


def test_mps_zero_image_boundary_propagation():
    params = make_frontend(FrontendConfig(kind="mps", seed=8))
    params = dataclasses.replace(params, premap_b=np.zeros_like(params.premap_b))
    out = mps_encode(np.zeros(784), params)
    boundary = np.zeros(params.config.bond, dtype=np.complex128)
    boundary[0] = 1.0
    expected = params.proj @ realify(boundary)
    assert np.all(np.isfinite(out))
    assert np.abs(out - expected).max() <= 1e-12


def test_mps_deterministic_across_rebuilds():
    cfg = FrontendConfig(kind="mps", seed=9)
    rng = np.random.default_rng(46)
    x = rng.uniform(0.0, 1.0, size=784)
    out1 = mps_encode(x, make_frontend(cfg))
    out2 = mps_encode(x, make_frontend(cfg))
    assert np.array_equal(out1, out2)


def test_mps_state_unit_norm_and_output_dim():
    params = make_frontend(FrontendConfig(kind="mps", seed=10))
    rng = np.random.default_rng(47)
    x = rng.uniform(0.0, 1.0, size=784)
    assert abs(np.linalg.norm(mps_state(x, params)) - 1.0) <= 1e-10
    out = mps_encode(x, params)
    assert out.shape == (64,)
    assert np.all(np.isfinite(out))


# ------------------------------------------------------------------------ TTN

def test_ttn_root_norm_one():
    params = make_frontend(FrontendConfig(kind="ttn", seed=11))
    rng = np.random.default_rng(48)
    for _ in range(5):
        x = rng.uniform(0.0, 1.0, size=784)
        root = tree_levels(x, params)[-1][0]
        assert abs(np.linalg.norm(root) - 1.0) <= 1e-10


def test_ttn_identical_patches_identical_parents():
    params = make_frontend(FrontendConfig(kind="ttn", seed=12))
    rng = np.random.default_rng(49)
    tile = rng.uniform(0.0, 1.0, size=(7, 7))
    img = np.tile(tile, (4, 4))  # all 16 patches equal
    levels = tree_levels(img.reshape(-1), params)
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
    leaves = tree_levels(img.reshape(-1), params)[0]
    assert leaves.shape == (4, params.config.d_loc)
    assert np.abs(leaves - np.array(want)).max() <= 1e-12
    single = make_frontend(FrontendConfig(kind="ttn", n_patches=1, patch=28, seed=14))
    assert encode(img.reshape(-1), single).shape == (64,)


def test_ttn_order_sensitivity():
    params = make_frontend(FrontendConfig(kind="ttn", seed=13))
    rng = np.random.default_rng(50)
    img = rng.uniform(0.0, 1.0, size=(28, 28))
    base = tree_encode(img.reshape(-1), params)

    patches = patchify(img)
    siblings = patches.copy()
    siblings[[0, 1]] = siblings[[1, 0]]
    out_sib = tree_encode(unpatchify(siblings).reshape(-1), params)
    assert np.abs(out_sib - base).max() > 1e-6

    crossed = patches.copy()  # 0 and 5 sit in different level-2 subtrees
    crossed[[0, 5]] = crossed[[5, 0]]
    out_cross = tree_encode(unpatchify(crossed).reshape(-1), params)
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
        diff = np.abs(tree_encode(x, mera_id) - tree_encode(x, ttn_params)).max()
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
    assert np.abs(tree_encode(x, mera_params) - tree_encode(x, ttn_params)).max() > 1e-6


# ------------------------------------------------------------------ dispatch

def test_encode_dispatch_and_batch():
    rng = np.random.default_rng(54)
    xs = rng.uniform(0.0, 1.0, size=(5, 784))
    for kind in ("mps", "ttn", "mera"):
        params = make_frontend(FrontendConfig(kind=kind, seed=18))
        single = encode(xs[0], params)
        batch = encode_batch(xs, params)
        assert batch.shape == (5, 64)
        assert np.array_equal(batch[0], single)


def test_encode_kind_mismatch_raises():
    mps_params = make_frontend(FrontendConfig(kind="mps", seed=19))
    ttn_params = make_frontend(FrontendConfig(kind="ttn", seed=19))
    x = np.zeros(784)
    with pytest.raises(ValueError):
        tree_encode(x, mps_params)
    with pytest.raises(ValueError):
        mps_encode(x, ttn_params)


def test_non_finite_input_raises():
    x = np.zeros(784)
    x[3] = np.nan
    for kind in ("mps", "ttn", "mera"):
        params = make_frontend(FrontendConfig(kind=kind, seed=20))
        with pytest.raises(ValueError):
            encode(x, params)
    with pytest.raises(ValueError):
        encode(np.zeros(100), make_frontend(FrontendConfig(kind="mps", seed=20)))


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
    assert np.array_equal(encode(x, params), encode(x, loaded))
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


def test_bundle_garbage_header_raises(tmp_path):
    path = tmp_path / "g.tnp"
    junk = b"this is not a json header!!!"
    path.write_bytes(struct.pack("<I", len(junk)) + junk + b"\x00" * 32)
    with pytest.raises(ValueError):
        load_params(path)
    path.write_bytes(b"\xff\xff")  # shorter than the length prefix
    with pytest.raises(ValueError):
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
