"""Quantum-enhanced processor tests.

The mixing identities are checked black-box where linearity makes them
observable at the output (convex combination in beta, gate endpoints in
alpha) and white-box where they are not.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from tnmpcqep import qep
from tnmpcqep.qep import (
    QepDiagnostics,
    QepParams,
    beta_from_raw,
    encode_angles,
    make_qep,
    observable_count,
    observable_set,
    qep_forward,
    quantum_features,
    qubit_sweep,
    suggest_qubits,
)
from tnmpcqep.qsim import NOISELESS, NoiseSpec, expectation, run_circuit, run_noisy


# ------------------------------------------------------------ suggest_qubits

def test_suggest_qubits_examples():
    assert suggest_qubits(64) == 8
    assert suggest_qubits(1) == 1
    assert suggest_qubits(100) == 10
    assert suggest_qubits(2) == 2
    assert suggest_qubits(65) == 9
    with pytest.raises(ValueError):
        suggest_qubits(0)


# ------------------------------------------------------------ observable_set

def test_observable_set_two_qubit_enumeration():
    terms = observable_set(2, "nearest_neighbor")
    assert [t.label() for t in terms] == ["X0", "X1", "Z0", "Z1", "Z0*Z1"]
    assert observable_count(2, "nearest_neighbor") == 5


def test_observable_counts():
    assert observable_count(16, "nearest_neighbor") == 47
    assert observable_count(16, "all_pairs") == 152
    assert observable_count(8, "nearest_neighbor") == 23
    for n_q in (2, 3, 5, 9):
        for mode in ("nearest_neighbor", "all_pairs"):
            assert len(observable_set(n_q, mode)) == observable_count(n_q, mode)


def test_observable_ordering_frozen():
    labels = [t.label() for t in observable_set(4, "all_pairs")]
    assert labels == [
        "X0", "X1", "X2", "X3",
        "Z0", "Z1", "Z2", "Z3",
        "Z0*Z1", "Z0*Z2", "Z0*Z3", "Z1*Z2", "Z1*Z3", "Z2*Z3",
    ]


def test_readout_terms_are_built_once_per_qubit_count_and_mode():
    terms = qep._observable_terms(5, "all_pairs")
    assert qep._observable_terms(5, "all_pairs") is terms and isinstance(terms, tuple)
    assert list(terms) == observable_set(5, "all_pairs")
    fresh = observable_set(5, "all_pairs")
    fresh.pop()  # the caller's list is its own
    assert observable_set(5, "all_pairs") != fresh and len(terms) == observable_count(5, "all_pairs")


def test_observable_set_validation():
    with pytest.raises(ValueError):
        observable_set(1)
    with pytest.raises(ValueError):
        observable_set(4, "ring")
    with pytest.raises(ValueError):
        observable_count(4, "ring")


# ------------------------------------------------------------- construction

def test_make_qep_defaults_to_sqrt_qubits():
    params = make_qep(d=64, seed=1)
    assert params.n_q == suggest_qubits(64) == 8
    assert params.d_q == 23


def test_qep_params_validation():
    good = make_qep(d=16, n_q=4, seed=2)
    with pytest.raises(ValueError):
        dataclasses.replace(good, beta=1.2)
    with pytest.raises(ValueError):
        dataclasses.replace(good, beta=-0.1)
    with pytest.raises(ValueError):
        dataclasses.replace(good, scale=-0.5)
    with pytest.raises(ValueError):
        dataclasses.replace(good, delta=np.zeros((1, 4, 2)))  # wrong layer count
    with pytest.raises(ValueError):
        make_qep(d=16, n_q=1, seed=2)


def test_beta_from_raw():
    assert beta_from_raw(0.0) == 0.5
    assert 0.0 < beta_from_raw(-30.0) < 1e-10
    assert 1.0 - 1e-10 < beta_from_raw(30.0) < 1.0


# -------------------------------------------------------------- angle coding

def test_encode_angles_scale_zero_annihilates():
    params = dataclasses.replace(make_qep(d=16, n_q=4, seed=3), scale=0.0)
    rng = np.random.default_rng(60)
    _, theta = encode_angles(rng.standard_normal(16), params)
    assert np.array_equal(theta, np.zeros_like(theta))


def test_encode_angles_unit_even_slots():
    params = make_qep(d=16, n_q=4, seed=4)
    bias = np.zeros(8)
    bias[0::2] = 1.0  # e pairs: (1, 0) per qubit
    params = dataclasses.replace(
        params,
        enc_w2=np.zeros_like(params.enc_w2),
        enc_b2=bias,
        delta=np.zeros_like(params.delta),
    )
    e, theta = encode_angles(np.zeros(16), params)
    assert np.array_equal(e, bias)
    assert np.abs(theta[:, :, 0] - np.pi / 2).max() <= 1e-15
    assert np.abs(theta[:, :, 1]).max() <= 1e-15


def test_encode_angles_matches_formula():
    params = make_qep(d=16, n_q=4, seed=5)
    rng = np.random.default_rng(61)
    x = rng.standard_normal(16)
    e, theta = encode_angles(x, params)
    expected = np.pi * params.scale * (e.reshape(4, 2)[np.newaxis] + params.delta)
    assert np.array_equal(theta, expected)


# ------------------------------------------------------------------- forward

def test_alpha_zero_endpoint_passes_input_through():
    params = make_qep(d=16, n_q=4, seed=6)
    params = dataclasses.replace(params, alpha_w=np.zeros(16), alpha_b=-60.0)
    rng = np.random.default_rng(62)
    xs = rng.standard_normal((4, 16))
    out, diag = qep_forward(xs, params)
    assert np.abs(out - xs).max() <= 1e-9
    assert diag.alpha_mean <= 1e-9


def test_alpha_one_endpoint_returns_fused_branch():
    params = make_qep(d=16, n_q=4, seed=7)
    params = dataclasses.replace(params, alpha_w=np.zeros(16), alpha_b=60.0)
    rng = np.random.default_rng(63)
    x = rng.standard_normal(16)
    out, diag = qep_forward(x, params)

    # rebuild z by hand from the declared composition
    e, _ = encode_angles(x, params)
    q_raw = quantum_features(x, params)
    hidden = np.maximum(
        (lambda v: (v - v.mean()) / np.sqrt(v.var() + 1e-5))(params.dec_w1 @ q_raw + params.dec_b1), 0.0)
    q_dec = params.dec_w2 @ hidden + params.dec_b2
    q_bp = params.bp_w @ e + params.bp_b
    q = (1 - params.beta) * q_dec + params.beta * q_bp
    z = params.fus_w @ np.concatenate([x, q]) + params.fus_b
    assert np.abs(out - z).max() <= 1e-9
    assert diag.alpha_mean >= 1.0 - 1e-9


def test_beta_one_makes_quantum_branch_inert():
    params = dataclasses.replace(make_qep(d=16, n_q=4, seed=8), beta=1.0)
    perturbed = dataclasses.replace(params, delta=params.delta + 0.3)
    rng = np.random.default_rng(64)
    xs = rng.standard_normal((3, 16))
    out_a, _ = qep_forward(xs, params)
    out_b, _ = qep_forward(xs, perturbed)
    assert np.abs(out_a - out_b).max() <= 1e-12

    # sanity: with beta=0 the same perturbation must show up
    p0 = dataclasses.replace(params, beta=0.0)
    p0_pert = dataclasses.replace(perturbed, beta=0.0)
    out_c, _ = qep_forward(xs, p0)
    out_d, _ = qep_forward(xs, p0_pert)
    assert np.abs(out_c - out_d).max() > 1e-6


def test_beta_convex_combination_at_output():
    # everything downstream of q is affine in q for a fixed input, so
    # f_out(beta) must interpolate linearly between the endpoints
    base = make_qep(d=16, n_q=4, seed=9)
    rng = np.random.default_rng(65)
    x = rng.standard_normal(16)
    out0, _ = qep_forward(x, dataclasses.replace(base, beta=0.0))
    out1, _ = qep_forward(x, dataclasses.replace(base, beta=1.0))
    for beta in (0.25, 0.5):
        out_b, _ = qep_forward(x, dataclasses.replace(base, beta=beta))
        mix = (1 - beta) * out0 + beta * out1
        assert np.abs(out_b - mix).max() <= 1e-12


def test_quantum_features_range():
    rng = np.random.default_rng(66)
    params = make_qep(d=16, n_q=4, seed=10)
    for _ in range(10):
        q_raw = quantum_features(rng.standard_normal(16) * 3, params)
        assert q_raw.shape == (params.d_q,)
        assert np.all(q_raw >= -1.0) and np.all(q_raw <= 1.0)
    noisy = NoiseSpec(kind="mixed", p=0.05, gamma_amp=0.03, gamma_phase=0.02)
    q_raw = quantum_features(rng.standard_normal(16), params, noise=noisy)
    assert np.all(q_raw >= -1.0) and np.all(q_raw <= 1.0)


def test_forward_bitwise_deterministic():
    rng = np.random.default_rng(67)
    x = rng.standard_normal(64)
    out1, diag1 = qep_forward(x, make_qep(d=64, n_q=8, seed=11))
    out2, diag2 = qep_forward(x, make_qep(d=64, n_q=8, seed=11))
    assert np.array_equal(out1, out2)
    assert diag1 == diag2


def test_noiseless_matches_density_at_zero_noise():
    params = make_qep(d=16, n_q=4, seed=12)
    rng = np.random.default_rng(68)
    xs = rng.standard_normal((3, 16))
    out_sv, _ = qep_forward(xs, params)
    for spec in (
        NoiseSpec(kind="depolarizing", p=0.0),
        NoiseSpec(kind="thermal", gamma_amp=0.0, gamma_phase=0.0),
        NoiseSpec(kind="mixed", p=0.0, gamma_amp=0.0, gamma_phase=0.0),
    ):
        out_dm, _ = qep_forward(xs, params, noise=spec)
        assert np.abs(out_sv - out_dm).max() <= 1e-10


def test_noisy_forward_differs_and_stays_finite():
    params = make_qep(d=16, n_q=4, seed=13)
    rng = np.random.default_rng(69)
    x = rng.standard_normal(16)
    out_clean, _ = qep_forward(x, params)
    out_noisy, _ = qep_forward(x, params, noise=NoiseSpec(kind="depolarizing", p=0.2))
    assert np.all(np.isfinite(out_noisy))
    assert np.abs(out_clean - out_noisy).max() > 1e-9


def test_noisy_qubit_cap():
    params = make_qep(d=200, n_q=12, seed=14)
    with pytest.raises(ValueError):
        qep_forward(np.zeros(200), params, noise=NoiseSpec(kind="depolarizing"))


def test_forward_shapes_and_input_validation():
    params = make_qep(d=16, n_q=4, seed=15)
    rng = np.random.default_rng(70)
    xs = rng.standard_normal((5, 16))
    out, _ = qep_forward(xs, params)
    assert out.shape == (5, 16)
    single, _ = qep_forward(xs[0], params)
    assert single.shape == (16,)
    assert np.array_equal(single, out[0])
    with pytest.raises(ValueError):
        qep_forward(np.zeros(15), params)


def test_nonfinite_errors_name_the_stage():
    params = make_qep(d=16, n_q=4, seed=16)
    x = np.zeros(16)
    x[0] = np.nan
    with pytest.raises(ValueError, match="input"):
        qep_forward(x, params)
    bad_dec = dataclasses.replace(
        params, dec_w2=np.where(np.eye(16) > 0, np.inf, params.dec_w2))
    with np.errstate(invalid="ignore"):
        with pytest.raises(ValueError, match="decoder"):
            qep_forward(np.ones(16), bad_dec)
    bad_fus = dataclasses.replace(
        params, fus_b=np.full(16, np.inf))
    with pytest.raises(ValueError, match="fusion"):
        qep_forward(np.ones(16), bad_fus)


def test_diagnostics_validation():
    with pytest.raises(ValueError):
        QepDiagnostics(alpha_mean=1.5, q_std=0.1)
    with pytest.raises(ValueError):
        QepDiagnostics(alpha_mean=0.5, q_std=-0.1)
    d = QepDiagnostics(alpha_mean=0.5, q_std=0.0)
    assert d.alpha_mean == 0.5


# ---------------------------------------------------------------- qubit sweep


def test_qubit_sweep_records_one_row_per_count():
    from tnmpcqep import pipeline

    batch = pipeline.synth_data(40, seed=2)
    cfg = pipeline.DemoConfig(n_train=32, n_test=8)
    records = qubit_sweep(batch, [4, 6, 8], config=cfg)
    assert [r["n_q"] for r in records] == [4, 6, 8]
    d_qs = [r["d_q"] for r in records]
    assert d_qs == [observable_count(n, "nearest_neighbor") for n in (4, 6, 8)]
    assert d_qs == sorted(d_qs) and len(set(d_qs)) == 3
    for rec in records:
        assert 0.0 <= rec["accuracy"] <= 1.0
        assert 0.0 <= rec["f1"] <= 1.0
        assert rec["runtime_s"] > 0.0
        assert rec["seed"] == cfg.seed


def test_qubit_sweep_default_count_matches_suggestion():
    from tnmpcqep import pipeline

    batch = pipeline.synth_data(40, seed=3)
    cfg = pipeline.DemoConfig(n_train=32, n_test=8)
    records = qubit_sweep(batch, [suggest_qubits(64)], config=cfg)
    assert records[0]["n_q"] == 8
    assert records[0]["d_q"] == 23


def test_qubit_sweep_reads_observables_and_noise_from_config():
    from tnmpcqep import pipeline

    batch = pipeline.synth_data(24, seed=5)
    base = pipeline.DemoConfig(n_train=16, n_test=8, observables="all_pairs")
    clean = qubit_sweep(batch, [4], config=base)[0]
    assert clean["d_q"] == make_qep(d=64, n_q=4, mode="all_pairs").d_q == 14
    noisy_cfg = dataclasses.replace(base, noise=NoiseSpec(kind="depolarizing", p=0.3))
    noisy = qubit_sweep(batch, [4], config=noisy_cfg)[0]
    assert noisy["q_std"] != clean["q_std"]


def test_qubit_sweep_rejects_empty_inputs():
    from tnmpcqep import pipeline

    batch = pipeline.synth_data(40, seed=4)
    empty = pipeline.LabeledBatch(np.zeros((0, 28, 28)), np.zeros(0, dtype=int))
    with pytest.raises(ValueError, match="empty batch"):
        qubit_sweep(empty, [8])
    with pytest.raises(ValueError, match="at least one qubit count"):
        qubit_sweep(batch, [])


# ------------------------------------------------- one batch axis, byte for byte

def _per_row_forward(xs, params, noise=None):
    """qep_forward before the batch axis: every stage per latent, W @ x and 1-D layer norm."""
    def ln(v):
        return (v - v.mean()) / np.sqrt(v.var() + 1e-5)

    def finite(arr, stage):
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"non-finite values at stage '{stage}'")
        return arr

    noise = NOISELESS if noise is None else noise
    terms = observable_set(params.n_q, params.mode)
    xs = finite(np.atleast_2d(np.asarray(xs, dtype=np.float64)), "input")
    outs, alphas, qs = np.empty_like(xs), np.empty(len(xs)), np.empty((len(xs), params.d))
    for i, x in enumerate(xs):
        hidden = np.maximum(ln(params.enc_w1 @ x + params.enc_b1), 0.0)
        e = finite(params.enc_w2 @ hidden + params.enc_b2, "encoder")
        theta = np.pi * params.scale * (e.reshape(params.n_q, 2)[np.newaxis, :, :] + params.delta)
        if noise.is_noiseless:
            state = run_circuit(theta)
            q_raw = np.array([expectation(state, t) for t in terms])
        else:
            q_raw = run_noisy(theta, noise).expectations(terms)
        finite(q_raw, "readout")
        hidden = np.maximum(ln(params.dec_w1 @ q_raw + params.dec_b1), 0.0)
        q_dec = finite(params.dec_w2 @ hidden + params.dec_b2, "decoder")
        q_bp = finite(params.bp_w @ e + params.bp_b, "bypass")
        q = (1.0 - params.beta) * q_dec + params.beta * q_bp
        z = finite(params.fus_w @ np.concatenate([x, q]) + params.fus_b, "fusion")
        alpha = float(expit(params.alpha_w @ ln(x) + params.alpha_b))
        outs[i] = alpha * z + (1.0 - alpha) * x
        alphas[i], qs[i] = alpha, q
    finite(outs, "output")
    return outs, QepDiagnostics(alpha_mean=float(alphas.mean()), q_std=float(qs.std()))


def _assert_same_forward(xs, params, noise=None):
    out, diag = qep_forward(xs, params, noise=noise)
    want, want_diag = _per_row_forward(xs, params, noise=noise)
    assert out.tobytes() == want.tobytes()
    assert np.float64(diag.alpha_mean).tobytes() == np.float64(want_diag.alpha_mean).tobytes()
    assert np.float64(diag.q_std).tobytes() == np.float64(want_diag.q_std).tobytes()
    single, single_diag = qep_forward(xs[-1], params, noise=noise)
    assert single.tobytes() == _per_row_forward(xs[-1:], params, noise=noise)[0][0].tobytes()
    assert single_diag == _per_row_forward(xs[-1:], params, noise=noise)[1]


@settings(max_examples=40, deadline=None)
@given(m=st.integers(1, 40), n_q=st.integers(2, 10), d=st.integers(1, 24),
       mode=st.sampled_from(["nearest_neighbor", "all_pairs"]), layers=st.integers(1, 3),
       spread=st.sampled_from([1e-3, 1.0, 30.0]), seed=st.integers(0, 2**16))
def test_qep_forward_is_bit_identical_to_the_per_row_form(m, n_q, d, mode, layers, spread, seed):
    params = make_qep(d=d, n_q=n_q, layers=layers, mode=mode, seed=seed)
    xs = spread * np.random.default_rng(seed).standard_normal((m, d))
    _assert_same_forward(xs, params)


@settings(max_examples=12, deadline=None)
@given(m=st.integers(1, 6), n_q=st.integers(2, 4),
       kind=st.sampled_from(["depolarizing", "thermal", "mixed"]), seed=st.integers(0, 2**16))
def test_noisy_qep_forward_is_bit_identical_to_the_per_row_form(m, n_q, kind, seed):
    params = make_qep(d=9, n_q=n_q, seed=seed)
    xs = np.random.default_rng(seed).standard_normal((m, 9))
    _assert_same_forward(xs, params, noise=NoiseSpec(kind=kind, p=0.05, gamma_amp=0.03,
                                                     gamma_phase=0.02))


def test_encode_angles_and_quantum_features_are_the_stack_at_one_row():
    params = make_qep(d=20, n_q=5, seed=21)
    xs = np.random.default_rng(72).standard_normal((7, 20))
    stacked = qep_forward(xs, params)[0]
    for i, x in enumerate(xs):
        e, theta = encode_angles(x, params)
        assert e.shape == (10,) and theta.shape == (2, 5, 2)
        q_raw = quantum_features(x, params)
        state = run_circuit(theta)
        assert q_raw.tobytes() == np.array(
            [expectation(state, t) for t in observable_set(5)]).tobytes()
        assert qep_forward(x, params)[0].tobytes() == stacked[i].tobytes()


@pytest.mark.parametrize("stage", ["input", "encoder", "readout", "decoder", "bypass",
                                   "fusion", "output"])
def test_stage_errors_name_the_same_stage_as_the_per_row_form(stage):
    params = make_qep(d=16, n_q=4, seed=22)
    xs = np.random.default_rng(73).standard_normal((3, 16))
    if stage == "input":
        xs[1, 3] = np.nan
    elif stage == "encoder":
        params = dataclasses.replace(params, enc_b2=np.full(8, np.inf))
    elif stage == "readout":  # finite e, infinite angles: NaN gates and amplitudes
        params = dataclasses.replace(params, scale=np.inf)
    elif stage == "decoder":
        params = dataclasses.replace(params, dec_b2=np.full(16, np.inf))
    elif stage == "bypass":
        params = dataclasses.replace(params, bp_b=np.full(16, np.inf))
    elif stage == "fusion":
        params = dataclasses.replace(params, fus_b=np.full(16, np.inf))
    else:
        params = dataclasses.replace(params, alpha_b=np.nan)
    for forward in (qep_forward, _per_row_forward):
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError, match=f"stage '{stage}'"):
                forward(xs, params)


def test_observable_count_is_the_length_of_the_set():
    for n_q in range(2, 25):
        for mode in ("nearest_neighbor", "all_pairs"):
            assert observable_count(n_q, mode) == len(observable_set(n_q, mode))
    for bad in ((1, "nearest_neighbor"), (0, "all_pairs"), (4, "ring")):
        with pytest.raises(ValueError) as want:
            observable_set(*bad)
        with pytest.raises(ValueError) as got:
            observable_count(*bad)
        assert str(got.value) == str(want.value)
