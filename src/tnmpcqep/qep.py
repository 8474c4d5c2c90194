"""Quantum-enhanced post-aggregation processor.

The aggregated latent drives a layered Ry/Rz + CNOT-chain circuit through a
shallow trainable-shape angle encoder; Pauli expectations of a declared
observable set form the quantum feature q_raw, which is decoded, mixed with
a classical bypass of the encoder output, fused with the original latent,
and gated back onto it:

    e = Enc(x);  theta[l,q] = pi*s*(e_pair[q] + delta[l,q])
    q_raw = <P_j> over the observable set
    q = (1-beta)*Dec(q_raw) + beta*BP(e)
    z = Fusion([x; q]);  alpha = sigmoid(affine(LN(x)))
    f_out = alpha*z + (1-alpha)*x

Every stage but the circuit runs once over the (m, d) stack of latents, one
batch axis through the encoder, angle map, decoder, bypass, fusion and gate;
each matrix-vector product is a stacked one, np.matmul(W, X[..., None]),
which computes row i as W @ X[i] does, so a stack and its rows agree byte
for byte.  Only the circuit and its readout run per row.  No component is
trained here; parameters are seeded draws.

The gate's sigmoid is 1 / (1 + exp(-v)) per element with the C library's exp,
through math.exp, which is the formula and the exp that scipy.special.expit
uses, so alpha keeps expit's bytes without loading scipy.  numpy's exp is a
SIMD routine whose last bit differs from the C library's on some inputs.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .qsim import (MAX_DENSITY_QUBITS, NOISELESS, NoiseSpec, PauliTerm, expectation, run_circuit,
                   run_noisy)
from .tn import _gemv, _layer_norm, _rng

__all__ = [
    "OBSERVABLE_MODES",
    "QepParams",
    "QepDiagnostics",
    "suggest_qubits",
    "observable_set",
    "observable_count",
    "make_qep",
    "quantum_features",
    "qep_forward",
    "qubit_sweep",
]

OBSERVABLE_MODES = ("nearest_neighbor", "all_pairs")


def suggest_qubits(d: int) -> int:
    """Smallest N_q with N_q^2 >= d (square-root scaling of the latent)."""
    if d < 1:
        raise ValueError("latent dimension must be >= 1")
    root = math.isqrt(d)
    return root if root * root == d else root + 1


def observable_set(n_q: int, mode: str = "nearest_neighbor"):
    """Deterministically ordered Pauli terms: X's, then Z's, then ZZ pairs."""
    if n_q < 2:
        raise ValueError("need at least 2 qubits for two-body observables")
    if mode not in OBSERVABLE_MODES:
        raise ValueError(f"mode must be one of {OBSERVABLE_MODES}, got {mode!r}")
    terms = [PauliTerm(((q, "X"),)) for q in range(n_q)]
    terms += [PauliTerm(((q, "Z"),)) for q in range(n_q)]
    if mode == "nearest_neighbor":
        pairs = [(q, q + 1) for q in range(n_q - 1)]
    else:
        pairs = [(i, j) for i in range(n_q) for j in range(i + 1, n_q)]
    terms += [PauliTerm(((i, "Z"), (j, "Z"))) for i, j in pairs]
    return terms


@functools.cache
def _observable_terms(n_q: int, mode: str) -> tuple:
    """observable_set(n_q, mode) as a tuple built once for the readout; the noisy
    readout keeps its coefficient indices per tuple."""
    return tuple(observable_set(n_q, mode))


def observable_count(n_q: int, mode: str = "nearest_neighbor") -> int:
    """len(observable_set(n_q, mode)), from the cached terms."""
    return len(_observable_terms(n_q, mode))


@dataclass(frozen=True)
class QepDiagnostics:
    alpha_mean: float
    q_std: float

    def __post_init__(self):
        if not 0.0 <= self.alpha_mean <= 1.0:
            raise ValueError("alpha_mean must lie in [0, 1]")
        if self.q_std < 0.0:
            raise ValueError("q_std must be non-negative")


@dataclass(frozen=True)
class QepParams:
    """All processor parameters; the arrays have the shapes that _draws lists.

    beta is stored directly in [0, 1]; the endpoints are legal so the mixing
    identities are expressible.
    """

    d: int
    n_q: int
    layers: int
    scale: float
    beta: float
    mode: str
    seed: int
    delta: np.ndarray
    enc_w1: np.ndarray
    enc_b1: np.ndarray
    enc_w2: np.ndarray
    enc_b2: np.ndarray
    dec_w1: np.ndarray
    dec_b1: np.ndarray
    dec_w2: np.ndarray
    dec_b2: np.ndarray
    bp_w: np.ndarray
    bp_b: np.ndarray
    fus_w: np.ndarray
    fus_b: np.ndarray
    alpha_w: np.ndarray
    alpha_b: float

    def __post_init__(self):
        if self.d < 1 or self.layers < 1:
            raise ValueError("d and layers must be >= 1")
        if self.n_q < 2:
            raise ValueError("n_q must be >= 2")
        if self.scale < 0.0:
            raise ValueError("angle scale must be non-negative")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must lie in [0, 1]")
        for names in _draws(self.d, self.n_q, self.layers, self.d_q).values():
            for name, shape in names:
                got = np.asarray(getattr(self, name)).shape
                if got != shape:
                    raise ValueError(f"{name} has shape {got}, expected {shape}")

    @property
    def d_q(self) -> int:
        return observable_count(self.n_q, self.mode)


def _draws(d: int, n_q: int, layers: int, d_q: int) -> dict:
    """Per seeded stream label, one per parameter group, the (name, shape) of each
    array in draw order.

    A weight (a name with "_w") is N(0, 1/fan_in), fan_in its last axis; anything
    else is 0.1*N(0, 1).  alpha_b is drawn at shape () and stored as a float.
    """
    e = 2 * n_q
    return {
        41: (("delta", (layers, n_q, 2)),),
        42: (("enc_w1", (e, d)), ("enc_b1", (e,)), ("enc_w2", (e, e)), ("enc_b2", (e,))),
        43: (("dec_w1", (d, d_q)), ("dec_b1", (d,)), ("dec_w2", (d, d)), ("dec_b2", (d,))),
        44: (("bp_w", (d, e)), ("bp_b", (d,))),
        45: (("fus_w", (d, 2 * d)), ("fus_b", (d,))),
        46: (("alpha_w", (d,)), ("alpha_b", ())),
    }


def make_qep(d: int = 64, n_q: int | None = None, layers: int = 2, scale: float = 0.5,
             beta: float = 0.5, mode: str = "nearest_neighbor", seed: int = 0) -> QepParams:
    """Seeded parameter draw; n_q defaults to suggest_qubits(d)."""
    if n_q is None:
        n_q = suggest_qubits(d)
    arrays = {}
    for label, names in _draws(d, n_q, layers, observable_count(n_q, mode)).items():
        g = _rng(seed, label)
        for name, shape in names:
            if "_w" in name:
                arrays[name] = g.standard_normal(shape) / np.sqrt(shape[-1])
            else:
                arrays[name] = 0.1 * g.standard_normal(shape)
    arrays["alpha_b"] = float(arrays["alpha_b"])
    return QepParams(d, n_q, layers, scale, beta, mode, seed, **arrays)


def _affine(w, b, xs):
    """w @ x + b for every row x of xs, one gemv per row."""
    out = _gemv(w, xs)
    out += b
    return out


def _ensure_finite(arr, stage: str):
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"non-finite values at stage '{stage}'")
    return arr


def _sigmoid(v: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-t)) for each t of a 1-d array; an exp that overflows is inf, giving 0."""
    out = []
    for t in v.tolist():
        try:
            e = math.exp(-t)
        except OverflowError:
            e = math.inf
        out.append(1.0 / (1.0 + e))
    return np.array(out)


def _checked_noise(params: QepParams, noise: NoiseSpec | None) -> NoiseSpec:
    noise = NOISELESS if noise is None else noise
    if not noise.is_noiseless and params.n_q > MAX_DENSITY_QUBITS:
        raise ValueError(f"noisy evaluation is limited to {MAX_DENSITY_QUBITS} qubits")
    return noise


def _checked_latent(x_agg, params: QepParams):
    x = np.asarray(x_agg, dtype=np.float64).reshape(-1)
    if x.shape != (params.d,):
        raise ValueError(f"expected a {params.d}-vector, got {x.shape}")
    return _ensure_finite(x, "input")


def _angles(xs, params: QepParams):
    """Encoder stage over an (m, d) stack: e of shape (m, 2N_q), theta of shape (m, L, N_q, 2).

    theta[l,q] = pi*s*(e_pair[q] + delta[l,q]): even slots of e drive the Ry angles,
    odd slots the Rz angles.
    """
    hidden = np.maximum(_layer_norm(_affine(params.enc_w1, params.enc_b1, xs)), 0.0)
    e = _ensure_finite(_affine(params.enc_w2, params.enc_b2, hidden), "encoder")
    theta = np.pi * params.scale * (e.reshape(len(e), 1, params.n_q, 2) + params.delta)
    return e, theta


def _readout(theta, params: QepParams, noise: NoiseSpec):
    """q_raw of shape (m, d_q): the circuit and its readout, one row at a time."""
    terms = _observable_terms(params.n_q, params.mode)
    q_raw = np.empty((len(theta), len(terms)))
    for i, angles in enumerate(theta):
        if noise.is_noiseless:
            state = run_circuit(angles)
            q_raw[i] = [expectation(state, t) for t in terms]
        else:
            q_raw[i] = run_noisy(angles, noise).expectations(terms)
    return _ensure_finite(q_raw, "readout")


def _quantum_branch(xs, params: QepParams, noise: NoiseSpec):
    """q = (1-beta)*Dec(q_raw) + beta*BP(e) over the stack; its temporaries die on return."""
    e, theta = _angles(xs, params)
    q_raw = _readout(theta, params, noise)
    hidden = np.maximum(_layer_norm(_affine(params.dec_w1, params.dec_b1, q_raw)), 0.0)
    q = _ensure_finite(_affine(params.dec_w2, params.dec_b2, hidden), "decoder")
    q *= 1.0 - params.beta  # in place: the same products as (1 - beta) * Dec(q_raw)
    q += params.beta * _ensure_finite(_affine(params.bp_w, params.bp_b, e), "bypass")
    return q


def quantum_features(x_agg, params: QepParams, noise: NoiseSpec | None = None) -> np.ndarray:
    """The raw observable vector q_raw in [-1, 1]^{d_q} for one latent."""
    noise = _checked_noise(params, noise)
    _, theta = _angles(_checked_latent(x_agg, params)[None], params)
    return _readout(theta, params, noise)[0]


def qep_forward(x_agg, params: QepParams, noise: NoiseSpec | None = None):
    """Process one latent or a batch; returns (f_out, QepDiagnostics).

    Noiseless specs run on the exact MPS simulator; any other NoiseSpec
    switches to density-matrix evolution (n_q <= MAX_DENSITY_QUBITS).
    """
    noise = _checked_noise(params, noise)
    xs = np.asarray(x_agg, dtype=np.float64)
    single = xs.ndim == 1
    xs = np.atleast_2d(xs)
    if xs.ndim != 2 or xs.shape[1] != params.d:
        raise ValueError(f"expected (m, {params.d}) latents, got {np.asarray(x_agg).shape}")
    if xs.shape[0] == 0:
        raise ValueError("cannot process an empty batch of latents")
    _ensure_finite(xs, "input")

    q = _quantum_branch(xs, params, noise)
    z = _ensure_finite(_affine(params.fus_w, params.fus_b, np.concatenate([xs, q], axis=1)),
                       "fusion")
    # alpha_w @ LN(x) is a dot per row, (1, d) @ (d, 1), not a gemv
    gate = np.matmul(_layer_norm(xs)[:, None, :], params.alpha_w[:, None])[:, 0, 0]
    alpha = _sigmoid(gate + params.alpha_b)
    outs = alpha[:, None] * z
    outs += (1.0 - alpha[:, None]) * xs
    _ensure_finite(outs, "output")
    diag = QepDiagnostics(alpha_mean=float(alpha.mean()), q_std=float(q.std()))
    return (outs[0] if single else outs), diag


def qubit_sweep(batch, n_q_list, *, config=None):
    """Run the demo pipeline once per qubit count; one record per N_q.

    batch is a LabeledBatch (see pipeline module); config is the base
    DemoConfig (default DemoConfig()), of which each run replaces only n_q
    and sets mode="quantum".  Records carry the qubit count, feature width
    d_q, seed, wall-clock runtime, downstream accuracy, and the processor
    diagnostics.
    """
    from . import pipeline  # deferred, pipeline depends on this module

    if len(batch.labels) == 0:
        raise ValueError("empty batch")
    n_q_list = list(n_q_list)
    if not n_q_list:
        raise ValueError("need at least one qubit count")
    base = config if config is not None else pipeline.DemoConfig()
    records = []
    for n_q in n_q_list:
        cfg = replace(base, n_q=int(n_q), mode="quantum")
        t0 = time.perf_counter()
        report = pipeline.run_demo(cfg, data=batch)
        runtime = time.perf_counter() - t0
        records.append({
            "n_q": int(n_q),
            "d_q": observable_count(int(n_q), cfg.observables),
            "seed": cfg.seed,
            "runtime_s": runtime,
            **report.summary(),
        })
    return records
