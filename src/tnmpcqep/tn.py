"""Tensor-network frontends: MPS, TTN, and MERA encoders for 28x28 images.

All three map a flat 784-vector to a real d-dimensional latent through
structured complex contractions.  Cores and merge maps are QR-projected
isometries drawn from a seeded generator; there is no training here, a
parameter set is fully determined by (kind, config, seed) or by a loaded
parameter bundle.

Conventions:
  * MPS runs left to right over L_sites blocks of the pre-mapped feature,
    bond state starts at e_1 and is re-normalized after every core, with a
    degenerate-update guard: if a contraction returns (numerically) zero
    the previous state carries through unchanged.
  * Trees merge adjacent pairs bottom-up with one shared isometry per
    level, parent = Q^dagger [left; right], each parent normalized.
  * MERA applies one shared unitary per level to even pairs then odd
    pairs (no wrap-around) before the merge; identity disentanglers make
    it coincide with the TTN exactly, so one tree forward serves both kinds.
  * realify(psi) = [Re(psi); Im(psi)], then a fixed seeded projection.

Batch axis: every kind has one forward, _encode_rows, over a (B, 784)
stack, and encode_batch runs it over _CHUNK_ROWS (32) rows at a time, which
keeps the intermediates small.  Each row gets the bytes of the one-image contraction
because every W @ x is a stacked gemv, np.matmul(W, X[..., None]), which
calls one BLAS gemv per vector where a gemm X @ W.T would sum in another
order.  Likewise the norm is np.linalg.norm's Re.Re + Im.Im as stacked BLAS
dots on the strided .real/.imag views; a contiguous copy or einsum changes
the last bits.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .container import read_container, write_container

__all__ = [
    "FRONTEND_KINDS",
    "FrontendConfig",
    "MpsParams",
    "TreeParams",
    "make_frontend",
    "qr_isometry",
    "patchify",
    "realify",
    "encode_batch",
    "disentangle_layer",
    "isometry_check",
    "save_params",
    "load_params",
]

FRONTEND_KINDS = ("mps", "ttn", "mera")
IMAGE_SIDE = 28
IMAGE_PIXELS = IMAGE_SIDE * IMAGE_SIDE

_LN_EPS = 1e-5
_DEGENERATE_NORM = 1e-12
# encode_batch runs this many images per pass; the intermediates of a
# whole batch at once would raise the peak memory for no further speed
_CHUNK_ROWS = 32

# fixed sub-stream labels; ttn and mera share stem/embed/isometry/projection
_S_PREMAP = 11
_S_EMBED = 12
_S_CORES = 13
_S_STEM = 21
_S_TREE_EMBED = 22
_S_ISOMETRY = 23
_S_DISENT = 24
_S_PROJ = 31

def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class FrontendConfig:
    """Hyperparameters shared by the three encoder kinds.

    kind is one of FRONTEND_KINDS.  h is the MPS pre-feature width,
    split into l_sites equal blocks; d_phys and bond size the MPS cores.
    Trees cut the image into n_patches patch*patch tiles, lift each to a
    d_p stem feature and then a d_loc complex leaf.
    """

    kind: str = "mps"
    d: int = 64
    h: int = 256
    l_sites: int = 16
    d_loc: int = 16
    d_phys: int = 8
    bond: int = 8
    n_patches: int = 16
    patch: int = 7
    d_p: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.kind not in FRONTEND_KINDS:
            raise ValueError(f"unknown frontend kind {self.kind!r}")
        for name in ("d", "h", "l_sites", "d_loc", "d_phys", "bond", "n_patches", "patch", "d_p"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.h % self.l_sites != 0:
            raise ValueError("h must split into l_sites equal blocks")
        if self.n_patches * self.patch * self.patch != IMAGE_PIXELS:
            raise ValueError("patches must tile the 28x28 image exactly")
        if not _is_pow2(self.d_loc):
            raise ValueError("d_loc must be a power of two")
        if self.kind in ("ttn", "mera") and not _is_pow2(self.n_patches):
            raise ValueError("tree kinds need a power-of-two patch count")

    @property
    def block(self) -> int:
        return self.h // self.l_sites

    @property
    def n_levels(self) -> int:
        return int(self.n_patches).bit_length() - 1


@dataclass(frozen=True)
class MpsParams:
    config: FrontendConfig
    premap_w: np.ndarray  # (h, 784) real
    premap_b: np.ndarray  # (h,) real
    embed_re: np.ndarray  # (d_phys, block) real, shared across sites
    embed_im: np.ndarray
    cores: np.ndarray  # (l_sites, bond, d_phys, bond) complex, left-isometric
    proj: np.ndarray  # (d, 2*bond) real


@dataclass(frozen=True)
class TreeParams:
    config: FrontendConfig
    stem_w: np.ndarray  # (d_p, patch * patch) real, shared across patches
    stem_b: np.ndarray  # (d_p,)
    embed_re: np.ndarray  # (d_loc, d_p)
    embed_im: np.ndarray
    isometries: np.ndarray  # (n_levels, 2*d_loc, d_loc) complex, Q^dagger Q = I
    disentanglers: np.ndarray | None  # (n_levels, 2*d_loc, 2*d_loc) unitary, mera only
    proj: np.ndarray  # (d, 2*d_loc) real


def qr_isometry(m: np.ndarray) -> np.ndarray:
    """Project a tall matrix onto an isometry via QR with a phase fix.

    The R diagonal is rotated to the positive real axis so the result is
    unique (identity maps to identity).  Near rank deficiency triggers one
    jitter-regularized retry before giving up.
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] < m.shape[1]:
        raise ValueError("need a tall matrix, rows >= cols")

    def _project(mat):
        q, r = np.linalg.qr(mat)
        diag = np.diagonal(r)
        tol = 1e-12 * max(1.0, float(np.abs(diag).max(initial=0.0)))
        if np.any(np.abs(diag) <= tol):
            return None
        phases = diag / np.abs(diag)
        return q * phases[np.newaxis, :]

    q = _project(m)
    if q is None:
        # deterministic jitter, small relative to the matrix scale
        jitter_rng = np.random.default_rng(0x1507)
        scale = 1e-8 * max(1.0, float(np.abs(m).max()))
        noise = jitter_rng.standard_normal(m.shape)
        if np.iscomplexobj(m):
            noise = noise + 1j * jitter_rng.standard_normal(m.shape)
        q = _project(m + scale * noise)
        if q is None:
            raise np.linalg.LinAlgError("matrix is rank deficient beyond repair")
    dev = np.abs(q.conj().T @ q - np.eye(m.shape[1])).max()
    if dev > 1e-10:
        raise np.linalg.LinAlgError(f"isometry self-check failed, deviation {dev:g}")
    return q


def patchify(images: np.ndarray, patch: int = 7) -> np.ndarray:
    """Cut 28x28 images, shape (..., 28, 28), into row-major patch x patch
    tiles, each flattened row-major: shape (..., n_patches, patch * patch)."""
    images = np.asarray(images, dtype=np.float64)
    if images.shape[-2:] != (IMAGE_SIDE, IMAGE_SIDE):
        raise ValueError(f"expected shape (..., 28, 28), got {images.shape}")
    lead = images.shape[:-2]
    g = IMAGE_SIDE // patch
    tiles = images.reshape(*lead, g, patch, g, patch).swapaxes(-3, -2)
    return tiles.reshape(*lead, g * g, patch * patch)


def realify(psi: np.ndarray) -> np.ndarray:
    """[Re(psi); Im(psi)] along the last axis; preserves the 2-norm."""
    psi = np.asarray(psi)
    return np.concatenate([psi.real, psi.imag], axis=-1).astype(np.float64)


def _gemv(w, xs):
    # W @ x for every vector on the last axis: one BLAS gemv per vector
    return np.matmul(w, xs[..., None])[..., 0]


def _layer_norm(v):
    return (v - v.mean(-1, keepdims=True)) / np.sqrt(v.var(-1, keepdims=True) + _LN_EPS)


def _rng(seed: int, label: int) -> np.random.Generator:
    return np.random.default_rng([seed, label])


def _complex_gaussian(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _safe_normalize(w, fallback=None):
    # Each vector on the last axis over its norm; a degenerate row passes the
    # fallback row (or itself) through.  The squared norm is np.linalg.norm's,
    # Re.Re + Im.Im as BLAS dots on the strided .real/.imag views.
    re, im = w.real, w.imag
    sq = np.matmul(re[..., None, :], re[..., :, None]) + np.matmul(im[..., None, :], im[..., :, None])
    n = np.sqrt(sq[..., 0])
    degenerate = n <= _DEGENERATE_NORM
    scaled = w / np.where(degenerate, 1.0, n)
    return np.where(degenerate, w if fallback is None else fallback, scaled)


def _dense(rng, rows, cols):
    return rng.standard_normal((rows, cols)) / np.sqrt(cols)


def _isometries(rng, count, rows, cols):
    """count QR-projected complex Gaussian (rows, cols) isometries, drawn in order."""
    out = np.empty((count, rows, cols), dtype=np.complex128)
    for i in range(count):
        out[i] = qr_isometry(_complex_gaussian(rng, (rows, cols)))
    return out


def make_frontend(config: FrontendConfig):
    """Draw a full parameter set for the configured kind, deterministically.

    Each parameter comes from its own labelled stream: the input map (MPS
    premap, or the tree stem shared across patches) and its bias, the
    complex embedding pair, the isometry stack and the projection."""
    seed, mps = config.seed, config.kind == "mps"
    in_rng = _rng(seed, _S_PREMAP if mps else _S_STEM)
    width, fan_in = (config.h, IMAGE_PIXELS) if mps else (config.d_p, config.patch * config.patch)
    w, b = _dense(in_rng, width, fan_in), 0.1 * in_rng.standard_normal(width)
    emb = _rng(seed, _S_EMBED if mps else _S_TREE_EMBED)
    leaf, fan_in = (config.d_phys, config.block) if mps else (config.d_loc, config.d_p)
    e_re, e_im = _dense(emb, leaf, fan_in), _dense(emb, leaf, fan_in)
    r, dl = config.bond, config.d_loc
    proj = _dense(_rng(seed, _S_PROJ), config.d, 2 * (r if mps else dl))
    if mps:
        cores = _isometries(_rng(seed, _S_CORES), config.l_sites, r * config.d_phys, r)
        cores = cores.reshape(config.l_sites, r, config.d_phys, r)
        return MpsParams(config, w, b, e_re, e_im, cores, proj)
    isometries = _isometries(_rng(seed, _S_ISOMETRY), config.n_levels, 2 * dl, dl)
    disentanglers = None
    if config.kind == "mera":
        disentanglers = _isometries(_rng(seed, _S_DISENT), config.n_levels, 2 * dl, 2 * dl)
    return TreeParams(config, w, b, e_re, e_im, isometries, disentanglers, proj)


def _site_vectors(xs, params: MpsParams) -> np.ndarray:
    """Embedded per-site complex vectors of a (B, 784) stack, shape (B, l_sites, d_phys)."""
    cfg = params.config
    pre = np.maximum(_layer_norm(_gemv(params.premap_w, xs) + params.premap_b), 0.0)
    blocks = pre.reshape(-1, cfg.l_sites, cfg.block)
    return blocks @ params.embed_re.T + 1j * (blocks @ params.embed_im.T)


def _mps_states(xs, params: MpsParams) -> np.ndarray:
    """Final bond-space states, shape (B, bond); unit norm unless every update degenerated."""
    cfg = params.config
    z = _site_vectors(xs, params)
    v = np.zeros((xs.shape[0], cfg.bond), dtype=np.complex128)
    v[:, 0] = 1.0  # boundary state e_1
    for k in range(cfg.l_sites):
        w = np.einsum("na,asb,ns->nb", v, params.cores[k], z[:, k])
        v = _safe_normalize(w, fallback=v)
    return v


def disentangle_layer(states: np.ndarray, u: np.ndarray, parity: int) -> np.ndarray:
    """Apply a shared 2d_loc unitary to adjacent pairs starting at `parity`.

    states has shape (..., n, d_loc).  parity 0 hits (0,1), (2,3), ...;
    parity 1 hits (1,2), (3,4), ... with no wrap-around, so boundary sites
    pass through untouched.  The pairs are disjoint: one stacked product.
    """
    if parity not in (0, 1):
        raise ValueError("parity must be 0 or 1")
    states = np.array(states, dtype=np.complex128, copy=True)
    *lead, n, dl = states.shape
    n_pairs = (n - parity) // 2
    if n_pairs:
        span = states[..., parity:parity + 2 * n_pairs, :]
        pairs = _gemv(u, span.reshape(*lead, n_pairs, 2 * dl))
        span[...] = pairs.reshape(span.shape)
    return states


def _tree_levels(xs, params: TreeParams) -> list:
    """Every level of a (B, 784) stack: the (B, n_patches, d_loc) leaves, then each
    merge (for mera, post-disentangle and post-merge)."""
    cfg = params.config
    patches = patchify(xs.reshape(-1, IMAGE_SIDE, IMAGE_SIDE), cfg.patch)
    stems = np.maximum(_layer_norm(_gemv(params.stem_w, patches) + params.stem_b), 0.0)
    states = stems @ params.embed_re.T + 1j * (stems @ params.embed_im.T)
    levels = [states]
    for lvl in range(cfg.n_levels):
        if params.disentanglers is not None:
            states = disentangle_layer(states, params.disentanglers[lvl], 0)
            states = disentangle_layer(states, params.disentanglers[lvl], 1)
        pairs = states.reshape(xs.shape[0], -1, 2 * cfg.d_loc)
        states = _safe_normalize(_gemv(params.isometries[lvl].conj().T, pairs))
        levels.append(states)
    return levels


def _encode_rows(xs, params) -> np.ndarray:
    # the one encoder path of every kind, over a checked (B, 784) stack
    if params.config.kind == "mps":
        top = _mps_states(xs, params)
    else:
        top = _tree_levels(xs, params)[-1][:, 0]
    return _gemv(params.proj, realify(top))


def encode_batch(xs, params) -> np.ndarray:
    """The (m, d) latents of the rows of an (m, 784) array, _CHUNK_ROWS rows at a time."""
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[1] != IMAGE_PIXELS:
        raise ValueError(f"expected (m, 784), got {xs.shape}")
    bad = ~np.isfinite(xs).all(axis=1)
    if bad.any():
        raise ValueError(f"input row {np.flatnonzero(bad)[0]} contains non-finite values")
    out = np.empty((xs.shape[0], params.proj.shape[0]))
    for start in range(0, xs.shape[0], _CHUNK_ROWS):
        out[start:start + _CHUNK_ROWS] = _encode_rows(xs[start:start + _CHUNK_ROWS], params)
    return out


def isometry_check(params) -> float:
    """Max deviation of any core/isometry/disentangler from exact isometry."""
    if isinstance(params, MpsParams):
        r, dp = params.config.bond, params.config.d_phys
        stacks = [params.cores.reshape(-1, r * dp, r)]
    elif isinstance(params, TreeParams):
        stacks = [params.isometries]
        if params.disentanglers is not None:  # unitary: U^dagger U and U U^dagger
            stacks += [params.disentanglers, params.disentanglers.conj().swapaxes(-1, -2)]
    else:
        raise TypeError(f"unsupported params type {type(params).__name__}")
    return max(float(np.abs(m.conj().swapaxes(-1, -2) @ m - np.eye(m.shape[-1])).max(initial=0.0))
               for m in stacks)


# ---------------------------------------------------------------------------
# parameter bundles, on the shared container format (see container.py)

def _entries(params) -> dict:
    # every parameter array in field order, the bundle's entry order; ttn has no disentanglers
    return {f.name: getattr(params, f.name) for f in dataclasses.fields(params)[1:]
            if getattr(params, f.name) is not None}


def save_params(params, path) -> None:
    entries = [(name, np.asarray(arr)) for name, arr in _entries(params).items()]
    write_container(path, params.config.kind, dataclasses.asdict(params.config), entries,
                    extra={"seed": params.config.seed})


def load_params(path):
    """Read a parameter bundle back; raises ValueError on any inconsistency.

    The entries must be, by name and shape, the arrays that make_frontend draws
    for the bundle's config.
    """
    header, arrays = read_container(path)
    cfg = FrontendConfig(**header["config"])
    if header.get("kind") != cfg.kind:
        raise ValueError("bundle kind disagrees with its config")
    ref = make_frontend(cfg)
    expected = {name: arr.shape for name, arr in _entries(ref).items()}
    if set(arrays) != set(expected):
        raise ValueError("bundle entry names do not match the frontend kind")
    for name, arr in arrays.items():
        if arr.shape != expected[name]:
            raise ValueError(f"entry {name} has shape {arr.shape}, expected {expected[name]}")
    return dataclasses.replace(ref, **arrays)
