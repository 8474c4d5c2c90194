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
    it coincide with the TTN exactly, so tree_encode serves both kinds.
  * realify(psi) = [Re(psi); Im(psi)], then a fixed seeded projection.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .container import read_container, write_container

__all__ = [
    "FrontendConfig",
    "MpsParams",
    "TreeParams",
    "make_frontend",
    "qr_isometry",
    "patchify",
    "unpatchify",
    "realify",
    "mps_encode",
    "tree_encode",
    "encode",
    "encode_batch",
    "mps_state",
    "mps_site_vectors",
    "tree_levels",
    "disentangle_layer",
    "isometry_check",
    "save_params",
    "load_params",
]

IMAGE_SIDE = 28
IMAGE_PIXELS = IMAGE_SIDE * IMAGE_SIDE

_LN_EPS = 1e-5
_DEGENERATE_NORM = 1e-12

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

    kind is one of "mps", "ttn", "mera".  h is the MPS pre-feature width,
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
        if self.kind not in ("mps", "ttn", "mera"):
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


def patchify(image: np.ndarray, patch: int = 7) -> np.ndarray:
    """Cut a 28x28 image into row-major patch x patch tiles, each flattened row-major."""
    image = np.asarray(image, dtype=np.float64)
    if image.shape != (IMAGE_SIDE, IMAGE_SIDE):
        raise ValueError(f"expected shape (28, 28), got {image.shape}")
    g = IMAGE_SIDE // patch
    tiles = image.reshape(g, patch, g, patch).transpose(0, 2, 1, 3)
    return tiles.reshape(g * g, patch * patch)


def unpatchify(patches: np.ndarray) -> np.ndarray:
    patches = np.asarray(patches, dtype=np.float64)
    if patches.shape != (16, 49):
        raise ValueError(f"expected shape (16, 49), got {patches.shape}")
    g = IMAGE_SIDE // 7
    tiles = patches.reshape(g, g, 7, 7).transpose(0, 2, 1, 3)
    return tiles.reshape(IMAGE_SIDE, IMAGE_SIDE)


def realify(psi: np.ndarray) -> np.ndarray:
    """[Re(psi); Im(psi)]; preserves the 2-norm."""
    psi = np.asarray(psi)
    return np.concatenate([psi.real, psi.imag]).astype(np.float64)


def _layer_norm(v):
    return (v - v.mean()) / np.sqrt(v.var() + _LN_EPS)


def _relu(v):
    return np.maximum(v, 0.0)


def _rng(seed: int, label: int) -> np.random.Generator:
    return np.random.default_rng([seed, label])


def _complex_gaussian(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _safe_normalize(w, fallback=None):
    # degenerate updates pass the fallback (or the raw vector) through
    n = np.linalg.norm(w)
    if n <= _DEGENERATE_NORM:
        return w if fallback is None else fallback
    return w / n


def make_frontend(config: FrontendConfig):
    """Draw a full parameter set for the configured kind, deterministically."""
    seed = config.seed
    if config.kind == "mps":
        premap = _rng(seed, _S_PREMAP)
        w = premap.standard_normal((config.h, IMAGE_PIXELS)) / np.sqrt(IMAGE_PIXELS)
        b = 0.1 * premap.standard_normal(config.h)
        emb = _rng(seed, _S_EMBED)
        e_re = emb.standard_normal((config.d_phys, config.block)) / np.sqrt(config.block)
        e_im = emb.standard_normal((config.d_phys, config.block)) / np.sqrt(config.block)
        core_rng = _rng(seed, _S_CORES)
        r, dp = config.bond, config.d_phys
        cores = np.empty((config.l_sites, r, dp, r), dtype=np.complex128)
        for k in range(config.l_sites):
            q = qr_isometry(_complex_gaussian(core_rng, (r * dp, r)))
            cores[k] = q.reshape(r, dp, r)
        proj_rng = _rng(seed, _S_PROJ)
        proj = proj_rng.standard_normal((config.d, 2 * r)) / np.sqrt(2 * r)
        return MpsParams(config, w, b, e_re, e_im, cores, proj)

    stem_rng = _rng(seed, _S_STEM)
    patch_dim = config.patch * config.patch
    stem_w = stem_rng.standard_normal((config.d_p, patch_dim)) / np.sqrt(patch_dim)
    stem_b = 0.1 * stem_rng.standard_normal(config.d_p)
    emb = _rng(seed, _S_TREE_EMBED)
    e_re = emb.standard_normal((config.d_loc, config.d_p)) / np.sqrt(config.d_p)
    e_im = emb.standard_normal((config.d_loc, config.d_p)) / np.sqrt(config.d_p)
    iso_rng = _rng(seed, _S_ISOMETRY)
    dl = config.d_loc
    isometries = np.empty((config.n_levels, 2 * dl, dl), dtype=np.complex128)
    for lvl in range(config.n_levels):
        isometries[lvl] = qr_isometry(_complex_gaussian(iso_rng, (2 * dl, dl)))
    disentanglers = None
    if config.kind == "mera":
        dis_rng = _rng(seed, _S_DISENT)
        disentanglers = np.empty((config.n_levels, 2 * dl, 2 * dl), dtype=np.complex128)
        for lvl in range(config.n_levels):
            disentanglers[lvl] = qr_isometry(_complex_gaussian(dis_rng, (2 * dl, 2 * dl)))
    proj_rng = _rng(seed, _S_PROJ)
    proj = proj_rng.standard_normal((config.d, 2 * dl)) / np.sqrt(2 * dl)
    return TreeParams(config, stem_w, stem_b, e_re, e_im, isometries, disentanglers, proj)


def _check_input(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if x.shape != (IMAGE_PIXELS,):
        raise ValueError(f"expected a flat 784 input, got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("input contains non-finite values")
    return x


def mps_site_vectors(x, params: MpsParams) -> np.ndarray:
    """Embedded per-site complex vectors, shape (l_sites, d_phys)."""
    cfg = params.config
    x = _check_input(x)
    pre = _relu(_layer_norm(params.premap_w @ x + params.premap_b))
    blocks = pre.reshape(cfg.l_sites, cfg.block)
    return blocks @ params.embed_re.T + 1j * (blocks @ params.embed_im.T)


def mps_state(x, params: MpsParams) -> np.ndarray:
    """Final bond-space state (unit norm unless every update degenerated)."""
    cfg = params.config
    z = mps_site_vectors(x, params)
    v = np.zeros(cfg.bond, dtype=np.complex128)
    v[0] = 1.0  # boundary state e_1
    for k in range(cfg.l_sites):
        w = np.einsum("a,asb,s->b", v, params.cores[k], z[k])
        v = _safe_normalize(w, fallback=v)
    return v


def mps_encode(x, params: MpsParams) -> np.ndarray:
    if params.config.kind != "mps":
        raise ValueError("params are not an mps frontend")
    return params.proj @ realify(mps_state(x, params))


def _tree_leaves(x, params: TreeParams) -> np.ndarray:
    cfg = params.config
    x = _check_input(x)
    patches = patchify(x.reshape(IMAGE_SIDE, IMAGE_SIDE), cfg.patch)
    stems = np.empty((cfg.n_patches, cfg.d_p))
    for p in range(cfg.n_patches):
        stems[p] = _relu(_layer_norm(params.stem_w @ patches[p] + params.stem_b))
    return stems @ params.embed_re.T + 1j * (stems @ params.embed_im.T)


def disentangle_layer(states: np.ndarray, u: np.ndarray, parity: int) -> np.ndarray:
    """Apply a shared 2d_loc unitary to adjacent pairs starting at `parity`.

    parity 0 hits (0,1), (2,3), ...; parity 1 hits (1,2), (3,4), ... with no
    wrap-around, so boundary sites pass through untouched.
    """
    if parity not in (0, 1):
        raise ValueError("parity must be 0 or 1")
    states = np.array(states, dtype=np.complex128, copy=True)
    n, dl = states.shape
    for i in range(parity, n - 1, 2):
        pair = u @ np.concatenate([states[i], states[i + 1]])
        states[i], states[i + 1] = pair[:dl], pair[dl:]
    return states


def tree_levels(x, params: TreeParams) -> list:
    """All intermediate states: level 0 leaves, then each merged level.

    For mera params the returned levels are post-disentangle, post-merge.
    """
    cfg = params.config
    states = _tree_leaves(x, params)
    levels = [states]
    for lvl in range(cfg.n_levels):
        if params.disentanglers is not None:
            states = disentangle_layer(states, params.disentanglers[lvl], 0)
            states = disentangle_layer(states, params.disentanglers[lvl], 1)
        q = params.isometries[lvl]
        merged = np.empty((states.shape[0] // 2, cfg.d_loc), dtype=np.complex128)
        for i in range(merged.shape[0]):
            raw = q.conj().T @ np.concatenate([states[2 * i], states[2 * i + 1]])
            merged[i] = _safe_normalize(raw)
        states = merged
        levels.append(states)
    return levels


def tree_encode(x, params: TreeParams) -> np.ndarray:
    """TTN or MERA latent: the projected, realified root of tree_levels."""
    if params.config.kind not in ("ttn", "mera"):
        raise ValueError("params are not a tree (ttn or mera) frontend")
    return params.proj @ realify(tree_levels(x, params)[-1][0])


_ENCODERS = {"mps": mps_encode, "ttn": tree_encode, "mera": tree_encode}


def encode(x, params) -> np.ndarray:
    """Dispatch on params.config.kind; output is a real d-vector."""
    return _ENCODERS[params.config.kind](x, params)


def encode_batch(xs, params) -> np.ndarray:
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[1] != IMAGE_PIXELS:
        raise ValueError(f"expected (m, 784), got {xs.shape}")
    fn = _ENCODERS[params.config.kind]
    return np.stack([fn(xs[i], params) for i in range(xs.shape[0])])


def isometry_check(params) -> float:
    """Max deviation of any core/isometry/disentangler from exact isometry."""
    devs = [0.0]
    if isinstance(params, MpsParams):
        r, dp = params.config.bond, params.config.d_phys
        eye = np.eye(r)
        for k in range(params.config.l_sites):
            m = params.cores[k].reshape(r * dp, r)
            devs.append(float(np.abs(m.conj().T @ m - eye).max()))
    elif isinstance(params, TreeParams):
        dl = params.config.d_loc
        eye = np.eye(dl)
        eye2 = np.eye(2 * dl)
        for lvl in range(params.config.n_levels):
            q = params.isometries[lvl]
            devs.append(float(np.abs(q.conj().T @ q - eye).max()))
            if params.disentanglers is not None:
                u = params.disentanglers[lvl]
                devs.append(float(np.abs(u.conj().T @ u - eye2).max()))
                devs.append(float(np.abs(u @ u.conj().T - eye2).max()))
    else:
        raise TypeError(f"unsupported params type {type(params).__name__}")
    return max(devs)


# ---------------------------------------------------------------------------
# parameter bundles, on the shared container format (see container.py)

_MPS_ENTRIES = ("premap_w", "premap_b", "embed_re", "embed_im", "cores", "proj")
_TREE_ENTRIES = ("stem_w", "stem_b", "embed_re", "embed_im", "isometries", "disentanglers", "proj")


def _bundle_entries(params):
    names = _MPS_ENTRIES if isinstance(params, MpsParams) else _TREE_ENTRIES
    out = []
    for name in names:
        arr = getattr(params, name)
        if arr is None:
            continue
        out.append((name, np.asarray(arr)))
    return out


def save_params(params, path) -> None:
    write_container(
        path,
        params.config.kind,
        dataclasses.asdict(params.config),
        _bundle_entries(params),
        extra={"seed": params.config.seed},
    )


def _expected_shapes(cfg: FrontendConfig) -> dict:
    if cfg.kind == "mps":
        return {
            "premap_w": (cfg.h, IMAGE_PIXELS),
            "premap_b": (cfg.h,),
            "embed_re": (cfg.d_phys, cfg.block),
            "embed_im": (cfg.d_phys, cfg.block),
            "cores": (cfg.l_sites, cfg.bond, cfg.d_phys, cfg.bond),
            "proj": (cfg.d, 2 * cfg.bond),
        }
    shapes = {
        "stem_w": (cfg.d_p, cfg.patch * cfg.patch),
        "stem_b": (cfg.d_p,),
        "embed_re": (cfg.d_loc, cfg.d_p),
        "embed_im": (cfg.d_loc, cfg.d_p),
        "isometries": (cfg.n_levels, 2 * cfg.d_loc, cfg.d_loc),
        "proj": (cfg.d, 2 * cfg.d_loc),
    }
    if cfg.kind == "mera":
        shapes["disentanglers"] = (cfg.n_levels, 2 * cfg.d_loc, 2 * cfg.d_loc)
    return shapes


def load_params(path):
    """Read a parameter bundle back; raises ValueError on any inconsistency."""
    header, arrays = read_container(path)
    cfg = FrontendConfig(**header["config"])
    if header.get("kind") != cfg.kind:
        raise ValueError("bundle kind disagrees with its config")
    expected = _expected_shapes(cfg)
    if set(arrays) != set(expected):
        raise ValueError("bundle entry names do not match the frontend kind")
    for name, arr in arrays.items():
        if arr.shape != expected[name]:
            raise ValueError(f"entry {name} has shape {arr.shape}, expected {expected[name]}")

    if cfg.kind == "mps":
        return MpsParams(cfg, arrays["premap_w"], arrays["premap_b"], arrays["embed_re"],
                         arrays["embed_im"], arrays["cores"], arrays["proj"])
    return TreeParams(cfg, arrays["stem_w"], arrays["stem_b"], arrays["embed_re"],
                      arrays["embed_im"], arrays["isometries"],
                      arrays.get("disentanglers"), arrays["proj"])
