"""End-to-end demo: client encodings, weighted aggregation, QEP, readout.

The flow mirrors a one-shot federated round.  Every image lives on exactly
one of n clients; each sample becomes one aggregation event in which the
owner contributes its encoded latent and every other client a zero vector,
so event traffic never depends on who holds the data.  Plain events are
built and aggregated as one stack per chunk of samples; secure events stay
one protocol round per sample.  The decoded aggregate is optionally refined
by the quantum processor, then an affine two-class softmax readout plus a
validated threshold turns latents into labels.  The threshold search counts
the confusion matrix at every candidate from one sort of each class's scores.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass, replace
from typing import Callable, Optional

import numpy as np

from . import bench, qep, tn
from .mpc import CostReport
from .qsim import NOISE_KINDS, NoiseSpec
from .tn import FRONTEND_KINDS, IMAGE_SIDE

# aggregation events are stacked, and synthetic images finished, this
# many samples at a time; at n=16, d=64 an event chunk is 256 KiB, where a
# 400-sample stack would be 3.3 MiB, and an image chunk's scratch is 196 KiB
_CHUNK_ROWS = 32

# pipeline-owned seed stream labels; tn uses 1x/2x/3x, qep 4x
_S_SYNTH = 71


# ---------------------------------------------------------------- aggregation


def _check_weights(w: np.ndarray) -> None:
    if not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite")
    if np.any(w < 0.0):
        raise ValueError("weights must be nonnegative")
    if not w.sum() > 0.0:
        raise ValueError("weights must have a positive sum")


def aggregate_plain(features, weights, epsilon: float = 1e-6) -> np.ndarray:
    """x = (sum_i w_i f_i) / (sum_i w_i + epsilon), elementwise over d.

    features is one (n, d) event or an (m, n, d) stack of events, which
    gives (m, d).  The stacked matmul runs one vector-matrix product per
    event, the same one that a single event runs, so each row keeps its bytes.
    """
    features = np.asarray(features, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if features.ndim not in (2, 3):
        raise ValueError(f"features must be (n, d) or (m, n, d), got {features.shape}")
    if weights.shape != (features.shape[-2],):
        raise ValueError(f"need one weight per client, got {weights.shape}")
    if not epsilon > 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    _check_weights(weights)
    return np.matmul(weights, features) / (weights.sum() + epsilon)


def aggregate_secure(features, weights, cfg: bench.BenchConfig, seed: int = 0):
    """Weighted mean of the (cfg.n, cfg.d) features under the 3-party protocol
    (cost scenario 2); returns (x_agg, CostReport).

    The domain checks run before any protocol message, so an all-zero
    weight vector cannot leak a round of traffic.  seed is anything
    np.random.default_rng accepts; the session draws its share masks from it.
    """
    _check_weights(np.asarray(weights, dtype=np.float64))
    return bench.execute_scenario(cfg, 2, features, weights, seed=seed)


# ----------------------------------------------------------------------- data


@dataclass(frozen=True)
class LabeledBatch:
    """28x28 grayscale images in [0, 1] with binary labels (1 = positive)."""

    images: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        images = np.asarray(self.images, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if images.ndim != 3 or images.shape[1:] != (IMAGE_SIDE, IMAGE_SIDE):
            raise ValueError(f"images must be (m, 28, 28), got {images.shape}")
        if labels.shape != (images.shape[0],):
            raise ValueError("one label per image")
        # min and max carry a NaN through, and every comparison with NaN is False
        if images.size and not (images.min() >= 0.0 and images.max() <= 1.0):
            raise ValueError("pixels must be finite and lie in [0, 1]")
        if labels.size and not np.isin(labels, (0, 1)).all():
            raise ValueError("labels must be 0 or 1")
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.images.shape[0]

    def take(self, idx) -> "LabeledBatch":
        return LabeledBatch(self.images[idx], self.labels[idx])


def synth_data(n_samples: int, seed: int = 0) -> LabeledBatch:
    """Two-class blob images: class 0 lights the upper half, class 1 the lower.

    Each image is a Gaussian bump at a jittered class center plus pixel
    noise, clipped to [0, 1].  Labels alternate 0, 1, 0, 1 so any contiguous
    slice stays near-balanced.

    Only the draws run per sample, in the stream's order: two uniforms for
    the jitter, then the pixel normals straight into the image.  The images
    are then finished _CHUNK_ROWS at a time in place, with the arithmetic of
    Generator.uniform(-1.0, 1.0) (-1.0 + 2.0 u), Generator.normal(0.0, 0.05)
    (0.0 + 0.05 z) and one image at a time, so every byte matches a
    per-sample loop of those calls.
    """
    if n_samples < 2:
        raise ValueError(f"need at least two samples, got {n_samples}")
    rng = tn._rng(seed, _S_SYNTH)
    labels = np.arange(n_samples, dtype=np.int64) % 2
    u = np.empty((n_samples, 2))
    images = np.empty((n_samples, IMAGE_SIDE, IMAGE_SIDE))
    for i in range(n_samples):
        rng.random(out=u[i])
        rng.standard_normal(out=images[i])
    centers = np.array(((9.0, 14.0), (19.0, 14.0)))[labels] + (-1.0 + 2.0 * u)
    axis = np.arange(IMAGE_SIDE, dtype=np.float64)
    bump = np.empty((min(_CHUNK_ROWS, n_samples), IMAGE_SIDE, IMAGE_SIDE))
    for lo in range(0, n_samples, _CHUNK_ROWS):
        noise = images[lo : lo + _CHUNK_ROWS]
        b = bump[: len(noise)]
        cr, cc = centers[lo : lo + _CHUNK_ROWS, :, None].transpose(1, 0, 2)
        # (rows - cr)**2 + (cols - cc)**2 from one row and one column term per image
        np.add(np.square(axis - cr)[:, :, None], np.square(axis - cc)[:, None, :], out=b)
        np.negative(b, out=b)
        np.divide(b, 2.0 * 5.0**2, out=b)
        np.exp(b, out=b)
        np.multiply(b, 0.9, out=b)
        np.multiply(noise, 0.05, out=noise)
        np.add(noise, 0.0, out=noise)
        np.add(b, noise, out=noise)
        np.clip(noise, 0.0, 1.0, out=noise)
    return LabeledBatch(images, labels)


def _owners(labels, n_clients: int) -> np.ndarray:
    """Each label's samples dealt round-robin over the clients: a sample's owner is
    its rank among the samples of its label, mod n_clients.

    Per-client counts of every label land within one of proportional.
    """
    labels = np.asarray(labels)
    owners = np.empty(labels.size, dtype=np.int64)
    for lab in np.unique(labels):
        idx = np.flatnonzero(labels == lab)
        owners[idx] = np.arange(idx.size) % n_clients
    return owners


# ------------------------------------------------------------------ IDX files

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


def _read_exact(fh, count: int, path, what: str) -> bytes:
    buf = fh.read(count)
    if len(buf) != count:
        raise ValueError(
            f"{path}: truncated {what} at offset {fh.tell() - len(buf)}, "
            f"wanted {count} bytes, got {len(buf)}"
        )
    return buf


def _read_idx(path, magic: int, n_dims: int):
    with open(path, "rb") as fh:
        got = struct.unpack(">I", _read_exact(fh, 4, path, "magic"))[0]
        if got != magic:
            raise ValueError(
                f"{path}: bad magic 0x{got:08x} at offset 0, expected 0x{magic:08x}"
            )
        dims = struct.unpack(f">{n_dims}I", _read_exact(fh, 4 * n_dims, path, "dimension header"))
        count = int(np.prod(dims))
        data = np.frombuffer(_read_exact(fh, count, path, "pixel payload"), dtype=np.uint8)
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes after the {count}-byte payload")
    return dims, data.reshape(dims)


def load_idx(images_path, labels_path) -> LabeledBatch:
    """Read an IDX image/label file pair; pixels come back scaled to [0, 1]."""
    idims, images = _read_idx(images_path, IDX_IMAGE_MAGIC, 3)
    ldims, labels = _read_idx(labels_path, IDX_LABEL_MAGIC, 1)
    if idims[0] != ldims[0]:
        raise ValueError(
            f"{images_path} holds {idims[0]} images but {labels_path} holds "
            f"{ldims[0]} labels"
        )
    if idims[1:] != (IMAGE_SIDE, IMAGE_SIDE):
        raise ValueError(f"expected 28x28 images, got {idims[1]}x{idims[2]}")
    return LabeledBatch(images.astype(np.float64) / 255.0, labels.astype(np.int64))


# -------------------------------------------------------------------- readout


@dataclass(frozen=True)
class ReadoutParams:
    """Affine d -> 2 softmax head with the standardization baked in."""

    w: np.ndarray
    b: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray
    loss_history: tuple = ()


def _softmax_rows(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Softmax of (m, 2) logits, into out when given.

    The two-column maximum and sum are the same IEEE operations as
    max(axis=1) and sum(axis=1) over rows of two, without numpy's generic
    reduction loop.
    """
    z = z - np.maximum(z[:, 0], z[:, 1])[:, None]
    e = np.exp(z)
    return np.divide(e, (e[:, 0] + e[:, 1])[:, None], out=out)


def readout_loss(w, b, features, labels, class_weights=(1.0, 1.0), *, probs=None) -> float:
    """Class-weighted cross-entropy, normalized by the total sample weight.

    probs, an (m, 2) float64 array, receives the softmax rows when given.
    """
    p = _softmax_rows(np.asarray(features) @ np.asarray(w).T + np.asarray(b), out=probs)
    labels = np.asarray(labels)
    cw = np.asarray(class_weights, dtype=np.float64)[labels]
    nll = -np.log(np.clip(p[np.arange(labels.size), labels], 1e-300, None))
    return float((cw * nll).sum() / cw.sum())


def _grad_from_probs(p: np.ndarray, features: np.ndarray, labels: np.ndarray, cw: np.ndarray):
    """(dL/dw, dL/db) from p, the softmax rows at (w, b), which it overwrites; cw holds
    each row's class weight."""
    # p minus the one-hot: p - 0.0 == p for p >= 0, so only the label column moves
    p[np.arange(labels.size), labels] -= 1.0
    g = cw[:, None] * p / cw.sum()
    return g.T @ features, g.sum(axis=0)


def readout_grad(w, b, features, labels, class_weights=(1.0, 1.0)):
    """Analytic (dL/dw, dL/db) for readout_loss."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    p = _softmax_rows(features @ np.asarray(w).T + np.asarray(b))
    return _grad_from_probs(p, features, labels, np.asarray(class_weights, dtype=np.float64)[labels])


def train_readout(features, labels, class_weights=(1.0, 1.0), steps: int = 300,
                  lr: float = 0.5) -> ReadoutParams:
    """Full-batch gradient descent from zero init on standardized features.

    The step halves whenever it would increase the loss, so the recorded
    trajectory is non-increasing; the objective is convex, so the guard
    only ever fires near machine precision or after an over-eager step.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if features.ndim != 2 or labels.shape != (features.shape[0],):
        raise ValueError("features must be (m, d) with one label per row")
    if features.shape[0] < 2:
        raise ValueError("need at least two samples")
    if not np.array_equal(np.unique(labels), [0, 1]):
        raise ValueError("training needs both classes present")
    if len(class_weights) != 2 or min(class_weights) <= 0.0:
        raise ValueError("class_weights must be two positive reals")

    mu = features.mean(axis=0)
    sigma = features.std(axis=0)
    sigma = np.where(sigma < 1e-8, 1.0, sigma)
    z = (features - mu) / sigma

    w = np.zeros((2, features.shape[1]))
    b = np.zeros(2)
    cw = np.asarray(class_weights, dtype=np.float64)[labels]
    # the softmax rows at (w, b) and at the candidate: an accepted candidate's rows are
    # the next gradient's, which readout_grad would compute again from the same operands
    probs, cand_probs = np.empty((len(z), 2)), np.empty((len(z), 2))
    losses = [readout_loss(w, b, z, labels, class_weights, probs=probs)]
    step, grad = float(lr), None
    for _ in range(steps):
        if grad is None:  # a stalled step leaves (w, b), so its gradient stands
            grad = _grad_from_probs(probs, z, labels, cw)
        gw, gb = grad
        accepted = False
        while step >= 1e-12:
            cand_w, cand_b = w - step * gw, b - step * gb
            cand = readout_loss(cand_w, cand_b, z, labels, class_weights, probs=cand_probs)
            if cand <= losses[-1]:
                w, b = cand_w, cand_b
                probs, cand_probs, grad = cand_probs, probs, None
                losses.append(cand)
                accepted = True
                break
            step *= 0.5
        if not accepted:
            losses.append(losses[-1])  # stalled at machine precision
        else:
            step = min(step * 1.1, 10.0 * lr)
    return ReadoutParams(w=w, b=b, mu=mu, sigma=sigma, loss_history=tuple(losses))


def readout_scores(params: ReadoutParams, features) -> np.ndarray:
    """Positive-class probability per row."""
    z = (np.asarray(features, dtype=np.float64) - params.mu) / params.sigma
    return _softmax_rows(z @ params.w.T + params.b)[:, 1]


# ----------------------------------------------------------------- thresholds


def _ratios(num, den) -> np.ndarray:
    """num / den elementwise, and 0.0 where den is 0."""
    num = np.asarray(num, dtype=np.float64)
    return np.divide(num, den, out=np.zeros(num.shape), where=np.asarray(den) != 0)


def _count_at_least(ascending: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """How many of the NaN-free sorted values are >= each tau; none for a NaN tau."""
    counts = ascending.size - np.searchsorted(ascending, taus, side="left")
    counts[np.isnan(taus)] = 0
    return counts


@dataclass(frozen=True)
class EvalReport:
    """Confusion metrics at a fixed threshold; class order (negative, positive)."""

    threshold: float
    accuracy: float
    precision: tuple
    recall: tuple
    f1: tuple
    confusion: tuple  # (tn, fp, fn, tp)
    n: int

    def __post_init__(self):
        rates = (self.accuracy, *self.precision, *self.recall, *self.f1)
        if any(not 0.0 <= r <= 1.0 for r in rates):
            raise ValueError("all rates must lie in [0, 1]")
        if len(self.confusion) != 4 or any(c < 0 for c in self.confusion):
            raise ValueError("confusion must be four nonnegative counts")
        if sum(self.confusion) != self.n:
            raise ValueError("confusion counts must sum to n")

    def to_dict(self) -> dict:
        tn_, fp, fn, tp = self.confusion
        return {
            "threshold": self.threshold,
            "accuracy": self.accuracy,
            "precision": list(self.precision),
            "recall": list(self.recall),
            "f1": list(self.f1),
            "confusion": {"tn": tn_, "fp": fp, "fn": fn, "tp": tp},
            "n": self.n,
        }


def evaluate(scores, labels, tau: float) -> EvalReport:
    """Tabulate at threshold tau; score >= tau predicts the positive class.

    Zero-denominator precision/recall collapse to 0 rather than raising.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pred = scores >= tau
    actual = labels == 1
    tp = int(np.sum(pred & actual))
    fp = int(np.sum(pred & ~actual))
    fn = int(np.sum(~pred & actual))
    tn_ = int(np.sum(~pred & ~actual))
    prec = _ratios([tn_, tp], [tn_ + fn, tp + fp])
    rec = _ratios([tn_, tp], [tn_ + fp, tp + fn])
    f1 = _ratios(2.0 * prec * rec, prec + rec)
    return EvalReport(
        threshold=float(tau),
        accuracy=float(_ratios(tp + tn_, scores.size)),
        precision=tuple(map(float, prec)),
        recall=tuple(map(float, rec)),
        f1=tuple(map(float, f1)),
        confusion=(tn_, fp, fn, tp),
        n=int(scores.size),
    )


def threshold_candidates(scores) -> np.ndarray:
    """Midpoints of adjacent sorted unique scores plus the two sentinels.

    NaN scores are dropped, since no tau counts them; adjacent -inf and +inf
    have the midpoint 0.0.  So no candidate is NaN.
    """
    scores = np.asarray(scores, dtype=np.float64)
    u = np.unique(scores[~np.isnan(scores)])
    lo, hi = u[:-1], u[1:]
    mids = np.add(lo, hi, out=np.zeros_like(lo), where=~(np.isneginf(lo) & np.isposinf(hi)))
    return np.concatenate([[-np.inf], mids / 2.0, [np.inf]])


def select_threshold(scores, labels, metric: str = "youden") -> float:
    """tau maximizing Youden's J = TPR - FPR (or positive-class F1).

    Ties resolve toward the lower tau, i.e. toward higher recall.
    """
    if metric not in ("youden", "f1"):
        raise ValueError(f"metric must be 'youden' or 'f1', got {metric!r}")
    labels = np.asarray(labels)
    if labels.size == 0 or len(np.unique(labels)) < 2:
        raise ValueError("threshold selection needs both classes present")
    scores = np.asarray(scores, dtype=np.float64)
    taus = threshold_candidates(scores)
    # confusion counts at every candidate from one sort per class, as in
    # evaluate: score >= tau predicts positive, and a NaN score never does
    actual = labels == 1
    known = ~np.isnan(scores)
    tp = _count_at_least(np.sort(scores[actual & known]), taus)
    fp = _count_at_least(np.sort(scores[~actual & known]), taus)
    n_pos = int(np.sum(actual))
    if metric == "youden":
        val = _ratios(tp, n_pos) - _ratios(fp, labels.size - n_pos)
    else:
        prec, rec = _ratios(tp, tp + fp), _ratios(tp, n_pos)
        val = _ratios(2.0 * prec * rec, prec + rec)  # evaluate's F1
    # candidates ascend and argmax takes the first maximum: the lowest maximizing tau
    return float(taus[np.argmax(val)])


# ----------------------------------------------------------------------- demo

DEMO_MODES = ("classical", "quantum")


@dataclass(frozen=True)
class DemoConfig:
    """One end-to-end run, fully determined by its fields; JSON-echoable."""

    kind: str = "ttn"
    observables: str = "nearest_neighbor"
    seed: int = 0
    n_q: int = 8
    mode: str = "quantum"
    noise: Optional[NoiseSpec] = None
    secure: bool = False
    n_clients: int = 16
    n_train: int = 400
    n_test: int = 100
    d: int = 64
    layers: int = 2
    scale: float = 0.5
    beta: float = 0.5
    epsilon: float = 1e-6
    fraction_bits: int = 20
    k: int = 64
    theta: int = 5
    train_steps: int = 300
    lr: float = 0.5
    class_weights: tuple = (1.0, 1.0)
    threshold_metric: str = "youden"

    def __post_init__(self):
        if self.kind not in FRONTEND_KINDS:
            raise ValueError(f"kind must be one of {FRONTEND_KINDS}, got {self.kind!r}")
        if self.mode not in DEMO_MODES:
            raise ValueError(f"mode must be one of {DEMO_MODES}, got {self.mode!r}")
        if self.observables not in qep.OBSERVABLE_MODES:
            raise ValueError(f"unknown observable mode {self.observables!r}")
        if self.noise is not None and not isinstance(self.noise, NoiseSpec):
            raise TypeError("noise must be a NoiseSpec or None")
        if self.n_q < 2:
            raise ValueError(f"the processor needs n_q >= 2 qubits, got {self.n_q}")
        self.bench_config()  # checks the clients and the ring settings before any run
        if self.n_train < 2 or self.n_test < 1:
            raise ValueError("need n_train >= 2 and n_test >= 1")
        if len(self.class_weights) != 2:
            raise ValueError("class_weights must be a pair")
        if self.threshold_metric not in ("youden", "f1"):
            raise ValueError(f"unknown threshold metric {self.threshold_metric!r}")
        object.__setattr__(self, "class_weights", tuple(float(v) for v in self.class_weights))

    def bench_config(self) -> bench.BenchConfig:
        """The aggregation's configuration: clients, latent width and ring settings."""
        return bench.BenchConfig(n=self.n_clients, d=self.d, k=self.k, theta=self.theta,
                                 fraction_bits=self.fraction_bits, epsilon=self.epsilon)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class DemoReport:
    """Config echo plus metrics, processor diagnostics, and traffic."""

    config: dict
    metrics: EvalReport
    diagnostics: qep.QepDiagnostics
    cost: CostReport

    def to_json(self) -> str:
        payload = {
            "config": self.config,
            "metrics": self.metrics.to_dict(),
            "diagnostics": asdict(self.diagnostics),
            "cost": {**asdict(self.cost), "total_bits": self.cost.total_bits},
        }
        return json.dumps(payload, sort_keys=True, indent=2)

    def summary(self) -> dict:
        """The sweep columns of a run: accuracy, positive-class F1, alpha_mean and q_std."""
        return {"accuracy": self.metrics.accuracy, "f1": self.metrics.f1[1],
                "alpha_mean": self.diagnostics.alpha_mean, "q_std": self.diagnostics.q_std}


def _split(data: LabeledBatch, cfg: DemoConfig):
    m = len(data)
    if m >= cfg.n_train + cfg.n_test:
        n_tr, n_te = cfg.n_train, cfg.n_test
    else:
        n_te = max(1, m // 5)  # smaller batches keep the 4:1 feel
        n_tr = m - n_te
    if n_tr < 2:
        raise ValueError(f"batch of {m} samples is too small to split")
    return data.take(slice(n_tr)), data.take(slice(n_tr, n_tr + n_te))  # views, no copies


def _per_sample_aggregate(feats, owners, weights, acfg: bench.BenchConfig,
                          secure: bool, seed: int, split: int):
    """One aggregation event per sample; returns (x_agg rows, total cost).

    Each chunk of _CHUNK_ROWS samples builds one zero-padded (rows, n, d)
    stack of events.  Plain events go to aggregate_plain as the stack.
    Secure events run one protocol round each, and secure event s of a
    split draws its share masks from the stream [seed, split, s], so no two
    events reuse a mask.
    """
    m, d = feats.shape
    out = np.empty_like(feats)
    total = CostReport()
    for lo in range(0, m, _CHUNK_ROWS):
        rows = min(_CHUNK_ROWS, m - lo)
        events = np.zeros((rows, acfg.n, d))
        events[np.arange(rows), owners[lo:lo + rows]] = feats[lo:lo + rows]
        if secure:
            for s, event in enumerate(events, lo):
                out[s], rep = aggregate_secure(event, weights, acfg, seed=[seed, split, s])
                total = total + rep
        else:
            out[lo:lo + rows] = aggregate_plain(events, weights, acfg.epsilon)
    return out, total


def run_demo(cfg: DemoConfig, data: Optional[LabeledBatch] = None,
             gate: Optional[Callable] = None,
             qep_params: Optional[qep.QepParams] = None) -> DemoReport:
    """Run the full pipeline once and evaluate on the held-out split.

    gate is the post-decode hook applied to each aggregated latent before
    the processor (identity when None).  qep_params overrides the seeded
    processor draw, which keeps endpoint experiments (alpha pinned to an
    extreme) expressible without touching the config.
    """
    if data is None:
        data = synth_data(cfg.n_train + cfg.n_test, seed=cfg.seed)
    train, test = _split(data, cfg)

    frontend = tn.make_frontend(tn.FrontendConfig(kind=cfg.kind, d=cfg.d, seed=cfg.seed))
    feats_train = tn.encode_batch(train.images.reshape(len(train), -1), frontend)
    feats_test = tn.encode_batch(test.images.reshape(len(test), -1), frontend)

    # client weights are train sample counts; test events reuse them
    owners_train = _owners(train.labels, cfg.n_clients)
    weights = np.bincount(owners_train, minlength=cfg.n_clients).astype(np.float64)
    acfg = cfg.bench_config()
    x_train, cost_tr = _per_sample_aggregate(
        feats_train, owners_train, weights, acfg, cfg.secure, cfg.seed, 0)
    x_test, cost_te = _per_sample_aggregate(
        feats_test, _owners(test.labels, cfg.n_clients), weights, acfg, cfg.secure, cfg.seed, 1)
    cost = cost_tr + cost_te

    if gate is not None:
        x_train = np.stack([np.asarray(gate(x), dtype=np.float64) for x in x_train])
        x_test = np.stack([np.asarray(gate(x), dtype=np.float64) for x in x_test])

    if cfg.mode == "quantum":
        params = qep_params if qep_params is not None else qep.make_qep(
            d=cfg.d, n_q=cfg.n_q, layers=cfg.layers, scale=cfg.scale,
            beta=cfg.beta, mode=cfg.observables, seed=cfg.seed)
        f_all, diag = qep.qep_forward(
            np.concatenate([x_train, x_test]), params, noise=cfg.noise)
        f_train, f_test = f_all[: len(x_train)], f_all[len(x_train):]
    else:
        f_train, f_test = x_train, x_test
        diag = qep.QepDiagnostics(alpha_mean=0.0, q_std=0.0)

    readout = train_readout(f_train, train.labels, class_weights=cfg.class_weights,
                            steps=cfg.train_steps, lr=cfg.lr)
    tau = select_threshold(readout_scores(readout, f_train), train.labels,
                           metric=cfg.threshold_metric)
    metrics = evaluate(readout_scores(readout, f_test), test.labels, tau)
    return DemoReport(config=cfg.to_dict(), metrics=metrics, diagnostics=diag, cost=cost)


NOISE_SWEEP_KINDS = NOISE_KINDS


def noise_spec(kind: str, p: float, gamma: float) -> Optional[NoiseSpec]:
    """The NoiseSpec of a noise kind at strengths p and gamma; None for noiseless.
    NoiseSpec checks the kind and both strengths, for noiseless too."""
    spec = NoiseSpec(kind=kind, p=p, gamma_amp=gamma, gamma_phase=gamma)
    return None if spec.is_noiseless else spec


def noise_sweep(kinds=NOISE_SWEEP_KINDS, seeds=(0, 1, 2), n_q: int = DemoConfig.n_q,
                p: float = NoiseSpec.p, gamma: float = NoiseSpec.gamma_amp,
                config: Optional[DemoConfig] = None,
                data: Optional[LabeledBatch] = None):
    """One demo run per (noise kind, seed); records mirror the qubit sweep."""
    base = config if config is not None else DemoConfig()
    records = []
    for kind in kinds:
        noise = noise_spec(kind, p, gamma)
        for seed in seeds:
            cfg = replace(base, seed=int(seed), n_q=int(n_q), mode="quantum", noise=noise)
            report = run_demo(cfg, data=data)
            records.append({
                "noise_kind": kind,
                "seed": int(seed),
                "n_q": int(n_q),
                "p": 0.0 if noise is None else p,
                "gamma": 0.0 if noise is None else gamma,
                **report.summary(),
            })
    return records
