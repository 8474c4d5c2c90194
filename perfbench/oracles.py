"""Reference computations and output checks for the benchmark workloads.

Every reference here takes its own route to the answer: the aggregate is a
float64 formula, the circuit and channel evolutions contract gates and Kraus
operators on the qubit axes of a tensor, and the density-matrix properties
come straight from numpy.  Nothing is compared against stored output.

Each ``check_*`` function returns a list of problem strings; an empty list
means the check passed.
"""

from __future__ import annotations

import numpy as np

# 64 ulp of the F=20 fixed-point grid; the worst decode error seen on the
# secure path is about 6 ulp (5.9e-6).
DECODE_TOL = 64 * 2.0**-20
ISOMETRY_TOL = 1e-8
MERA_TTN_TOL = 1e-12
OBSERVABLE_TOL = 1e-10
DENSITY_TOL = 1e-10
MIN_ACCURACY = 0.90
SECURE_PLAIN_ACCURACY_GAP = 0.01

_LN_EPS = 1e-5
_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)


# ----------------------------------------------------------------- aggregation


def deal_owners(labels, n_clients: int) -> np.ndarray:
    """Client of each sample when every label's samples are dealt round-robin."""
    labels = np.asarray(labels)
    owners = np.empty(labels.size, dtype=np.int64)
    for lab in np.unique(labels):
        idx = np.flatnonzero(labels == lab)
        owners[idx] = np.arange(idx.size) % n_clients
    return owners


def expected_aggregates(feats, owners, weights, epsilon: float) -> np.ndarray:
    """One event per sample: only the owner contributes, x = w_o f / (sum w + eps)."""
    weights = np.asarray(weights, dtype=np.float64)
    return weights[owners][:, None] * np.asarray(feats) / (weights.sum() + epsilon)


def check_aggregates(got, want, tol: float = DECODE_TOL) -> list:
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        return [f"aggregate shape {got.shape}, expected {want.shape}"]
    err = float(np.abs(got - want).max())
    return [] if err <= tol else [f"decoded aggregate off by {err:.3e} (tolerance {tol:.3e})"]


def check_cost(got, per_event, events: int) -> list:
    want = per_event.scaled(events)
    return [] if got == want else [f"cost report {got} differs from {events} x {per_event}"]


def check_accuracy(label: str, accuracy: float, floor: float = MIN_ACCURACY) -> list:
    return [] if accuracy >= floor else [f"{label}: accuracy {accuracy:.4f} below {floor}"]


def check_accuracy_gap(secure: float, plain: float, gap: float = SECURE_PLAIN_ACCURACY_GAP) -> list:
    # 0.97 - 0.96 > 0.01 in binary floating point; a gap of exactly `gap` passes
    if abs(secure - plain) <= gap + 1e-12:
        return []
    return [f"secure accuracy {secure:.4f} differs from plain {plain:.4f} by more than {gap}"]


# --------------------------------------------------------------- tn frontends


def isometry_deviation(params) -> float:
    """Max |M^dagger M - I| over MPS cores, tree isometries and (both sides of) disentanglers."""
    mats = []
    cores = getattr(params, "cores", None)
    if cores is not None:
        r, dp = cores.shape[1], cores.shape[2]
        mats += [c.reshape(r * dp, r) for c in cores]
    else:
        mats += list(params.isometries)
        if params.disentanglers is not None:
            mats += list(params.disentanglers)
            mats += [u.conj().T for u in params.disentanglers]
    return max(float(np.abs(m.conj().T @ m - np.eye(m.shape[1])).max()) for m in mats)


def check_isometry(kind: str, deviation: float, tol: float = ISOMETRY_TOL) -> list:
    if deviation <= tol:
        return []
    return [f"{kind}: isometry deviation {deviation:.3e} above {tol:.0e}"]


def check_mera_matches_ttn(mera_out, ttn_out, tol: float = MERA_TTN_TOL) -> list:
    err = float(np.abs(np.asarray(mera_out) - np.asarray(ttn_out)).max())
    if err <= tol:
        return []
    return [f"MERA with identity disentanglers differs from TTN by {err:.3e}"]


# ------------------------------------------------------------------ processor


def angles(x, params) -> np.ndarray:
    """theta[l, q] = pi s (e_pair[q] + delta[l, q]) with e from the two-layer encoder."""
    x = np.asarray(x, dtype=np.float64)
    h = params.enc_w1 @ x + params.enc_b1
    h = np.maximum((h - h.mean()) / np.sqrt(h.var() + _LN_EPS), 0.0)
    e = params.enc_w2 @ h + params.enc_b2
    return np.pi * params.scale * (e.reshape(params.n_q, 2)[None] + params.delta)


def _ry(t):
    c, s = np.cos(t / 2.0), np.sin(t / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _rz(t):
    return np.diag([np.exp(-0.5j * t), np.exp(0.5j * t)])


def _apply(t: np.ndarray, gate: np.ndarray, axis: int) -> np.ndarray:
    return np.moveaxis(np.tensordot(gate, t, axes=([1], [axis])), 0, axis)


def _cnot(t: np.ndarray, control: int, target: int) -> np.ndarray:
    t = t.copy()
    sel = [slice(None)] * t.ndim
    sel[control] = 1
    sub = t[tuple(sel)]
    t[tuple(sel)] = np.flip(sub, axis=target - 1)
    return t


def statevector(theta) -> np.ndarray:
    """|psi> as a [2]*n tensor: per layer Ry then Rz on each qubit, then the CNOT chain."""
    layers, n, _ = theta.shape
    psi = np.zeros((2,) * n, dtype=complex)
    psi[(0,) * n] = 1.0
    for layer in range(layers):
        for q in range(n):
            psi = _apply(psi, _ry(theta[layer, q, 0]), q)
            psi = _apply(psi, _rz(theta[layer, q, 1]), q)
        for q in range(n - 1):
            psi = _cnot(psi, q, q + 1)
    return psi


def _z_signs(n: int, q: int) -> np.ndarray:
    shape = [1] * n
    shape[q] = 2
    return np.array([1.0, -1.0]).reshape(shape)


def statevector_observables(psi: np.ndarray) -> np.ndarray:
    """<X_q>, <Z_q>, <Z_q Z_q+1> in the processor's nearest-neighbour order."""
    n = psi.ndim
    prob = np.abs(psi) ** 2
    xs = [float(np.vdot(psi, np.flip(psi, axis=q)).real) for q in range(n)]
    zs = [float((prob * _z_signs(n, q)).sum()) for q in range(n)]
    zz = [float((prob * _z_signs(n, q) * _z_signs(n, q + 1)).sum()) for q in range(n - 1)]
    return np.array(xs + zs + zz)


def dense_observables(theta) -> np.ndarray:
    """The same observables from the package's dense Kronecker-product oracle."""
    from tnmpcqep import verify

    n = theta.shape[1]
    state = verify.dense_circuit_state(theta)
    terms = [((q, "X"),) for q in range(n)] + [((q, "Z"),) for q in range(n)]
    terms += [((q, "Z"), (q + 1, "Z")) for q in range(n - 1)]
    return np.array([verify.dense_pauli_expectation(state, t) for t in terms])


def check_observables(label: str, got, want, tol: float = OBSERVABLE_TOL) -> list:
    got, want = np.asarray(got), np.asarray(want)
    problems = []
    if got.shape != want.shape:
        return [f"{label}: {got.size} observables, expected {want.size}"]
    if got.min() < -1.0 or got.max() > 1.0:
        problems.append(f"{label}: observable outside [-1, 1]")
    err = float(np.abs(got - want).max())
    if err > tol:
        problems.append(f"{label}: observables off the reference by {err:.3e}")
    return problems


# ------------------------------------------------------------- noisy circuits


def noise_kraus(kind: str, p: float, gamma: float) -> list:
    """Kraus families applied in turn after every gate on each qubit it touches."""
    depolarizing = [np.sqrt(1.0 - 0.75 * p) * _I2, np.sqrt(p / 4) * _X,
                    np.sqrt(p / 4) * _Y, np.sqrt(p / 4) * _Z]
    amplitude = [np.array([[1, 0], [0, np.sqrt(1 - gamma)]], dtype=complex),
                 np.array([[0, np.sqrt(gamma)], [0, 0]], dtype=complex)]
    phase = [np.array([[1, 0], [0, np.sqrt(1 - gamma)]], dtype=complex),
             np.array([[0, 0], [0, np.sqrt(gamma)]], dtype=complex)]
    return {
        "noiseless": [],
        "depolarizing": [depolarizing],
        "thermal": [amplitude, phase],
        "mixed": [depolarizing, amplitude, phase],
    }[kind]


def _conjugate(rho: np.ndarray, op: np.ndarray, q: int, n: int) -> np.ndarray:
    """op rho op^dagger on qubit q of a [2]*2n density tensor (row axes first)."""
    return _apply(_apply(rho, op, q), op.conj(), n + q)


def kraus_evolution(theta, families) -> np.ndarray:
    """rho after the layered circuit with every Kraus operator applied one at a time."""
    layers, n, _ = theta.shape
    rho = np.zeros((2,) * (2 * n), dtype=complex)
    rho[(0,) * (2 * n)] = 1.0

    def noise(rho, q):
        for family in families:
            rho = sum(_conjugate(rho, k, q, n) for k in family)
        return rho

    for layer in range(layers):
        for q in range(n):
            rho = noise(_conjugate(rho, _ry(theta[layer, q, 0]), q, n), q)
            rho = noise(_conjugate(rho, _rz(theta[layer, q, 1]), q, n), q)
        for q in range(n - 1):
            rho = _cnot(_cnot(rho, q, q + 1), n + q, n + q + 1)
            rho = noise(noise(rho, q), q + 1)
    return rho.reshape(2**n, 2**n)


def density_observables(rho: np.ndarray) -> np.ndarray:
    """tr(P rho) for the nearest-neighbour observable set."""
    dim = rho.shape[0]
    n = dim.bit_length() - 1
    diag = np.diagonal(rho).real.reshape((2,) * n)
    t = rho.reshape((2,) * (2 * n))
    xs = []
    for q in range(n):
        flipped = np.flip(t, axis=q).reshape(dim, dim)  # X_q rho
        xs.append(float(np.trace(flipped).real))
    zs = [float((diag * _z_signs(n, q)).sum()) for q in range(n)]
    zz = [float((diag * _z_signs(n, q) * _z_signs(n, q + 1)).sum()) for q in range(n - 1)]
    return np.array(xs + zs + zz)


def check_density(label: str, rho, tol: float = DENSITY_TOL) -> list:
    rho = np.asarray(rho)
    problems = []
    drift = abs(complex(np.trace(rho)) - 1.0)
    if drift > tol:
        problems.append(f"{label}: trace off 1 by {drift:.3e}")
    herm = float(np.abs(rho - rho.conj().T).max())
    if herm > tol:
        problems.append(f"{label}: not Hermitian, max |rho - rho^dagger| = {herm:.3e}")
    low = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2).min())
    if low < -tol:
        problems.append(f"{label}: minimum eigenvalue {low:.3e}")
    return problems
