"""Communication-cost benchmark for weighted secure aggregation.

Closed-form per-scenario costs (bits) for n clients with d-dimensional
latents over a k-bit ring, using the primitive cost model: secure
multiplication 3k, truncation 6k (so a fixed-point multiplication is 9k),
division 3k(k + 4*theta + 2), sharing 6k per secret, opening 3k per element.
Active security doubles every counter.

Scenarios:
  0  plaintext baseline (client sends latents and weight in the clear)
  1  passive: shared inputs, weighted sums, open WF and W
  2  passive: scenario 1 + secure normalization by W + eps, open x only
  3  passive: scenario 2 + a d x d shared linear layer
  4/5/6  active counterparts of 1/2/3

verify_against_meter executes the real protocol for scenarios 0, 1, 2, 4, 5
and compares the session's meter to the closed form bit for bit.  Each weight,
W and 1/(W + eps) is a one-element share that mpc broadcasts over the d latents.
"""

from __future__ import annotations

import csv
from dataclasses import astuple, dataclass
from typing import Iterable, Sequence

import numpy as np

from .mpc import CLIENT_TO_NODE, CostReport, Mpc3Session, SecurityMode

RECIPROCAL_ONCE = "reciprocal-once"
PER_ELEMENT = "per-element"
STRATEGIES = (RECIPROCAL_ONCE, PER_ELEMENT)

SCENARIO_IDS = (0, 1, 2, 3, 4, 5, 6)
ACTIVE_OF = {4: 1, 5: 2, 6: 3}  # active scenario -> its passive counterpart


def _check_scenario(sid: int) -> None:
    if sid not in SCENARIO_IDS:
        raise ValueError(f"scenario must be one of {SCENARIO_IDS}, got {sid}")


@dataclass(frozen=True)
class BenchConfig:
    """Grid point for the cost model; fraction_bits and epsilon only matter to executions."""

    n: int = 16
    d: int = 64
    k: int = 64
    theta: int = 5
    fraction_bits: int = 20
    division_strategy: str = RECIPROCAL_ONCE
    epsilon: float = 1e-6

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need at least one client, got n={self.n}")
        if self.d < 1:
            raise ValueError(f"latent dimension must be positive, got d={self.d}")
        if not 8 <= self.k <= 64:
            raise ValueError(f"ring width must be in [8, 64], got k={self.k}")
        if self.theta < 1:
            raise ValueError(f"theta must be >= 1, got {self.theta}")
        if self.division_strategy not in STRATEGIES:
            raise ValueError(
                f"division_strategy must be one of {STRATEGIES}, got {self.division_strategy!r}"
            )
        if not 0 < self.fraction_bits < self.k:
            raise ValueError("fraction_bits must satisfy 0 < F < k")
        if not self.epsilon > 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")


def division_cost_bits(cfg: BenchConfig) -> int:
    """Model cost of one secure division: 3k(k + 4*theta + 2)."""
    return 3 * cfg.k * (cfg.k + 4 * cfg.theta + 2)


def run_scenario(cfg: BenchConfig, scenario: int) -> CostReport:
    """Closed-form cost report for one scenario at one grid point."""
    _check_scenario(scenario)
    n, d, k = cfg.n, cfg.d, cfg.k
    if scenario == 0:
        return CostReport(client_to_node_bits=n * (d + 1) * k)
    if scenario in ACTIVE_OF:
        return run_scenario(cfg, ACTIVE_OF[scenario]).scaled(2)

    client = n * (d + 1) * 6 * k
    node = n * d * 9 * k
    if scenario == 1:
        recon = (d + 1) * 3 * k
        return CostReport(client, node, recon)
    # scenarios 2 and 3 normalize by W + eps and open only the d-vector x
    if cfg.division_strategy == RECIPROCAL_ONCE:
        node += division_cost_bits(cfg) + d * 9 * k
    else:
        node += d * division_cost_bits(cfg)
    recon = d * 3 * k
    if scenario == 3:
        node += d * d * 9 * k
    return CostReport(client, node, recon)


# --- executed protocols ---


def execute_scenario(cfg: BenchConfig, scenario: int, features, weights, seed: int = 0):
    """Run the actual protocol for scenarios 0, 1, 2, 4, 5 on (n, d) features
    and (n,) weights; the session draws its share masks from seed.

    Returns (decoded result vector, CostReport).  Scenarios 3/6 exist only in
    the closed form (the d x d layer is not part of the executable pipeline).
    """
    _check_scenario(scenario)
    if scenario in (3, 6):
        raise ValueError("scenarios 3 and 6 are closed-form only")
    n, d = cfg.n, cfg.d
    features = np.asarray(features, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if features.shape != (n, d) or weights.shape != (n,):
        raise ValueError("features must be (n, d) and weights (n,)")

    mode = SecurityMode.ACTIVE if scenario in ACTIVE_OF else SecurityMode.PASSIVE
    session = Mpc3Session(
        k=cfg.k, fraction_bits=cfg.fraction_bits, theta=cfg.theta, mode=mode, seed=seed
    )
    codec = session.codec

    if scenario == 0:
        # plaintext: each client ships its d latents and weight as k-bit words;
        # encoding them checks that they fit the ring
        codec.encode_array(features)
        codec.encode_array(weights)
        session.charge(CLIENT_TO_NODE, n * (d + 1) * cfg.k, "plain")
        x = (weights[:, None] * features).sum(axis=0) / (weights.sum() + cfg.epsilon)
        return x, session.report()

    base = 1 if scenario in (1, 4) else 2
    # encode_array works element by element, so one call per event gives each row's bytes
    encoded_w = codec.encode_array(weights)
    f_shares = [session.share(row) for row in codec.encode_array(features)]
    w_shares = [session.share(encoded_w[i : i + 1]) for i in range(n)]

    wf = None
    for i in range(n):
        term = session.fixed_mul(f_shares[i], w_shares[i])
        wf = term if wf is None else session.add(wf, term)
    w_total = w_shares[0]
    for i in range(1, n):
        w_total = session.add(w_total, w_shares[i])

    if base == 1:
        wf_open = codec.decode_array(session.open(wf))
        w_open = codec.decode_array(session.open(w_total))
        return np.concatenate([wf_open, w_open]), session.report()

    den = session.add_public(w_total, codec.encode_array(cfg.epsilon))
    if cfg.division_strategy == RECIPROCAL_ONCE:
        one = session.share_public(codec.encode_array([1.0]))
        recip = session.divide(one, den)
        x_sh = session.fixed_mul(wf, recip)
    else:
        x_sh = session.divide(wf, den)
    x = codec.decode_array(session.open(x_sh))
    return x, session.report()


def verify_against_meter(cfg: BenchConfig, scenario: int, seed: int = 0) -> bool:
    """True iff the executed protocol's meter matches the closed form bit for bit,
    on uniform features in [0, 1) and weights in [0.5, 2) drawn from seed."""
    rng = np.random.default_rng(seed)
    features = rng.uniform(0.0, 1.0, size=(cfg.n, cfg.d))
    weights = rng.uniform(0.5, 2.0, size=cfg.n)
    _, measured = execute_scenario(cfg, scenario, features, weights, seed=seed)
    return measured == run_scenario(cfg, scenario)


# --- sweeps and CSV ---

CSV_HEADER = [
    "scenario",
    "n",
    "d",
    "k",
    "theta",
    "strategy",
    "client_to_node_bits",
    "node_to_node_bits",
    "reconstruction_bits",
    "total_bits",
]


def sweep(
    n_values: Iterable[int],
    d_values: Iterable[int],
    scenarios: Sequence[int] = SCENARIO_IDS,
    k: int = 64,
    theta: int = 5,
    division_strategy: str = RECIPROCAL_ONCE,
) -> list:
    """Closed-form cost rows over the (scenario, n, d) grid."""
    rows = []
    for s in scenarios:
        _check_scenario(s)
        for n in n_values:
            for d in d_values:
                cfg = BenchConfig(n=n, d=d, k=k, theta=theta, division_strategy=division_strategy)
                rep = run_scenario(cfg, s)
                values = (s, n, d, k, theta, division_strategy, *astuple(rep), rep.total_bits)
                rows.append(dict(zip(CSV_HEADER, values)))
    return rows


def write_sweep_csv(rows: Sequence[dict], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_HEADER)
        writer.writeheader()
        for row in rows:
            writer.writerow({key: row[key] for key in CSV_HEADER})
