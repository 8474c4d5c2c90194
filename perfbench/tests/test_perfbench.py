"""The benchmark's own tests: small rounds pass every check, corrupted outputs fail them.

Run with:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import signal
import time

import numpy as np
import pytest

import hostspeed
import oracles
import run
import tracing
import workloads
from tnmpcqep import bench, mpc, pipeline, qep, qsim, tn

# small sizes that still hold the accuracy floor at seed 0
SMALL = {
    "secure-round": (48, 32),
    "frontends-classical": (64, 32),
    "qubit-sweep": (40, 20),
    "noise-sweep": (40, 20),
}


@pytest.fixture(scope="module")
def rounds():
    """One small round per workload: (workload, inputs, output)."""
    out = {}
    for name, (n_train, n_test) in SMALL.items():
        wl = workloads.make(name, n_train, n_test)
        inputs = wl.setup(0)
        out[name] = (wl, inputs, wl.run_round(inputs))
    return out


@pytest.mark.parametrize("name", sorted(SMALL))
def test_small_round_passes_every_check(rounds, name):
    wl, inputs, out = rounds[name]
    assert wl.check(inputs, out) == []
    assert wl.same(out, wl.run_round(inputs))


def test_untraced_run_reports_end_to_end_metrics():
    wl = workloads.make("frontends-classical", *SMALL["frontends-classical"])
    attempted, failed, problems, metrics, info = run.run_untraced(wl, 0, seconds=0.0)
    assert (attempted, failed, problems) == (wl.ops, 0, [])
    assert set(metrics) == {"samples_per_s", "setup_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in metrics.values())
    assert all(v > 0 for v in info.values())


def test_host_clock_takes_its_probes_out_of_a_section():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.HostClock(interval_s=0.01) as clock:
        with clock.section() as sec:
            end = time.perf_counter() + 0.2
            while time.perf_counter() < end:
                pass
        probes = clock._log[:sec.probes]
    # the first probe runs before the section's clock starts; the timer's run inside it
    assert sec.probes > 2
    assert sec.wall_s - sec.work_s == pytest.approx(sum(d for _, d in probes[1:]))
    assert sec.speed == pytest.approx(hostspeed.REF_PROBE_S * len(probes)
                                      / sum(d for _, d in probes))
    assert sec.ref_s == pytest.approx(sec.work_s * sec.speed)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_traced_run_reports_every_layer_metric(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    wl = workloads.make("secure-round", 16, 16)
    attempted, failed, problems, metrics, _ = run.run_traced(wl, 0, seconds=0.0)
    assert (attempted, failed) == (2 * wl.ops, 0), problems
    assert list(metrics) == [name for name, _, _ in tracing.LAYER_METRICS]
    value = {k: m["value"] for k, m in metrics.items()}
    per_event = bench.run_scenario(bench.BenchConfig(n=16, d=64), 2)
    assert value["mpc.bits_per_event"] == per_event.total_bits
    calls = [value[f"mpc.{op}_calls_per_event"] for op in tracing.MPC_OPS]
    assert calls == [32, 28, 28, 1, 1]
    assert value["qsim.expectation_calls_per_sample"] == 23
    assert value["tn.encode_ms_per_sample.ttn"] > 0 and value["tn.encode_ms_per_sample.mps"] == 0
    assert 0.9 < value["trace.span_coverage"] <= 1.0
    assert 0.0 < value["pipeline.readout_accept_ratio"] <= 1.0
    assert (tmp_path / "trace-secure-round-seed0.jsonl").is_file()
    # every wrapper is gone again
    assert not hasattr(pipeline.aggregate_secure, "__wrapped__")
    assert not hasattr(mpc.Mpc3Session.mul, "__wrapped__")


def test_accepted_steps_replays_the_descent_rule():
    assert tracing._accepted_steps([1.0, 2.0, 0.9, 0.9, 1.0, 0.5]) == 3


def test_judge_fails_rounds_that_raise_or_differ():
    class Fake:
        ops = 10

        def check(self, inputs, out):
            return []

        def same(self, a, b):
            return a == b

    failed, problems = run._judge(Fake(), None, ["a", None, "a", "b"], [None, "boom", None, None])
    assert failed == 20
    assert "boom" in problems and any("round 3" in p for p in problems)


# ------------------------------------------------------- corrupted outputs


def test_perturbed_aggregate_is_rejected(rounds):
    wl, inputs, out = rounds["secure-round"]
    bad = dict(out, decoded=out["decoded"].copy())
    bad["decoded"][3, 5] += 1e-3
    assert any("decoded aggregate" in p for p in wl.check(inputs, bad))


def test_wrong_cost_report_is_rejected(rounds):
    wl, inputs, out = rounds["secure-round"]
    cost = out["report"].cost + mpc.CostReport(node_to_node_bits=64)
    bad = dict(out, report=dataclasses.replace(out["report"], cost=cost))
    assert any("cost report" in p for p in wl.check(inputs, bad))


def test_accuracy_floor_and_secure_gap_are_enforced():
    assert oracles.check_accuracy("x", 0.89) and not oracles.check_accuracy("x", 0.9)
    assert oracles.check_accuracy_gap(0.95, 0.97) and not oracles.check_accuracy_gap(0.96, 0.97)


def test_low_accuracy_round_is_rejected(rounds):
    wl, inputs, out = rounds["frontends-classical"]
    metrics = dataclasses.replace(out["mera"].metrics, accuracy=0.5)
    bad = dict(out, mera=dataclasses.replace(out["mera"], metrics=metrics))
    assert any("mera: accuracy" in p for p in wl.check(inputs, bad))


def test_broken_isometry_is_rejected(rounds):
    _, inputs, _ = rounds["frontends-classical"]
    params = inputs["frontends"]["mps"]
    bent = dataclasses.replace(params, cores=params.cores * 1.001)
    assert oracles.check_isometry("mps", oracles.isometry_deviation(bent))
    assert not oracles.check_isometry("mps", oracles.isometry_deviation(params))


def test_mera_that_differs_from_ttn_is_rejected(rounds):
    _, inputs, _ = rounds["frontends-classical"]
    images = inputs["data"].images[:2].reshape(2, -1)
    ttn = tn.encode_batch(images, inputs["frontends"]["ttn"])
    mera = tn.encode_batch(images, inputs["frontends"]["mera"])
    assert oracles.check_mera_matches_ttn(mera, ttn)


def test_flipped_observable_sign_is_rejected(rounds, monkeypatch):
    wl, inputs, out = rounds["qubit-sweep"]
    real = qep.quantum_features

    def flipped(x, params, noise=None):
        q = real(x, params, noise).copy()
        if params.n_q == 16:
            q[20] = -q[20]
        return q

    monkeypatch.setattr(qep, "quantum_features", flipped)
    problems = wl.check(inputs, out)
    assert problems and all("N_q=16" in p for p in problems)


def test_observable_out_of_range_is_rejected():
    q = np.array([0.5, 1.0 + 1e-9])
    assert any("outside" in p for p in oracles.check_observables("x", q, q))


def test_off_trace_density_matrix_is_rejected(rounds, monkeypatch):
    wl, inputs, out = rounds["noise-sweep"]
    real = qsim.run_noisy

    def leaky(angles, noise=qsim.NOISELESS):
        res = real(angles, noise)
        if noise.kind == "thermal":
            res.density.rho = res.density.rho * 1.001
        return res

    monkeypatch.setattr(qsim, "run_noisy", leaky)
    problems = wl.check(inputs, out)
    assert problems and all("thermal" in p and "trace" in p for p in problems)


def test_non_hermitian_and_negative_density_matrices_are_rejected():
    rho = np.diag([0.5, 0.5]).astype(complex)
    skew = rho.copy()
    skew[0, 1] = 1e-6
    assert any("Hermitian" in p for p in oracles.check_density("x", skew))
    assert any("eigenvalue" in p for p in oracles.check_density("x", np.diag([1.01, -0.01])))
    assert oracles.check_density("x", rho) == []


def test_noisy_observables_off_the_kraus_reference_are_rejected(rounds):
    _, inputs, _ = rounds["noise-sweep"]
    params = inputs["processor"]
    x = workloads._plain_latents(inputs["data"], inputs["frontend"], 40, 1)[0]
    theta = oracles.angles(x, params)
    want = oracles.density_observables(
        oracles.kraus_evolution(theta, oracles.noise_kraus("mixed", 0.01, 0.01)))
    got = qep.quantum_features(x, params, noise=qsim.NoiseSpec(kind="depolarizing"))
    assert oracles.check_observables("x", got, want)
