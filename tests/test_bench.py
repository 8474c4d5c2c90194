"""Closed-form cost checks and executed-protocol meter verification."""

import numpy as np
import pytest

from tnmpcqep.bench import (
    PER_ELEMENT,
    RECIPROCAL_ONCE,
    BenchConfig,
    CSV_HEADER,
    division_cost_bits,
    execute_scenario,
    run_scenario,
    sweep,
    verify_against_meter,
    write_sweep_csv,
)
from tnmpcqep import bench
from tnmpcqep.mpc import CostReport, Mpc3Session


def test_primitive_costs_at_k64():
    cfg = BenchConfig(k=64, theta=5)
    assert 3 * cfg.k == 192
    assert 6 * cfg.k == 384
    assert 9 * cfg.k == 576
    assert division_cost_bits(cfg) == 16512


def test_scenario0_closed_form():
    rep = run_scenario(BenchConfig(n=16, d=64, k=64), 0)
    assert rep.client_to_node_bits == 16 * 65 * 64 == 66560
    assert rep.node_to_node_bits == 0
    assert rep.reconstruction_bits == 0


def test_scenario1_closed_form_known_point():
    rep = run_scenario(BenchConfig(n=16, d=64, k=64, theta=5), 1)
    assert rep.client_to_node_bits == 399360
    assert rep.node_to_node_bits == 589824
    assert rep.reconstruction_bits == 12480
    assert rep.total_bits == 1001664


def test_scenario4_doubles_scenario1():
    cfg = BenchConfig(n=16, d=64, k=64, theta=5)
    assert run_scenario(cfg, 4).total_bits == 2 * run_scenario(cfg, 1).total_bits == 2003328


def test_active_scenarios_double_every_counter_full_grid():
    for n in range(1, 31):
        for d in (64, 784):
            cfg = BenchConfig(n=n, d=d, k=64, theta=5)
            for active, passive in ((4, 1), (5, 2), (6, 3)):
                a, p = run_scenario(cfg, active), run_scenario(cfg, passive)
                assert a.client_to_node_bits == 2 * p.client_to_node_bits
                assert a.node_to_node_bits == 2 * p.node_to_node_bits
                assert a.reconstruction_bits == 2 * p.reconstruction_bits


def test_s2_minus_s1_constant_in_n_reciprocal_once():
    for n in (1, 2, 5, 16, 30):
        cfg = BenchConfig(n=n, d=64, k=64, theta=5, division_strategy=RECIPROCAL_ONCE)
        diff = run_scenario(cfg, 2).total_bits - run_scenario(cfg, 1).total_bits
        assert diff == 16512 + 64 * 576 - 192


def test_s2_per_element_strategy():
    cfg = BenchConfig(n=4, d=8, k=64, theta=5, division_strategy=PER_ELEMENT)
    rep = run_scenario(cfg, 2)
    base = run_scenario(BenchConfig(n=4, d=8, k=64, theta=5), 1)
    assert rep.node_to_node_bits == base.node_to_node_bits + 8 * 16512
    assert rep.reconstruction_bits == 8 * 192


def test_s3_adds_dense_layer_cost():
    cfg = BenchConfig(n=4, d=8, k=64, theta=5)
    assert run_scenario(cfg, 3).node_to_node_bits == run_scenario(cfg, 2).node_to_node_bits + 8 * 8 * 576


def test_raw_to_latent_ratio_band():
    # raw 784-dim sharing vs compact 64-dim latents, scenario 1
    for n in range(4, 31):
        hi = run_scenario(BenchConfig(n=n, d=784, k=64), 1).total_bits
        lo = run_scenario(BenchConfig(n=n, d=64, k=64), 1).total_bits
        assert 11.0 <= hi / lo <= 13.0


def test_config_validation():
    with pytest.raises(ValueError):
        BenchConfig(n=0)
    with pytest.raises(ValueError):
        BenchConfig(d=0)
    with pytest.raises(ValueError):
        BenchConfig(theta=0)
    with pytest.raises(ValueError):
        BenchConfig(division_strategy="sometimes")
    with pytest.raises(ValueError):
        run_scenario(BenchConfig(), 7)
    with pytest.raises(ValueError):
        run_scenario(BenchConfig(), -1)


def _inputs(cfg, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 1.0, size=(cfg.n, cfg.d)), rng.uniform(0.5, 2.0, size=cfg.n)


def test_scenario_catalog():
    cfg = BenchConfig(n=2, d=2)
    assert [row["scenario"] for row in sweep([2], [2])] == list(bench.SCENARIO_IDS)
    for sid in (-1, 7):
        with pytest.raises(ValueError, match="scenario must be one of"):
            run_scenario(cfg, sid)
        with pytest.raises(ValueError, match="scenario must be one of"):
            execute_scenario(cfg, sid, *_inputs(cfg))
        with pytest.raises(ValueError, match="scenario must be one of"):
            sweep([2], [2], scenarios=[sid])


@pytest.mark.parametrize("scenario", [1, 2, 4, 5])
@pytest.mark.parametrize("k,f", [(64, 20), (32, 10)])
def test_verify_against_meter_small_grid(scenario, k, f):
    for n in (1, 2, 4):
        for d in (1, 4, 16):
            cfg = BenchConfig(n=n, d=d, k=k, theta=5, fraction_bits=f)
            assert verify_against_meter(cfg, scenario), (scenario, n, d, k)


def test_verify_against_meter_per_element_strategy():
    cfg = BenchConfig(n=2, d=4, k=64, theta=5, division_strategy=PER_ELEMENT)
    assert verify_against_meter(cfg, 2)
    assert verify_against_meter(cfg, 5)


def test_execute_scenario_values_match_plaintext():
    rng = np.random.default_rng(0)
    n, d = 4, 6
    features = rng.uniform(0, 1, size=(n, d))
    weights = rng.uniform(0.5, 2.0, size=n)
    cfg = BenchConfig(n=n, d=d, k=64, theta=5)
    x2, _ = execute_scenario(cfg, 2, features, weights)
    expect = (weights[:, None] * features).sum(axis=0) / (weights.sum() + cfg.epsilon)
    assert np.max(np.abs(x2 - expect)) <= n * 4 * 2.0**-20
    out1, _ = execute_scenario(cfg, 1, features, weights)
    assert np.max(np.abs(out1[:d] - (weights[:, None] * features).sum(axis=0))) <= n * 2.0**-18
    assert abs(out1[d] - weights.sum()) <= n * 2.0**-20


def test_execute_scenario_seeds_one_generator_per_event(monkeypatch):
    # the session seeds one generator for its share masks and nothing else draws
    cfg = BenchConfig(n=3, d=4)
    features, weights = _inputs(cfg, seed=99)
    expect, expect_cost = execute_scenario(cfg, 2, features, weights, seed=7)

    calls = []
    default_rng = np.random.default_rng

    def counting(*args, **kw):
        calls.append(args)
        return default_rng(*args, **kw)

    monkeypatch.setattr(np.random, "default_rng", counting)
    x, cost = execute_scenario(cfg, 2, features, weights, seed=7)
    assert calls == [(7,)]
    assert x.tobytes() == expect.tobytes()
    assert cost == expect_cost


@pytest.mark.parametrize("scenario, factor", [(2, 1), (5, 2)])
def test_executed_event_traffic_per_primitive_matches_the_closed_form(monkeypatch, scenario, factor):
    sessions = []

    def session(**kwargs):
        sessions.append(Mpc3Session(**kwargs))
        return sessions[-1]

    monkeypatch.setattr(bench, "Mpc3Session", session)
    cfg = BenchConfig(n=16, d=64)
    n, d, k = cfg.n, cfg.d, cfg.k
    _, measured = execute_scenario(cfg, scenario, *_inputs(cfg), seed=5)
    traffic = sessions[0].traffic()
    assert traffic == {
        "share": factor * n * (d + 1) * 6 * k,
        "mul": factor * (n * d + d) * 3 * k,
        "trunc": factor * (n * d + d) * 6 * k,
        "div": factor * division_cost_bits(cfg),
        "open": factor * d * 3 * k,
    }
    closed = run_scenario(cfg, scenario)
    assert measured == closed
    assert sum(traffic.values()) == closed.total_bits


def test_execute_scenario_rejects_closed_form_only():
    cfg = BenchConfig(n=2, d=2)
    for sid in (0, 3, 6):
        with pytest.raises(ValueError, match="closed-form only"):
            execute_scenario(cfg, sid, *_inputs(cfg))


def test_sweep_rows_and_csv(tmp_path):
    rows = sweep(range(1, 31), (64, 784), scenarios=(0, 1, 2, 3, 4, 5, 6))
    assert len(rows) == 7 * 30 * 2
    for row in rows:
        assert row["total_bits"] == (
            row["client_to_node_bits"] + row["node_to_node_bits"] + row["reconstruction_bits"]
        )
    path = tmp_path / "sweep.csv"
    write_sweep_csv(rows, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == 1 + len(rows)
    # byte-identical on re-write
    path2 = tmp_path / "sweep2.csv"
    write_sweep_csv(sweep(range(1, 31), (64, 784), scenarios=(0, 1, 2, 3, 4, 5, 6)), path2)
    assert path.read_bytes() == path2.read_bytes()


def test_cost_report_total():
    rep = CostReport(1, 2, 3)
    assert rep.total_bits == 6
    assert (rep + rep).total_bits == 12
    assert rep.scaled(2) == CostReport(2, 4, 6)
