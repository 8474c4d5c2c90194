"""Command-line behavior: exit codes, CSV shapes, determinism."""

import csv
import inspect
import json

import numpy as np
import pytest

from tnmpcqep import bench, cli, pipeline, qep, qsim, tn


def run_cli(argv):
    return cli.main(argv)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


_DEMO, _NOISE, _BENCH = pipeline.DemoConfig(), qsim.NoiseSpec(), bench.BenchConfig()
_NOISE_FLAGS = {"p": _NOISE.p, "gamma": _NOISE.gamma_amp}
_SPLIT_FLAGS = {"n_train": _DEMO.n_train, "n_test": _DEMO.n_test}


@pytest.mark.parametrize("command, defaults", [
    ("bench-mpc", {"k": _BENCH.k, "theta": _BENCH.theta, "strategy": _BENCH.division_strategy}),
    ("encode", {"kind": _DEMO.kind}),
    ("qep-run", {"kind": _DEMO.kind, "nq": _DEMO.n_q, "observables": _DEMO.observables,
                 "noise": _NOISE.kind, **_NOISE_FLAGS}),
    ("qubit-sweep", {"frontend": _DEMO.kind, "noise": _NOISE.kind, **_NOISE_FLAGS,
                     **_SPLIT_FLAGS}),
    ("noise-sweep", {"nq": _DEMO.n_q, "frontend": _DEMO.kind, **_NOISE_FLAGS, **_SPLIT_FLAGS}),
    ("pipeline-demo", {"kind": _DEMO.kind, "mode": _DEMO.mode, "secure": _DEMO.secure,
                       "nq": _DEMO.n_q, "noise": _NOISE.kind, **_NOISE_FLAGS, **_SPLIT_FLAGS}),
    ("verify", {}),
])
def test_flag_defaults_are_the_library_defaults(command, defaults):
    assert _NOISE.gamma_phase == _NOISE.gamma_amp  # --gamma sets both
    args = cli.build_parser().parse_args([command])
    assert args.seed is None
    assert {name: getattr(args, name) for name in defaults} == defaults


def test_noise_sweep_defaults_are_the_library_defaults():
    defaults = inspect.signature(pipeline.noise_sweep).parameters
    assert defaults["n_q"].default == _DEMO.n_q
    assert defaults["p"].default == _NOISE.p
    assert defaults["gamma"].default == _NOISE.gamma_amp == _NOISE.gamma_phase


def test_bench_default_grid_has_420_rows(tmp_path):
    out = tmp_path / "bench.csv"
    assert run_cli(["bench-mpc", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert len(rows) == 420  # 7 scenarios x n in 1..30 x dims {64, 784}
    assert set(int(r["scenario"]) for r in rows) == set(range(7))


def test_bench_single_cell_grid_has_7_rows(tmp_path):
    out = tmp_path / "b7.csv"
    assert run_cli(["bench-mpc", "--dims", "64", "--n-max", "1", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert len(rows) == 7
    for row in rows:
        cfg = bench.BenchConfig(n=1, d=64)
        want = bench.run_scenario(cfg, int(row["scenario"]))
        assert int(row["total_bits"]) == want.total_bits


def test_bench_rejects_theta_zero(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        run_cli(["bench-mpc", "--theta", "0", "--out", str(tmp_path / "x.csv")])
    assert err.value.code == 2
    assert "--theta" in capsys.readouterr().err


@pytest.mark.parametrize("argv, named", [
    (["bench-mpc", "--k", "4"], "--k 4"),
    (["bench-mpc", "--k", "16"], "--k 16"),  # F = 20 fraction bits do not fit 16
    (["bench-mpc", "--dims", ","], "--dims"),
    (["qep-run", "--noise", "depolarizing", "--p", "1.5"], "--p 1.5"),
    (["qep-run", "--noise", "thermal", "--gamma", "-0.1"], "--gamma -0.1"),
    (["pipeline-demo", "--noise", "depolarizing", "--p", "1.5"], "--p 1.5"),
    (["pipeline-demo", "--noise", "mixed", "--gamma", "-0.1"], "--gamma -0.1"),
    (["qubit-sweep", "--nq", "4", "--noise", "mixed", "--p", "1.5"], "--p 1.5"),
    (["qubit-sweep", "--nq", "4", "--noise", "thermal", "--gamma", "-0.1"], "--gamma -0.1"),
    (["noise-sweep", "--p", "1.5"], "--p 1.5"),
    (["noise-sweep", "--noise", "noiseless,thermal", "--gamma", "-0.1"], "--gamma -0.1"),
    # the strengths are checked under the default --noise noiseless too
    (["qep-run", "--p", "1.5"], "--p 1.5"),
    (["pipeline-demo", "--gamma", "-0.1"], "--gamma -0.1"),
    (["qubit-sweep", "--nq", "4", "--p", "1.5"], "--p 1.5"),
    (["noise-sweep", "--noise", "noiseless", "--gamma", "-0.1"], "--gamma -0.1"),
])
def test_values_the_library_rejects_are_flag_errors(tmp_path, capsys, argv, named):
    out = tmp_path / "x.out"
    with pytest.raises(SystemExit) as err:
        run_cli(argv + ["--out", str(out)])
    assert err.value.code == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_a_flag_error_prints_its_own_command_usage(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        run_cli(["bench-mpc", "--k", "4", "--out", str(tmp_path / "x.csv")])
    assert err.value.code == 2
    assert "usage: tnmpcqep bench-mpc" in capsys.readouterr().err


def test_bench_prints_active_passive_ratio_table(tmp_path, capsys):
    run_cli(["bench-mpc", "--n-max", "3", "--dims", "64", "--out", str(tmp_path / "b.csv")])
    text = capsys.readouterr().out
    for pair in ("S1 vs S4", "S2 vs S5", "S3 vs S6"):
        assert pair in text
    assert text.count("2.00") == 3


def test_encode_writes_one_row_per_sample(tmp_path):
    out = tmp_path / "lat.csv"
    assert run_cli(["encode", "--kind", "ttn", "--n", "5", "--seed", "2",
                    "--out", str(out)]) == 0
    rows = read_csv(out)
    assert len(rows) == 5
    data = pipeline.synth_data(5, seed=2)
    params = tn.make_frontend(tn.FrontendConfig(kind="ttn", seed=2))
    feats = tn.encode_batch(data.images.reshape(5, -1), params)
    got = np.array([[float(r[f"x{j}"]) for j in range(feats.shape[1])] for r in rows])
    assert np.allclose(got, feats, atol=0.0)
    assert [int(r["label"]) for r in rows] == list(data.labels)


def test_encode_roundtrips_idx_files_and_saved_bundle(tmp_path, write_idx):
    data = pipeline.synth_data(6, seed=4)
    write_idx(data, tmp_path / "img.idx", tmp_path / "lab.idx")
    bundle = tmp_path / "fe.npz"
    out1 = tmp_path / "a.csv"
    assert run_cli(["encode", "--kind", "mps", "--images", str(tmp_path / "img.idx"),
                    "--labels", str(tmp_path / "lab.idx"), "--save-params", str(bundle),
                    "--out", str(out1)]) == 0
    # reusing the saved bundle reproduces the latents byte for byte
    out2 = tmp_path / "b.csv"
    assert run_cli(["encode", "--kind", "mps", "--images", str(tmp_path / "img.idx"),
                    "--labels", str(tmp_path / "lab.idx"), "--params", str(bundle),
                    "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_encode_rejects_images_without_labels(tmp_path):
    with pytest.raises(SystemExit) as err:
        run_cli(["encode", "--images", str(tmp_path / "img.idx"),
                 "--out", str(tmp_path / "x.csv")])
    assert err.value.code == 2


def test_encode_rejects_bundle_of_other_kind(tmp_path):
    bundle = tmp_path / "fe.npz"
    tn.save_params(tn.make_frontend(tn.FrontendConfig(kind="mera", seed=0)), bundle)
    with pytest.raises(SystemExit) as err:
        run_cli(["encode", "--kind", "mps", "--params", str(bundle),
                 "--out", str(tmp_path / "x.csv")])
    assert err.value.code == 2


def test_qep_run_writes_diagnostics_rows(tmp_path):
    out = tmp_path / "diag.csv"
    assert run_cli(["qep-run", "--n", "6", "--nq", "4", "--batch-size", "4",
                    "--noise", "depolarizing", "--out", str(out)]) == 0
    header = out.read_text().splitlines()[0]
    assert header == "batch_id,n_q,d_q,alpha_mean,q_std,noise_kind,seed"
    rows = read_csv(out)
    assert [r["batch_id"] for r in rows] == ["0", "1"]
    for row in rows:
        assert row["noise_kind"] == "depolarizing"
        assert int(row["n_q"]) == 4
        assert int(row["d_q"]) == qep.observable_count(4, "nearest_neighbor")
        assert 0.0 <= float(row["alpha_mean"]) <= 1.0
        assert float(row["q_std"]) >= 0.0


def test_qep_run_rejects_noisy_eleven_qubits(tmp_path):
    with pytest.raises(SystemExit) as err:
        run_cli(["qep-run", "--nq", "11", "--noise", "mixed",
                 "--out", str(tmp_path / "x.csv")])
    assert err.value.code == 2


@pytest.mark.parametrize("nq", ["1", "17"])
@pytest.mark.parametrize("command", ["qubit-sweep", "noise-sweep", "pipeline-demo", "qep-run"])
def test_nq_outside_two_to_sixteen_is_a_flag_error(tmp_path, command, nq):
    # argparse exits before any simulation, so nothing of size 2^nq is allocated
    with pytest.raises(SystemExit) as err:
        run_cli([command, "--nq", nq, "--noise", "noiseless",
                 "--out", str(tmp_path / "x.out")])
    assert err.value.code == 2


@pytest.mark.parametrize("argv", [
    ["qep-run", "--batch-size", "0"],
    ["qep-run", "--batch-size", "-1"],
    ["qep-run", "--batch-size", "two"],
    ["qep-run", "--n", "0"],
    ["encode", "--n", "-3"],
    ["qubit-sweep", "--seeds", "0"],
    ["noise-sweep", "--seeds", "0"],
    ["qubit-sweep", "--n-train", "0"],
    ["noise-sweep", "--n-test", "-1"],
    ["pipeline-demo", "--n-train", "-2"],
    ["pipeline-demo", "--n-test", "0"],
    # sample counts of 1: synthetic data needs two samples, a train split two rows
    ["encode", "--n", "1"],
    ["qep-run", "--n", "1"],
    ["qubit-sweep", "--n-train", "1"],
    ["noise-sweep", "--n-train", "1"],
    ["pipeline-demo", "--n-train", "1"],
])
def test_counts_below_one_are_flag_errors(tmp_path, capsys, argv):
    # argparse exits before any work, so no empty or header-only output is written
    out = tmp_path / "x.out"
    with pytest.raises(SystemExit) as err:
        run_cli(argv + ["--out", str(out)])
    assert err.value.code == 2
    low = 2 if argv[1] in ("--n", "--n-train") else 1  # sample counts need two
    assert f"expected an integer >= {low}" in capsys.readouterr().err
    assert not out.exists()


def test_qubit_sweep_rows_and_baseline(tmp_path):
    out = tmp_path / "qs.csv"
    assert run_cli(["qubit-sweep", "--nq", "8", "--seeds", "2", "--n-train", "48",
                    "--n-test", "16", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert len(rows) == 3  # 2 quantum rows plus 1 classical baseline
    assert "runtime_s" not in rows[0]
    quantum = [r for r in rows if r["mode"] == "quantum"]
    assert [int(r["seed"]) for r in quantum] == [0, 1]
    for row in quantum:
        assert int(row["n_q"]) == 8
        assert int(row["d_q"]) == qep.observable_count(8, "nearest_neighbor")
    base = [r for r in rows if r["mode"] == "classical"]
    assert len(base) == 1
    assert (int(base[0]["n_q"]), int(base[0]["d_q"])) == (0, 0)
    assert float(base[0]["alpha_mean"]) == 0.0


def test_qubit_sweep_rejects_17_qubits(tmp_path):
    with pytest.raises(SystemExit) as err:
        run_cli(["qubit-sweep", "--nq", "8,17", "--out", str(tmp_path / "x.csv")])
    assert err.value.code == 2


def test_qubit_sweep_rejects_noisy_over_ten(tmp_path):
    with pytest.raises(SystemExit) as err:
        run_cli(["qubit-sweep", "--nq", "12", "--noise", "thermal",
                 "--out", str(tmp_path / "x.csv")])
    assert err.value.code == 2


def test_qubit_sweep_byte_identical_across_runs(tmp_path):
    args = ["qubit-sweep", "--nq", "4", "--seeds", "1", "--n-train", "24",
            "--n-test", "8", "--seed", "5"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_noise_sweep_shape_and_defaults(tmp_path):
    out = tmp_path / "ns.csv"
    assert run_cli(["noise-sweep", "--nq", "4", "--seeds", "3", "--n-train", "24",
                    "--n-test", "8", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert len(rows) == 12  # 4 noise kinds x 3 seeds
    assert [r["noise_kind"] for r in rows[:3]] == ["noiseless"] * 3
    assert sorted(set(int(r["seed"]) for r in rows)) == [0, 1, 2]


def test_noise_sweep_default_qubit_count_is_8(tmp_path):
    out = tmp_path / "ns8.csv"
    assert run_cli(["noise-sweep", "--noise", "noiseless", "--seeds", "1",
                    "--n-train", "24", "--n-test", "8", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert [int(r["n_q"]) for r in rows] == [8]


def test_noise_sweep_zero_strength_matches_noiseless(tmp_path):
    out = tmp_path / "ns0.csv"
    assert run_cli(["noise-sweep", "--nq", "4", "--seeds", "2", "--p", "0.0",
                    "--gamma", "0.0", "--n-train", "24", "--n-test", "8",
                    "--out", str(out)]) == 0
    rows = read_csv(out)
    by_seed = {}
    for row in rows:
        by_seed.setdefault(row["seed"], {})[row["noise_kind"]] = row
    for seed, kinds in by_seed.items():
        ref = kinds["noiseless"]
        for kind in ("depolarizing", "thermal", "mixed"):
            for col in ("accuracy", "f1", "alpha_mean", "q_std"):
                assert abs(float(kinds[kind][col]) - float(ref[col])) <= 1e-9, (seed, kind, col)


def test_noise_sweep_rejects_noisy_eleven_qubits(tmp_path):
    with pytest.raises(SystemExit) as err:
        run_cli(["noise-sweep", "--nq", "11", "--out", str(tmp_path / "x.csv")])
    assert err.value.code == 2


def test_noise_sweep_rejects_unknown_kind(tmp_path):
    with pytest.raises(SystemExit) as err:
        run_cli(["noise-sweep", "--noise", "sparkle", "--out", str(tmp_path / "x.csv")])
    assert err.value.code == 2


def test_pipeline_demo_emits_parseable_json(tmp_path, capsys):
    assert run_cli(["pipeline-demo", "--n-train", "48", "--n-test", "16",
                    "--nq", "4", "--seed", "7"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["seed"] == 7
    assert report["config"]["n_q"] == 4
    assert 0.0 <= report["metrics"]["accuracy"] <= 1.0
    assert report["cost"]["total_bits"] == 0  # plain aggregation by default


def test_pipeline_demo_writes_file(tmp_path):
    out = tmp_path / "rep.json"
    assert run_cli(["pipeline-demo", "--mode", "classical", "--n-train", "48",
                    "--n-test", "16", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["config"]["mode"] == "classical"
    assert report["diagnostics"]["alpha_mean"] == 0.0


def test_verify_group_filter_runs_only_that_group(capsys):
    assert run_cli(["verify", "--group", "ring"]) == 0
    text = capsys.readouterr().out
    assert "ring:share_reconstruct_roundtrip" in text
    assert "qsim:" not in text


def test_verify_flags_corrupted_bundle(tmp_path, capsys):
    bundle = tmp_path / "fe.npz"
    tn.save_params(tn.make_frontend(tn.FrontendConfig(kind="ttn", seed=0)), bundle)
    bundle.write_bytes(bundle.read_bytes()[:100])
    assert run_cli(["verify", "--group", "tn", "--params", str(bundle)]) == 1
    text = capsys.readouterr().out
    assert "FAIL" in text and "bundle" in text


def test_verify_fails_a_malformed_bundle_header_in_its_row(tmp_path, capsys):
    # a header entry without a name used to abort verify with error: 'name'
    bundle = tmp_path / "fe.tnp"
    blob = json.dumps({"version": 1, "kind": "ttn", "config": {},
                       "entries": [{"shape": [1], "dtype": "real"}]}).encode()
    bundle.write_bytes(len(blob).to_bytes(4, "little") + blob + bytes(16))
    assert run_cli(["verify", "--params", str(bundle)]) == 1
    text = capsys.readouterr().out
    assert [line.split()[1] for line in text.splitlines() if line.startswith("FAIL")] == [
        "tn:bundle_loads"]
    assert "is not a string" in text
    for group in ("ring:", "mpc:", "bench:", "tn:", "qsim:", "qep:"):
        assert f"PASS  {group}" in text


def test_verify_fails_a_bundle_without_a_config_in_its_row(tmp_path, capsys):
    # a header with no config used to abort verify with error: 'config'
    bundle = tmp_path / "fe.tnp"
    blob = json.dumps({"version": 1, "kind": "ttn", "entries": []}).encode()
    bundle.write_bytes(len(blob).to_bytes(4, "little") + blob)
    assert run_cli(["verify", "--group", "tn", "--params", str(bundle)]) == 1
    out, err = capsys.readouterr()
    assert [line.split()[1] for line in out.splitlines() if line.startswith("FAIL")] == [
        "tn:bundle_loads"]
    assert "error:" not in err


def test_verify_accepts_good_bundle(tmp_path, capsys):
    bundle = tmp_path / "fe.npz"
    tn.save_params(tn.make_frontend(tn.FrontendConfig(kind="mps", seed=3)), bundle)
    assert run_cli(["verify", "--group", "tn", "--params", str(bundle)]) == 0
    assert "bundle_isometry_check" in capsys.readouterr().out


def test_verify_rejects_unknown_group():
    with pytest.raises(SystemExit) as err:
        run_cli(["verify", "--group", "nosuch"])
    assert err.value.code == 2


def test_seed_env_var_is_the_fallback(tmp_path, monkeypatch):
    env_out, flag_out = tmp_path / "env.csv", tmp_path / "flag.csv"
    monkeypatch.setenv("TNMPCQEP_SEED", "9")
    assert run_cli(["encode", "--n", "3", "--out", str(env_out)]) == 0
    monkeypatch.delenv("TNMPCQEP_SEED")
    assert run_cli(["encode", "--n", "3", "--seed", "9", "--out", str(flag_out)]) == 0
    assert env_out.read_bytes() == flag_out.read_bytes()


@pytest.mark.parametrize("argv, env, said", [
    (["--seed", "-3"], None, "argument --seed: expected an integer >= 0, got '-3'"),
    ([], "-2", "TNMPCQEP_SEED: expected an integer >= 0, got '-2'"),
    ([], "abc", "TNMPCQEP_SEED: expected an integer >= 0, got 'abc'"),
])
def test_a_bad_seed_is_a_flag_error(tmp_path, capsys, monkeypatch, argv, env, said):
    # from the flag or the environment, before any work is done
    out = tmp_path / "x.csv"
    monkeypatch.delenv("TNMPCQEP_SEED", raising=False)
    if env is not None:
        monkeypatch.setenv("TNMPCQEP_SEED", env)
    with pytest.raises(SystemExit) as err:
        run_cli(["encode", "--n", "3", "--out", str(out)] + argv)
    assert err.value.code == 2
    err_text = capsys.readouterr().err
    assert "usage: tnmpcqep encode" in err_text and said in err_text
    assert not out.exists()


def test_runtime_failure_exits_one(tmp_path, capsys):
    missing = tmp_path / "nope.idx"
    code = run_cli(["encode", "--images", str(missing), "--labels", str(missing),
                    "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "error:" in capsys.readouterr().err
