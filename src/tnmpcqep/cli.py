"""Command-line interface: cost benchmark, sweeps, demo runs, invariant checks.

Every command is deterministic given --seed (falling back to the
TNMPCQEP_SEED environment variable, then 0); CSV outputs are byte-identical
across runs with identical flags and seed.  Exit codes: 0 success, 1 runtime
failure, 2 flag/usage error.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import replace

from . import bench, pipeline, qep, tn, verify
from .qsim import MAX_DENSITY_QUBITS, NOISE_KINDS, NoiseSpec
from .tn import FRONTEND_KINDS

_MAX_QUBITS = 16
# flag defaults are read from the library's own configs
_DEMO, _NOISE, _BENCH = pipeline.DemoConfig(), NoiseSpec(), bench.BenchConfig()


def _master_seed(args) -> int:
    """--seed, else TNMPCQEP_SEED, else 0; a bad environment value is a flag error."""
    if args.seed is not None:
        return args.seed
    env = os.environ.get("TNMPCQEP_SEED")
    try:
        return _int_at_least(0)(env) if env else 0
    except argparse.ArgumentTypeError as exc:
        args.parser.error(f"TNMPCQEP_SEED: {exc}")


def _int_list(text: str):
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _int_at_least(low: int):
    def parse(text: str) -> int:
        try:
            if int(text) >= low:
                return int(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
    return parse


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([row[h] for h in header])


def _noise(args, parser, kind: str):
    """The NoiseSpec of noise kind at --p and --gamma (None for noiseless); a value that
    NoiseSpec rejects is a flag error."""
    try:
        return pipeline.noise_spec(kind, args.p, args.gamma)
    except ValueError as exc:
        parser.error(f"--noise {kind} --p {args.p} --gamma {args.gamma}: {exc}")


def _check_nq(parser, counts, noise: bool) -> None:
    """Flag error unless every qubit count lies in [2, 16], or [2, 10] for noisy runs."""
    top = MAX_DENSITY_QUBITS if noise else _MAX_QUBITS
    if not counts or any(n < 2 or n > top for n in counts):
        parser.error(f"--nq entries must lie in [2, {top}], got {counts}")


# ------------------------------------------------------------------- commands


def _cmd_bench_mpc(args, parser) -> int:
    try:
        bench.BenchConfig(k=args.k, theta=args.theta, division_strategy=args.strategy)
    except ValueError as exc:
        parser.error(f"--k {args.k} --theta {args.theta}: {exc}")
    if args.n_min < 1 or args.n_max < args.n_min:
        parser.error("need 1 <= --n-min <= --n-max")
    if not args.dims or min(args.dims) < 1:
        parser.error(f"--dims must be positive integers, got {args.dims}")
    n_values = range(args.n_min, args.n_max + 1)
    rows = bench.sweep(n_values, args.dims, k=args.k, theta=args.theta,
                       division_strategy=args.strategy)
    bench.write_sweep_csv(rows, args.out)
    print(f"wrote {len(rows)} rows to {args.out}")
    print("scenario pair totals over the grid (active = 2x passive):")
    totals = {}
    for row in rows:
        totals[row["scenario"]] = totals.get(row["scenario"], 0) + row["total_bits"]
    print(f"  {'pair':<10}{'passive_bits':>16}{'active_bits':>16}{'ratio':>8}")
    for active, passive in bench.ACTIVE_OF.items():
        pb, ab = totals.get(passive, 0), totals.get(active, 0)
        ratio = ab / pb if pb else float("nan")
        print(f"  S{passive} vs S{active:<4}{pb:>16}{ab:>16}{ratio:>8.2f}")
    return 0


def _load_or_synth(args, parser, seed: int):
    if (args.images is None) != (args.labels is None):
        parser.error("--images and --labels must be given together")
    if args.images is not None:
        return pipeline.load_idx(args.images, args.labels)
    return pipeline.synth_data(args.n, seed=seed)


def _cmd_encode(args, parser) -> int:
    seed = _master_seed(args)
    data = _load_or_synth(args, parser, seed)
    if args.params is not None:
        params = tn.load_params(args.params)
        if params.config.kind != args.kind:
            parser.error(f"bundle holds a {params.config.kind} frontend, not {args.kind}")
    else:
        params = tn.make_frontend(tn.FrontendConfig(kind=args.kind, seed=seed))
    feats = tn.encode_batch(data.images.reshape(len(data), -1), params)
    if args.save_params is not None:
        tn.save_params(params, args.save_params)
    header = ["index", "label"] + [f"x{j}" for j in range(feats.shape[1])]
    rows = [
        {"index": i, "label": int(data.labels[i]),
         **{f"x{j}": float(feats[i, j]) for j in range(feats.shape[1])}}
        for i in range(feats.shape[0])
    ]
    _write_csv(args.out, header, rows)
    print(f"encoded {feats.shape[0]} samples with the {args.kind} frontend -> {args.out}")
    return 0


def _cmd_qep_run(args, parser) -> int:
    seed = _master_seed(args)
    noise = _noise(args, parser, args.noise)
    _check_nq(parser, [args.nq], noise is not None)
    data = _load_or_synth(args, parser, seed)
    frontend = tn.make_frontend(tn.FrontendConfig(kind=args.kind, seed=seed))
    feats = tn.encode_batch(data.images.reshape(len(data), -1), frontend)
    params = qep.make_qep(d=feats.shape[1], n_q=args.nq, mode=args.observables, seed=seed)
    header = ["batch_id", "n_q", "d_q", "alpha_mean", "q_std", "noise_kind", "seed"]
    rows = []
    for start in range(0, feats.shape[0], args.batch_size):
        chunk = feats[start:start + args.batch_size]
        _, diag = qep.qep_forward(chunk, params, noise=noise)
        rows.append({"batch_id": len(rows), "n_q": args.nq, "d_q": params.d_q,
                     "alpha_mean": diag.alpha_mean, "q_std": diag.q_std,
                     "noise_kind": "noiseless" if noise is None else noise.kind, "seed": seed})
    _write_csv(args.out, header, rows)
    print(f"processed {feats.shape[0]} latents in {len(rows)} batches -> {args.out}")
    return 0


def _cmd_qubit_sweep(args, parser) -> int:
    noise = _noise(args, parser, args.noise)
    _check_nq(parser, args.nq, noise is not None)
    master = _master_seed(args)
    base = pipeline.DemoConfig(kind=args.frontend, n_train=args.n_train,
                               n_test=args.n_test, seed=master, noise=noise)
    header = ["mode", "n_q", "d_q", "seed", "accuracy", "f1", "alpha_mean", "q_std"]
    first = pipeline.synth_data(args.n_train + args.n_test, seed=master)
    rows = []
    for i in range(args.seeds):
        seed = master + i  # per-point seeds derive from the master by index
        batch = pipeline.synth_data(args.n_train + args.n_test, seed=seed) if i else first
        records = qep.qubit_sweep(batch, args.nq, config=replace(base, seed=seed))
        rows += [{"mode": "quantum", **{h: rec[h] for h in header[1:]}} for rec in records]
    baseline = pipeline.run_demo(replace(base, mode="classical"), data=first)
    rows.append({"mode": "classical", "n_q": 0, "d_q": 0, "seed": master, **baseline.summary()})
    _write_csv(args.out, header, rows)
    print(f"wrote {len(rows)} rows ({len(rows) - 1} quantum + 1 classical baseline) to {args.out}")
    return 0


def _cmd_noise_sweep(args, parser) -> int:
    noisy = [_noise(args, parser, kind) is not None for kind in args.noise]
    _check_nq(parser, [args.nq], any(noisy))
    master = _master_seed(args)
    seeds = [master + i for i in range(args.seeds)]
    cfg = pipeline.DemoConfig(kind=args.frontend, n_train=args.n_train, n_test=args.n_test)
    records = pipeline.noise_sweep(kinds=tuple(args.noise), seeds=seeds, n_q=args.nq,
                                   p=args.p, gamma=args.gamma, config=cfg)
    header = ["noise_kind", "seed", "n_q", "p", "gamma",
              "accuracy", "f1", "alpha_mean", "q_std"]
    _write_csv(args.out, header, records)
    print(f"wrote {len(records)} rows to {args.out}")
    return 0


def _cmd_pipeline_demo(args, parser) -> int:
    noise = _noise(args, parser, args.noise)
    _check_nq(parser, [args.nq], noise is not None)
    cfg = pipeline.DemoConfig(kind=args.kind, mode=args.mode, secure=args.secure,
                              n_q=args.nq, noise=noise, seed=_master_seed(args),
                              n_train=args.n_train, n_test=args.n_test)
    report = pipeline.run_demo(cfg)
    text = report.to_json()
    if args.out is not None:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote report to {args.out}")
    else:
        print(text)
    return 0


def _cmd_verify(args, parser) -> int:
    groups = None
    if args.group is not None:
        groups = [g.strip() for g in args.group.split(",") if g.strip()]
        for g in groups:
            if g not in verify.CHECK_GROUPS:
                parser.error(f"unknown group {g!r}, expected one of {verify.CHECK_GROUPS}")
    rows = verify.run_all(groups=groups, tn_params=args.params)
    width = max(len(f"{g}:{name}") for g, name, _, _ in rows)
    for g, name, ok, detail in rows:
        print(f"{'PASS' if ok else 'FAIL'}  {f'{g}:{name}':<{width}}  {detail}")
    failed = [f"{g}:{name}" for g, name, ok, _ in rows if not ok]
    if failed:
        print(f"{len(failed)} of {len(rows)} checks failed", file=sys.stderr)
        return 1
    print(f"all {len(rows)} checks passed")
    return 0


# --------------------------------------------------------------------- parser


def _add_noise(p, **kinds) -> None:
    """--noise (one kind unless kinds overrides its type and default), --p and --gamma."""
    p.add_argument("--noise", **(kinds or {"choices": NOISE_KINDS, "default": _NOISE.kind}))
    p.add_argument("--p", type=float, default=_NOISE.p)
    p.add_argument("--gamma", type=float, default=_NOISE.gamma_amp)


def _add_split(p) -> None:
    p.add_argument("--n-train", type=_int_at_least(2), default=_DEMO.n_train)
    p.add_argument("--n-test", type=_int_at_least(1), default=_DEMO.n_test)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tnmpcqep", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bench-mpc", help="closed-form communication cost grid")
    p.add_argument("--n-min", type=int, default=1)
    p.add_argument("--n-max", type=int, default=30)
    p.add_argument("--dims", type=_int_list, default=[64, 784])
    p.add_argument("--k", type=int, default=_BENCH.k)
    p.add_argument("--theta", type=int, default=_BENCH.theta)
    p.add_argument("--strategy", choices=bench.STRATEGIES, default=_BENCH.division_strategy)
    p.add_argument("--out", default="bench.csv")
    p.set_defaults(func=_cmd_bench_mpc)

    p = sub.add_parser("encode", help="run a tensor-network frontend over a batch")
    p.add_argument("--kind", choices=FRONTEND_KINDS, default=_DEMO.kind)
    p.add_argument("--n", type=_int_at_least(2), default=8, help="synthetic sample count")
    p.add_argument("--images", default=None, help="IDX image file (with --labels)")
    p.add_argument("--labels", default=None, help="IDX label file (with --images)")
    p.add_argument("--params", default=None, help="load frontend parameters from a bundle")
    p.add_argument("--save-params", default=None, help="save the frontend bundle here")
    p.add_argument("--out", default="latents.csv")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("qep-run", help="quantum processor diagnostics over a batch")
    p.add_argument("--kind", choices=FRONTEND_KINDS, default=_DEMO.kind)
    p.add_argument("--nq", type=int, default=_DEMO.n_q)
    p.add_argument("--observables", choices=qep.OBSERVABLE_MODES, default=_DEMO.observables)
    _add_noise(p)
    p.add_argument("--n", type=_int_at_least(2), default=8)
    p.add_argument("--images", default=None)
    p.add_argument("--labels", default=None)
    p.add_argument("--batch-size", type=_int_at_least(1), default=16)
    p.add_argument("--out", default="qep_diagnostics.csv")
    p.set_defaults(func=_cmd_qep_run)

    p = sub.add_parser("qubit-sweep", help="demo metrics per qubit count and seed")
    p.add_argument("--nq", type=_int_list, default=[4, 6, 8, 10, 12, 14, 16])
    p.add_argument("--frontend", choices=FRONTEND_KINDS, default=_DEMO.kind)
    p.add_argument("--seeds", type=_int_at_least(1), default=5, help="number of seeds per count")
    _add_noise(p)
    _add_split(p)
    p.add_argument("--out", default="qubit_sweep.csv")
    p.set_defaults(func=_cmd_qubit_sweep)

    p = sub.add_parser("noise-sweep", help="demo metrics per noise kind and seed")
    p.add_argument("--nq", type=int, default=_DEMO.n_q)
    _add_noise(p, type=lambda s: [t.strip() for t in s.split(",")],
               default=list(pipeline.NOISE_SWEEP_KINDS))
    p.add_argument("--seeds", type=_int_at_least(1), default=3)
    p.add_argument("--frontend", choices=FRONTEND_KINDS, default=_DEMO.kind)
    _add_split(p)
    p.add_argument("--out", default="noise_sweep.csv")
    p.set_defaults(func=_cmd_noise_sweep)

    p = sub.add_parser("pipeline-demo", help="one end-to-end run, JSON report")
    p.add_argument("--kind", choices=FRONTEND_KINDS, default=_DEMO.kind)
    p.add_argument("--mode", choices=pipeline.DEMO_MODES, default=_DEMO.mode)
    p.add_argument("--secure", action="store_true")
    p.add_argument("--nq", type=int, default=_DEMO.n_q)
    _add_noise(p)
    _add_split(p)
    p.add_argument("--out", default=None, help="write the JSON report here instead of stdout")
    p.set_defaults(func=_cmd_pipeline_demo)

    p = sub.add_parser("verify", help="run the invariant suite, pass/fail per check")
    p.add_argument("--group", default=None,
                   help=f"comma-separated subset of {verify.CHECK_GROUPS}")
    p.add_argument("--params", default=None, help="also check a saved frontend bundle")
    p.set_defaults(func=_cmd_verify)

    for command in sub.choices.values():  # a flag error prints its own command's usage
        command.add_argument("--seed", type=_int_at_least(0), default=None,
                             help="master seed (default: TNMPCQEP_SEED env var, then 0)")
        command.set_defaults(parser=command)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, args.parser)
    except Exception as exc:  # runtime failure, distinct from flag errors
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
