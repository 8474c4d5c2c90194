#!/usr/bin/env python3
"""Run one benchmark workload against the package under ../src.

    python3 perfbench/run.py --workload secure-round --seed 0 --seconds 15 --trace 0

With --trace 0 the workload repeats whole rounds for about --seconds seconds
and reports samples_per_s (median over rounds), setup_s (median over
repeated set-ups) and peak_rss_mb.  Round and set-up times are taken in
reference-host seconds (hostspeed.py), which keeps the swings of a shared
host out of them.  With --trace 1 it alternates untraced and
traced rounds, writes the spans to perfbench/out/ and reports the per-layer
figures.  Every run checks the outputs of its rounds.  The last line of
standard output is a JSON object with the keys correct, attempted, failed
and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

# One process with one BLAS thread: the load never exceeds the cores, and on
# a shared machine the single-threaded small matrix products are faster and
# steadier than a two-thread pool.  Must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# set-up is repeated for at least this long before and again after the rounds,
# so that its median spans the run rather than one instant of a shared machine
SETUP_SECONDS = 1.0
SETUP_MIN_REPEATS = 11


def _import_package():
    """Import tnmpcqep from this checkout's src/, never from an installed copy."""
    if not (SRC / "tnmpcqep" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC / 'tnmpcqep'}")
    sys.path.insert(0, str(SRC))
    import tnmpcqep

    if not Path(tnmpcqep.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: tnmpcqep imported from {tnmpcqep.__file__}, not {SRC}")


def _attempt(wl, inputs):
    """One round; (output or None, error text or None)."""
    try:
        return wl.run_round(inputs), None
    except Exception:  # a failed round counts its samples as failed and the run goes on
        return None, traceback.format_exc()


def _judge(wl, inputs, outputs, errors):
    """Check the first good round in full and every other round against it.

    Returns (failed operations, problems).
    """
    problems = [e for e in errors if e]
    good = [o for o in outputs if o is not None]
    ref = good[0] if good else None
    check_problems = []
    if good:
        try:
            check_problems = wl.check(inputs, ref)
        except Exception:
            check_problems = [traceback.format_exc()]
    failed = 0
    for i, out in enumerate(outputs):
        if out is None:
            failed += wl.ops
        elif not wl.same(out, ref):
            problems.append(f"round {i} differs from the first good round")
            failed += wl.ops
        elif check_problems:
            failed += wl.ops
    return failed, problems + check_problems


def _time_setup(wl, seed: int, clock, sections: list):
    """Repeat the set-up, appending each one's Section to `sections`; returns the inputs."""
    start, repeats = time.perf_counter(), 0
    while repeats < SETUP_MIN_REPEATS or time.perf_counter() - start < SETUP_SECONDS:
        with clock.section() as sec:
            inputs = wl.setup(seed)
        sections.append(sec)
        repeats += 1
    return inputs


def run_untraced(wl, seed: int, seconds: float):
    import hostspeed

    setups, rounds, outputs, errors = [], [], [], []
    with hostspeed.HostClock() as clock:
        inputs = _time_setup(wl, seed, clock, setups)
        start = time.perf_counter()
        while True:
            with clock.section() as sec:
                out, err = _attempt(wl, inputs)
            outputs.append(out)
            errors.append(err)
            rounds.append(sec)
            walls = [r.wall_s for r in rounds]
            if time.perf_counter() - start + statistics.median(walls) > seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        _time_setup(wl, seed, clock, setups)

    failed, problems = _judge(wl, inputs, outputs, errors)
    good = [r for r, out in zip(rounds, outputs) if out is not None]
    metrics = {
        "samples_per_s": {"value": statistics.median(wl.ops / r.ref_s for r in good)
                          if good else 0.0, "unit": "1/s"},
        "setup_s": {"value": statistics.median(s.ref_s for s in setups), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
    }
    # wall-clock figures of this host, for the reader; not part of the result
    info = {
        "wall samples_per_s": statistics.median(wl.ops / r.work_s for r in good) if good else 0.0,
        "wall setup_s": statistics.median(s.work_s for s in setups),
        "host speed": statistics.median(r.speed for r in rounds),
    }
    return len(outputs) * wl.ops, failed, problems, metrics, info


def run_traced(wl, seed: int, seconds: float):
    import tracing

    tracer = tracing.Tracer()
    inputs = wl.setup(seed)  # untraced warm-up
    tracing.instrument(tracer)
    try:
        with tracer.span("setup"):
            inputs = wl.setup(seed)
    finally:
        tracer.restore()

    outputs, errors = [], []
    walls = {False: [], True: []}
    start = time.perf_counter()
    while True:
        for traced in (False, True):
            if traced:
                tracing.instrument(tracer)
            try:
                t0 = time.perf_counter()
                with tracer.span("round") if traced else contextlib.nullcontext():
                    out, err = _attempt(wl, inputs)
                walls[traced].append(time.perf_counter() - t0)
            finally:
                tracer.restore()
            outputs.append(out)
            errors.append(err)
        pair = walls[False][-1] + walls[True][-1]
        if time.perf_counter() - start + pair > seconds:
            break

    OUT.mkdir(exist_ok=True)
    tracer.write_jsonl(OUT / f"trace-{wl.name}-seed{seed}.jsonl")
    failed, problems = _judge(wl, inputs, outputs, errors)
    figures = tracing.layer_metrics(tracer.spans, tracer.counts,
                                    sum(walls[True]), sum(walls[False]))
    metrics = {name: {"value": figures[name], "unit": unit}
               for name, unit, _ in tracing.LAYER_METRICS}
    return len(outputs) * wl.ops, failed, problems, metrics, {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    wl = workloads.make(args.workload)
    seed = args.seed % 2**31  # the package's seeded draws take non-negative seeds
    run = run_traced if args.trace else run_untraced
    attempted, failed, problems, metrics, info = run(wl, seed, args.seconds)

    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print(f"{wl.name} seed={seed} attempted={attempted} failed={failed}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for name, value in info.items():
        print(f"  ({name} = {value:.6g})")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
