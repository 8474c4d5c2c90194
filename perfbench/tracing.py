"""Spans around the package's public functions, recorded from outside.

``instrument`` replaces module attributes and class methods with wrappers
that open a span (name, start, end, parent) for each call and puts the
originals back on ``restore``.  A name imported into another module is a
separate attribute, so each function is wrapped where its callers look it
up.  Spans stay in memory and ``write_jsonl`` saves them when the run ends;
``layer_metrics`` turns the spans of the traced rounds into the per-layer
figures.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []
        self._patches = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None, **attrs}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr: str, name: str, attrs=None, on_result=None) -> None:
        """Open span `name` around every call of owner.attr."""
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            with tracer.span(name, **(attrs(*args, **kwargs) if attrs else {})) as rec:
                out = orig(*args, **kwargs)
                if on_result is not None:
                    on_result(rec, out)
                return out

        self._patch(owner, attr, orig, wrapper)

    def count(self, owner, attr: str, name: str) -> None:
        """Count calls of owner.attr without a span (for functions called thousands of times)."""
        orig = getattr(owner, attr)
        counts = self.counts

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return orig(*args, **kwargs)

        self._patch(owner, attr, orig, wrapper)

    def _patch(self, owner, attr, orig, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def restore(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")


def instrument(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the workloads reach."""
    from tnmpcqep import mpc, pipeline, qep, qsim, ring, tn

    tracer.wrap(pipeline, "synth_data", "pipeline.synth_data")
    tracer.wrap(tn, "encode_batch", "tn.encode_batch",
                attrs=lambda xs, params: {"kind": params.config.kind, "n": len(xs)})
    tracer.wrap(pipeline, "aggregate_plain", "pipeline.aggregate")
    tracer.wrap(pipeline, "aggregate_secure", "pipeline.aggregate",
                on_result=lambda rec, out: rec.update(bits=out[1].total_bits))
    for op in ("share", "mul", "truncate", "divide", "open"):
        tracer.wrap(mpc.Mpc3Session, op, f"mpc.{op}")
    tracer.count(ring, "as_ring_array", "ring.as_ring_array")
    tracer.count(mpc, "as_ring_array", "ring.as_ring_array")
    tracer.wrap(qep, "qep_forward", "qep.forward",
                attrs=lambda x, params, noise=None: {"n": len(x)})
    tracer.wrap(qep, "run_circuit", "qsim.run_circuit",
                attrs=lambda angles, n_qubits=None: {"nq": angles.shape[1]})
    tracer.wrap(qep, "expectation", "qsim.expectation",
                attrs=lambda state, term: {"nq": state.n_qubits})
    tracer.wrap(qep, "run_noisy", "qsim.run_noisy",
                attrs=lambda angles, noise: {"kind": noise.kind})
    tracer.wrap(qsim.NoisyResult, "expectations", "qsim.noisy_expectations")
    tracer.wrap(pipeline, "train_readout", "pipeline.train_readout")
    tracer.wrap(pipeline, "readout_loss", "pipeline.readout_loss",
                on_result=lambda rec, out: rec.update(loss=out))
    tracer.wrap(pipeline, "select_threshold", "pipeline.select_threshold")
    tracer.wrap(pipeline, "threshold_candidates", "pipeline.threshold_candidates",
                on_result=lambda rec, out: rec.update(count=len(out)))


# ------------------------------------------------------------------ metrics

MPC_OPS = ("share", "mul", "truncate", "divide", "open")
QUBIT_COUNTS = (8, 12, 16)
NOISY_KINDS = ("depolarizing", "thermal", "mixed")
FRONTEND_KINDS = ("mps", "ttn", "mera")

# (name, unit, better) for every per-layer figure the traced run reports
LAYER_METRICS = (
    [("pipeline.aggregate_ms_per_event", "ms", "lower")]
    + [(f"mpc.{op}_ms_per_event", "ms", "lower") for op in MPC_OPS]
    + [(f"mpc.{op}_calls_per_event", "count", "lower") for op in MPC_OPS]
    + [("mpc.bits_per_event", "bit", "lower"),
       ("ring.as_ring_array_calls_per_event", "count", "lower")]
    + [(f"tn.encode_ms_per_sample.{k}", "ms", "lower") for k in FRONTEND_KINDS]
    + [("qep.forward_ms_per_sample", "ms", "lower"), ("qep.self_ms_per_sample", "ms", "lower")]
    + [(f"qsim.run_circuit_ms_per_sample.nq{n}", "ms", "lower") for n in QUBIT_COUNTS]
    + [(f"qsim.expectation_ms_per_sample.nq{n}", "ms", "lower") for n in QUBIT_COUNTS]
    + [("qsim.expectation_calls_per_sample", "count", "lower")]
    + [(f"qsim.run_noisy_ms_per_sample.{k}", "ms", "lower") for k in NOISY_KINDS]
    + [("qsim.noisy_expectations_ms_per_sample", "ms", "lower"),
       ("pipeline.train_readout_ms", "ms", "lower"),
       ("pipeline.readout_accept_ratio", "ratio", "higher"),
       ("pipeline.select_threshold_ms", "ms", "lower"),
       ("pipeline.threshold_candidates", "count", "lower"),
       ("pipeline.synth_data_ms", "ms", "lower"),
       ("trace.overhead_ratio", "ratio", "lower"),
       ("trace.span_coverage", "ratio", "higher")]
)


def _per(num, den) -> float:
    return float(num) / den if den else 0.0


def _accepted_steps(losses) -> int:
    """Replay train_readout's rule: a candidate is taken iff its loss <= the last taken."""
    taken, best = 0, losses[0]
    for v in losses[1:]:
        if v <= best:
            taken, best = taken + 1, v
    return taken


def layer_metrics(spans, counts, traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer figures from the spans of the traced rounds (roots named "round")."""
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)

    def dur(s):
        return s["end"] - s["start"]

    def total_ms(name, **match):
        return 1e3 * sum(dur(s) for s in by_name[name]
                         if all(s.get(k) == v for k, v in match.items()))

    def calls(name, **match):
        return sum(1 for s in by_name[name] if all(s.get(k) == v for k, v in match.items()))

    events = calls("pipeline.aggregate")
    out = {"pipeline.aggregate_ms_per_event": _per(total_ms("pipeline.aggregate"), events)}
    for op in MPC_OPS:
        out[f"mpc.{op}_ms_per_event"] = _per(total_ms(f"mpc.{op}"), events)
        out[f"mpc.{op}_calls_per_event"] = _per(calls(f"mpc.{op}"), events)
    out["mpc.bits_per_event"] = _per(sum(s.get("bits", 0) for s in by_name["pipeline.aggregate"]),
                                     events)
    out["ring.as_ring_array_calls_per_event"] = _per(counts.get("ring.as_ring_array", 0), events)

    for kind in FRONTEND_KINDS:
        n = sum(s["n"] for s in by_name["tn.encode_batch"] if s["kind"] == kind)
        out[f"tn.encode_ms_per_sample.{kind}"] = _per(total_ms("tn.encode_batch", kind=kind), n)

    forwards = by_name["qep.forward"]
    rows = sum(s["n"] for s in forwards)
    self_ms = 1e3 * sum(dur(f) - sum(dur(c) for c in children[f["id"]]) for f in forwards)
    out["qep.forward_ms_per_sample"] = _per(total_ms("qep.forward"), rows)
    out["qep.self_ms_per_sample"] = _per(self_ms, rows)

    for nq in QUBIT_COUNTS:
        circuits = calls("qsim.run_circuit", nq=nq)
        out[f"qsim.run_circuit_ms_per_sample.nq{nq}"] = _per(total_ms("qsim.run_circuit", nq=nq),
                                                            circuits)
        out[f"qsim.expectation_ms_per_sample.nq{nq}"] = _per(
            total_ms("qsim.expectation", nq=nq), circuits)
    out["qsim.expectation_calls_per_sample"] = _per(calls("qsim.expectation"),
                                                    calls("qsim.run_circuit"))
    for kind in NOISY_KINDS:
        out[f"qsim.run_noisy_ms_per_sample.{kind}"] = _per(total_ms("qsim.run_noisy", kind=kind),
                                                           calls("qsim.run_noisy", kind=kind))
    out["qsim.noisy_expectations_ms_per_sample"] = _per(total_ms("qsim.noisy_expectations"),
                                                        calls("qsim.run_noisy"))

    trainings = by_name["pipeline.train_readout"]
    accepted = sum(_accepted_steps([c["loss"] for c in children[t["id"]]
                                    if c["name"] == "pipeline.readout_loss"])
                   for t in trainings)
    out["pipeline.train_readout_ms"] = _per(total_ms("pipeline.train_readout"), len(trainings))
    out["pipeline.readout_accept_ratio"] = _per(accepted, calls("pipeline.readout_loss"))
    out["pipeline.select_threshold_ms"] = _per(total_ms("pipeline.select_threshold"),
                                               calls("pipeline.select_threshold"))
    out["pipeline.threshold_candidates"] = _per(
        sum(s["count"] for s in by_name["pipeline.threshold_candidates"]),
        calls("pipeline.threshold_candidates"))
    out["pipeline.synth_data_ms"] = _per(total_ms("pipeline.synth_data"),
                                         calls("pipeline.synth_data"))

    rounds = by_name["round"]
    top = sum(dur(c) for r in rounds for c in children[r["id"]])
    out["trace.overhead_ratio"] = _per(traced_wall, untraced_wall)
    out["trace.span_coverage"] = _per(top, sum(dur(r) for r in rounds))
    return out
