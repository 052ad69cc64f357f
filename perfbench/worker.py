"""One workload in one fresh single-threaded process.

Run by run.py with ``src`` on PYTHONPATH; prints one JSON object.  Phases:

1. make the inputs from the seed and bind each to an op (clock stopped);
2. the timed pass: a closed loop, each op starting when the previous one
   returns, for --seconds and at least one cycle of ops;
3. the oracle checks of every op's outcome;
4. with --trace 1, three more passes over the same inputs: the traced
   pass (spans around every public call), the probes (replay and
   annihilation on the first cycle) and the memory pass (tracemalloc
   peaks of the keystream and fit stages, on the first op).
"""

from __future__ import annotations

import argparse
import gc
import gzip
import hashlib
import importlib
import json
import os
import random
import resource
import statistics
import time
from pathlib import Path

import oracles
import tracing
from metrics import COUNTS
from workloads import WORKLOADS

OUT_DIR = Path(__file__).resolve().parent / "out"


def import_package():
    sc = importlib.import_module("shrinkca")
    for layer in tracing.LAYERS:
        importlib.import_module(f"shrinkca.{layer}")
    return sc


class CpuRotation:
    """Moves this process to the next CPU it may use, between ops, at most
    every PERIOD seconds.  On a shared host each CPU's speed drifts on its
    own (by 20-40% over tens of seconds), so a run that visits all of them
    measures their average, not one CPU's luck."""

    PERIOD = 0.25

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.k = 0
        self.due = time.perf_counter() + self.PERIOD

    def tick(self, now):
        if now >= self.due and len(self.cpus) > 1:
            self.k += 1
            os.sched_setaffinity(0, {self.cpus[self.k % len(self.cpus)]})
            self.due = now + self.PERIOD

    def release(self):
        os.sched_setaffinity(0, set(self.cpus))


def timed_loop(ops, seconds, min_ops):
    clock = time.perf_counter
    times, raws = [], []
    rotation = CpuRotation()
    start = clock()
    i = 0
    try:
        while True:
            op = ops[i % len(ops)]
            t0 = clock()
            try:
                raw = op()
            except Exception as exc:  # an op that raises is a counted failure
                raw = exc
            t1 = clock()
            times.append(t1 - t0)
            raws.append(raw)
            i += 1
            if t1 - start >= seconds and i >= min_ops:
                return times, raws, t1 - start
            rotation.tick(t1)
    finally:
        rotation.release()


def tail(times):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(times)
    if n < 11:
        return None
    return {"value": sorted(times)[n - 11], "percentile": 100.0 * (n - 10) / n, "ops": n}


def check_outcomes(wl, pool, raws):
    """Outcomes, exact counts and (op, message) failures of every op.  A repeated
    input must give the same outcome; its oracle check runs once."""
    outcomes, failures = [], []
    first: dict[int, dict] = {}
    verdicts: dict[int, list[str]] = {}
    for i, raw in enumerate(raws):
        idx = i % len(pool)
        if isinstance(raw, Exception):
            outcomes.append(None)
            failures.append((i, f"raised {raw!r}"))
            continue
        try:
            d, counts = wl.outcome(pool[idx], raw)
            if idx not in first:
                first[idx] = d
                verdicts[idx] = wl.check(pool[idx], d)
        except Exception as exc:  # malformed output is a failed op, not a crash
            outcomes.append(None)
            failures.append((i, f"output could not be checked: {exc!r}"))
            continue
        outcomes.append((d, counts))
        if d != first[idx]:
            failures.append((i, "outcome differs from an earlier op on the same input"))
        else:
            failures += [(i, m) for m in verdicts[idx]]
    return outcomes, failures


def cycle_counts(outcomes, cycle):
    totals = {}
    for item in outcomes[:cycle]:
        for name, value in (item[1] if item else {}).items():
            totals[name] = totals.get(name, 0) + value
    return totals


def median(values):
    return statistics.median(values) if values else 0.0


def traced_pass(sc, wl, ops, outcomes, pool):
    """Replays every timed op with spans; returns (times, spans, failures).
    Outcomes are compared after the wrappers are gone, so the spans hold
    op time only."""
    tracer = tracing.Tracer()
    patch = tracing.Patch(sc, tracer.wrapper)
    times, raws = [], []
    clock = time.perf_counter
    rotation = CpuRotation()
    try:
        for i in range(len(outcomes)):
            tracer.op = i
            t0 = clock()
            try:
                raw = ops[i % len(ops)]()
            except Exception as exc:
                raw = exc
            t1 = clock()
            times.append(t1 - t0)
            raws.append(raw)
            rotation.tick(t1)
    finally:
        rotation.release()
        patch.undo()
    failures = []
    for i, (item, raw) in enumerate(zip(outcomes, raws)):
        if item is None:
            continue
        if isinstance(raw, Exception):
            failures.append((i, f"traced: raised {raw!r}"))
            continue
        try:
            same = wl.outcome(pool[i % len(pool)], raw) == item
        except Exception:
            same = False
        if not same:
            failures.append((i, "traced: outcome or counts differ from the timed op"))
    return times, tracer.spans, failures


def probes(sc, wl, pool, outcomes, cycle):
    """The program's own replay and annihilation check on the literal
    keystream, for the first cycle of attack ops.  A probe whose public
    function is gone is skipped, and its metric reads 0."""
    clock = time.perf_counter
    steps, replay_s, annihilation_s, failures = 0, 0.0, [], []
    for i, item in enumerate(outcomes[:cycle]):
        g = wl.generator(pool[i % len(pool)])
        if g is None or item is None or not item[0].get("verdict"):
            continue
        d = item[0]
        window = oracles.keystream(g.p1, list(g.s1), g.p2, list(g.s2), d["window_length"])
        try:
            rules = sc.automata.RuleVector.parse(d["matched_rules"])
            state = sc.automata.state_from_bits(sc.generators.parse_bits(d["initial_state"]))
            t0 = clock()
            states = sc.automata.ca_run(rules, state, len(window) - 1)
            replay_s += clock() - t0
            steps += len(window) - 1
            if sc.automata.cell_output(states, d["matched_cell"]) != window:
                failures.append((i, "probe: ca_run replay differs from the literal keystream"))
            del states
        except AttributeError:
            pass
        try:
            base = sc.gf2poly.Gf2Poly.parse(d["linearization"]["base_poly"])
            t0 = clock()
            ok = sc.analysis.check_annihilation(base, d["measured_multiplicity"], window)
            annihilation_s.append(clock() - t0)
            if not ok:
                failures.append((i, "probe: base^multiplicity does not annihilate the keystream"))
        except AttributeError:
            pass
    return {
        "automata.ca_run.steps_per_s": steps / replay_s if replay_s else 0.0,
        "analysis.check_annihilation.s": median(annihilation_s),
    }, failures


def memory_pass(sc, ops, count):
    rec = tracing.PeakRecorder()
    patch = tracing.Patch(sc, rec.wrapper, names=rec.STAGES)
    try:
        for op in ops[:count]:
            op()
    finally:
        patch.undo()
    mb = {name: median(v) / 2**20 for name, v in rec.peaks.items()}
    return {
        "generators.shrunken_sequence.peak_alloc_mb":
            mb["generators.ShrinkingGenerator.shrunken_sequence"],
        "automata.fit_initial_state.peak_alloc_mb": mb["automata.fit_initial_state"],
    }


# per-layer time metric -> span name it reads
SPAN_TIMES = {
    "generators.shrunken_sequence.s": "generators.ShrinkingGenerator.shrunken_sequence",
    "analysis.berlekamp_massey.s": "analysis.berlekamp_massey",
    "automata.fit_initial_state.s": "automata.fit_initial_state",
    "linearizer.synthesize_ca_pair.s": "linearizer.synthesize_ca_pair",
    "linearizer.linearize_shrinking_generator.s": "linearizer.linearize_shrinking_generator",
    "linearizer.concat_double.s": "linearizer.concat_double",
    "gf2field.minimal_polynomial_of_power.s": "gf2field.minimal_polynomial_of_power",
    "gf2poly.is_primitive.s": "gf2poly.is_primitive",
    "cli.main.s": "cli.main",
}
SPAN_SELF = {
    "analysis.verify_linearization.self_s": "analysis.verify_linearization",
    "linearizer.linearize_shrinking_generator.self_s": "linearizer.linearize_shrinking_generator",
}
SPAN_RATES = {
    "generators.keystream_bits_per_s": "generators.ShrinkingGenerator.shrunken_sequence",
    "analysis.bm_bits_per_s": "analysis.berlekamp_massey",
}


def layer_metrics(spans, n_ops, cycle, untraced, traced):
    profiles = tracing.op_profiles(spans)
    per_op = [profiles.get(i, {"root": 0.0, "root_children": 0.0, "names": {}}) for i in range(n_ops)]

    def field(name, k):
        return [p["names"].get(name, (0.0, 0.0, 0, 0))[k] for p in per_op]

    out = {m: median(field(s, 0)) for m, s in SPAN_TIMES.items()}
    out.update({m: median(field(s, 1)) for m, s in SPAN_SELF.items()})
    for m, s in SPAN_RATES.items():
        busy = sum(field(s, 0))
        out[m] = sum(field(s, 3)) / busy if busy else 0.0
    # cli.main minus the verify_linearization it runs: what the CLI adds
    out["cli.main.self_s"] = median([
        a - b for a, b in zip(field("cli.main", 0), field("analysis.verify_linearization", 0)) if a
    ])
    for layer in tracing.LAYERS:
        out[f"layer.{layer}.self_s"] = median([
            sum(v[1] for name, v in p["names"].items() if name.startswith(layer + "."))
            for p in per_op
        ])
    out["gf2poly.is_primitive.calls"] = sum(field("gf2poly.is_primitive", 2)[:cycle])
    out["trace.coverage"] = median([p["root_children"] / p["root"] for p in per_op if p["root"]])
    out["trace.overhead_s"] = median(traced) - median(untraced)
    shares = {}
    for p in per_op:
        for name, v in p["names"].items():
            shares[name] = shares.get(name, 0.0) + v[1]
    total = sum(p["root"] for p in per_op) or 1.0
    top = sorted(shares.items(), key=lambda kv: -kv[1])[:8]
    return out, {name: t / total for name, t in top}


def write_spans(path, spans):
    path.parent.mkdir(exist_ok=True)
    with gzip.open(path, "wt", compresslevel=1) as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "op", "size"], "spans": spans}, fh)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    sc = import_package()
    wl = WORKLOADS[args.workload]
    pool = wl.inputs(random.Random(args.seed))
    ops = [wl.bind(sc, inp) for inp in pool]
    gc.collect()

    times, raws, elapsed = timed_loop(ops, args.seconds, wl.cycle)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    outcomes, failures = check_outcomes(wl, pool, raws)
    failures += wl.agree(outcomes, pool)
    del raws
    counts = cycle_counts(outcomes, wl.cycle)
    window_bits = sum(item[1].get("generators.window_bits", 0) for item in outcomes if item)
    result = {
        "attempted": len(times),
        "e2e": {
            "op_s.p50": statistics.median(times),
            "ops_per_s": len(times) / elapsed,
            "peak_rss_mb": peak_rss_mb,
            "window_bits_per_s": window_bits / sum(times) if window_bits else None,
        },
        "tail": tail(times),
    }

    if args.trace:
        n = len(outcomes)
        traced, spans, trace_failures = traced_pass(sc, wl, ops, outcomes, pool)
        layers, shares = layer_metrics(spans, n, wl.cycle, times, traced)
        probe, probe_failures = probes(sc, wl, pool, outcomes, wl.cycle)
        layers.update(probe)
        layers.update(memory_pass(sc, ops, wl.memory_ops))
        for name in COUNTS:
            layers.setdefault(name, counts.get(name, 0))
        counts["gf2poly.is_primitive.calls"] = layers["gf2poly.is_primitive.calls"]
        failures += trace_failures + probe_failures
        result["layers"] = layers
        result["shares"] = shares
        result["traced_op_s.p50"] = median(traced)
        path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json.gz"
        write_spans(path, spans)
        result["spans_file"] = str(path.relative_to(OUT_DIR.parent.parent))
        result["spans"] = len(spans)

    result["counts"] = counts
    result["counts_digest"] = hashlib.sha256(
        json.dumps([item[1] if item else None for item in outcomes[: wl.cycle]], sort_keys=True).encode()
    ).hexdigest()[:16]
    result["failed"] = len({i for i, _ in failures})
    result["e2e"]["fail_ratio"] = result["failed"] / len(times)
    result["failures"] = [f"op {i}: {msg}" for i, msg in failures[:20]]
    print(json.dumps(result))


if __name__ == "__main__":
    main()
