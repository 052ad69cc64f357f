"""shrinkca benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload long-window --seed 1 --seconds 10 --trace 0

Run from the repository root.  The package is imported from ``src``; no
build step is needed.  The command

* times ``import shrinkca`` in fresh interpreters (setup_s);
* runs the workload in one fresh single-threaded worker process, which
  makes its inputs from the seed, runs a closed loop for --seconds and
  checks every output against the benchmark's own oracles;
* with --trace 1, also replays the ops with spans around every public
  call and runs a tracemalloc pass, for the per-layer metrics;
* prints a readable report, then one JSON line: ``correct``,
  ``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
  --trace 0, per-layer metrics with --trace 1).

It exits 0 when every check passed, 1 when one failed, and 2 without a
result line when the package or a worker cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END, PER_LAYER, REPORTED_ONLY
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170  # the whole command, including set-up
IMPORT_SAMPLES = 5  # fresh-interpreter imports timed before and after the workload
IMPORT_SNIPPET = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "__import__(sys.argv[1])\n"
    "print(time.perf_counter() - t0)\n"
)


class BenchError(Exception):
    """The benchmark itself could not run: no result line, exit 2."""


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(argv: list[str], timeout: float) -> str:
    """Run a child to completion (killed and reaped on timeout); its stdout."""
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{Path(argv[1]).name} timed out after {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv[:2])} exited {proc.returncode}:\n{proc.stderr.strip()}")
    return proc.stdout


def import_times(module: str, count: int) -> list[float]:
    """Import time in `count` fresh interpreters, placed on each CPU in turn
    (each CPU's speed drifts on its own on a shared host)."""
    cpus = sorted(os.sched_getaffinity(0))
    times = []
    try:
        for k in range(count):
            os.sched_setaffinity(0, {cpus[k % len(cpus)]})
            out = run_child([sys.executable, "-c", IMPORT_SNIPPET, module], 30)
            times.append(float(out.strip()))
    finally:
        os.sched_setaffinity(0, set(cpus))
    return times


def spin() -> dict:
    """A fixed pure-Python loop: host speed, recorded for context only."""
    c0, w0 = time.process_time(), time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc ^= i * i
    return {"cpu_s": time.process_time() - c0, "wall_s": time.perf_counter() - w0}


def report(args, setup, work, host) -> None:
    e2e = dict(work["e2e"], setup_s=statistics.median(setup))
    units = {**{k: u for k, (u, _) in END_TO_END.items()}, **REPORTED_ONLY}
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("host " + json.dumps(host, sort_keys=True))
    notes = {
        "setup_s": f"median of {len(setup)} fresh imports",
        "op_s.p50": f"{work['attempted']} ops, closed loop, one caller",
        "fail_ratio": f"{work['failed']}/{work['attempted']}",
    }
    t = work["tail"]
    e2e["op_s.tail"] = t and t["value"]
    if t:
        notes["op_s.tail"] = f"p{t['percentile']:.2f} of {t['ops']} ops, 10 beyond"
    else:
        notes["op_s.tail"] = "fewer than 11 ops"
    for name in list(END_TO_END) + list(REPORTED_ONLY):
        value = e2e.get(name)
        shown = "n/a" if value is None else f"{value:.6g} {units[name]}"
        print(f"  e2e   {name:<20} {shown:<22} {notes.get(name, '')}")
    print("  counts " + json.dumps(work["counts"], sort_keys=True) + f" digest {work['counts_digest']}")
    if "layers" in work:
        for name in PER_LAYER:
            print(f"  layer {name:<50} {work['layers'][name]:.6g} {PER_LAYER[name][0]}")
        print(f"  traced op_s.p50 {work['traced_op_s.p50']:.6g} s; {work['spans']} spans in {work['spans_file']}")
        print("  self-time share of traced op time:")
        for name, share in work["shares"].items():
            print(f"    {share:6.1%}  {name}")
    for msg in work["failures"]:
        print(f"  FAIL {msg}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    start = time.monotonic()
    if not (ROOT / "src" / "shrinkca" / "__init__.py").is_file():
        raise BenchError(f"no shrinkca package under {ROOT / 'src'}; run from a full checkout")

    module = "shrinkca.cli" if args.workload == "cli-small-sweep" else "shrinkca"
    host = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "spin_before": spin(),
    }
    import_times(module, 1)  # warm the bytecode cache; users pay compilation once
    setup = import_times(module, IMPORT_SAMPLES)
    out = run_child(
        [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
        DEADLINE_S - 10 - (time.monotonic() - start),
    )
    work = json.loads(out.strip().splitlines()[-1])
    setup += import_times(module, IMPORT_SAMPLES)
    host["spin_after"] = spin()
    host["loadavg_after"] = os.getloadavg()

    report(args, setup, work, host)
    if args.trace:
        metrics = {name: {"value": work["layers"][name], "unit": unit} for name, (unit, _) in PER_LAYER.items()}
    else:
        values = dict(work["e2e"], setup_s=statistics.median(setup))
        metrics = {name: {"value": values[name], "unit": unit} for name, (unit, _) in END_TO_END.items()}
    correct = work["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": work["attempted"],
        "failed": work["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
