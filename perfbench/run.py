"""The PAROLE rollup benchmark: one command, four workloads.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload stream-backlog --seed 1 --seconds 20 --trace 0

It byte-compiles ``src`` (the build step), then starts fresh
interpreters one after another: two that only time set-up, and one that
times set-up and then repeats the workload on identical seeded inputs
for ``--seconds``.  It prints every end-to-end metric by name with its
unit and, with ``--trace 1``, the per-layer split of a traced run; every
time is in reference time, corrected for the host's speed (``clock.py``).  The
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from layers import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Everything the benchmark writes goes below this directory.
OUT = ROOT / ".perfbench"

#: Fresh interpreters whose set-up is timed; the median is ``setup_s``.
SETUP_SAMPLES = 3
#: Wall-clock budget of one invocation, below the contract's 180 s.
BUDGET_S = 170.0
#: What one attempted operation is, per workload.
UNITS = {"stream-backlog": "round", "stream-steady": "round",
         "matrix-grid": "cell", "attack-solve": "solve"}
#: End-to-end metric units, in report order.
E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "tx_per_s": "tx/s",
             "round_ms_p50": "ms", "round_ms_p95": "ms"}

#: Per-layer counts: (metric, counter, divisor), the divisor being the
#: attempted ops, the ``run_round`` calls or the transactions served.
#: Per-layer times are ``<layer>_ms``, self time per attempted op.
LAYER_COUNTS = (
    ("mempool.backlog", "mempool.backlog", "round"),
    ("mempool.requeued", "mempool.requeued", "op"),
    ("crypto.tx_hash_per_tx", "crypto.tx_hash", "tx"),
    ("crypto.digests_per_tx", "crypto.digests", "tx"),
    ("commit.state_root_per_round", "commit.state_root", "round"),
    ("commit.merkle_leaves_per_round", "commit.merkle_leaves", "round"),
    ("ovm.replay_calls", "ovm.replays", "op"),
    ("ovm.steps", "ovm.steps", "op"),
    ("replay.evaluations", "replay.evaluations", "op"),
    ("drl.forward_calls", "drl.forward", "op"),
    ("drl.train_steps", "drl.train_steps", "op"),
)


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100] of ``values``."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    # The batch-replay kernel compiles into a temporary directory; keep
    # it inside the checkout.
    env["TMPDIR"] = str(OUT / "tmp")
    # The kernel's own switch stays at its default: always measure it.
    env.pop("REPRO_BATCH_CKERNEL", None)
    # No extra threads: numpy's BLAS stays single-threaded.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args: List[str], deadline: float) -> Optional[dict]:
    """Run ``worker.py`` with ``args``; its last stdout line as JSON."""
    remaining = deadline - time.monotonic()
    if remaining <= 1:
        print("perfbench: out of time budget", file=sys.stderr)
        return None
    command = [sys.executable, str(HERE / "worker.py"), *args]
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=child_env(), capture_output=True,
            text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        print("perfbench: worker timed out", file=sys.stderr)
        return None
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-4000:])
        print(f"perfbench: worker exited {done.returncode}", file=sys.stderr)
        return None
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print("perfbench: worker printed no result", file=sys.stderr)
        return None


def reference_ms(rep: dict) -> List[float]:
    """The repetition's op latencies in reference time (``clock.py``)."""
    return [ms / host for ms, host in zip(rep["op_ms"], rep["op_host"])]


def host_factor(rep: dict) -> float:
    """How much slower than the reference the host ran a repetition."""
    return rep["wall_s"] / rep["ref_s"]


def median_ops(reps: List[dict]) -> List[float]:
    """Each op's median reference latency over the repetitions.

    Repetitions run identical inputs, so op ``i`` does the same work in
    every one.  Unlike a minimum, the median does not move with how many
    repetitions fit in the window.
    """
    series = [reference_ms(rep) for rep in reps]
    counts = {len(ops) for ops in series}
    if len(counts) != 1:
        raise ValueError(f"repetitions timed different op counts: {counts}")
    return [statistics.median(samples) for samples in zip(*series)]


def tx_per_s(reps: List[dict]) -> float:
    """Transactions served over a repetition's median reference time."""
    return reps[0]["tx"] / statistics.median(rep["ref_s"] for rep in reps)


def end_to_end(reps: List[dict], setups: List[dict], peak_mb: float) -> dict:
    """The end-to-end metrics over the untraced repetitions."""
    if not reps:
        raise ValueError("no repetition completed")
    op_ms = median_ops(reps)
    values = {
        "setup_s": statistics.median(
            setup["total_s"] / setup["host"] for setup in setups
        ),
        "peak_rss_mb": peak_mb,
        "tx_per_s": tx_per_s(reps),
        "round_ms_p50": percentile(op_ms, 50),
        "round_ms_p95": percentile(op_ms, 95),
    }
    return {name: (values[name], unit) for name, unit in E2E_UNITS.items()}


def per_layer(traced: List[dict], layers: List[dict], setups: List[dict],
              overhead_pct: float) -> dict:
    """Per-layer metrics, summed over the traced repetitions.

    Times are in reference time: a repetition's self times are divided
    by its host factor, and set-up times by their interpreter's.
    """
    ops = sum(rep["attempted"] for rep in traced) or 1
    tx = sum(rep["tx"] for rep in traced) or 1
    rounds = sum(len(rep["op_ms"]) for rep in traced) or 1
    divisors = {"op": ops, "tx": tx, "round": rounds}
    self_s: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    for rep, layer in zip(traced, layers):
        host = host_factor(rep)
        for name, value in layer["self_s"].items():
            self_s[name] = self_s.get(name, 0.0) + value / host
        for name, value in layer["counts"].items():
            counts[name] = counts.get(name, 0) + value
    metrics = {
        f"setup.{key}": (
            statistics.median(setup[key] / setup["host"] for setup in setups),
            "s",
        )
        for key in ("import_s", "kernel_build_s", "deploy_s")
    }
    for layer in LAYERS:
        metrics[f"{layer}_ms"] = (self_s.get(layer, 0.0) * 1000.0 / ops, "ms")
    for metric, counter, per in LAYER_COUNTS:
        metrics[metric] = (counts.get(counter, 0) / divisors[per], "count")
    scans = [rep["extra"] for rep in traced if "scans" in rep["extra"]]
    attempted = sum(extra["scans"] for extra in scans)
    metrics["scanner.reordered_ratio"] = (
        sum(extra["reordered"] for extra in scans) / attempted
        if attempted else 0.0, "ratio",
    )
    metrics["scanner.degraded"] = (
        sum(extra["degraded"] for extra in scans) / ops, "count",
    )
    metrics["trace.overhead_pct"] = (overhead_pct, "%")
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(UNITS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S

    if not (SRC / "repro" / "__init__.py").is_file():
        return fail(f"no repro sources under {SRC}; run from a checkout")
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    build = subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC), str(HERE)],
        capture_output=True, text=True,
    )
    if build.returncode != 0:
        sys.stderr.write(build.stdout[-4000:])
        return fail("byte-compiling the sources failed")

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        setup_only = run_child([*common, "--setup-only"], deadline)
        if setup_only is None:
            return fail("set-up run failed")
        setups.append(setup_only["setup"])
    result = run_child(
        [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)],
        deadline,
    )
    if result is None:
        return fail("measurement run failed")
    setups.append(result["setup"])
    reps = result["reps"]

    errors = [error for setup in setups for error in setup["errors"]]
    errors += [error for rep in reps for error in rep["errors"]]
    digests = sorted({rep["digest"] for rep in reps})
    if len(digests) != 1:
        errors.append(f"repetitions disagree: {len(digests)} distinct digests")
    if args.trace:
        traced_counts = [layer["counts"] for layer in result["layers"]]
        if any(counts != traced_counts[0] for counts in traced_counts):
            errors.append("work counters differ between traced repetitions")
    untraced = [rep for rep in reps if not rep["traced"]]
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)

    timed = [rep for rep in untraced if rep["digest"]]
    try:
        e2e = end_to_end(timed, setups, result["peak_rss_mb"])
    except ValueError as exc:
        errors.append(f"no end-to-end figures: {exc}")
        e2e = {name: (0.0, unit) for name, unit in E2E_UNITS.items()}
    report_lines(args, reps, timed, e2e, setups, digests, attempted, failed)

    if args.trace:
        traced = [rep for rep in reps if rep["traced"] and rep["digest"]]
        plain = e2e["tx_per_s"][0]
        try:
            with_trace = tx_per_s(traced)
        except (IndexError, ValueError) as exc:
            errors.append(f"no traced figures: {exc!r}")
            with_trace = plain
        overhead = 100.0 * (1.0 - with_trace / plain) if plain else 0.0
        metrics = per_layer(traced, result["layers"], setups, overhead)
        trace_file = result["trace_file"]
        if trace_file:
            trace_file = os.path.relpath(trace_file, ROOT)
        print(f"  traced: {len(traced)} repetitions, tracing overhead "
              f"{overhead:.1f}% of tx/s, trace {trace_file}"
              f" ({result['spans_dropped']} spans beyond the kept cap)")
        for name, (value, unit) in metrics.items():
            print(f"  {name:<32} {value:>14.6g} {unit}")
    else:
        metrics = e2e

    for error in errors:
        print(f"  CHECK FAILED: {error}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


def report_lines(args, reps, timed, e2e, setups, digests, attempted,
                 failed) -> None:
    """The human-readable report: every end-to-end metric with its unit."""
    unit = UNITS[args.workload]
    ops = len(timed[0]["op_ms"]) if timed else 0
    op = "solve" if unit == "solve" else "round"
    print(f"workload {args.workload} seed {args.seed}: {len(reps)} "
          f"repetitions ({len(timed)} untraced), {attempted} {unit}s "
          f"attempted")
    hosts = sorted(host_factor(rep) for rep in timed)
    if hosts:
        # Above about 1.5 a repetition ran mostly in a slow host phase.
        print(f"  host factor of the repetitions {hosts[0]:.2f} to "
              f"{hosts[-1]:.2f}, of set-up "
              + ", ".join(f"{setup['host']:.2f}" for setup in setups)
              + "; every time below is in reference time (clock.py)")
    median = f"median of {len(timed)} repetitions"
    per_op = f"{ops} {op}s per repetition, each the {median}"
    lines = [
        ("setup_s", *e2e["setup_s"],
         f"median of {len(setups)} fresh interpreters"),
        ("peak_rss_mb", *e2e["peak_rss_mb"], ""),
        ("failed_fraction", failed / attempted if attempted else 1.0,
         "", f"{failed}/{attempted} {unit}s"),
        ("tx_per_s", *e2e["tx_per_s"], "over the " + median),
        ("round_ms_p50", *e2e["round_ms_p50"], per_op),
        ("round_ms_p95", *e2e["round_ms_p95"],
         f"{ops - int(0.95 * ops)} {op}s above"),
    ]
    if timed and timed[0]["tx"]:
        # Ops per second, from tx_per_s and the fixed tx count of an op.
        ops_per_s = e2e["tx_per_s"][0] * timed[0]["attempted"] / timed[0]["tx"]
        if unit == "cell":
            lines.append(("cells_per_min", ops_per_s * 60.0, "cells/min",
                          "as tx_per_s"))
        if unit == "solve":
            lines.append(("solves_per_s", ops_per_s, "1/s", "as tx_per_s"))
            lines.append(("solve_ms_p50", *e2e["round_ms_p50"],
                          "= round_ms_p50"))
        lines.append(("profit_eth", timed[0]["profit_eth"], "ETH",
                      "deterministic per seed"))
    for name, value, metric_unit, note in lines:
        print(f"  {name:<16} {value:>14.6g} {metric_unit:<9} {note}")
    print(f"  digest           {', '.join(digests)}")


if __name__ == "__main__":
    sys.exit(main())
