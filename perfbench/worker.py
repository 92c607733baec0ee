"""One fresh interpreter running one benchmark workload.

``run.py`` starts this file; it is not meant to be run by hand.  It
prints one JSON object as its last stdout line.

* ``--setup-only``: time set-up (``import repro``, the lazily built
  batch-replay C kernel, the workload's deployment) and exit.
* otherwise: time set-up, then repeat the workload on identical inputs
  until ``--seconds`` have passed.  With ``--trace 1`` repetitions
  alternate untraced and traced, so the traced run can report its own
  overhead and show that tracing leaves the deterministic digest alone.

Set-up is bracketed by ``clock.probe`` and the repetitions are timed by
``clock.OpClock``, so every time also reads in reference time.
"""

import time

from clock import REFERENCE_PROBE_S, OpClock, probe

_PROBED = probe()
_STARTED = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

#: Everything the benchmark writes goes below this directory.
OUT = Path(__file__).resolve().parent.parent / ".perfbench"
#: Repetitions measured at least (traced ones, with ``--trace 1``).  The
#: first repetition of a process pays one-time costs inside some ops (on
#: attack-solve its first size-50 solve runs ~60 % longer), and a median
#: of three drops them where a median of two would average them in.
MIN_REPS = 3


def _setup(workload_name: str, seed: int):
    started = _STARTED
    import repro  # noqa: F401
    from repro.matrix import run_matrix  # noqa: F401
    from repro.streaming import run_stream  # noqa: F401
    from repro.core.parole import ParoleAttack  # noqa: F401

    imported = time.perf_counter()
    from repro.rollup.ckernel import load_kernel

    kernel = load_kernel()
    kernel_built = time.perf_counter()
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    inputs = workload.build(seed)
    deployed = time.perf_counter()
    split = {
        "import_s": imported - started,
        "kernel_build_s": kernel_built - imported,
        "deploy_s": deployed - kernel_built,
        "total_s": deployed - started,
        "host": (_PROBED + probe()) / 2.0 / REFERENCE_PROBE_S,
        # Without the C kernel set-up is shorter and replay runs on
        # numpy, so the figures would not measure the same program.
        "errors": [] if kernel is not None else [
            "the batch-replay C kernel did not build"
        ],
    }
    return workload, inputs, split


def _rep_record(rep, traced: bool) -> dict:
    return {"traced": traced, **dataclasses.asdict(rep)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload, inputs, setup = _setup(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup": setup}))
        return 0

    from workloads import RepResult

    clock = OpClock()
    clock.wrap_rounds()
    tracer = None
    if args.trace:
        from layers import LayerTracer

        tracer = LayerTracer()

    reps = []
    traced_layers = []
    started = time.perf_counter()
    while True:
        traced = tracer is not None and len(reps) % 2 == 1
        rep_started = time.perf_counter()
        try:
            if traced:
                rep, self_s, counts = tracer.run(
                    lambda: workload.run_once(inputs, clock)
                )
                traced_layers.append({"self_s": self_s, "counts": counts})
            else:
                rep = workload.run_once(inputs, clock)
        except Exception as exc:  # the program broke: every op failed
            ops = workload.ops(inputs)
            rep = RepResult(
                digest="", attempted=ops, failed=ops, tx=0, wall_s=0.0,
                ref_s=0.0, op_ms=[], op_host=[], profit_eth=0.0,
                errors=[f"{type(exc).__name__}: {exc}"],
            )
            reps.append(_rep_record(rep, traced))
            break
        reps.append(_rep_record(rep, traced))
        reps[-1]["rep_s"] = time.perf_counter() - rep_started
        counted = traced_layers if tracer is not None else reps
        # Stop before a repetition would overrun the measuring window;
        # the next one will take about as long as the last of its kind.
        next_traced = tracer is not None and len(reps) % 2 == 1
        like_next = [r["rep_s"] for r in reps if r["traced"] == next_traced]
        elapsed = time.perf_counter() - started
        if (len(counted) >= MIN_REPS
                and elapsed + like_next[-1] > args.seconds):
            break

    trace_file = None
    if tracer is not None:
        trace_file = str(tracer.export(OUT, f"trace-{args.workload}"))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({
        "setup": setup,
        "reps": reps,
        "layers": traced_layers,
        "peak_rss_mb": peak_kb / 1024.0,
        "trace_file": trace_file,
        "spans_dropped": tracer.sink.dropped if tracer else 0,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
