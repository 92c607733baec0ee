"""``repro.streaming`` — the always-on attack pipeline at traffic scale.

Everything else in this repository evaluates one mempool snapshot at a
time; this package runs the PAROLE attack as a *service*:

* :mod:`repro.streaming.traffic` — a continuous workload generator
  streaming transactions from zipf-distributed synthetic users against
  a tiered NFT collection (reusing the Figure 10 chain/tier churn
  parameters);
* :mod:`repro.streaming.scanner` — :class:`BatchScanner`, the
  arbitrage-scanner service: opportunity pre-check, DQN-inference
  reordering inside a deterministic per-batch evaluation budget, and
  graceful degradation to the honest order when the budget is blown;
* :mod:`repro.streaming.pipeline` — lanes (one rollup deployment each)
  fanned out over the parallel fabric, invariant-checked every batch,
  with byte-identical deterministic results across ``--jobs`` values.

See ``docs/streaming.md`` for the architecture and latency-budget
policy, and ``benchmarks/bench_streaming.py`` for the sustained-tx/s,
p99-latency and hit-rate gates.
"""

from .pipeline import LaneReport, StreamConfig, StreamReport, run_stream
from .scanner import BatchScanner, ScanOutcome, ScannerConfig
from .traffic import StreamTrafficConfig, TrafficGenerator

__all__ = [
    "BatchScanner",
    "LaneReport",
    "ScanOutcome",
    "ScannerConfig",
    "StreamConfig",
    "StreamReport",
    "StreamTrafficConfig",
    "TrafficGenerator",
    "run_stream",
]
