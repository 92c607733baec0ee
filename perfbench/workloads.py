"""The four benchmark workloads, driven only through public entry points.

Each workload is built once from the benchmark seed (``build``) and then
repeated identically (``run_once``): every repetition of one seed must
produce the same deterministic digest.  ``repro`` is imported inside the
functions, never at module level, so the worker can time the import.

An *op* is the unit a workload's latency is measured on:

* streams — one ``RollupNode.run_round`` call;
* matrix-grid — one ``RollupNode.run_round`` call inside the cells of
  its grids;
* attack-solve — one ``ParoleAttack.run`` on one generated round.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List

from clock import OpClock

#: Intervals one stream lane serves per repetition.  At 24 submitted and
#: 16 collected per interval the backlog ends at 800 pending transactions.
STREAM_INTERVALS = 100
#: Transactions the lane collects per interval (the ``StreamConfig`` default).
STREAM_COLLECT = 16
#: Default grids one matrix-grid repetition runs.  How many rounds of a
#: grid train a strategy's DQN depends on its seed, and that sets the
#: grid's latency tail; four seeds keep one light grid from setting it.
MATRIX_GRIDS = 4
#: Paper Fig. 6 mempool sizes solved by attack-solve.
ATTACK_MEMPOOL_SIZES = (25, 50, 100)
#: Distinct generated rounds per size, so no single round sets the figures.
ATTACK_ROUNDS_PER_SIZE = 6
#: Users and IFUs of each attack-solve round.
ATTACK_USERS = 20
ATTACK_IFUS = 2


@dataclass
class RepResult:
    """What one repetition of a workload produced."""

    digest: str
    #: Operations attempted and the ones that raised or broke an invariant.
    attempted: int
    failed: int
    #: Transactions the system served in this repetition.
    tx: int
    #: Wall seconds of the whole repetition, and the same in reference
    #: time (see ``clock.py``).
    wall_s: float
    ref_s: float
    #: Wall milliseconds of each op (see the module docstring), and the
    #: host factor it ran at.
    op_ms: List[float]
    op_host: List[float]
    #: Deterministic attack profit found, in ETH (the matrix sums the
    #: attack lift of its cells).
    profit_eth: float
    #: Problems found by the output checks (empty when correct).
    errors: List[str] = field(default_factory=list)
    #: Workload-specific counts for the per-layer report.
    extra: Dict[str, float] = field(default_factory=dict)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# --------------------------------------------------------------------- #
# Streams
# --------------------------------------------------------------------- #


def _stream_config(seed: int, submit: int):
    from repro.streaming import StreamConfig

    # Only the load shape and the seed are set; the pool, the runner and
    # every other knob stay at run_stream's defaults.
    return StreamConfig(
        lanes=1,
        duration_batches=STREAM_INTERVALS,
        batch_size=STREAM_COLLECT,
        submit_per_batch=submit,
        seed=seed,
    )


def _build_stream(seed: int, submit: int) -> Dict[str, Any]:
    from repro.parallel import spawn_task_seeds
    from repro.streaming import TrafficGenerator

    config = _stream_config(seed, submit)
    # run_stream builds its lane's deployment (the zipf traffic and its
    # pre-state) inside every repetition.  Set-up builds one with the
    # lane's own seed as a stand-in for the cost of one deployment; no
    # repetition reuses it.
    TrafficGenerator(config.traffic, seed=spawn_task_seeds(seed, 1)[0])
    return {"config": config}


def _violated_rounds(violations) -> int:
    """Distinct rounds among a lane's ``"batch <i>: ..."`` violations."""
    return len({violation.split(":", 1)[0] for violation in violations})


def _run_stream(inputs: Dict[str, Any], clock: OpClock) -> RepResult:
    from repro.streaming import run_stream

    config = inputs["config"]
    clock.begin()
    report = run_stream(config)
    timing = clock.end()
    lane = report.lanes[0]
    errors = []
    if len(report.lanes) != 1 or lane.batches != config.duration_batches:
        errors.append("stream report does not cover the configured lane")
    if len(timing["op_ms"]) != config.duration_batches:
        errors.append(
            f"{len(timing['op_ms'])} rounds timed, "
            f"expected {config.duration_batches}"
        )
    if report.total_included <= 0:
        errors.append("stream included no transactions")
    failed = sum(_violated_rounds(lane.violations) for lane in report.lanes)
    if failed:
        errors.append(f"{failed} rounds broke an invariant")
    actions = report.action_totals()
    return RepResult(
        digest=_sha256(report.deterministic_json()),
        attempted=config.duration_batches,
        failed=failed,
        tx=report.total_included,
        **timing,
        profit_eth=report.profit_total,
        errors=errors,
        extra={
            # Scans that ran the solver, and the ones it improved.
            "scans": float(
                actions.get("reordered", 0) + actions.get("identity", 0)
            ),
            "reordered": float(actions.get("reordered", 0)),
            "degraded": float(actions.get("degraded", 0)),
        },
    )


# --------------------------------------------------------------------- #
# Matrix
# --------------------------------------------------------------------- #


def _build_matrix(seed: int) -> Dict[str, Any]:
    from repro.matrix import MatrixConfig
    from repro.streaming import TrafficGenerator

    configs = [
        MatrixConfig(seed=seed * MATRIX_GRIDS + index)
        for index in range(MATRIX_GRIDS)
    ]
    for config in configs:
        # A stand-in for the cost of one cell's deployment: every cell
        # builds this seeded traffic again inside run_matrix.
        TrafficGenerator(config.traffic_config(), seed=config.seed)
    return {"configs": configs}


def _run_matrix(inputs: Dict[str, Any], clock: OpClock) -> RepResult:
    from repro.matrix import run_matrix

    configs = inputs["configs"]
    clock.begin()
    reports = [run_matrix(config) for config in configs]
    timing = clock.end()
    cells = [cell for report in reports for cell in report.cells]
    expected = _matrix_cells(inputs)
    errors = []
    if len(cells) != expected:
        errors.append(f"{len(cells)} cells reported, expected {expected}")
    failed = sum(1 for cell in cells if cell.violations)
    if failed:
        errors.append(f"{failed} cells broke an invariant")
    return RepResult(
        digest=_sha256("".join(r.deterministic_json() for r in reports)),
        attempted=expected,
        failed=failed,
        tx=sum(cell.included for cell in cells),
        **timing,
        profit_eth=sum(cell.attack_lift_eth for cell in cells),
        errors=errors,
    )


def _matrix_cells(inputs: Dict[str, Any]) -> int:
    return sum(len(config.cells()) for config in inputs["configs"])


# --------------------------------------------------------------------- #
# Attack solve
# --------------------------------------------------------------------- #


def _build_attack(seed: int) -> Dict[str, Any]:
    from repro.config import WorkloadConfig
    from repro.workloads.generator import generate_workload

    rounds = []
    for index in range(ATTACK_ROUNDS_PER_SIZE):
        round_seed = seed * ATTACK_ROUNDS_PER_SIZE + index
        for size in ATTACK_MEMPOOL_SIZES:
            workload = generate_workload(
                WorkloadConfig(
                    mempool_size=size,
                    num_users=ATTACK_USERS,
                    num_ifus=ATTACK_IFUS,
                    min_ifu_involvement=max(2, size // 12),
                    seed=round_seed,
                )
            )
            rounds.append((round_seed, workload))
    return {"rounds": rounds}


def _run_attack(inputs: Dict[str, Any], clock: OpClock) -> RepResult:
    from repro.config import AttackConfig
    from repro.core.parole import ParoleAttack
    from repro.experiments import QUICK

    records = []
    errors: List[str] = []
    failed = 0
    tx = 0
    profit = 0.0
    clock.begin()
    for round_seed, workload in inputs["rounds"]:
        # A fresh attacker per solve: GENTRANSEQ keeps its agent across
        # calls, and every repetition must do the same work.
        attack = ParoleAttack(
            AttackConfig(
                ifu_accounts=workload.ifus,
                gentranseq=QUICK.config(seed=round_seed),
            )
        )
        try:
            outcome = clock.timed(
                attack.run, workload.pre_state, workload.transactions
            )
        except Exception as exc:  # counted as a failed solve
            failed += 1
            errors.append(f"solve of {len(workload.transactions)} raised {exc!r}")
            continue
        executed = [tx_.tx_hash for tx_ in outcome.executed_sequence]
        if sorted(executed) != sorted(t.tx_hash for t in workload.transactions):
            failed += 1
            errors.append("executed sequence is not a permutation of the round")
        if outcome.profit < -1e-9:
            failed += 1
            errors.append(f"negative attack profit {outcome.profit}")
        tx += len(workload.transactions)
        profit += outcome.profit
        records.append({
            "seed": round_seed,
            "size": len(workload.transactions),
            "executed": executed,
            "profit": round(outcome.profit, 9),
            "per_ifu": {
                ifu: round(value, 9)
                for ifu, value in sorted(outcome.per_ifu_profit.items())
            },
        })
    timing = clock.end()
    return RepResult(
        digest=_sha256(json.dumps(records, sort_keys=True)),
        attempted=len(inputs["rounds"]),
        failed=failed,
        tx=tx,
        **timing,
        profit_eth=profit,
        errors=errors,
    )


@dataclass(frozen=True)
class Workload:
    build: Callable[[int], Dict[str, Any]]
    run_once: Callable[[Dict[str, Any], OpClock], RepResult]
    #: Operations one repetition attempts (rounds, cells or solves).
    ops: Callable[[Dict[str, Any]], int]


def _lane_rounds(inputs: Dict[str, Any]) -> int:
    return inputs["config"].duration_batches


#: Why each workload was chosen is in BENCHMARK.json and README.md.
WORKLOADS: Dict[str, Workload] = {
    "stream-backlog": Workload(
        lambda seed: _build_stream(seed, submit=24), _run_stream, _lane_rounds,
    ),
    "stream-steady": Workload(
        lambda seed: _build_stream(seed, submit=STREAM_COLLECT), _run_stream,
        _lane_rounds,
    ),
    "matrix-grid": Workload(_build_matrix, _run_matrix, _matrix_cells),
    "attack-solve": Workload(
        _build_attack, _run_attack, lambda inputs: len(inputs["rounds"]),
    ),
}
