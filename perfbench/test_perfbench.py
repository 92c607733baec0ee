"""Tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench -q

The end-to-end tests start the real benchmark, so they take a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from layers import _SpanSink  # noqa: E402


def _span(span_id, parent_id, duration, layer=None):
    record = {"type": "span", "name": layer or "program", "span_id": span_id,
              "parent_id": parent_id, "start": 0.0, "end": duration,
              "duration_s": duration}
    if layer is not None:
        record["attrs"] = {"layer": layer}
    return record


def test_self_time_subtracts_nearest_layer_descendants():
    sink = _SpanSink()
    # layer a (10 s) > program span (6 s) > layer b (4 s); children close first.
    for record in (_span(3, 2, 4.0, "b"), _span(2, 1, 6.0), _span(1, None, 10.0, "a")):
        sink.emit(record)
    assert sink.self_s == {"a": 6.0, "b": 4.0}


def test_span_cap_counts_dropped_records(monkeypatch):
    monkeypatch.setattr(layers, "KEEP_SPANS", 1)
    sink = _SpanSink()
    sink.emit(_span(2, 1, 1.0, "b"))
    sink.emit(_span(1, None, 2.0, "a"))
    assert len(sink.records) == 1 and sink.dropped == 1


def test_percentile_interpolates_linearly():
    assert run.percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.5
    assert run.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 95) == pytest.approx(4.8)


def _rep(op_ms, host=1.0, tx=100, wall_s=2.0):
    return {"op_ms": op_ms, "op_host": [host] * len(op_ms), "tx": tx,
            "wall_s": wall_s, "ref_s": wall_s / host}


def test_median_ops_takes_each_op_over_repetitions():
    reps = [_rep([1.0, 9.0]), _rep([3.0, 5.0]), _rep([2.0, 4.0])]
    assert run.median_ops(reps) == [2.0, 5.0]
    # A fourth, faster repetition moves a median only by half a step.
    reps.append(_rep([0.5, 1.0]))
    assert run.median_ops(reps) == [1.5, 4.5]


def test_median_ops_rejects_unequal_op_counts():
    with pytest.raises(ValueError):
        run.median_ops([_rep([1.0]), _rep([1.0, 2.0])])


def test_host_factor_scales_every_time_and_no_count():
    calm = run.end_to_end([_rep([10.0, 30.0])],
                          [{"total_s": 1.0, "host": 1.0}], 120.0)
    slow = run.end_to_end([_rep([20.0, 60.0], host=2.0, wall_s=4.0)],
                          [{"total_s": 2.0, "host": 2.0}], 120.0)
    assert slow == calm


def test_clock_leaves_probes_out_of_ops_and_wall():
    import clock

    ticks = clock.OpClock()
    ticks.begin()
    for _ in range(3):   # far quicker than PROBE_EVERY_S: no probe between
        ticks.timed(sum, range(10))
    timing = ticks.end()
    (_, begun, before), (ended, _, after) = ticks.marks
    host = (before + after) / 2 / clock.REFERENCE_PROBE_S
    assert timing["wall_s"] == ended - begun
    assert timing["ref_s"] == pytest.approx(timing["wall_s"] / host)
    assert timing["op_host"] == [host] * 3


def test_setup_fails_without_the_c_kernel(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import repro.rollup.ckernel as ckernel

    monkeypatch.setattr(ckernel, "load_kernel", lambda: None)
    _, _, setup = worker._setup("stream-steady", 1)
    assert setup["errors"] == ["the batch-replay C kernel did not build"]


def _bench(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _digest(stdout):
    return [line.split()[-1] for line in stdout.splitlines()
            if line.strip().startswith("digest")]


@pytest.mark.parametrize("workload", ["stream-steady", "attack-solve"])
def test_counters_and_digests_repeat_across_runs(workload):
    runs = [_bench(workload, trace=1) for _ in range(2)]
    results = []
    for done in runs:
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert result["correct"], done.stdout
        assert result["failed"] == 0
        results.append(result)
    counts = [
        {name: metric["value"] for name, metric in result["metrics"].items()
         if metric["unit"] == "count"}
        for result in results
    ]
    assert counts[0] and counts[0] == counts[1]
    assert _digest(runs[0].stdout) == _digest(runs[1].stdout)
    assert len(_digest(runs[0].stdout)[0]) == 64


def test_untraced_run_reports_every_end_to_end_metric():
    done = _bench("matrix-grid", trace=0)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in declared}
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_refuses_to_run_without_sources():
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        done = _bench("stream-steady", trace=0, cwd=bare,
                      script=bare / "perfbench" / "run.py")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert not done.stdout.strip()
