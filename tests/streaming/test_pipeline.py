"""Pipeline soak: invariants, determinism, jobs-equivalence, caching."""

import dataclasses

import pytest

from repro.errors import ReproError
from repro.parallel import get_runner
from repro.streaming import (
    ScannerConfig,
    StreamConfig,
    StreamTrafficConfig,
    run_stream,
)

#: Small but real: two lanes, backlog regime, scanner exercised.
SMALL = StreamConfig(
    lanes=2,
    duration_batches=6,
    batch_size=8,
    submit_per_batch=10,
    seed=0,
    traffic=StreamTrafficConfig(num_users=60, max_supply=512),
    scanner=ScannerConfig(max_swaps=6, train_episodes=1, train_steps=10),
)


class TestSoak:
    def test_soak_holds_every_invariant(self):
        report = run_stream(SMALL)
        assert report.ok
        assert report.total_violations == ()
        assert len(report.lanes) == SMALL.lanes

    def test_backlog_regime_accounted(self):
        report = run_stream(SMALL)
        for lane in report.lanes:
            assert lane.submitted == (
                SMALL.duration_batches * SMALL.submit_per_batch
            )
            # One aggregator serves batch_size per interval; the surplus
            # accumulates as backlog and nothing is lost.
            assert lane.included + lane.pending == lane.submitted

    def test_scanner_is_exercised(self):
        report = run_stream(SMALL)
        actions = report.action_totals()
        assert sum(actions.values()) == SMALL.lanes * SMALL.duration_batches
        assert 0.0 <= report.hit_rate <= 1.0

    def test_render_mentions_headlines(self):
        text = run_stream(SMALL).render()
        assert "tx/s" in text
        assert "p99" in text
        assert "OK" in text


class TestDeterminism:
    def test_same_config_byte_identical(self):
        assert (
            run_stream(SMALL).deterministic_json()
            == run_stream(SMALL).deterministic_json()
        )

    def test_different_seed_changes_payload(self):
        other = dataclasses.replace(SMALL, seed=SMALL.seed + 1)
        assert (
            run_stream(SMALL).deterministic_json()
            != run_stream(other).deterministic_json()
        )

    def test_jobs_1_and_2_byte_identical(self):
        serial = run_stream(SMALL)
        with get_runner(2) as runner:
            parallel = run_stream(SMALL, runner=runner)
        assert serial.deterministic_json() == parallel.deterministic_json()

    def test_wall_clock_excluded_from_payload(self):
        payload = run_stream(SMALL).deterministic_payload()
        flat = str(payload)
        assert "wall" not in flat
        assert "elapsed" not in flat


class TestCaching:
    def test_cached_rerun_is_byte_identical(self, tmp_path):
        cached = dataclasses.replace(SMALL, cache_dir=str(tmp_path))
        cold = run_stream(cached)
        warm = run_stream(cached)
        assert cold.deterministic_json() == warm.deterministic_json()
        # And identical to the uncached run: memoization must never
        # change results.
        assert cold.deterministic_json() == (
            run_stream(SMALL).deterministic_json()
        )


class TestValidation:
    def test_rejects_bad_config(self):
        with pytest.raises(ReproError):
            StreamConfig(lanes=0)
        with pytest.raises(ReproError):
            StreamConfig(duration_batches=0)
