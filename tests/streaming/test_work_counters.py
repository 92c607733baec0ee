"""Deterministic work gate: digests per included transaction on a lane.

Wall-clock gates only arm on big machines; this count is exact on any
core count.  A lane that recomputes transaction hashes inside mempool
reads, or rebuilds the state root from scratch on every call, does an
order of magnitude more digests per included transaction (about 480 on
this lane before both were memoised; about 22 after).
"""

import repro.crypto.hashing as hashing
from repro.streaming import StreamConfig, run_stream

#: The backlog regime: 24 submitted and 16 collected per interval.
LANE = StreamConfig(
    lanes=1, duration_batches=30, batch_size=16, submit_per_batch=24, seed=0
)

#: Measured 21.7 digests per included tx on ``LANE``; the bound leaves
#: room for small additions, not for per-read or per-round rehashing.
DIGESTS_PER_TX_BOUND = 30


def test_digests_per_included_tx_stay_bounded(monkeypatch):
    calls = []
    original = hashing.hash_hex

    def counted(data: bytes) -> str:
        calls.append(1)
        return original(data)

    monkeypatch.setattr(hashing, "hash_hex", counted)
    report = run_stream(LANE)
    included = sum(lane.included for lane in report.lanes)
    assert included == 30 * 16
    assert not any(lane.violations for lane in report.lanes)
    assert len(calls) / included < DIGESTS_PER_TX_BOUND
