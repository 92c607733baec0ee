"""Tests for Bedrock's private mempool."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import MempoolError, MempoolStalledError
from repro.rollup import BedrockMempool, NFTTransaction, TxKind


def make_tx(sender, priority=0.0, nonce=0):
    return NFTTransaction(
        kind=TxKind.MINT, sender=sender, priority_fee=priority, nonce=nonce
    )


@pytest.fixture
def pool():
    return BedrockMempool()


class TestSubmission:
    def test_submit_returns_hash(self, pool):
        tx_hash = pool.submit(make_tx("a"))
        assert tx_hash in pool
        assert len(pool) == 1

    def test_duplicate_rejected(self, pool):
        tx = make_tx("a", priority=0.3)
        stamped_hash = pool.submit(tx)
        # The same pre-stamped transaction cannot enter twice.
        stamped = pool.drop(stamped_hash)
        pool.submit(stamped)
        with pytest.raises(MempoolError):
            pool.submit(stamped)

    def test_arrival_stamped(self, pool):
        pool.submit(make_tx("a"))
        pool.submit(make_tx("b"))
        pending = pool.pending()
        assert {tx.submitted_at for tx in pending} == {1, 2}

    def test_submit_all_preserves_count(self, pool):
        pool.submit_all([make_tx("a"), make_tx("b", nonce=1)])
        assert len(pool) == 2

    def test_prestamped_submission_is_restamped(self, pool):
        # Regression: submit() used to keep a caller-supplied
        # ``submitted_at``, so pre-stamped transactions bypassed the
        # pool's own arrival counter entirely.
        tx = NFTTransaction(kind=TxKind.MINT, sender="a", submitted_at=99)
        pool.submit(tx)
        assert pool.pending()[0].submitted_at == 1

    def test_fee_ties_fcfs_despite_prestamped_arrival(self, pool):
        # Regression: a submitter could jump the FCFS queue within a fee
        # level by pre-stamping a low submitted_at; admission order must
        # win regardless of the stamp the transaction arrived with.
        pool.submit(make_tx("first"))
        pool.submit(make_tx("second", nonce=1))
        jumper = NFTTransaction(
            kind=TxKind.MINT, sender="jumper", nonce=2, submitted_at=1
        )
        pool.submit(jumper)
        order = [tx.sender for tx in pool.collect(3)]
        assert order == ["first", "second", "jumper"]

    def test_duplicate_detected_across_stamps(self, pool):
        # The same logical transaction is a duplicate no matter how the
        # resubmitted copy was stamped.
        pool.submit(make_tx("a"))
        with pytest.raises(MempoolError):
            pool.submit(
                NFTTransaction(kind=TxKind.MINT, sender="a", submitted_at=77)
            )


class TestDigestWork:
    def test_submit_and_drain_cost_two_digests_per_tx(self, pool, monkeypatch):
        import repro.crypto.hashing as hashing

        calls = []
        original = hashing.hash_hex
        monkeypatch.setattr(
            hashing, "hash_hex", lambda data: calls.append(1) or original(data)
        )
        for nonce in range(100):
            pool.submit(make_tx(f"s{nonce % 7}", priority=0.01 * (nonce % 5),
                                nonce=nonce))
        assert len(pool.collect(100)) == 100
        # One arrival identity (duplicate check, carried onto the stamped
        # copy) and one tx hash of the stamped copy per transaction.
        assert len(calls) == 2 * 100


class TestCollection:
    def test_collect_highest_fee_first(self, pool):
        pool.submit(make_tx("low", priority=0.1))
        pool.submit(make_tx("high", priority=0.9))
        collected = pool.collect(1)
        assert collected[0].sender == "high"

    def test_collect_removes_from_pool(self, pool):
        pool.submit(make_tx("a", priority=0.5))
        pool.collect(1)
        assert len(pool) == 0

    def test_collect_fee_ties_fcfs(self, pool):
        pool.submit(make_tx("first"))
        pool.submit(make_tx("second", nonce=1))
        assert pool.collect(2)[0].sender == "first"

    def test_collect_more_than_pending(self, pool):
        pool.submit(make_tx("a"))
        assert len(pool.collect(10)) == 1

    def test_collect_nonpositive_raises(self, pool):
        with pytest.raises(MempoolError):
            pool.collect(0)

    def test_peek_does_not_remove(self, pool):
        pool.submit(make_tx("a"))
        pool.peek(1)
        assert len(pool) == 1

    def test_peek_matches_collect_prefix(self, pool):
        for index, priority in enumerate([0.3, 0.9, 0.1, 0.9, 0.5]):
            pool.submit(make_tx(f"s{index}", priority=priority, nonce=index))
        preview = pool.peek(3)
        assert pool.collect(3) == preview

    def test_drop_leaves_priority_order_intact(self, pool):
        top = pool.submit(make_tx("gone", priority=0.9))
        pool.submit(make_tx("kept", priority=0.1, nonce=1))
        pool.drop(top)
        assert [tx.sender for tx in pool.collect(2)] == ["kept"]


class TestStall:
    def test_collect_while_stalled_raises(self, pool):
        # Regression: a stalled pool used to answer collect() with an
        # empty tuple, indistinguishable from a drained pool.
        pool.submit(make_tx("a"))
        pool.stall()
        with pytest.raises(MempoolStalledError):
            pool.collect(1)
        pool.resume()
        assert len(pool.collect(1)) == 1

    def test_stalled_error_is_a_mempool_error(self, pool):
        pool.stall()
        with pytest.raises(MempoolError):
            pool.collect(1)

    def test_stalled_pool_still_accepts_submissions(self, pool):
        pool.stall()
        pool.submit(make_tx("a"))
        assert len(pool) == 1


class TestRequeue:
    def test_requeue_restores(self, pool):
        pool.submit(make_tx("a", priority=0.5))
        collected = pool.collect(1)
        pool.requeue(collected)
        assert len(pool) == 1

    def test_requeue_duplicate_rejected(self, pool):
        pool.submit(make_tx("a", priority=0.5))
        pending = pool.pending()
        with pytest.raises(MempoolError):
            pool.requeue(pending)

    def test_requeue_then_collect_restores_fcfs_position(self, pool):
        # A requeued transaction keeps its original arrival stamp, so it
        # re-enters fee-tie order ahead of anything submitted since.
        pool.submit(make_tx("early"))
        pool.submit(make_tx("later", nonce=1))
        collected = pool.collect(2)
        pool.submit(make_tx("newest", nonce=2))
        pool.requeue(collected)
        order = [tx.sender for tx in pool.collect(3)]
        assert order == ["early", "later", "newest"]

    def test_requeue_ties_broken_by_original_arrival(self, pool):
        # Requeue order must not matter: ties re-resolve by the stamps
        # the transactions were first admitted with.
        pool.submit(make_tx("a"))
        pool.submit(make_tx("b", nonce=1))
        first, second = pool.collect(2)
        pool.requeue([second])
        pool.requeue([first])
        assert [tx.sender for tx in pool.collect(2)] == ["a", "b"]

    def test_requeue_then_collect_deterministic(self, pool):
        # Same submissions + same requeues => same drain order, run to run.
        def run():
            p = BedrockMempool()
            p.submit_all(
                [make_tx(f"u{i}", priority=0.5, nonce=i) for i in range(6)]
            )
            taken = p.collect(3)
            p.submit(make_tx("late", priority=0.5, nonce=6))
            p.requeue(taken)
            return [tx.sender for tx in p.collect(7)]

        assert run() == run()
        assert run()[:3] == ["u0", "u1", "u2"]

    def test_drop_unknown_raises(self, pool):
        with pytest.raises(MempoolError):
            pool.drop("0xdeadbeef")

    def test_pending_in_priority_order(self, pool):
        pool.submit(make_tx("low", priority=0.1))
        pool.submit(make_tx("high", priority=0.8))
        pool.submit(make_tx("mid", priority=0.4))
        assert [tx.sender for tx in pool.pending()] == ["high", "mid", "low"]


_pool_ops = st.lists(
    st.one_of(
        st.tuples(st.just("submit"), st.integers(0, 4), st.integers(0, 3)),
        st.tuples(st.just("collect"), st.integers(1, 6), st.just(0)),
        st.tuples(st.just("drop"), st.integers(0, 50), st.just(0)),
        st.tuples(st.just("requeue"), st.integers(0, 50), st.just(0)),
    ),
    max_size=60,
)


class TestPeekReadsTheHeap:
    """``peek(k) == pending()[:k] == collect(k)`` under any history."""

    @staticmethod
    def _check(pool):
        pending = pool.pending()
        for k in (1, 2, 5, len(pending) + 1):
            assert pool.peek(k) == pending[:k]

    @settings(max_examples=60, deadline=None)
    @given(ops=_pool_ops)
    def test_random_histories(self, ops):
        pool = BedrockMempool()
        fees = (0.0, 0.1, 0.25, 0.25)
        removed = []  # stamped transactions no longer pending
        nonce = 0
        for op, a, b in ops:
            if op == "submit":
                nonce += 1
                pool.submit(make_tx(f"s{a}", priority=fees[b], nonce=nonce))
            elif op == "collect" and len(pool):
                expected = pool.peek(a)
                collected = pool.collect(a)
                assert collected == expected
                removed.extend(collected)
            elif op == "drop" and len(pool):
                pending = pool.pending()
                removed.append(pool.drop(pending[a % len(pending)].tx_hash))
            elif op == "requeue" and removed:
                pool.requeue([removed.pop(a % len(removed))])
            self._check(pool)
        drained = pool.collect(len(pool) + 1) if len(pool) else ()
        assert len(pool) == 0
        assert len(set(tx.tx_hash for tx in drained)) == len(drained)

    def test_peek_skips_stale_entries(self, pool):
        hashes = [pool.submit(make_tx("a", priority=0.1 * i, nonce=i))
                  for i in range(8)]
        for tx_hash in hashes[::2]:
            pool.drop(tx_hash)
        assert [tx.tx_hash for tx in pool.peek(10)] == hashes[1::2][::-1]
