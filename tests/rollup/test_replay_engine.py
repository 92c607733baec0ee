"""Differential and unit tests for the incremental replay engine.

The load-bearing property: :class:`IncrementalOVM` must be
*behaviour-identical* to a from-scratch ``OVM.replay`` — step for step,
float for float — in both execution modes, with and without fee
charging, across arbitrary evaluation orders (which exercise arbitrary
rewind/resume depths).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import NFTContractConfig
from repro.rollup import (
    ExecutionMode,
    IncrementalOVM,
    L2State,
    NFTTransaction,
    OVM,
    PermutationCache,
    ReplayEngineStats,
    TxKind,
)
from repro.rollup.state import CountingInventory


USERS = ("ifu", "u1", "u2", "u3")


def _mint(sender, **kw):
    return NFTTransaction(kind=TxKind.MINT, sender=sender, **kw)


def _transfer(sender, recipient, **kw):
    return NFTTransaction(
        kind=TxKind.TRANSFER, sender=sender, recipient=recipient, **kw
    )


def _burn(sender, **kw):
    return NFTTransaction(kind=TxKind.BURN, sender=sender, **kw)


def _random_collection(rng: np.random.Generator, size: int):
    """A mixed mint/transfer/burn collection over the fixed user set.

    Burns are capped at the pre-minted total (4): burning the global
    supply above ``max_supply`` poisons Eq. 10 and raises in the scratch
    OVM too, so such sequences are outside the replay contract.
    """
    txs = []
    burns = 0
    for nonce in range(size):
        kind = rng.choice(3)
        sender = USERS[rng.choice(len(USERS))]
        fee = float(rng.uniform(0.1, 2.0))
        if kind == 2 and burns >= 4:
            kind = 0
        if kind == 0:
            txs.append(_mint(sender, nonce=nonce, priority_fee=fee))
        elif kind == 1:
            others = [u for u in USERS if u != sender]
            recipient = others[rng.choice(len(others))]
            txs.append(
                _transfer(sender, recipient, nonce=nonce, priority_fee=fee)
            )
        else:
            burns += 1
            txs.append(_burn(sender, nonce=nonce, priority_fee=fee))
    return tuple(txs)


def _pre_state(mode: ExecutionMode, charge_fees: bool) -> L2State:
    return L2State(
        NFTContractConfig(max_supply=12),
        balances={"ifu": 4.0, "u1": 3.0, "u2": 1.0, "u3": 0.3},
        inventory={"ifu": 2, "u1": 1, "u2": 1},
        mode=mode,
        charge_fees=charge_fees,
    )


def _assert_traces_identical(incremental, scratch):
    assert len(incremental.steps) == len(scratch.steps)
    for mine, theirs in zip(incremental.steps, scratch.steps):
        assert mine.index == theirs.index
        assert mine.tx == theirs.tx
        assert mine.result.executed == theirs.result.executed
        assert mine.result.validity == theirs.result.validity
        assert mine.result.price_before == theirs.result.price_before
        assert mine.result.price_after == theirs.result.price_after
        assert (
            mine.result.remaining_supply == theirs.result.remaining_supply
        )
        assert mine.watched_wealth == theirs.watched_wealth
    assert (
        incremental.final_state.canonical_items()
        == scratch.final_state.canonical_items()
    )
    assert incremental.consistent() == scratch.consistent()


class TestDifferentialIdentity:
    """IncrementalOVM ≡ OVM.replay over randomized order sequences."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        mode=st.sampled_from(list(ExecutionMode)),
        charge_fees=st.booleans(),
    )
    def test_matches_scratch_replay(self, seed, mode, charge_fees):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(3, 9))
        txs = _random_collection(rng, size)
        pre = _pre_state(mode, charge_fees)
        engine = IncrementalOVM(
            pre, txs, watch=("ifu", "u1"), wealth_users=("ifu", "u1")
        )
        scratch = OVM()
        # A run of orders: identity, then random permutations — forcing
        # rewinds of every depth against the engine's current order.
        orders = [tuple(range(size))]
        orders += [
            tuple(int(x) for x in rng.permutation(size)) for _ in range(8)
        ]
        for order in orders:
            sequence = tuple(txs[i] for i in order)
            incremental = engine.replay_order(order)
            reference = scratch.replay(pre, sequence, watch=("ifu", "u1"))
            _assert_traces_identical(incremental, reference)
            # The allocation-light scoring path must agree column for
            # column with the trace-shaped reference.
            summary = engine.evaluate(order)
            assert summary.executed == [s.executed for s in reference.steps]
            assert summary.prices_before == [
                s.result.price_before for s in reference.steps
            ]
            assert summary.remaining_after == [
                s.result.remaining_supply for s in reference.steps
            ]
            assert summary.final_price == reference.final_state.unit_price
            assert summary.consistent == reference.consistent()
            assert summary.executed_count == reference.executed_count
            assert summary.wealth == {
                user: reference.final_state.wealth(user)
                for user in ("ifu", "u1")
            }

    def test_single_swap_resume(self):
        """A pairwise swap resumes from min(i, j), results unchanged."""
        rng = np.random.default_rng(7)
        txs = _random_collection(rng, 8)
        pre = _pre_state(ExecutionMode.BATCH, False)
        stats = ReplayEngineStats()
        engine = IncrementalOVM(pre, txs, stats=stats)
        order = list(range(8))
        engine.replay_order(order)
        assert stats.scratch_replays == 1
        order[2], order[5] = order[5], order[2]
        trace = engine.replay_order(order)
        assert stats.incremental_replays == 1
        assert stats.resume_depth_total == 2  # resumed at min(2, 5)
        reference = OVM().replay(pre, tuple(txs[i] for i in order))
        _assert_traces_identical(trace, reference)

    def test_trace_final_state_survives_later_evaluations(self):
        rng = np.random.default_rng(11)
        txs = _random_collection(rng, 6)
        pre = _pre_state(ExecutionMode.BATCH, False)
        engine = IncrementalOVM(pre, txs)
        first = engine.replay_order(range(6))
        items_before = first.final_state.canonical_items()
        engine.replay_order(tuple(reversed(range(6))))
        assert first.final_state.canonical_items() == items_before

    def test_prefix_orders_supported(self):
        rng = np.random.default_rng(3)
        txs = _random_collection(rng, 6)
        pre = _pre_state(ExecutionMode.STRICT, True)
        engine = IncrementalOVM(pre, txs)
        engine.replay_order(range(6))
        partial = engine.replay_order((0, 1, 2))
        reference = OVM().replay(pre, txs[:3])
        _assert_traces_identical(partial, reference)

    def test_replay_accepts_transaction_sequences(self):
        rng = np.random.default_rng(5)
        txs = _random_collection(rng, 5)
        pre = _pre_state(ExecutionMode.BATCH, False)
        engine = IncrementalOVM(pre, txs)
        sequence = (txs[3], txs[0], txs[4], txs[1], txs[2])
        trace = engine.replay(sequence)
        _assert_traces_identical(trace, OVM().replay(pre, sequence))

    def test_engine_recovers_after_apply_error(self):
        """A mid-replay error (burn beyond supply) leaves the engine usable."""
        from repro.errors import TokenError

        pre = L2State(
            NFTContractConfig(max_supply=3),
            balances={"a": 5.0, "b": 5.0},
            inventory={"a": 1},
            mode=ExecutionMode.BATCH,
        )
        txs = (_burn("a", nonce=0), _burn("a", nonce=1), _mint("b", nonce=2))
        engine = IncrementalOVM(pre, txs)
        # Order (0, 1, 2): the second burn pushes supply above max -> raises,
        # exactly as OVM.replay would on the same sequence.
        with pytest.raises(TokenError):
            engine.replay_order((0, 1, 2))
        with pytest.raises(TokenError):
            OVM().replay(pre, (txs[0], txs[1], txs[2]))
        # The engine must still answer valid orders correctly afterwards.
        order = (0, 2, 1)
        trace = engine.replay_order(order)
        reference = OVM().replay(pre, tuple(txs[i] for i in order))
        _assert_traces_identical(trace, reference)

    def test_foreign_transaction_rejected(self):
        rng = np.random.default_rng(5)
        txs = _random_collection(rng, 4)
        engine = IncrementalOVM(_pre_state(ExecutionMode.BATCH, False), txs)
        foreign = _mint("stranger", nonce=99)
        with pytest.raises(ValueError):
            engine.replay((foreign,))


class TestCountingInventory:
    """O(1) counters stay exact under every mutation path."""

    def test_initial_totals(self):
        inv = CountingInventory({"a": 3, "b": 2})
        assert inv.total == 5
        assert inv.negative_count == 0

    def test_setitem_tracks_total_and_negatives(self):
        inv = CountingInventory()
        inv["a"] = 2
        inv["b"] = -1
        assert inv.total == 1
        assert inv.negative_count == 1
        inv["b"] = 1  # negative entry repaired
        assert inv.total == 3
        assert inv.negative_count == 0

    def test_delete_and_pop(self):
        inv = CountingInventory({"a": 2, "b": -3})
        del inv["a"]
        assert inv.total == -3
        assert inv.pop("b") == -3
        assert inv.total == 0
        assert inv.negative_count == 0
        assert inv.pop("missing", 7) == 7
        with pytest.raises(KeyError):
            inv.pop("missing")

    def test_update_clear_setdefault(self):
        inv = CountingInventory()
        inv.update({"a": 1, "b": 2})
        assert inv.total == 3
        assert inv.setdefault("c", 4) == 4
        assert inv.setdefault("a", 99) == 1
        assert inv.total == 7
        inv.clear()
        assert inv.total == 0 and inv.negative_count == 0

    def test_copy_independent(self):
        inv = CountingInventory({"a": 1})
        dup = inv.copy()
        dup["a"] = 5
        assert inv.total == 1
        assert dup.total == 5

    def test_pickle_round_trip(self):
        import pickle

        inv = CountingInventory({"a": 2, "b": -3})
        loaded = pickle.loads(pickle.dumps(inv))
        assert type(loaded) is CountingInventory
        assert loaded == inv
        assert (loaded.total, loaded.negative_count) == (-1, 1)


class TestStateCounterInvalidation:
    """Cached price / supply stay correct through every transition."""

    def _state(self):
        return L2State(
            NFTContractConfig(max_supply=10),
            balances={"a": 5.0, "b": 5.0},
            inventory={"a": 2},
        )

    def test_mint_invalidates_price(self):
        state = self._state()
        before = state.unit_price
        state.apply(_mint("a"))
        assert state.minted_count == 3
        assert state.unit_price == state.pricing.price(7)
        assert state.unit_price > before

    def test_burn_invalidates_price(self):
        state = self._state()
        state.apply(_burn("a"))
        assert state.minted_count == 1
        assert state.unit_price == state.pricing.price(9)

    def test_transfer_keeps_cached_price(self):
        state = self._state()
        before = state.unit_price
        state.apply(_transfer("a", "b"))
        assert state.unit_price == before
        assert state.minted_count == 2

    def test_skipped_tx_changes_nothing(self):
        state = L2State(
            NFTContractConfig(max_supply=10), balances={"poor": 0.01}
        )
        before = state.unit_price
        result = state.apply(_mint("poor"))
        assert not result.executed
        assert state.unit_price == before
        assert state.minted_count == 0

    def test_external_inventory_mutation_seen(self):
        state = self._state()
        state.inventory["b"] = 3
        assert state.minted_count == 5
        assert state.unit_price == state.pricing.price(5)
        state.inventory["b"] = -1
        assert not state.inventory_is_consistent()

    def test_consistency_counter_matches_scan(self):
        state = self._state()
        state.mode = ExecutionMode.BATCH
        state.apply(_transfer("b", "a"))  # b goes net-negative in BATCH
        assert state.inventory["b"] == -1
        assert not state.inventory_is_consistent()
        state.apply(_mint("b"))
        assert state.inventory_is_consistent()


class TestPermutationCache:
    def test_hit_miss_counting(self):
        stats = ReplayEngineStats()
        cache = PermutationCache(maxsize=2, stats=stats)
        assert cache.get((0, 1)) is None
        cache.put((0, 1), "a")
        assert cache.get((0, 1)) == "a"
        assert stats.cache_misses == 1
        assert stats.cache_hits == 1
        assert stats.cache_hit_rate == 0.5

    def test_lru_eviction_order(self):
        stats = ReplayEngineStats()
        cache = PermutationCache(maxsize=2, stats=stats)
        cache.put((0,), "a")
        cache.put((1,), "b")
        cache.get((0,))  # refresh (0,) — (1,) becomes LRU
        cache.put((2,), "c")
        assert stats.cache_evictions == 1
        assert (1,) not in cache
        assert cache.get((0,)) == "a"
        assert cache.get((2,)) == "c"

    def test_maxsize_validated(self):
        with pytest.raises(ValueError):
            PermutationCache(maxsize=0)
