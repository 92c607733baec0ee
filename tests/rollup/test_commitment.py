"""StateCommitment: the memoised state root against a from-scratch tree.

The reference is the tree ``state_root`` used to build on every call:
``MerkleTree`` over the balance, inventory and supply leaves.  Every
state of a lineage — pre/post states interleaved, forks via ``copy()``,
unpickled states — must hash exactly as the reference does.
"""

import pickle

from hypothesis import given, settings, strategies as st

from repro.config import NFTContractConfig
from repro.crypto import MerkleTree
from repro.rollup.commitment import StateCommitment
from repro.rollup.fraud_proof import state_root
from repro.rollup.state import ExecutionMode, L2State
from repro.rollup.transaction import NFTTransaction, TxKind


def reference_root(state: L2State) -> str:
    balances, inventory, remaining = state.canonical_items()
    leaves = [
        ["balance", user, amount] for user, amount in balances
    ] + [
        ["inventory", user, count] for user, count in inventory
    ] + [["supply", remaining]]
    return MerkleTree(leaves).root


USERS = [f"u{i:02d}" for i in range(12)] + ["é", "☃"]

_balances = st.one_of(
    st.sampled_from([0.0, -0.0, -1e-15, 1e-15, 2, 2.0, 0, 1.5, 0.2]),
    st.floats(min_value=-5, max_value=5, allow_nan=False),
    st.integers(min_value=-3, max_value=10),
)

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("balance"), st.integers(0, 7),
                  st.sampled_from(USERS), _balances),
        st.tuples(st.just("inventory"), st.integers(0, 7),
                  st.sampled_from(USERS), st.integers(-2, 3)),
        st.tuples(st.just("pop"), st.integers(0, 7),
                  st.sampled_from(USERS), st.none()),
        st.tuples(st.just("del_balance"), st.integers(0, 7),
                  st.sampled_from(USERS), st.none()),
        st.tuples(st.just("twin"), st.integers(0, 7),
                  st.sampled_from(USERS), st.none()),
        st.tuples(st.just("apply"), st.integers(0, 7),
                  st.sampled_from(USERS), st.sampled_from(USERS)),
        st.tuples(st.just("copy"), st.integers(0, 7), st.none(), st.none()),
        st.tuples(st.just("pickle"), st.integers(0, 7), st.none(), st.none()),
        st.tuples(st.just("root"), st.integers(0, 7), st.none(), st.none()),
    ),
    max_size=40,
)


def _twin(value):
    """An equal value that encodes differently (``0.0``/``-0.0``, ``2``/``2.0``)."""
    if isinstance(value, int):
        return float(value)
    if value == 0:
        return -value
    return int(value) if value.is_integer() else value


def _apply(state: L2State, op) -> None:
    kind, _, user, value = op
    if kind == "balance":
        state.balances[user] = value
    elif kind == "inventory":
        state.inventory[user] = value
    elif kind == "pop":
        state.inventory.pop(user, None)
    elif kind == "twin":
        state.balances[user] = _twin(state.balances.get(user, 0.0))
    elif kind == "del_balance":
        if user in state.balances:
            del state.balances[user]
    elif kind == "apply":
        if value == user:
            tx = NFTTransaction(kind=TxKind.MINT, sender=user)
        else:
            tx = NFTTransaction(kind=TxKind.TRANSFER, sender=user,
                                recipient=value)
        if state.minted_count >= 0:  # pricing needs a sane supply
            state.apply(tx)


class TestDifferential:
    @settings(max_examples=150, deadline=None)
    @given(_ops, st.sampled_from(list(ExecutionMode)))
    def test_every_state_of_a_lineage_matches_the_reference(self, ops, mode):
        config = NFTContractConfig(max_supply=50)
        states = [L2State(config, balances={"u00": 3.0}, mode=mode)]
        for op in ops:
            kind, index, _, _ = op
            state = states[index % len(states)]
            if kind == "copy":
                states.append(state.copy())
            elif kind == "pickle":
                states.append(pickle.loads(pickle.dumps(state)))
            elif kind == "root":
                assert state_root(state) == reference_root(state)
            else:
                _apply(state, op)
            # Interleave the lineage: check another state as well.
            other = states[(index * 7 + 3) % len(states)]
            assert state_root(other) == reference_root(other)
        for state in states:
            assert state_root(state) == reference_root(state)

    def test_empty_state(self):
        state = L2State()
        assert state_root(state) == reference_root(state)

    def test_insertion_shifts_leaf_indices(self):
        state = L2State(balances={f"u{i:03d}": 1.0 for i in range(0, 64, 2)})
        state_root(state)
        for user in ("u001", "u033", "u063", "a", "z"):
            state.balances[user] = 1.0
            assert state_root(state) == reference_root(state)

    def test_negative_zero_balance_is_not_zero(self):
        state = L2State(balances={"u": 0.0})
        zero = state_root(state)
        state.balances["u"] = -1e-15  # canonical_items rounds to -0.0
        assert state.canonical_items()[0] == (("u", -0.0),)
        negative = state_root(state)
        assert negative == reference_root(state)
        assert negative != zero
        state.balances["u"] = 0.0
        assert state_root(state) == zero

    def test_int_and_float_balances_differ(self):
        state = L2State(balances={"u": 2})
        as_int = state_root(state)
        state.balances["u"] = 2.0
        assert state_root(state) == reference_root(state) != as_int

    def test_negative_batch_inventory(self):
        state = L2State(balances={"a": 1.0, "b": 1.0}, mode=ExecutionMode.BATCH)
        state_root(state)
        state.inventory["a"] = -1
        state.inventory["b"] = 1
        assert state_root(state) == reference_root(state)
        del state.inventory["a"]
        assert state_root(state) == reference_root(state)

    def test_state_built_without_init(self):
        source = L2State(balances={"a": 1.0})
        bare = L2State.__new__(L2State)
        bare.__dict__.update(
            {k: v for k, v in source.__dict__.items() if k != "_commitment"}
        )
        assert state_root(bare) == reference_root(source)
        assert bare.commitment is not source.commitment


class TestLineage:
    def test_copy_shares_and_init_starts_a_lineage(self):
        state = L2State(balances={"a": 1.0})
        assert state.copy().commitment is state.commitment
        assert L2State().commitment is not state.commitment

    def test_pickle_drops_the_memo(self):
        state = L2State(balances={"a": 1.0})
        state_root(state)
        clone = pickle.loads(pickle.dumps(state))
        assert "_commitment" not in clone.__dict__
        assert clone.commitment is not state.commitment
        assert state_root(clone) == state_root(state)

    def test_pre_root_reuses_post_root(self, monkeypatch):
        import repro.crypto.hashing as hashing

        state = L2State(balances={f"u{i}": 1.0 for i in range(40)})
        post = state.copy()
        post.balances["u7"] = 0.5
        expected = state_root(post)
        calls = []
        original = hashing.hash_hex
        monkeypatch.setattr(
            hashing, "hash_hex", lambda data: calls.append(1) or original(data)
        )
        # The next round's pre-state is a copy of this post-state.
        assert state_root(post.copy()) == expected
        assert calls == []
        assert expected == reference_root(post)

    def test_one_changed_leaf_rehashes_one_path(self, monkeypatch):
        import repro.crypto.hashing as hashing

        state = L2State(balances={f"u{i:02d}": 1.0 for i in range(64)})
        state_root(state)
        state.balances["u10"] = 0.25
        expected = reference_root(state)
        calls = []
        original = hashing.hash_hex
        monkeypatch.setattr(
            hashing, "hash_hex", lambda data: calls.append(1) or original(data)
        )
        assert state_root(state) == expected
        # 65 leaves: the leaf plus one digest on each of 7 levels above it.
        assert len(calls) == 1 + 7

    def test_memo_is_bounded_to_one_tree(self):
        state = L2State(balances={f"u{i}": 1.0 for i in range(20)})
        for step in range(50):
            state.balances[f"u{step % 20}"] = float(step)
            state_root(state)
        commitment = state.commitment
        assert len(commitment._leaves) == 21
        assert len(commitment._roots) <= StateCommitment.ROOTS_KEPT
        # One tree over 21 leaves has 23 interior nodes (odd levels pad).
        assert len(commitment._pairs) == 23
