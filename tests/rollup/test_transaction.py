"""Tests for NFT transactions and fee ordering."""

import dataclasses
import pickle

import pytest

from repro.crypto import hash_value
from repro.errors import RollupError
from repro.rollup import BedrockMempool, NFTTransaction, TxKind
from repro.rollup.transaction import involvement_counts, sort_by_fee


class TestValidation:
    def test_transfer_requires_recipient(self):
        with pytest.raises(RollupError):
            NFTTransaction(kind=TxKind.TRANSFER, sender="a")

    def test_mint_rejects_recipient(self):
        with pytest.raises(RollupError):
            NFTTransaction(kind=TxKind.MINT, sender="a", recipient="b")

    def test_burn_rejects_recipient(self):
        with pytest.raises(RollupError):
            NFTTransaction(kind=TxKind.BURN, sender="a", recipient="b")

    def test_negative_fee_rejected(self):
        with pytest.raises(RollupError):
            NFTTransaction(kind=TxKind.MINT, sender="a", base_fee=-1.0)


class TestProperties:
    def test_total_fee(self):
        tx = NFTTransaction(
            kind=TxKind.MINT, sender="a", base_fee=1.0, priority_fee=0.5
        )
        assert tx.total_fee == pytest.approx(1.5)

    def test_tx_hash_stable(self):
        a = NFTTransaction(kind=TxKind.MINT, sender="a", nonce=1)
        b = NFTTransaction(kind=TxKind.MINT, sender="a", nonce=1)
        assert a.tx_hash == b.tx_hash

    def test_tx_hash_distinguishes_nonce(self):
        a = NFTTransaction(kind=TxKind.MINT, sender="a", nonce=1)
        b = NFTTransaction(kind=TxKind.MINT, sender="a", nonce=2)
        assert a.tx_hash != b.tx_hash

    def test_involves_sender_and_recipient(self):
        tx = NFTTransaction(kind=TxKind.TRANSFER, sender="a", recipient="b")
        assert tx.involves("a") and tx.involves("b")
        assert not tx.involves("c")

    def test_parties(self):
        transfer = NFTTransaction(kind=TxKind.TRANSFER, sender="a", recipient="b")
        burn = NFTTransaction(kind=TxKind.BURN, sender="a")
        assert transfer.parties() == ("a", "b")
        assert burn.parties() == ("a",)

    def test_describe_matches_case_study_format(self):
        tx = NFTTransaction(kind=TxKind.TRANSFER, sender="U1", recipient="U2")
        assert tx.describe() == "Transfer PT: U1 -> U2"
        assert NFTTransaction(kind=TxKind.MINT, sender="U19").describe() == "Mint PT: U19"


class TestFeeOrdering:
    def test_sorts_descending_by_total_fee(self):
        txs = [
            NFTTransaction(kind=TxKind.MINT, sender="a", priority_fee=0.1, nonce=0),
            NFTTransaction(kind=TxKind.MINT, sender="b", priority_fee=0.9, nonce=1),
            NFTTransaction(kind=TxKind.MINT, sender="c", priority_fee=0.5, nonce=2),
        ]
        ordered = sort_by_fee(txs)
        assert [tx.sender for tx in ordered] == ["b", "c", "a"]

    def test_fee_ties_broken_by_arrival(self):
        txs = [
            NFTTransaction(kind=TxKind.MINT, sender="late", submitted_at=5, nonce=0),
            NFTTransaction(kind=TxKind.MINT, sender="early", submitted_at=1, nonce=1),
        ]
        assert sort_by_fee(txs)[0].sender == "early"

    def test_involvement_counts(self):
        txs = [
            NFTTransaction(kind=TxKind.TRANSFER, sender="a", recipient="b", nonce=0),
            NFTTransaction(kind=TxKind.MINT, sender="a", nonce=1),
            NFTTransaction(kind=TxKind.BURN, sender="c", nonce=2),
        ]
        counts = involvement_counts(txs, ["a", "b", "c", "d"])
        assert counts == {"a": 2, "b": 1, "c": 1, "d": 0}


def _fields_hash(tx):
    return hash_value([
        "tx", tx.kind.value, tx.sender, tx.recipient, tx.token_id,
        tx.base_fee, tx.priority_fee, tx.nonce, tx.submitted_at, tx.label,
    ])


def _identity_hash(tx):
    return hash_value([
        "tx-identity", tx.kind.value, tx.sender, tx.recipient, tx.token_id,
        tx.base_fee, tx.priority_fee, tx.nonce, tx.label,
    ])


class TestMemoisedIdentity:
    @staticmethod
    def _tx(**overrides):
        fields = dict(kind=TxKind.TRANSFER, sender="a", recipient="b",
                      priority_fee=0.25, nonce=3, submitted_at=7, label="x")
        fields.update(overrides)
        return NFTTransaction(**fields)

    def test_digests_equal_a_fresh_hash_of_the_fields(self):
        tx = self._tx()
        for _ in range(2):
            assert tx.tx_hash == _fields_hash(tx)
            assert tx.arrival_identity == _identity_hash(tx)

    def test_computed_once(self, monkeypatch):
        import repro.crypto.hashing as hashing

        tx = self._tx()
        tx.tx_hash, tx.arrival_identity
        calls = []
        original = hashing.hash_hex
        monkeypatch.setattr(
            hashing, "hash_hex", lambda data: calls.append(1) or original(data)
        )
        tx.tx_hash, tx.arrival_identity
        assert calls == []

    def test_stays_a_plain_property(self):
        assert type(NFTTransaction.__dict__["tx_hash"]) is property
        assert type(NFTTransaction.__dict__["arrival_identity"]) is property

    def test_pickle_round_trip(self):
        tx = self._tx()
        fresh_bytes = pickle.dumps(self._tx())
        tx.tx_hash, tx.arrival_identity
        # The memo does not travel: pickles carry only the fields.
        assert pickle.dumps(tx) == fresh_bytes
        loaded = pickle.loads(pickle.dumps(tx))
        assert loaded == tx
        assert loaded.tx_hash == tx.tx_hash == _fields_hash(loaded)
        assert loaded.arrival_identity == tx.arrival_identity

    def test_restamped_copies_do_not_inherit_the_memo(self):
        tx = self._tx()
        original_hash = tx.tx_hash
        stamped = BedrockMempool()._stamp(tx)
        assert stamped.submitted_at != tx.submitted_at
        assert stamped.tx_hash == _fields_hash(stamped) != original_hash
        assert stamped.arrival_identity == tx.arrival_identity
        replaced = dataclasses.replace(tx, nonce=4)
        assert replaced.tx_hash == _fields_hash(replaced) != original_hash

    def test_equality_hash_and_repr_ignore_the_memo(self):
        memoised, fresh = self._tx(), self._tx()
        memoised.tx_hash, memoised.arrival_identity
        assert memoised == fresh
        assert hash(memoised) == hash(fresh)
        assert repr(memoised) == repr(fresh)
        assert dataclasses.astuple(memoised) == dataclasses.astuple(fresh)
        assert memoised != self._tx(nonce=4)
