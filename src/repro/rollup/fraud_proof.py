"""Fraud proofs: canonical state roots and re-execution checks.

The "proof" of Section V-A is the Merkle state root of the L2 chain after
batch execution.  A verifier disputes a batch by re-executing its
transactions from the pre-state and comparing roots.  Crucially for the
paper's thesis: a PAROLE-reordered batch re-executes to exactly the root
the adversarial aggregator claimed, so the fraud proof *cannot* catch the
attack — ordering policy is outside what the proof commits to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..crypto import MerkleTrie, TrieProof, hash_value
from ..telemetry import get_metrics
from .ovm import OVM
from .state import L2State
from .transaction import NFTTransaction


def state_root(state: L2State) -> str:
    """Canonical Merkle root over the L2 state.

    Leaves are the sorted balance entries, the sorted inventory entries
    and the remaining supply, so two states with identical contents hash
    identically regardless of insertion order — per exact encoding:
    ``0.0`` and ``-0.0`` balances encode, and so hash, differently.  The
    root equals ``MerkleTree(leaves).root``; the state lineage's
    :class:`~repro.rollup.commitment.StateCommitment` only skips
    recomputing digests it has already seen.
    """
    return state.commitment.root(state.canonical_items())


@dataclass(frozen=True)
class FraudProof:
    """What an aggregator publishes alongside a batch commitment."""

    tx_root: str
    pre_state_root: str
    claimed_post_root: str

    @property
    def digest(self) -> str:
        """Single digest committing to the whole proof."""
        return hash_value(
            ["proof", self.tx_root, self.pre_state_root, self.claimed_post_root]
        )


def recompute_post_root(
    pre_state: L2State, transactions: Tuple[NFTTransaction, ...], ovm: OVM = None
) -> str:
    """Re-execute a batch from its pre-state and return the post root."""
    machine = ovm or OVM()
    trace = machine.replay(pre_state, transactions)
    metrics = get_metrics()
    metrics.counter("fraud_proof.recomputes").inc()
    metrics.counter("fraud_proof.recomputed_steps").inc(len(transactions))
    return state_root(trace.final_state)


def account_trie(state: L2State) -> MerkleTrie:
    """Build the per-account state trie.

    Each account keys a ``(balance, inventory)`` record; the supply gets
    its own key.  The trie's root commits to the same contents as
    :func:`state_root` but additionally supports single-account proofs.
    """
    balances, inventory, remaining = state.canonical_items()
    holdings = dict(inventory)
    items = {
        ("account", user): (amount, holdings.get(user, 0))
        for user, amount in balances
    }
    for user, count in holdings.items():
        items.setdefault(("account", user), (0.0, count))
    items[("supply",)] = remaining
    return MerkleTrie.from_items(items)


def account_state_root(state: L2State) -> str:
    """Trie-based state root with per-account provability."""
    return account_trie(state).root


def prove_account(state: L2State, user: str) -> TrieProof:
    """Inclusion proof of one user's (balance, holdings) in the root."""
    return account_trie(state).prove(("account", user))
