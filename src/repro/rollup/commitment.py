"""Content-addressed memo for the Merkle state root of one state lineage.

:func:`repro.rollup.fraud_proof.state_root` hashes every balance and
inventory entry of the L2 state into a Merkle tree.  Consecutive states of
one deployment differ in a handful of entries, so almost all of that work
repeats: round r's pre-state *is* round r-1's post-state, and the
scanner, the batch builder and the verifier each ask for the same roots.

:class:`StateCommitment` memoises by content, never by mutation tracking:

* a leaf digest is reused when the exact encoding of its
  ``(kind, user, value)`` repeats.  The key carries each value's type and
  ``repr``, because ``0.0 == -0.0`` and ``2 == 2.0`` yet they encode (and
  hash) differently;
* an interior digest is reused when its ``(left, right)`` pair occurred
  in the previous tree;
* the last few roots are kept, keyed by the tuple of leaf digests.

Every entry is a pure function of its key, so a memo hit returns exactly
what :class:`~repro.crypto.MerkleTree` would compute over the same leaves.
Each :class:`~repro.rollup.state.L2State` lineage holds one memo (its
``copy()`` shares it), and the leaf and pair memos keep only the most
recent tree, so memory stays bounded by one tree however long a run is.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from ..crypto import hash_pair, hash_value


def _exact(value: Any) -> Any:
    """A memo key that is equal only for values that encode identically."""
    if value.__class__ is str:
        return value
    return (value.__class__, repr(value))


class StateCommitment:
    """Memoised Merkle root over canonical state items (see module doc)."""

    #: Roots remembered at once, oldest evicted first.
    ROOTS_KEPT = 4

    def __init__(self) -> None:
        self._leaves: Dict[Tuple[Any, ...], str] = {}
        self._pairs: Dict[Tuple[str, str], str] = {}
        self._roots: Dict[Tuple[str, ...], str] = {}

    def root(self, items: Tuple[Sequence, Sequence, Any]) -> str:
        """Merkle root of ``L2State.canonical_items()``-shaped ``items``.

        The leaves are ``["balance", user, amount]`` per balance entry,
        then ``["inventory", user, count]`` per inventory entry, then
        ``["supply", remaining]``, in the order given.
        """
        balances, inventory, remaining = items
        known = self._leaves
        leaves: Dict[Tuple[Any, ...], str] = {}
        digests: List[str] = []
        for kind, entries in (("balance", balances), ("inventory", inventory)):
            for user, value in entries:
                key = (kind, _exact(user), _exact(value))
                digest = known.get(key) or hash_value([kind, user, value])
                leaves[key] = digest
                digests.append(digest)
        key = ("supply", _exact(remaining))
        digest = known.get(key) or hash_value(["supply", remaining])
        leaves[key] = digest
        digests.append(digest)
        self._leaves = leaves

        leaf_tuple = tuple(digests)
        root = self._roots.get(leaf_tuple)
        if root is None:
            root = self._fold(digests)
            if len(self._roots) >= self.ROOTS_KEPT:
                del self._roots[next(iter(self._roots))]
            self._roots[leaf_tuple] = root
        return root

    def _fold(self, level: List[str]) -> str:
        """Hash ``level`` up to its root, reusing the previous tree's pairs.

        Same shape as :class:`~repro.crypto.MerkleTree`: an odd level
        duplicates its last digest.
        """
        known = self._pairs
        pairs: Dict[Tuple[str, str], str] = {}
        while len(level) > 1:
            if len(level) % 2:
                level = level + [level[-1]]
            parent = []
            for i in range(0, len(level), 2):
                pair = (level[i], level[i + 1])
                digest = known.get(pair) or hash_pair(*pair)
                pairs[pair] = digest
                parent.append(digest)
            level = parent
        self._pairs = pairs
        return level[0]
