"""Bedrock's private mempool (Sections II-A, IV-A and VIII).

Bedrock creates blocks at fixed intervals, so pending transactions wait
in a *private* mempool; aggregators must collect them in priority order
(base + priority fee) rather than hand-picking.  ``collect`` therefore
always returns the top-fee prefix — the adversarial aggregator's only
freedom is what it does *after* collection, which is precisely the PAROLE
attack surface.

Ordering guarantees
-------------------

* Every transaction is re-stamped with the pool's own arrival counter on
  first admission, so fee-tie ordering is first-come-first-served *as
  observed by this mempool* — a submitter cannot jump the FCFS queue by
  pre-stamping a low ``submitted_at`` (nor accidentally collide with the
  internal counter).  Duplicate detection uses the stamp-independent
  :attr:`~repro.rollup.transaction.NFTTransaction.arrival_identity`, so
  resubmitting the same logical transaction is rejected regardless of
  how either copy was stamped.
* ``requeue`` (the recovery/demotion path) preserves the original
  stamps: a requeued transaction re-enters fee-priority order at its
  original arrival position, ahead of newer submissions at the same fee.
* The pending set is indexed by a lazy-deletion binary heap, so
  ``collect(k)`` costs O(k log N) instead of the full O(N log N) sort —
  the difference between a batch experiment and a streaming pipeline
  draining millions of submissions.

A stalled pool (fault injection) raises
:class:`~repro.errors.MempoolStalledError` from ``collect`` rather than
returning an empty tuple: callers must distinguish "nothing pending"
from "collection unavailable", or they silently advance rounds during an
outage.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Sequence, Tuple

from ..errors import MempoolError, MempoolStalledError
from ..telemetry import get_metrics
from .transaction import NFTTransaction


class BedrockMempool:
    """Private fee-priority mempool with fixed-interval draining."""

    def __init__(self) -> None:
        self._pending: Dict[str, NFTTransaction] = {}
        #: Stamp-independent identity -> pending tx hash (duplicate check).
        self._identity: Dict[str, str] = {}
        #: Admission sequence per pending hash: the final ordering
        #: tiebreak, so collect order is a total order even when two
        #: pending transactions share fee, stamp and nonce.
        self._order: Dict[str, int] = {}
        #: Lazy-deletion priority index.  Entries are
        #: ``(-total_fee, submitted_at, nonce, admission_seq, tx_hash)``;
        #: dropped/collected hashes leave stale entries behind that are
        #: skipped (and discarded) when they surface at the top.
        self._heap: List[Tuple[float, int, int, int, str]] = []
        self._seq: int = 0
        self._arrival: int = 0
        self._stalled = False
        # Telemetry is bound at construction: instruments resolve to
        # shared no-ops unless a registry was enabled beforehand.
        metrics = get_metrics()
        self._m_submitted = metrics.counter("mempool.submitted")
        self._m_collected = metrics.counter("mempool.collected")
        self._m_requeued = metrics.counter("mempool.requeued")
        self._m_dropped = metrics.counter("mempool.dropped")
        self._m_pending = metrics.gauge("mempool.pending")
        self._m_collect_fee = metrics.histogram("mempool.collect_priority_fee")

    def __len__(self) -> int:
        return len(self._pending)

    @property
    def stalled(self) -> bool:
        """Whether collection is currently stalled (fault injection)."""
        return self._stalled

    def stall(self) -> None:
        """Stop serving collections; submissions are still accepted."""
        self._stalled = True

    def resume(self) -> None:
        """Resume serving collections after a stall."""
        self._stalled = False

    def __contains__(self, tx_hash: str) -> bool:
        return tx_hash in self._pending

    def submit(self, tx: NFTTransaction) -> str:
        """Accept a transaction into the pool; returns its (stamped) hash.

        The transaction is *always* re-stamped with the pool's arrival
        counter — fee ties are broken first-come-first-served in the
        order this mempool admitted them, never by a caller-supplied
        ``submitted_at``.  Resubmitting a logically-identical pending
        transaction raises :class:`~repro.errors.MempoolError` no matter
        how either copy was stamped.
        """
        identity = tx.arrival_identity
        if identity in self._identity:
            raise MempoolError(
                f"duplicate transaction {self._identity[identity][:12]}..."
            )
        stamped = self._stamp(tx)
        self._admit(stamped, identity)
        self._m_submitted.inc()
        self._m_pending.set(len(self._pending))
        return stamped.tx_hash

    def _stamp(self, tx: NFTTransaction) -> NFTTransaction:
        self._arrival += 1
        return NFTTransaction(
            kind=tx.kind,
            sender=tx.sender,
            recipient=tx.recipient,
            token_id=tx.token_id,
            base_fee=tx.base_fee,
            priority_fee=tx.priority_fee,
            nonce=tx.nonce,
            submitted_at=self._arrival,
            label=tx.label,
        )

    def _admit(self, tx: NFTTransaction, identity: str) -> None:
        tx_hash = tx.tx_hash
        self._seq += 1
        self._pending[tx_hash] = tx
        self._identity[identity] = tx_hash
        self._order[tx_hash] = self._seq
        heapq.heappush(
            self._heap,
            (-tx.total_fee, tx.submitted_at, tx.nonce, self._seq, tx_hash),
        )

    def _priority(self, tx: NFTTransaction) -> Tuple[float, int, int, int]:
        return (-tx.total_fee, tx.submitted_at, tx.nonce, self._order[tx.tx_hash])

    def submit_all(self, txs: Sequence[NFTTransaction]) -> List[str]:
        """Submit several transactions, preserving order."""
        return [self.submit(tx) for tx in txs]

    def peek(self, count: int) -> Tuple[NFTTransaction, ...]:
        """The next ``count`` transactions in priority order (no removal).

        Exactly the prefix ``collect(count)`` would return.  Reads the
        lazy heap best-first — a node's children enter the frontier only
        once the node itself is taken — so the cost is O(count log count)
        plus any stale entries on the way, not a pass over every pending
        transaction.
        """
        heap = self._heap
        selected: List[NFTTransaction] = []
        frontier = [(heap[0], 0)] if heap else []
        while frontier and len(selected) < count:
            entry, index = heapq.heappop(frontier)
            tx_hash = entry[4]
            if self._order.get(tx_hash) == entry[3]:
                selected.append(self._pending[tx_hash])
            for child in (2 * index + 1, 2 * index + 2):
                if child < len(heap):
                    heapq.heappush(frontier, (heap[child], child))
        return tuple(selected)

    def collect(self, count: int) -> Tuple[NFTTransaction, ...]:
        """Remove and return the top ``count`` transactions by fee priority.

        This is the aggregator's "Mempool" of the evaluation section: the
        set of transactions one aggregator processes per round.  Raises
        :class:`~repro.errors.MempoolStalledError` while the pool is
        stalled — an empty result always means the pool was drained.
        """
        if count <= 0:
            raise MempoolError("collect count must be positive")
        if self._stalled:
            raise MempoolStalledError(
                "mempool is stalled: collection unavailable "
                f"({len(self._pending)} transactions pending)"
            )
        selected: List[NFTTransaction] = []
        while self._heap and len(selected) < count:
            _, _, _, seq, tx_hash = heapq.heappop(self._heap)
            if self._order.get(tx_hash) != seq:
                continue  # stale entry: already collected or dropped
            tx = self._pending.pop(tx_hash)
            del self._identity[tx.arrival_identity]
            del self._order[tx_hash]
            self._m_collect_fee.observe(tx.priority_fee)
            selected.append(tx)
        self._m_collected.inc(len(selected))
        self._m_pending.set(len(self._pending))
        return tuple(selected)

    def admit_stamped(self, tx: NFTTransaction) -> str:
        """Admit a transaction that already carries its arrival stamp.

        The requeue/demotion recovery paths and the sharded streaming
        mempool (which stamps globally before routing) come through
        here; ordinary submission must use :meth:`submit`, which always
        re-stamps.  Returns the transaction hash.
        """
        identity = tx.arrival_identity
        if identity in self._identity:
            raise MempoolError(
                f"transaction {tx.tx_hash[:12]}... is already pending"
            )
        self._admit(tx, identity)
        self._m_pending.set(len(self._pending))
        return tx.tx_hash

    def requeue(self, txs: Sequence[NFTTransaction]) -> None:
        """Return transactions to the pool (the defense's demotion path).

        Stamps are preserved, so requeued transactions re-enter
        fee-priority order at their original arrival position — ahead of
        any newer submission at the same fee level.
        """
        for tx in txs:
            self.admit_stamped(tx)
            self._m_requeued.inc()

    def drop(self, tx_hash: str) -> NFTTransaction:
        """Remove one transaction by hash."""
        try:
            dropped = self._pending.pop(tx_hash)
        except KeyError:
            raise MempoolError(f"unknown transaction {tx_hash[:12]}...") from None
        del self._identity[dropped.arrival_identity]
        del self._order[tx_hash]
        self._m_dropped.inc()
        self._m_pending.set(len(self._pending))
        return dropped

    def pending(self) -> Tuple[NFTTransaction, ...]:
        """All pending transactions in priority order."""
        return tuple(sorted(self._pending.values(), key=self._priority))
