"""Sequencing defenses the matrix crosses against the strategy fleet.

A *defense* is the aggregator-side sequencing policy that constrains
what a hosted strategy can do.  Each defense gets three hooks around
the strategy invocation (see
:class:`~repro.rollup.aggregator.AdversarialAggregator`):

* :meth:`Defense.blind` — rewrite the :class:`MempoolView` the strategy
  sees (the encrypted mempool seals every transaction into a stand-in
  that keeps only fee metadata);
* :meth:`Defense.reveal` — map the strategy's action on a blinded view
  back to the real transactions before validation;
* :meth:`Defense.enforce` — the actual sequencing policy on a
  *validated* action: pass it through, force arrival order, re-run the
  fee auction, or probe it with the Section VIII detector and demote to
  honest when flagged.

Defenses never drop transactions: enforcement permutes, which keeps the
aggregator's conservation guarantees intact for the invariant checker.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..config import DefenseConfig, GenTranSeqConfig
from ..defense import MempoolGuard
from ..errors import ReproError
from ..rollup.aggregator import AdversarialAggregator
from ..rollup.ovm import OVM
from ..rollup.state import L2State
from ..rollup.transaction import NFTTransaction, TxKind, sort_by_fee
from ..strategies.base import BaseStrategy, MempoolView, StrategyAction
from ..telemetry import get_metrics


@dataclass(frozen=True)
class DefenseRuling:
    """What enforcement decided for one validated action."""

    sequence: Tuple[NFTTransaction, ...]
    detected: bool = False
    note: str = ""


class Defense:
    """Base defense: no sequencing policy (the adversary's paradise)."""

    name = "none"
    description = "no sequencing policy: validated actions execute as proposed"
    #: Whether :meth:`blind` seals the view (drives ``MempoolView.encrypted``).
    encrypts = False

    def blind(self, view: MempoolView) -> MempoolView:
        """Rewrite the view the strategy observes."""
        return view

    def reveal(
        self, action: StrategyAction, view: MempoolView
    ) -> StrategyAction:
        """Map an action on a blinded view back to real transactions."""
        return action

    def enforce(
        self,
        pre_state: L2State,
        collected: Tuple[NFTTransaction, ...],
        action: StrategyAction,
    ) -> DefenseRuling:
        """Apply the sequencing policy to one validated action."""
        return DefenseRuling(sequence=action.sequence)


class FCFSDefense(Defense):
    """Honest first-come-first-served: arrival order is law.

    The adversary's permutation is discarded entirely; its insertions
    are real transactions but queue *behind* every victim (they were
    "submitted" last), which breaks front-running by construction.
    """

    name = "fcfs"
    description = "first-come-first-served: arrival order, insertions at tail"

    def enforce(
        self,
        pre_state: L2State,
        collected: Tuple[NFTTransaction, ...],
        action: StrategyAction,
    ) -> DefenseRuling:
        arrival = tuple(
            sorted(collected, key=lambda tx: (tx.submitted_at, tx.nonce))
        )
        collected_hashes = {tx.tx_hash for tx in collected}
        tail = tuple(
            tx for tx in action.sequence if tx.tx_hash not in collected_hashes
        )
        return DefenseRuling(sequence=arrival + tail)


class FeeAuctionDefense(Defense):
    """Strict fee-priority auction: position must be bought.

    The final sequence is re-sorted by total fee (Bedrock's ordering
    key), so an insertion only front-runs victims it *outbids* — the
    adversary pays for priority instead of getting it for free.
    """

    name = "fee-auction"
    description = "strict fee-priority ordering: insertions must outbid"

    def enforce(
        self,
        pre_state: L2State,
        collected: Tuple[NFTTransaction, ...],
        action: StrategyAction,
    ) -> DefenseRuling:
        return DefenseRuling(sequence=sort_by_fee(action.sequence))


class EncryptedMempoolDefense(Defense):
    """Threshold-encrypted mempool: the strategy orders sealed envelopes.

    Every transaction in the view (batch *and* pending backlog) is
    replaced by a stand-in that preserves fee metadata and arrival stamp
    but hides sender, kind and recipient — the private-ordering model
    over the node's ``BedrockMempool``.  Content-conditioned strategies
    (sandwich, backrun, PAROLE's IFU matcher) find nothing to target and
    degrade to honest; blind spam still goes through, which is exactly
    the leaderboard contrast the PAPERS.md threat models predict.
    """

    name = "encrypted"
    description = "sealed mempool view: strategies order encrypted envelopes"
    encrypts = True

    def __init__(self) -> None:
        self._reveal_map: Dict[str, NFTTransaction] = {}

    @staticmethod
    def _seal(tx: NFTTransaction, index: int, tag: str) -> NFTTransaction:
        # BURN needs no recipient and reads as price-*lowering*, so a
        # sealed envelope never looks like an attackable buy.
        return NFTTransaction(
            kind=TxKind.BURN,
            sender=f"sealed-{tag}-{index}",
            base_fee=tx.base_fee,
            priority_fee=tx.priority_fee,
            nonce=index,
            submitted_at=tx.submitted_at,
            label=f"sealed-{tag}-{index}",
        )

    def blind(self, view: MempoolView) -> MempoolView:
        sealed = tuple(
            self._seal(tx, index, "tx")
            for index, tx in enumerate(view.transactions)
        )
        self._reveal_map = {
            envelope.tx_hash: real
            for envelope, real in zip(sealed, view.transactions)
        }
        sealed_pending = tuple(
            self._seal(tx, index, "pending")
            for index, tx in enumerate(view.pending)
        )
        return MempoolView(
            transactions=sealed,
            pending=sealed_pending,
            encrypted=True,
            round_index=view.round_index,
        )

    def reveal(
        self, action: StrategyAction, view: MempoolView
    ) -> StrategyAction:
        mapping = self._reveal_map
        sequence = tuple(
            mapping.get(tx.tx_hash, tx) for tx in action.sequence
        )
        revert_marked = tuple(
            mapping[mark].tx_hash if mark in mapping else mark
            for mark in action.revert_marked
        )
        return StrategyAction(
            sequence=sequence,
            inserted=action.inserted,
            revert_marked=revert_marked,
            kinds=action.kinds,
        )


class GuardedDefense(Defense):
    """Section VIII detection: flagged proposals demote to honest order.

    Any round where the strategy proposed a change is probed with
    :class:`~repro.defense.MempoolGuard` (a GENTRANSEQ worst-case-profit
    probe over the collected batch plus the proposed insertions); a
    flagged round executes the honest collected order instead and counts
    as a detection.
    """

    name = "guarded"
    description = "Section VIII detector: flagged proposals demote to honest"

    def __init__(
        self,
        profit_threshold_eth: float = 0.01,
        probe_episodes: int = 2,
        probe_steps: int = 16,
        seed: int = 0,
    ) -> None:
        self.guard = MempoolGuard(
            config=DefenseConfig(
                profit_threshold_eth=profit_threshold_eth,
                fee_scaled_threshold=False,
                probe_episodes=probe_episodes,
            ),
            probe_config=GenTranSeqConfig(
                episodes=probe_episodes,
                steps_per_episode=probe_steps,
                seed=seed,
            ),
        )

    def enforce(
        self,
        pre_state: L2State,
        collected: Tuple[NFTTransaction, ...],
        action: StrategyAction,
    ) -> DefenseRuling:
        changed = bool(action.inserted) or action.sequence != collected
        if not changed:
            return DefenseRuling(sequence=action.sequence)
        report = self.guard.inspect(
            pre_state, list(collected) + list(action.inserted)
        )
        if report.flagged:
            return DefenseRuling(
                sequence=collected,
                detected=True,
                note=(
                    f"worst-case {report.worst_case_profit_eth:.4f} ETH "
                    f">= threshold {report.threshold_eth:.4f}"
                ),
            )
        return DefenseRuling(sequence=action.sequence)


class DefendedAggregator(AdversarialAggregator):
    """An adversarial aggregator whose host applies a sequencing defense.

    The defense wraps all three strategy hooks: the view is blinded
    before the strategy observes it, the action is revealed before the
    (unchanged) safety check, and enforcement runs after validation —
    so a defense can never be tricked into executing an invalid action.
    """

    def __init__(
        self,
        address: str,
        strategy: BaseStrategy,
        defense: Optional[Defense] = None,
        backlog: Optional[
            Callable[[], Tuple[NFTTransaction, ...]]
        ] = None,
        ovm: Optional[OVM] = None,
    ) -> None:
        super().__init__(address, strategy=strategy, ovm=ovm)
        self.defense = defense or Defense()
        self._backlog = backlog
        #: Rounds the defense flagged and demoted to the honest order.
        self.detections = 0

    def build_view(
        self, pre_state: L2State, collected: Tuple[NFTTransaction, ...]
    ) -> MempoolView:
        pending = tuple(self._backlog()) if self._backlog is not None else ()
        view = MempoolView(
            transactions=collected,
            pending=pending,
            encrypted=self.defense.encrypts,
            round_index=self._round_index,
        )
        return self.defense.blind(view)

    def reveal_action(
        self, action: StrategyAction, view: MempoolView
    ) -> StrategyAction:
        return self.defense.reveal(action, view)

    def apply_policy(
        self,
        pre_state: L2State,
        collected: Tuple[NFTTransaction, ...],
        action: StrategyAction,
    ) -> Tuple[NFTTransaction, ...]:
        ruling = self.defense.enforce(pre_state, collected, action)
        if ruling.detected:
            self.detections += 1
            get_metrics().counter(
                "matrix.detections", defense=self.defense.name
            ).inc()
        return ruling.sequence


# --------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------- #

DefenseFactory = Callable[[], Defense]


@dataclass(frozen=True)
class DefenseInfo:
    """One registry entry: name, description, factory."""

    name: str
    description: str
    factory: DefenseFactory


class DefenseRegistry:
    """Insertion-ordered name -> factory mapping (mirrors strategies)."""

    def __init__(self) -> None:
        self._entries: Dict[str, DefenseInfo] = {}

    def register(
        self, name: str, description: str, factory: DefenseFactory
    ) -> None:
        if not name:
            raise ReproError("defense name cannot be empty")
        self._entries[name] = DefenseInfo(
            name=name, description=description, factory=factory
        )

    def names(self) -> Tuple[str, ...]:
        return tuple(self._entries)

    def list(self) -> List[DefenseInfo]:
        return list(self._entries.values())

    def info(self, name: str) -> DefenseInfo:
        try:
            return self._entries[name]
        except KeyError:
            known = ", ".join(self._entries)
            raise ReproError(
                f"unknown defense {name!r} (known: {known})"
            ) from None

    def create(self, name: str) -> Defense:
        """Build a fresh instance of the named defense."""
        return self.info(name).factory()

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[DefenseInfo]:
        return iter(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)


def default_defenses() -> DefenseRegistry:
    """A fresh registry holding every shipped defense."""
    registry = DefenseRegistry()
    registry.register("none", Defense.description, Defense)
    registry.register("fcfs", FCFSDefense.description, FCFSDefense)
    registry.register(
        "fee-auction", FeeAuctionDefense.description, FeeAuctionDefense
    )
    registry.register(
        "encrypted",
        EncryptedMempoolDefense.description,
        EncryptedMempoolDefense,
    )
    registry.register("guarded", GuardedDefense.description, GuardedDefense)
    return registry


#: The process-wide default registry.
DEFENSES: DefenseRegistry = default_defenses()
