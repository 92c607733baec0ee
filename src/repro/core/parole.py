"""The PAROLE module (paper Algorithm 1 and Figure 3).

``ParoleAttack`` is what the adversarial aggregator embeds: given its
collected transactions, the IFU information and the current L2 chain
state, it (1) runs the arbitrage pre-check, (2) if an opportunity exists
invokes GENTRANSEQ, and (3) returns the profitable order — or the
original order when no improvement exists, so the aggregator's behaviour
degrades gracefully to honest.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

logger = logging.getLogger(__name__)

from ..config import AttackConfig
from ..rollup.ovm import OVM
from ..rollup.state import L2State
from ..rollup.transaction import NFTTransaction
from .arbitrage import ArbitrageAssessment, assess_opportunity
from .gentranseq import GenTranSeq, GenTranSeqResult
from .multi_ifu import ifu_objective, mean_wealth, min_gain_objective, wealth_of


@dataclass
class AttackOutcome:
    """Everything one PAROLE invocation produced."""

    assessment: ArbitrageAssessment
    result: Optional[GenTranSeqResult]
    executed_sequence: Tuple[NFTTransaction, ...]
    per_ifu_profit: Dict[str, float] = field(default_factory=dict)

    @property
    def attacked(self) -> bool:
        """Whether GENTRANSEQ ran and changed the order."""
        return self.result is not None and self.result.improved

    @property
    def profit(self) -> float:
        """Objective profit in ETH (0 when the attack did not fire)."""
        return self.result.profit if self.result is not None else 0.0

    @property
    def total_profit(self) -> float:
        """Summed per-IFU wealth gain (Figure 7's quantity)."""
        return sum(self.per_ifu_profit.values())


class ParoleAttack:
    """Orchestrates assessment + GENTRANSEQ for an adversarial aggregator."""

    def __init__(
        self,
        config: Optional[AttackConfig] = None,
        objective_name: str = "mean",
    ) -> None:
        self.config = config or AttackConfig()
        self.objective_name = objective_name
        base_objective = (
            mean_wealth if objective_name == "min-gain"
            else ifu_objective(objective_name)
        )
        self.gentranseq = GenTranSeq(
            config=self.config.gentranseq,
            objective=base_objective,
        )
        self._ovm = OVM()
        self.outcomes: List[AttackOutcome] = []

    @property
    def ifus(self) -> Tuple[str, ...]:
        """The illicitly favored users this attacker serves."""
        return tuple(self.config.ifu_accounts)

    def run(
        self,
        pre_state: L2State,
        transactions: Sequence[NFTTransaction],
    ) -> AttackOutcome:
        """Algorithm 1: assess, optimise, and pick the executed order."""
        assessment = assess_opportunity(transactions, self.ifus)
        if self.config.require_arbitrage_precheck and not assessment.has_opportunity:
            logger.debug(
                "no arbitrage opportunity in %d transactions: %s",
                len(transactions), "; ".join(assessment.reasons),
            )
            outcome = AttackOutcome(
                assessment=assessment,
                result=None,
                executed_sequence=tuple(transactions),
                per_ifu_profit={ifu: 0.0 for ifu in self.ifus},
            )
            self.outcomes.append(outcome)
            return outcome
        objective_override = None
        if self.objective_name == "min-gain":
            baseline = self._ovm.replay(pre_state, transactions).final_state
            objective_override = min_gain_objective(
                wealth_of(baseline, self.ifus)
            )
        result = self.gentranseq.optimize(
            pre_state, transactions, self.ifus, objective=objective_override
        )
        executed = result.best_sequence if result.improved else tuple(transactions)
        if result.improved:
            logger.info(
                "PAROLE attack fired: +%.4f ETH over %d transactions "
                "(objective %.4f -> %.4f)",
                result.profit, len(transactions),
                result.original_objective, result.best_objective,
            )
        outcome = AttackOutcome(
            assessment=assessment,
            result=result,
            executed_sequence=executed,
            per_ifu_profit=self._per_ifu_profit(pre_state, transactions, executed),
        )
        self.outcomes.append(outcome)
        return outcome

    def _per_ifu_profit(
        self,
        pre_state: L2State,
        original: Sequence[NFTTransaction],
        executed: Sequence[NFTTransaction],
    ) -> Dict[str, float]:
        base = self._ovm.replay(pre_state, original).final_state
        alt = self._ovm.replay(pre_state, executed).final_state
        return {
            ifu: alt.wealth(ifu) - base.wealth(ifu) for ifu in self.ifus
        }

    def as_strategy(self):
        """This attack as a strategy plug-in for the adversarial aggregator.

        Returns a :class:`~repro.strategies.parole_reorder.
        ParoleReorderStrategy` wrapping *this* instance, so outcome
        bookkeeping (``outcomes``, ``total_profit``) keeps accumulating
        here.
        """
        from ..strategies.parole_reorder import ParoleReorderStrategy

        return ParoleReorderStrategy(attack=self)

    def total_profit(self) -> float:
        """Cumulative summed IFU profit across all rounds run so far."""
        return sum(outcome.total_profit for outcome in self.outcomes)
