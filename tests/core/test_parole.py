"""Tests for the PAROLE attack orchestrator (Algorithm 1)."""

import pytest

from repro.config import AttackConfig
from repro.core import ParoleAttack
from repro.rollup import NFTTransaction, TxKind
from repro.workloads.scenarios import IFU


@pytest.fixture
def attack(tiny_config):
    return ParoleAttack(
        config=AttackConfig(
            ifu_accounts=(IFU,),
            gentranseq=tiny_config.with_overrides(
                episodes=10, steps_per_episode=40, seed=3
            ),
        )
    )


class TestRun:
    def test_attack_on_case_study_profits(self, attack, case_workload):
        outcome = attack.run(case_workload.pre_state, case_workload.transactions)
        assert outcome.assessment.has_opportunity
        assert outcome.attacked
        assert outcome.profit > 0
        assert outcome.per_ifu_profit[IFU] > 0

    def test_executed_sequence_is_permutation(self, attack, case_workload):
        outcome = attack.run(case_workload.pre_state, case_workload.transactions)
        assert sorted(tx.tx_hash for tx in outcome.executed_sequence) == sorted(
            tx.tx_hash for tx in case_workload.transactions
        )

    def test_precheck_blocks_hopeless_sets(self, attack, case_workload):
        # Only third-party transfers: no price movement, no IFU involvement.
        txs = (
            NFTTransaction(kind=TxKind.TRANSFER, sender="U1", recipient="U2", nonce=0),
            NFTTransaction(kind=TxKind.TRANSFER, sender="U13", recipient="U3", nonce=1),
        )
        outcome = attack.run(case_workload.pre_state, txs)
        assert not outcome.attacked
        assert outcome.result is None
        assert outcome.executed_sequence == txs
        assert outcome.profit == 0.0

    def test_precheck_can_be_disabled(self, case_workload, tiny_config):
        attack = ParoleAttack(
            config=AttackConfig(
                ifu_accounts=(IFU,),
                gentranseq=tiny_config,
                require_arbitrage_precheck=False,
            )
        )
        txs = (
            NFTTransaction(kind=TxKind.TRANSFER, sender="U1", recipient="U2", nonce=0),
            NFTTransaction(kind=TxKind.TRANSFER, sender="U13", recipient="U3", nonce=1),
        )
        outcome = attack.run(case_workload.pre_state, txs)
        assert outcome.result is not None  # GENTRANSEQ ran anyway

    def test_outcomes_accumulate(self, attack, case_workload):
        attack.run(case_workload.pre_state, case_workload.transactions)
        attack.run(case_workload.pre_state, case_workload.transactions)
        assert len(attack.outcomes) == 2
        assert attack.total_profit() >= 0


class TestStrategyAdapter:
    def test_as_strategy_returns_permutation(self, attack, case_workload):
        from repro.strategies import MempoolView

        action = attack.as_strategy().observe(
            case_workload.pre_state,
            MempoolView(transactions=tuple(case_workload.transactions)),
        )
        assert action.kinds == ("permute",)
        assert sorted(tx.tx_hash for tx in action.sequence) == sorted(
            tx.tx_hash for tx in case_workload.transactions
        )

    def test_strategy_feeds_adversarial_aggregator(self, attack, case_workload):
        from repro.rollup import AdversarialAggregator

        aggregator = AdversarialAggregator("evil", attack.as_strategy())
        result = aggregator.process(
            case_workload.pre_state, case_workload.transactions
        )
        assert result.reordered
        assert aggregator.rounds_attacked == 1
