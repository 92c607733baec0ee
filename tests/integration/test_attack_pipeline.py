"""Integration tests: the full attack through the rollup pipeline."""

import pytest

from repro.config import (
    AttackConfig,
    GenTranSeqConfig,
    RollupConfig,
    WorkloadConfig,
)
from repro.core import ParoleAttack
from repro.rollup import (
    AdversarialAggregator,
    Aggregator,
    OVM,
    RollupNode,
    Verifier,
)
from repro.workloads import case_study_fixture, generate_workload


@pytest.fixture
def attack_setup():
    workload = generate_workload(
        WorkloadConfig(mempool_size=12, num_users=8, num_ifus=1,
                       min_ifu_involvement=4, seed=9)
    )
    attack = ParoleAttack(
        config=AttackConfig(
            ifu_accounts=workload.ifus,
            gentranseq=GenTranSeqConfig(episodes=8, steps_per_episode=40, seed=1),
        )
    )
    return workload, attack


class TestEndToEndAttack:
    def test_attack_survives_full_pipeline(self, attack_setup):
        """The paper's thesis as one test: an adversarial aggregator
        profits for the IFU, verifiers find nothing, the batch finalizes."""
        workload, attack = attack_setup
        node = RollupNode(
            l2_state=workload.pre_state.copy(),
            config=RollupConfig(
                aggregator_mempool_size=len(workload.transactions),
                challenge_period_blocks=2,
            ),
        )
        for user in workload.users:
            node.fund_and_deposit(user, 1.0)
        node.add_aggregator(
            AdversarialAggregator("evil", attack.as_strategy())
        )
        node.add_verifier(Verifier("watcher"))
        for tx in workload.transactions:
            node.submit(tx)

        report = node.run_round()

        assert report.challenges == []          # invisible to fraud proofs
        node.advance_challenge_window()
        assert node.finalize_ready_batches()    # and it finalizes

    def test_attack_profit_measured_against_honest_order(self, attack_setup):
        workload, attack = attack_setup
        outcome = attack.run(workload.pre_state, workload.transactions)
        ifu = workload.ifus[0]
        ovm = OVM()
        honest = ovm.final_wealth(
            workload.pre_state, workload.transactions, ifu
        )
        attacked = ovm.final_wealth(
            workload.pre_state, outcome.executed_sequence, ifu
        )
        assert attacked - honest == pytest.approx(
            outcome.per_ifu_profit[ifu], abs=1e-9
        )

    def test_honest_and_adversarial_agree_when_no_opportunity(self):
        """Without IFU involvement the attacker behaves honestly."""
        workload = generate_workload(
            WorkloadConfig(mempool_size=8, num_users=6, num_ifus=1,
                           min_ifu_involvement=0, seed=13)
        )
        attack = ParoleAttack(
            config=AttackConfig(
                ifu_accounts=("ghost-user",),
                gentranseq=GenTranSeqConfig(episodes=2, steps_per_episode=10, seed=0),
            )
        )
        outcome = attack.run(workload.pre_state, workload.transactions)
        assert outcome.executed_sequence == workload.transactions
        assert outcome.profit == 0.0


class TestCaseStudyThroughPipeline:
    def test_case_study_attack_beats_case1_through_node(self):
        workload = case_study_fixture()
        attack = ParoleAttack(
            config=AttackConfig(
                ifu_accounts=workload.ifus,
                gentranseq=GenTranSeqConfig(
                    episodes=15, steps_per_episode=50, seed=3
                ),
            )
        )
        node = RollupNode(
            l2_state=workload.pre_state.copy(),
            config=RollupConfig(aggregator_mempool_size=8,
                                challenge_period_blocks=2),
        )
        for user in workload.users:
            node.fund_and_deposit(user, 1.0)
        node.add_aggregator(AdversarialAggregator("evil", attack.as_strategy()))
        node.add_verifier(Verifier("watcher"))
        for tx in workload.transactions:
            node.submit(tx)
        report = node.run_round()
        assert report.attacked
        assert attack.outcomes[-1].profit > 0
        assert report.challenges == []

    def test_two_aggregators_split_the_pool(self):
        workload = case_study_fixture()
        node = RollupNode(
            l2_state=workload.pre_state.copy(),
            config=RollupConfig(aggregator_mempool_size=4,
                                challenge_period_blocks=2),
        )
        for user in workload.users:
            node.fund_and_deposit(user, 1.0)
        node.add_aggregator(Aggregator("agg-0"))
        node.add_aggregator(Aggregator("agg-1"))
        for tx in workload.transactions:
            node.submit(tx)
        report = node.run_round()
        assert len(report.batches) == 2
        assert len(report.batches[0]) == 4
        # The first aggregator takes the higher-fee prefix.
        first_fees = [tx.total_fee for tx in report.batches[0].transactions]
        second_fees = [tx.total_fee for tx in report.batches[1].transactions]
        assert min(first_fees) >= max(second_fees)
