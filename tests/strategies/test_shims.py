"""Strategy adapters of the attack and the scanner."""

from repro.config import AttackConfig, GenTranSeqConfig
from repro.core import ParoleAttack
from repro.streaming import BatchScanner, ScannerConfig


def _tiny_attack(case_workload):
    return ParoleAttack(
        config=AttackConfig(
            ifu_accounts=case_workload.ifus,
            gentranseq=GenTranSeqConfig(
                episodes=2, steps_per_episode=10, seed=0
            ),
        )
    )


class TestParoleAttackShim:
    def test_as_strategy_shares_bookkeeping(self, case_workload):
        attack = _tiny_attack(case_workload)
        strategy = attack.as_strategy()
        assert strategy.attack is attack
        from repro.strategies import MempoolView

        strategy.observe(
            case_workload.pre_state,
            MempoolView(transactions=tuple(case_workload.transactions)),
        )
        # The outcome landed on the wrapped instance.
        assert len(attack.outcomes) == 1

    def test_old_and_new_paths_produce_identical_orders(self, case_workload):
        from repro.strategies import MempoolView

        direct = _tiny_attack(case_workload).run(
            case_workload.pre_state, case_workload.transactions
        ).executed_sequence
        via_strategy = _tiny_attack(case_workload).as_strategy().observe(
            case_workload.pre_state,
            MempoolView(transactions=tuple(case_workload.transactions)),
        ).sequence
        assert tuple(tx.tx_hash for tx in direct) == tuple(
            tx.tx_hash for tx in via_strategy
        )


class TestBatchScannerShim:
    def test_as_strategy_is_permute_only(self, case_workload):
        from repro.strategies import MempoolView

        scanner = BatchScanner(
            case_workload.ifus,
            config=ScannerConfig(train_episodes=1, train_steps=5),
        )
        action = scanner.as_strategy().observe(
            case_workload.pre_state,
            MempoolView(transactions=tuple(case_workload.transactions)),
        )
        assert action.kinds == ("permute",)
        assert sorted(tx.tx_hash for tx in action.sequence) == sorted(
            tx.tx_hash for tx in case_workload.transactions
        )
