"""Tests for honest and adversarial aggregators."""


from repro.rollup import AdversarialAggregator, Aggregator
from repro.strategies import ReordererStrategy


class TestHonestAggregator:
    def test_keeps_collected_order(self, case_workload):
        aggregator = Aggregator("honest")
        result = aggregator.process(
            case_workload.pre_state, case_workload.transactions
        )
        assert result.executed_order == case_workload.transactions
        assert not result.reordered

    def test_batch_attributed_to_aggregator(self, case_workload):
        result = Aggregator("agg-7").process(
            case_workload.pre_state, case_workload.transactions
        )
        assert result.batch.aggregator == "agg-7"


class TestAdversarialAggregator:
    def test_applies_reorderer(self, case_workload):
        def reverse(pre_state, collected):
            return tuple(reversed(collected))

        aggregator = AdversarialAggregator("evil", ReordererStrategy(reverse))
        result = aggregator.process(
            case_workload.pre_state, case_workload.transactions
        )
        assert result.executed_order == tuple(reversed(case_workload.transactions))
        assert result.reordered
        assert aggregator.rounds_attacked == 1

    def test_identity_reorderer_counts_no_attack(self, case_workload):
        aggregator = AdversarialAggregator(
            "evil", ReordererStrategy(lambda s, c: tuple(c))
        )
        result = aggregator.process(
            case_workload.pre_state, case_workload.transactions
        )
        assert not result.reordered
        assert aggregator.rounds_attacked == 0

    def test_dropping_reorderer_falls_back_to_honest(self, case_workload):
        def drop_one(pre_state, collected):
            return tuple(collected)[1:]

        aggregator = AdversarialAggregator("evil", ReordererStrategy(drop_one))
        result = aggregator.process(
            case_workload.pre_state, case_workload.transactions
        )
        assert result.executed_order == case_workload.transactions

    def test_injecting_reorderer_falls_back_to_honest(self, case_workload):
        def inject(pre_state, collected):
            extra = list(collected) + [collected[0]]
            return tuple(extra)

        aggregator = AdversarialAggregator("evil", ReordererStrategy(inject))
        result = aggregator.process(
            case_workload.pre_state, case_workload.transactions
        )
        assert result.executed_order == case_workload.transactions
