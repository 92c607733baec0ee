"""The arbitrage-scanner service: DQN reordering on a latency budget.

Offline experiments can afford to run the solver on every batch; a
streaming pipeline cannot.  :class:`BatchScanner` is the serving-path
wrapper around :class:`~repro.solvers.DQNInferenceSolver`:

* a cheap :func:`~repro.core.arbitrage.assess_opportunity` pre-check
  skips batches that cannot possibly be profitable;
* every solve is admitted against a *deterministic* per-batch budget —
  an estimated evaluation count, never wall-clock time — so the
  degrade/serve decision is identical on every machine and every run
  (wall-clock timings are recorded for telemetry but never consulted);
* batches whose estimated cost blows the budget degrade gracefully to
  the honest (identity) ordering instead of missing the block slot;
* solved orderings are memoized in a :class:`~repro.store.ResultStore`
  keyed by pre-state root + transaction hashes + scanner config, so a
  replayed stream (or a lane re-run) serves cached orders instantly.

The GENTRANSEQ Q-network's input dimension depends on the sequence
length N, so the scanner keeps one lazily-trained solver per distinct
batch size.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..config import GenTranSeqConfig, _require
from ..core.arbitrage import assess_opportunity
from ..rollup.fraud_proof import state_root
from ..rollup.state import L2State
from ..rollup.transaction import NFTTransaction
from ..solvers import DQNInferenceSolver
from ..solvers.base import ReorderProblem
from ..store.keys import code_fingerprint, digest
from ..strategies.base import BaseStrategy, MempoolView, StrategyAction


@dataclass(frozen=True)
class ScannerConfig:
    """Serving-path policy of the arbitrage scanner."""

    #: Batches longer than this degrade immediately (Q-network input
    #: dimension grows with N^2; Figure 11's inference curve sets the
    #: practical ceiling).
    max_batch_size: int = 24
    #: Deterministic latency budget: the maximum *estimated* number of
    #: order evaluations one batch may spend before it must degrade.
    eval_budget_per_batch: int = 512
    max_swaps: int = 12
    #: Beam width of the rollout (1 = the paper's greedy rollout).
    population: int = 1
    #: Offline training budget per distinct batch size (first batch of a
    #: given size pays it; excluded from the serving budget, matching
    #: the paper's offline-training / online-inference split).
    train_episodes: int = 2
    train_steps: int = 40
    seed: int = 0

    def __post_init__(self) -> None:
        _require(self.max_batch_size >= 2, "max_batch_size must be >= 2")
        _require(self.eval_budget_per_batch >= 1,
                 "eval_budget_per_batch must be positive")
        _require(self.max_swaps >= 1, "max_swaps must be positive")
        _require(self.population >= 1, "population must be >= 1")
        _require(self.train_episodes >= 0,
                 "train_episodes cannot be negative")
        _require(self.train_steps >= 1, "train_steps must be positive")

    def estimated_evaluations(self, size: int) -> int:
        """Deterministic upper estimate of one solve's evaluation count."""
        if self.population == 1:
            return self.max_swaps
        # Beam rollout: up to population^2 successors scored per round.
        return self.max_swaps * self.population * self.population


@dataclass(frozen=True)
class ScanOutcome:
    """What the scanner did with one collected batch.

    Everything except ``elapsed_ms`` is deterministic for a given stream
    seed and scanner config; ``elapsed_ms`` is wall clock and must be
    excluded from any byte-identity comparison.
    """

    batch_index: int
    size: int
    #: ``reordered`` (solver improved the order), ``identity`` (solver
    #: ran, honest order kept), ``skipped`` (pre-check said no
    #: opportunity), ``degraded`` (budget/size ceiling hit).
    action: str
    reason: str
    profit: float
    evaluations: int
    cached: bool
    elapsed_ms: float

    def deterministic_payload(self) -> dict:
        """JSON-able view of the decision itself.

        Wall clock (``elapsed_ms``) and provenance (``reason``,
        ``cached``) are stripped: a cache hit must be indistinguishable
        from the solve it memoized.
        """
        return {
            "batch_index": self.batch_index,
            "size": self.size,
            "action": self.action,
            "profit": round(self.profit, 9),
            "evaluations": self.evaluations,
        }


class ScannerStrategy(BaseStrategy):
    """A :class:`BatchScanner` behind the strategy plug-in contract."""

    name = "batch-scanner"
    description = "budgeted DQN reordering served by a BatchScanner"

    def __init__(self, scanner: "BatchScanner") -> None:
        self.scanner = scanner

    def beneficiaries(self) -> Tuple[str, ...]:
        return self.scanner.ifus

    def observe(self, pre_state: L2State, view: MempoolView) -> StrategyAction:
        ordered, _ = self.scanner.scan(pre_state, view.transactions)
        return StrategyAction.permutation(ordered)


class BatchScanner:
    """Scan collected batches and reorder the profitable ones in budget."""

    def __init__(
        self,
        ifus: Sequence[str],
        config: Optional[ScannerConfig] = None,
        store=None,
    ) -> None:
        self.ifus: Tuple[str, ...] = tuple(ifus)
        self.config = config or ScannerConfig()
        self._store = store
        #: One solver per distinct batch size N: the Q-network's
        #: observation/action dimensions are functions of N, so a solver
        #: trained for one size cannot serve another.
        self._solvers: Dict[int, DQNInferenceSolver] = {}
        self.outcomes: List[ScanOutcome] = []
        self._batch_index = 0

    # ------------------------------------------------------------------ #

    def _solver_for(self, size: int) -> DQNInferenceSolver:
        solver = self._solvers.get(size)
        if solver is None:
            cfg = self.config
            solver = DQNInferenceSolver(
                config=GenTranSeqConfig(
                    episodes=max(cfg.train_episodes, 1),
                    steps_per_episode=cfg.train_steps,
                    seed=cfg.seed,
                ),
                train_episodes=cfg.train_episodes,
                max_swaps=cfg.max_swaps,
                population=cfg.population,
            )
            self._solvers[size] = solver
        return solver

    def _cache_key(self, pre_state: L2State,
                   txs: Sequence[NFTTransaction]) -> str:
        cfg = self.config
        return digest([
            "stream-scan",
            code_fingerprint(),
            state_root(pre_state),
            [tx.tx_hash for tx in txs],
            cfg.max_batch_size,
            cfg.eval_budget_per_batch,
            cfg.max_swaps,
            cfg.population,
            cfg.train_episodes,
            cfg.train_steps,
            cfg.seed,
        ])

    # ------------------------------------------------------------------ #

    def scan(
        self, pre_state: L2State, collected: Sequence[NFTTransaction]
    ) -> Tuple[Tuple[NFTTransaction, ...], ScanOutcome]:
        """Decide an ordering for one collected batch.

        Returns the chosen ordering (a permutation of ``collected`` —
        the aggregator enforces this independently) and the outcome
        record.
        """
        started = time.perf_counter()
        index = self._batch_index
        self._batch_index += 1
        txs = tuple(collected)
        size = len(txs)
        cfg = self.config

        def finish(order, action, reason, profit, evaluations, cached=False):
            outcome = ScanOutcome(
                batch_index=index,
                size=size,
                action=action,
                reason=reason,
                profit=profit,
                evaluations=evaluations,
                cached=cached,
                elapsed_ms=(time.perf_counter() - started) * 1000.0,
            )
            self.outcomes.append(outcome)
            return tuple(txs[i] for i in order), outcome

        identity = tuple(range(size))
        if size < 2:
            return finish(identity, "skipped", "fewer than two transactions",
                          0.0, 0)
        if size > cfg.max_batch_size:
            return finish(identity, "degraded",
                          f"batch of {size} exceeds max_batch_size "
                          f"{cfg.max_batch_size}", 0.0, 0)
        assessment = assess_opportunity(txs, self.ifus)
        if not assessment.has_opportunity:
            return finish(identity, "skipped",
                          "; ".join(assessment.reasons), 0.0, 0)
        estimate = cfg.estimated_evaluations(size)
        if estimate > cfg.eval_budget_per_batch:
            return finish(identity, "degraded",
                          f"estimated {estimate} evaluations exceeds budget "
                          f"{cfg.eval_budget_per_batch}", 0.0, 0)

        key = None
        if self._store is not None:
            key = self._cache_key(pre_state, txs)
            cached, found = self._store.fetch_object(key)
            if found:
                order = tuple(int(i) for i in cached["order"])
                profit = float(cached["best_objective"]) - float(
                    cached["original_objective"]
                )
                action = "reordered" if profit > 1e-12 else "identity"
                return finish(order, action, "served from result store",
                              profit, int(cached["evaluations"]), cached=True)

        problem = ReorderProblem(
            pre_state=pre_state.copy(), transactions=txs, ifus=self.ifus
        )
        result = self._solver_for(size).solve(problem)
        if self._store is not None:
            self._store.put_object(key, {
                "order": list(result.best_order),
                "best_objective": result.best_objective,
                "original_objective": result.original_objective,
                "evaluations": result.evaluations,
            })
        action = "reordered" if result.improved else "identity"
        reason = (
            "solver improved the honest order"
            if result.improved
            else "solver found no feasible improvement"
        )
        return finish(result.best_order, action, reason, result.profit,
                      result.evaluations)

    # ------------------------------------------------------------------ #

    def as_strategy(self) -> "ScannerStrategy":
        """This scanner as a strategy plug-in (permute-only by contract)."""
        return ScannerStrategy(self)

    def as_reorderer(
        self,
    ) -> Callable[[L2State, Sequence[NFTTransaction]], Sequence[NFTTransaction]]:
        """Deprecated adapter; use :meth:`as_strategy` instead."""
        warnings.warn(
            "BatchScanner.as_reorderer() is deprecated; use "
            "BatchScanner.as_strategy() with "
            "AdversarialAggregator(strategy=...) instead",
            DeprecationWarning,
            stacklevel=2,
        )

        def reorder(state: L2State, txs: Sequence[NFTTransaction]):
            ordered, _ = self.scan(state, txs)
            return ordered

        return reorder

    # ------------------------------------------------------------------ #

    def action_counts(self) -> Dict[str, int]:
        """Outcome histogram over every scanned batch."""
        counts: Dict[str, int] = {}
        for outcome in self.outcomes:
            counts[outcome.action] = counts.get(outcome.action, 0) + 1
        return counts

    @property
    def profit_total(self) -> float:
        """Total objective gain extracted across all batches."""
        return sum(o.profit for o in self.outcomes)

    @property
    def hit_rate(self) -> float:
        """Fraction of scanned batches the attack actually improved."""
        if not self.outcomes:
            return 0.0
        reordered = sum(1 for o in self.outcomes if o.action == "reordered")
        return reordered / len(self.outcomes)
