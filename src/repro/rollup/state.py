"""The L2 chain state the OVM executes against.

:class:`L2State` tracks, per Table I: user balances ``B_k`` (float ETH,
matching the paper's arithmetic), per-user NFT inventory ``O_k``, the
remaining mintable supply ``S`` and the scarcity price ``P`` (Eq. 10).

Two execution modes reflect the paper's semantics:

* ``STRICT`` — the constraints of Eq. 1, 3 and 5 are enforced at every
  position, including token ownership.  This is how honest aggregators
  and verifiers execute.
* ``BATCH``  — the within-batch netting the case studies use: balance and
  supply constraints still bind position-by-position (they move prices),
  but a seller's inventory may go transiently negative inside the batch
  provided it nets out non-negative by batch end.  This models the
  adversarial aggregator's knowledge that the inventory-providing
  transactions are in the same batch (see Fig. 5(b), where
  ``T_{U19,U6}`` precedes ``M_{U19}``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from ..config import NFTContractConfig
from ..errors import InvalidTransactionError
from ..tokens import ScarcityPricing, TxValidity
from .commitment import StateCommitment
from .transaction import NFTTransaction, TxKind


class ExecutionMode(enum.Enum):
    """Constraint regime the OVM applies (see module docstring)."""

    STRICT = "strict"
    BATCH = "batch"


@dataclass(frozen=True, slots=True)
class StepResult:
    """Outcome of attempting one transaction against the state."""

    executed: bool
    validity: TxValidity
    price_before: float
    price_after: float
    remaining_supply: int


class CountingInventory(Dict[str, int]):
    """Per-user NFT inventory with O(1) aggregate counters.

    Replay scoring reads :attr:`total` (for Eq. 10 pricing) and
    :attr:`negative_count` (for the batch-end consistency check) on every
    step; a plain dict would force an O(users) scan for each.  All
    mutation paths of the dict interface keep both counters exact, so
    external code that pokes ``state.inventory`` directly stays correct.
    """

    __slots__ = ("total", "negative_count")

    def __init__(self, *args, **kwargs) -> None:
        super().__init__()
        self.total = 0
        self.negative_count = 0
        if args or kwargs:
            self.update(*args, **kwargs)

    def _retire(self, value: int) -> None:
        self.total -= value
        if value < 0:
            self.negative_count -= 1

    def __setitem__(self, key: str, value: int) -> None:
        if key in self:
            self._retire(super().__getitem__(key))
        self.total += value
        if value < 0:
            self.negative_count += 1
        super().__setitem__(key, value)

    def __delitem__(self, key: str) -> None:
        value = super().__getitem__(key)
        super().__delitem__(key)
        self._retire(value)

    def update(self, *args, **kwargs) -> None:
        for key, value in dict(*args, **kwargs).items():
            self[key] = value

    def pop(self, key, *default):
        if key in self:
            value = super().__getitem__(key)
            del self[key]
            return value
        if default:
            return default[0]
        raise KeyError(key)

    def popitem(self):
        key, value = super().popitem()
        self._retire(value)
        return key, value

    def clear(self) -> None:
        super().clear()
        self.total = 0
        self.negative_count = 0

    def setdefault(self, key, default=0):
        if key not in self:
            self[key] = default
        return super().__getitem__(key)

    def copy(self) -> "CountingInventory":
        return CountingInventory(dict.copy(self))

    def __reduce__(self):
        # Default unpickling restores the items through ``__setitem__``
        # before the slot counters exist; rebuild through ``__init__``.
        return (CountingInventory, (dict(self),))


class L2State:
    """Mutable L2 chain state: balances, inventories, supply and price."""

    #: Account that accrues execution fees when fee charging is enabled.
    FEE_POOL = "__fee_pool__"

    def __init__(
        self,
        nft_config: Optional[NFTContractConfig] = None,
        balances: Optional[Mapping[str, float]] = None,
        inventory: Optional[Mapping[str, int]] = None,
        mode: ExecutionMode = ExecutionMode.BATCH,
        charge_fees: bool = False,
    ) -> None:
        self.nft_config = nft_config or NFTContractConfig()
        self.pricing = ScarcityPricing(
            max_supply=self.nft_config.max_supply,
            initial_price_eth=self.nft_config.initial_price_eth,
        )
        self.balances: Dict[str, float] = dict(balances or {})
        self.inventory: CountingInventory = CountingInventory(inventory or {})
        if self.inventory.total > self.nft_config.max_supply:
            raise InvalidTransactionError(
                f"initial inventory {self.inventory.total} exceeds max supply "
                f"{self.nft_config.max_supply}"
            )
        if self.inventory.negative_count:
            raise InvalidTransactionError("initial inventory cannot be negative")
        #: ``(minted_total, price)`` memo for :attr:`unit_price`; valid only
        #: while the inventory total is unchanged.
        self._price_memo: Tuple[Optional[int], float] = (None, 0.0)
        self.mode = mode
        #: When enabled, ``apply`` debits each executed transaction's
        #: total fee from its sender into :attr:`FEE_POOL`.  The paper's
        #: balance dynamics (and the case studies) ignore fees, so this
        #: defaults off; the timed deployment and economics tests use it.
        self.charge_fees = charge_fees
        self._commitment = StateCommitment()

    # ------------------------------------------------------------------ #
    # Views
    # ------------------------------------------------------------------ #

    @property
    def minted_count(self) -> int:
        """Live tokens across all users (may count net positions in BATCH)."""
        return self.inventory.total

    @property
    def remaining_supply(self) -> int:
        """``S^t`` — tokens still mintable."""
        return self.nft_config.max_supply - self.inventory.total

    @property
    def unit_price(self) -> float:
        """``P^t`` — Eq. 10 price at the current supply.

        Memoised on the inventory total, so repeated reads between supply
        changes (every constraint check and wealth sample does one) are
        O(1) with no division.
        """
        total = self.inventory.total
        memo_total, memo_price = self._price_memo
        if memo_total != total:
            memo_price = self.pricing.price(
                self.nft_config.max_supply - total
            )
            self._price_memo = (total, memo_price)
        return memo_price

    def balance(self, user: str) -> float:
        """L2 token balance ``B_k`` in ETH."""
        return self.balances.get(user, 0.0)

    def holdings(self, user: str) -> int:
        """Number of NFTs held by ``user``."""
        return self.inventory.get(user, 0)

    def wealth(self, user: str) -> float:
        """Total balance: L2 tokens plus NFT holdings at the unit price.

        This is the quantity the case-study tables label
        "L2 balance + (PTs owned) * Price".
        """
        return self.balance(user) + self.holdings(user) * self.unit_price

    def copy(self) -> "L2State":
        """Independent deep copy for speculative execution.

        Copies fields directly instead of re-running the constructor:
        construction validates inventory, but a mid-batch state may hold
        the transient negative entries BATCH mode permits, and those must
        survive a snapshot.  The frozen config/pricing objects (and the
        pricing table) are shared, not duplicated.
        """
        cls = type(self)
        clone = cls.__new__(cls)
        clone.nft_config = self.nft_config
        clone.pricing = self.pricing
        clone.balances = dict(self.balances)
        clone.inventory = self.inventory.copy()
        clone._price_memo = self._price_memo
        clone.mode = self.mode
        clone.charge_fees = self.charge_fees
        clone._commitment = self.commitment
        return clone

    @property
    def commitment(self) -> StateCommitment:
        """State-root memo of this lineage, shared by every ``copy()``.

        A state that did not come through ``__init__`` or ``copy()`` (an
        unpickled one, say) starts a lineage of its own here.
        """
        commitment = self.__dict__.get("_commitment")
        if commitment is None:
            commitment = self._commitment = StateCommitment()
        return commitment

    def __getstate__(self) -> dict:
        # The memo is derived data and not shared across processes.
        state = dict(self.__dict__)
        state.pop("_commitment", None)
        return state

    def fee_pool(self) -> float:
        """Fees accumulated so far (zero unless ``charge_fees``)."""
        return self.balances.get(self.FEE_POOL, 0.0)

    def canonical_items(self) -> Tuple[Tuple, ...]:
        """Deterministic serialisation for state-root hashing."""
        return (
            tuple(sorted((u, round(b, 12)) for u, b in self.balances.items())),
            tuple(sorted(self.inventory.items())),
            self.remaining_supply,
        )

    def inventory_is_consistent(self) -> bool:
        """Whether no user holds a negative net inventory (batch-end check)."""
        return self.inventory.negative_count == 0

    # ------------------------------------------------------------------ #
    # Constraint checks
    # ------------------------------------------------------------------ #

    def check(self, tx: NFTTransaction) -> TxValidity:
        """Classify ``tx`` against Eq. 1/3/5 under the current mode."""
        if tx.kind is TxKind.MINT:
            if self.remaining_supply < 1:
                return TxValidity.SUPPLY_EXHAUSTED
            if self.balance(tx.sender) < self.unit_price:
                return TxValidity.INSUFFICIENT_BALANCE
            return TxValidity.VALID
        if tx.kind is TxKind.TRANSFER:
            assert tx.recipient is not None
            if self.mode is ExecutionMode.STRICT and self.holdings(tx.sender) < 1:
                return TxValidity.NOT_OWNER
            if self.balance(tx.recipient) < self.unit_price:
                return TxValidity.INSUFFICIENT_BALANCE
            return TxValidity.VALID
        # BURN
        if self.mode is ExecutionMode.STRICT and self.holdings(tx.sender) < 1:
            return TxValidity.NOT_OWNER
        return TxValidity.VALID

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #

    def apply(self, tx: NFTTransaction) -> StepResult:
        """Attempt to execute ``tx``; invalid transactions are skipped.

        Skipping (rather than raising) mirrors Section V-B: a transaction
        whose constraints are unsatisfied at its position simply fails to
        execute, and the assessment records that fact.
        """
        validity = self.check(tx)
        price_before = self.unit_price
        if validity is not TxValidity.VALID:
            return StepResult(
                executed=False,
                validity=validity,
                price_before=price_before,
                price_after=price_before,
                remaining_supply=self.remaining_supply,
            )
        if tx.kind is TxKind.MINT:
            # Eq. 2: debit at P^{t-1}, grant ownership, shrink supply.
            self.balances[tx.sender] = self.balance(tx.sender) - price_before
            self.inventory[tx.sender] = self.holdings(tx.sender) + 1
        elif tx.kind is TxKind.TRANSFER:
            # Eq. 4: buyer pays seller at P^{t-1}; supply unchanged.
            assert tx.recipient is not None
            self.balances[tx.recipient] = self.balance(tx.recipient) - price_before
            self.balances[tx.sender] = self.balance(tx.sender) + price_before
            self.inventory[tx.sender] = self.holdings(tx.sender) - 1
            self.inventory[tx.recipient] = self.holdings(tx.recipient) + 1
        else:
            # Eq. 6: destroy a unit, replenishing mintable supply.
            self.inventory[tx.sender] = self.holdings(tx.sender) - 1
        if self.charge_fees:
            self.balances[tx.sender] = self.balance(tx.sender) - tx.total_fee
            self.balances[self.FEE_POOL] = self.fee_pool() + tx.total_fee
        return StepResult(
            executed=True,
            validity=TxValidity.VALID,
            price_before=price_before,
            price_after=self.unit_price,
            remaining_supply=self.remaining_supply,
        )
