"""Domain types, market state and the inter-round transition.

One round moves Good from sellers to buyers under per-round entitlements
(Right). Between rounds the transition tops up seller stock and buyer income,
consumes each buyer's Good up to their claim, zeroes seller money (sellers
consume it as utility) and expires all rights.

All quantities are 64-bit floats. The package's two tolerances live here,
and no function or scenario key takes another value:

- ``EQ_TOL`` is rounding slack on single values: closed-form checks,
  volumes treated as exhausted, the price solver's interval edges, whether
  a buyer offered or demanded Right, zero frustration, the axiom checks'
  non-negativity and monotonicity, and how far ``|p - 1|`` may grow in one
  round in the non-expansiveness check.
- ``CONSERVATION_TOL`` bounds accumulated rounding: the per-round money and
  Good balances (relative to the amounts in play once they exceed 1), an
  offer's excess over its stock or Right, sums that must equal 1
  (``is_normalized``) or the offered volume (the axioms' volume balance),
  the audit's witness threshold on gains, and the non-expansiveness guard:
  the distance from price 1 inside which the oscillation direction is not
  tested.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Protocol, Sequence

from .errors import ConfigError, NegativeQuantityError

EQ_TOL = 1e-12
CONSERVATION_TOL = 1e-9

VARIANTS = ("rights", "free_market", "myopic_rights")


def non_negative(value: float) -> float:
    """``value`` as a float, or ``NegativeQuantityError`` if it is negative
    or NaN. Amounts are checked where they enter the system (configs,
    states), not in inner loops."""
    v = float(value)
    if not v >= 0.0:  # also rejects NaN
        raise NegativeQuantityError(f"quantity must be non-negative, got {value!r}")
    return v


class ScheduleLike(Protocol):
    """Anything that yields a per-round amount (see engine.SupplySchedule).
    ``value_at`` must depend on the round index alone: ``MarketConfig``
    memoizes it."""

    def value_at(self, round_index: int) -> float: ...


@dataclass(frozen=True)
class SellerSpec:
    """Static description of one seller: Good received each round."""

    resupply: ScheduleLike


@dataclass(frozen=True)
class BuyerSpec:
    """Static description of one buyer: Money received each round and the
    constant per-round claim for Good."""

    income: ScheduleLike
    claim: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "claim", non_negative(self.claim))


@dataclass(frozen=True)
class MarketConfig:
    """Immutable scenario description.

    ``variant`` selects the trading regime: "rights" (right-sale proceeds
    deferred to the next round), "free_market" (no rights), or
    "myopic_rights" (proceeds spendable in the same round, sellers post the
    free-market clearing price).

    ``greedy_price_factor`` multiplies the price greedy sellers post; values
    other than 1.0 deliberately move the profile off the equilibrium and are
    used as a negative control in audits.

    ``horizon`` must be an integer (not a bool) of at least 1,
    ``seller_storage_cost`` finite and non-negative and
    ``greedy_price_factor`` finite and positive; anything else, NaN
    included, is a ``ConfigError`` naming the field.
    """

    sellers: tuple[SellerSpec, ...]
    buyers: tuple[BuyerSpec, ...]
    mechanism: object  # rights.DistributionMechanism
    variant: str = "rights"
    horizon: int = 100
    seller_storage_cost: float = 1.0
    greedy_price_factor: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "sellers", tuple(self.sellers))
        object.__setattr__(self, "buyers", tuple(self.buyers))
        if not self.sellers:
            raise ConfigError("at least one seller is required")
        if not self.buyers:
            raise ConfigError("at least one buyer is required")
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        if isinstance(self.horizon, bool) or not isinstance(self.horizon, int) or self.horizon < 1:
            raise ConfigError(f"horizon must be a positive integer, got {self.horizon!r}")
        cost, factor = self.seller_storage_cost, self.greedy_price_factor
        if not (math.isfinite(cost) and cost >= 0.0):
            raise ConfigError(f"seller_storage_cost must be finite and non-negative, got {cost!r}")
        if not (math.isfinite(factor) and factor > 0.0):
            raise ConfigError(f"greedy_price_factor must be finite and positive, got {factor!r}")
        # the claim ranks a rank-based mechanism gives Right to
        for _, rank in getattr(self.mechanism, "components", None) or ():
            if not 1 <= rank <= len(self.buyers):
                raise ConfigError(f"rank {rank} out of range for {len(self.buyers)} buyers")

    @property
    def num_sellers(self) -> int:
        return len(self.sellers)

    @property
    def num_buyers(self) -> int:
        return len(self.buyers)

    # Values derived from the fields are computed once per config, on first
    # use. They live in the instance ``__dict__``, so they take no part in
    # ``==``, ``repr`` or ``dataclasses.replace``, which builds a new config
    # with empty memos.
    @cached_property
    def claims(self) -> tuple[float, ...]:
        return tuple(b.claim for b in self.buyers)

    @cached_property
    def _resupply_memo(self) -> dict[int, tuple[float, ...]]:
        return {}

    @cached_property
    def _income_memo(self) -> dict[int, tuple[float, ...]]:
        return {}

    @cached_property
    def _rights_memo(self) -> dict[float, tuple[float, ...]]:
        # rights per offered volume, filled by ``pricing.mechanism_rights``
        return {}

    def resupply_at(self, round_index: int) -> tuple[float, ...]:
        """Every seller's resupply in a round. Schedules are pure, so the
        tuple is memoized; one that raises stores nothing and raises again
        on the next call."""
        memo = self._resupply_memo
        g = memo.get(round_index)
        if g is None:
            g = tuple(s.resupply.value_at(round_index) for s in self.sellers)
            memo[round_index] = g
        return g

    def income_at(self, round_index: int) -> tuple[float, ...]:
        """Every buyer's income in a round, memoized as ``resupply_at``."""
        memo = self._income_memo
        m = memo.get(round_index)
        if m is None:
            m = tuple(b.income.value_at(round_index) for b in self.buyers)
            memo[round_index] = m
        return m

    def is_normalized(self, round_index: int = 1) -> bool:
        """True when total resupply and total income are both 1 in a round,
        up to ``CONSERVATION_TOL``: the regime the closed-form and audit
        results assume."""
        return (
            abs(sum(self.resupply_at(round_index)) - 1.0) <= CONSERVATION_TOL
            and abs(sum(self.income_at(round_index)) - 1.0) <= CONSERVATION_TOL
        )


@dataclass
class SellerState:
    """Per-round snapshot of one seller. Money is zero at round start."""

    good: float
    money: float = 0.0

    def copy(self) -> "SellerState":
        return SellerState(self.good, self.money)


@dataclass
class BuyerState:
    """Per-round snapshot of one buyer.

    ``right`` is zero before the distribution mechanism runs and zero again
    after the transition; rights never persist across rounds.
    """

    good: float
    money: float
    right: float = 0.0

    def copy(self) -> "BuyerState":
        return BuyerState(self.good, self.money, self.right)


@dataclass
class MarketState:
    """Full mutable snapshot of round ``round_index``."""

    round_index: int
    sellers: list[SellerState]
    buyers: list[BuyerState]

    def copy(self) -> "MarketState":
        return MarketState(
            self.round_index,
            [s.copy() for s in self.sellers],
            [b.copy() for b in self.buyers],
        )


def initial_state(config: MarketConfig) -> MarketState:
    """State at the start of round 1: sellers hold their first resupply,
    buyers their first income, nobody holds rights yet."""
    g = config.resupply_at(1)
    m = config.income_at(1)
    sellers = [SellerState(good=non_negative(gi), money=0.0) for gi in g]
    buyers = [BuyerState(good=0.0, money=non_negative(mi), right=0.0) for mi in m]
    return MarketState(1, sellers, buyers)


def apply_transition(state: MarketState, config: MarketConfig) -> MarketState:
    """Advance the post-clearing state of round t, in place, to the start
    state of t+1, and return it.

    Sellers: stock grows by the next resupply, money is zeroed (consumed as
    utility, and kept out of future rounds). Buyers: Good is consumed up to
    the claim, the next income is added to whatever money is left, and all
    rights expire.
    """
    nxt = state.round_index + 1
    g = config.resupply_at(nxt)
    m = config.income_at(nxt)
    for seller, resupply in zip(state.sellers, g):
        seller.good = seller.good + resupply
        seller.money = 0.0
    for buyer, claim, income in zip(state.buyers, config.claims, m):
        left = buyer.good - claim
        buyer.good = left if left > 0.0 else 0.0
        buyer.money = income + buyer.money
        buyer.right = 0.0
    state.round_index = nxt
    return state


def consumed_utility(
    state: MarketState, config: MarketConfig
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Per-round utilities on a post-clearing state.

    Sellers value money net of a storage cost on unsold Good; buyers value
    only the Good they consume, capped by their claim. Callers sum these
    over the horizon.
    """
    c = config.seller_storage_cost
    seller_u = tuple(s.money - c * s.good for s in state.sellers)
    # min(claim, good), spelled as the builtin compares
    buyer_u = tuple(
        b.good if b.good < claim else claim for claim, b in zip(config.claims, state.buyers)
    )
    return seller_u, buyer_u


def water_level(caps: Sequence[float], total: float) -> float:
    """Level t with sum_i min(caps[i], t) == total, by exact breakpoint walk.

    The communicating-vessels primitive shared by the contested-garment rule
    and equal-rate depletion in clearing. ``total`` above ``sum(caps)``
    saturates at the largest cap.
    """
    caps_sorted = sorted(float(c) for c in caps)
    if not caps_sorted:
        raise ValueError("water_level needs at least one cap")
    if total <= 0.0:
        return 0.0
    n = len(caps_sorted)
    consumed = 0.0
    prev = 0.0
    for i, cap in enumerate(caps_sorted):
        step = (cap - prev) * (n - i)
        if consumed + step >= total:
            return prev + (total - consumed) / (n - i)
        consumed += step
        prev = cap
    return caps_sorted[-1]


def equal_rate_fill(amounts: Sequence[float], total: float) -> list[float]:
    """Split ``total`` across entities holding ``amounts`` at an equal rate.

    Every entity contributes min(amount, t) for the common level t; small
    holders exhaust first ("treated as a single trader until one runs out").
    Requires ``total <= sum(amounts)`` up to rounding.
    """
    if total <= 0.0:
        return [0.0 for _ in amounts]
    if len(amounts) == 1:
        # the general path bit for bit: the level is min(total, a), and a
        # residue above ``a`` is clamped back to it; NaN reads as ``a``
        a = float(amounts[0])
        return [total if total < a else a]
    level = water_level(amounts, total)
    held = [float(a) for a in amounts]
    # min(a, level) as the builtin compares, without its call cost
    out = [level if level < a else a for a in held]
    # distribute any rounding residue onto the largest holder, the first of
    # them on a tie
    residue = total - sum(out)
    if out and abs(residue) > 0.0:
        k = held.index(max(held))
        out[k] = min(held[k], max(0.0, out[k] + residue))
    return out
