"""The greedy price solver and greedy bid construction.

Under the greedy profile every seller posts the same price p, the unique
solution of

    sum_b [ M_b - max(0, p * R_b - M_b) ] = p * sum_b R_b.

The left side is the money that actually reaches sellers this round (right-
sale proceeds are deferred, so a poor buyer's shortfall is subtracted); it
is piecewise linear and decreasing in p, while the right side is linear and
increasing, so at most one breakpoint interval contains the root. Buyers
sell exactly the Right they cannot back with money at that price, or buy
exactly the Right their spare money can license.
"""

from __future__ import annotations

import math
from typing import Sequence

from .core import CONSERVATION_TOL, EQ_TOL, MarketConfig, MarketState
from .errors import ConfigError, PricingError
from .mechanism import BuyerBid, SellerOffer
from .rights import allocate, claim_rank_order


def solve_implicit_price(money: Sequence[float], rights: Sequence[float]) -> float:
    """Solve the implicit price equation by an ascending breakpoint scan.

    Candidate poor sets only change at the breakpoints M_b/R_b. On the
    interval between two breakpoints the equation is linear with solution

        p = (sum(M) + sum_poor(M)) / (sum(R) + sum_poor(R)),

    and uniqueness means exactly one candidate lands inside its own
    interval. Returns the first candidate, in ascending order, at or below
    its interval's ceiling, which is that price: the floor needs no test
    (see the comment at the test). A buyer is poor when p * R_b > M_b, so
    a buyer exactly on a breakpoint counts as rich. O(n log n) in the
    number of buyers.
    """
    m = [float(x) for x in money]
    r = [float(x) for x in rights]
    if len(m) != len(r):
        raise PricingError("money and rights vectors differ in length")
    for x, y in zip(m, r):
        # ``not x >= 0.0`` also catches NaN, and an infinite Right makes the
        # breakpoint NaN if its money is infinite too: on either the scan
        # would never end
        if not (x >= 0.0 and 0.0 <= y < math.inf):
            raise PricingError("money and rights must be non-negative, and rights finite")
    total_rights = sum(r)
    if total_rights <= 0.0:
        raise PricingError("no rights in circulation")
    total_money = sum(m)
    if total_money == 0.0:
        # LHS == RHS == 0 at p = 0; every buyer sits on the rich boundary
        return 0.0

    n = len(m)
    # sweep intervals in ascending breakpoint order, growing the poor set
    # incrementally: membership is decided on the exact float ratios, so a
    # buyer sitting on a breakpoint lands in a well-defined interval
    holders = sorted([(m[b] / r[b], b) for b in range(n) if r[b] > 0.0])
    num_holders = len(holders)
    slack = EQ_TOL  # admit candidates within one rounding step of an edge
    poor_money = 0.0
    poor_rights = 0.0
    k = 0
    lo = 0.0
    while True:
        # absorb every holder whose breakpoint is at or below the interval floor
        while k < num_holders and holders[k][0] <= lo:
            b = holders[k][1]
            poor_money += m[b]
            poor_rights += r[b]
            k += 1
        hi = holders[k][0] if k < num_holders else math.inf
        p = (total_money + poor_money) / (total_rights + poor_rights)
        # The ceiling is the one test: the roots of the intervals below the
        # solution lie above their ceilings, and no candidate lies below its
        # floor. Interval 0's floor is 0.0, and money and Right are not
        # negative. The scan reaches interval k > 0 only when candidate
        # k - 1 lay above its ceiling, which is interval k's floor, and
        # candidate k is a mediant of candidate k - 1 and the ratios of the
        # holders it absorbs, which sit at that floor; so, up to rounding,
        # it is at or above the floor. An infinite ceiling passes every
        # candidate but NaN. ``x if x > 1.0 else 1.0`` is max(1.0, x), as
        # the builtin compares.
        if p <= hi + slack * (p if p > 1.0 else 1.0):
            return p
        if hi == math.inf:
            raise PricingError("interval scan found no admissible price")
        lo = hi


def free_market_clearing_price(money: Sequence[float], offered_good: float) -> float:
    """Price at which the buyers' total money buys exactly the offered Good."""
    if offered_good <= 0.0:
        raise PricingError("offered good must be positive")
    return sum(float(x) for x in money) / float(offered_good)


def canonical_closed_form(n: int, incomes: Sequence[float], round_index: int) -> float:
    """Closed-form greedy price under the rank-n canonical mechanism.

    ``incomes`` must be listed in claim-rank order (largest claim first) and
    sum to 1; the receiving buyer's income is then ``incomes[n - 1]``. The
    first round clears at (1 + m_bn) / 2 and every later round at 1.
    """
    if round_index < 1:
        raise ConfigError("round index starts at 1")
    if not 1 <= n <= len(incomes):
        raise ConfigError(f"rank {n} out of range for {len(incomes)} buyers")
    if abs(sum(incomes) - 1.0) > CONSERVATION_TOL:
        raise ConfigError("closed form requires incomes summing to 1")
    if round_index == 1:
        return (1.0 + float(incomes[n - 1])) / 2.0
    return 1.0


def canonical_lower_bound(weights: Sequence[float], money: Sequence[float]) -> float:
    """Price lower bound from the canonical decomposition of a mechanism.

    Each rank-n canonical subproblem clears at (M_bn + sum(M)) / 2; weighing
    by the decomposition gives sum_n alpha_n (M_bn + sum(M)) / 2. ``weights``
    must be aligned with ``money`` in claim-rank order, under which this
    equals the per-buyer form sum_b (alpha_b + 1) M_b / 2.
    """
    if len(weights) != len(money):
        raise ConfigError("weights and money vectors differ in length")
    if abs(sum(weights) - 1.0) > CONSERVATION_TOL:
        raise ConfigError("decomposition weights must sum to 1")
    total = sum(float(x) for x in money)
    return sum(float(w) * (float(mb) + total) / 2.0 for w, mb in zip(weights, money))


def mechanism_rank_weights(mech, claims: Sequence[float]) -> list[float]:
    """Decomposition weights alpha_n (indexed by claim rank) of a mechanism.

    Rank-based mechanisms, canonical and weighted, carry their weights in
    ``components``; for the others the weights are read off one allocation
    of a unit volume (exact for proportional, a per-volume proxy for
    contested garment).
    """
    components = getattr(mech, "components", None)
    if components is None:
        shares = allocate(mech, 1.0, claims)
        return [shares[i] for i in claim_rank_order(claims)]
    out = [0.0] * len(claims)
    for alpha, rank in components:
        out[rank - 1] += alpha
    return out


def mechanism_rights(config: MarketConfig, offered_volume: float) -> tuple[float, ...]:
    """The rights ``config.mechanism`` assigns when ``offered_volume`` is on
    sale. The allocation depends on nothing else, so it is memoized per
    config and offered volume. An allocation with an entry that is not
    finite, such as the NaN an infinite claim gets under the proportional
    rule, raises ``PricingError`` and is not kept: every kernel reads its
    rights here, so each stops at the round that assigns it."""
    memo = config._rights_memo
    rights = memo.get(offered_volume)
    if rights is None:
        rights = tuple(allocate(config.mechanism, offered_volume, config.claims))
        if not all(map(math.isfinite, rights)):
            raise PricingError("Right assigned is not finite")
        memo[offered_volume] = rights
    return rights


def posted_greedy_price(
    state: MarketState, config: MarketConfig, offered_volume: float
) -> tuple[float, tuple[float, ...]]:
    """Price greedy sellers post, and the rights the mechanism will assign.

    In the rights variant this is the implicit-equation solution on the
    mechanism-implied rights for the offered volume; the myopic variant
    posts the free-market clearing price instead. ``greedy_price_factor``
    scales the result (1.0 on the equilibrium path).
    """
    money = [b.money for b in state.buyers]
    rights = mechanism_rights(config, offered_volume)
    if config.variant == "myopic_rights":
        price = free_market_clearing_price(money, offered_volume)
    else:
        price = solve_implicit_price(money, rights)
    return price * config.greedy_price_factor, rights


def mean_posted_price(offers: Sequence[SellerOffer]) -> float:
    """P, the plain mean of the posted Good prices, which greedy buyers take
    as the price of the Right (``greedy_buyer_bids``)."""
    return sum(o.price for o in offers) / len(offers)


def greedy_buyer_bids(
    price_avg: float,
    offered_volume: float,
    money: Sequence[float],
    rights: Sequence[float],
    variant: str,
) -> list[BuyerBid]:
    """Greedy six-part bids of all buyers, from their money and Right.

    A buyer cannot see the other buyers' money, so the Right price is
    estimated as the plain average P of the posted Good prices,
    ``price_avg`` (``mean_posted_price``). The buyer offers the Right they
    cannot back with money (psi = max(0, R - M/P)) and is willing to buy the
    Right their spare money can license (xi = max(0, M/P - R)), everything
    at price P. In the myopic variant only half the surplus Right goes on
    sale: the proceeds arrive inside the round and the kept half licenses
    the repurchase. If P is not positive, Good is free: nobody sells Right,
    and a buyer's demand is capped by ``offered_volume``, the total Good on
    sale.

    Known overstatement: each Good+Right pair costs 2P, so spare money
    affords only (M - P R) / (2P) pairs, not M/P - R. In greedy play the
    budget cap in ``mechanism.clear`` binds first and xi never does, so the
    audit's ``buyer_buy_less_right`` deviation, which scales xi, changes
    nothing and reports a gain of exactly 0.
    """
    half = variant == "myopic_rights"
    bids = []
    if price_avg > 0.0:
        for m, r in zip(money, rights):
            backing = m / price_avg
            psi, xi = r - backing, backing - r
            psi = psi if psi > 0.0 else 0.0
            xi = xi if xi > 0.0 else 0.0
            offer = psi / 2.0 if half else psi
            bids.append(BuyerBid(offer, price_avg, r + xi, price_avg, xi, price_avg))
    else:
        for m, r in zip(money, rights):
            xi = max(0.0, offered_volume - r) if m >= 0.0 else 0.0
            bids.append(BuyerBid(0.0, price_avg, r + xi, price_avg, xi, price_avg))
    return bids


def greedy_buyer_bid(
    buyer_index: int,
    seller_offers: Sequence[SellerOffer],
    state: MarketState,
    config: MarketConfig,
) -> BuyerBid:
    """Greedy bid of one buyer against the posted ``seller_offers``, as
    ``greedy_buyer_bids`` makes it: P is the mean posted price, and the
    buyer's money and Right are read from ``state``."""
    if not seller_offers:
        raise PricingError("buyers need at least one posted seller price")
    price_avg = mean_posted_price(seller_offers)
    offered = sum(o.volume for o in seller_offers)
    buyer = state.buyers[buyer_index]
    return greedy_buyer_bids(price_avg, offered, [buyer.money], [buyer.right], config.variant)[0]
