"""Batches of markets that differ only in their bid adjustments, played in
lockstep on numpy arrays.

An audit replays one market many times, each time with one trader's bid
changed in one round, from the baseline's checkpoint at that round.
``engine.replay_batch`` hands every such batch here, whatever its size,
with the baseline's checkpoints, and ``play_batch`` plays the M markets as
the rows of one array: every buyer quantity is an (M, N) float64 array and
every seller quantity an (M, S) one. Each market resumes at its first
deviating round; the batch plays in one lockstep pass from the earliest of
these, and each market joins it as a new row at its own, so each round is
played once for all the markets that have reached it: an audit at T = 40
whose trials resume at rounds 1, 20 and 40 plays 40 rounds, not 40 + 21 +
1. Each round runs the same steps as ``engine._run_rights_round`` and
makes the same checks, each step as array operations over all markets at
once, so numpy's fixed cost per call is paid once per batch instead of
once per market. ``clear`` runs ``mechanism.clear``'s one ``walk``
over each market's own good and Right levels, both books of one class,
``Columns``, the rows of ``mechanism.Levels``: one step of every market
per pass, until the last market is done; a market that is done trades no
more.

The state (``wide.WideState``, as rows), the sums, the offer clamp, the
bids, P, the Right price, the rights rows, the settlement, its checks,
the utilities and the transition are ``wide``'s column layer, applied
along each row, and every market's utility totals equal those of the
scalar round bit for bit by the rules in ``wide``'s docstring. The round,
``clear``, the implicit-price solve and the Right fill are this kernel's
own: ``clear`` takes any bids, at any number of good and Right levels.

A check that fails in any market raises ``SimulationError``; the caller
then replays the markets one at a time, as batches of one, so that the
first failing one raises its own error. ``tests/test_batch.py`` compares
each replay with the scalar ``engine.run`` of its adjustments, and
``batch.clear`` with ``mechanism.clear``.

A single replay is played here too, as a batch of one: a 20-round replay
of a 300-buyer, 10-seller market takes about 15 ms here against about
29 ms on the scalar round (raw, 2-core host). An all-greedy ``rights``
run goes to ``wide`` from ``engine.WIDE_MIN_BUYERS`` buyers, whose arrays
are one market's columns: there a ``crowd`` round is about 1.5x faster
than here.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import CONSERVATION_TOL, EQ_TOL, MarketConfig
from .engine import BidAdjustment, Checkpoint
from .errors import ClearingError, PricingError, SimulationError
from .mechanism import BuyerBid, ClearingResult, Rejection, SellerOffer
from .wide import (
    GOOD_CAP,
    GOOD_PRICE,
    OFFER,
    OFFER_PRICE,
    RIGHT_CAP,
    RIGHT_PRICE,
    WideState,
    _positive,
    _sum,
    greedy_bids,
    mean_price,
    mean_right_price,
    offer_volumes,
    rights_row,
    settle,
    transition,
)


def play_batch(
    config: MarketConfig,
    checkpoints: Sequence[Checkpoint],
    adjustment_lists: Sequence[Sequence[BidAdjustment]],
) -> tuple[np.ndarray, np.ndarray]:
    """``engine._play_rounds`` of a rights variant for one market per list
    of ``adjustment_lists``, without records, from the all-greedy
    baseline's ``checkpoints``, taken at any horizon: market m plays rounds
    through ``config.horizon`` = T under its own list.

    Market m resumes at ``checkpoints[i]``, from its state and utility
    totals, where i + 1 is the least of its list's first adjusted round of
    at least 1, T + 1 and ``len(checkpoints)``: the baseline's rounds
    before that one are m's own. The markets play in one lockstep pass
    from the earliest of these rounds; each market joins it as a new row at
    its own, and one at T + 1 joins at the end, with no round to play.
    Returns every market's seller and buyer utility totals as (M, S) and
    (M, N) arrays, in list order. The checkpoints are read and left as
    they were.
    """
    T = config.horizon
    starts = [
        min(T + 1, len(checkpoints), *(a.round_index for a in adjs if a.round_index >= 1))
        for adjs in adjustment_lists
    ]
    # the markets in the order they join the pass, which is their row order
    order = sorted(range(len(adjustment_lists)), key=starts.__getitem__)
    joins: dict[int, list[Checkpoint]] = {}
    # each round's adjustments as (row, adjustment), in list order
    moves: dict[int, list[tuple[int, BidAdjustment]]] = {}
    for row, m in enumerate(order):
        joins.setdefault(starts[m], []).append(checkpoints[starts[m] - 1])
        for a in adjustment_lists[m]:
            moves.setdefault(a.round_index, []).append((row, a))

    tau = starts[order[0]]
    market = WideState(joins[tau][0].state, 0)  # no rows until they join
    claims = np.array(config.claims, dtype=float)
    seller_sum = np.empty((0, config.num_sellers))
    buyer_sum = np.empty((0, config.num_buyers))
    rights_memo: dict[float, np.ndarray] = {}
    try:
        # divisions and comparisons run over whole arrays, NaN included;
        # the scalar round reads only the entries it would have computed
        with np.errstate(all="ignore"):
            while True:
                joining = joins.get(tau)
                if joining:
                    market.join([c.state for c in joining])
                    seller_sum = np.concatenate(
                        (seller_sum, [c.seller_utilities for c in joining])
                    )
                    buyer_sum = np.concatenate((buyer_sum, [c.buyer_utilities for c in joining]))
                if tau > T:
                    break
                seller_u, buyer_u = _play_round(
                    market, config, tau, moves.get(tau, []), claims, rights_memo
                )
                seller_sum = seller_sum + seller_u
                buyer_sum = buyer_sum + buyer_u
                tau += 1
                transition(market, config, claims)
    except SimulationError:
        raise
    except Exception as exc:
        raise SimulationError(tau, str(exc)) from exc
    sellers = np.empty(seller_sum.shape)
    buyers = np.empty(buyer_sum.shape)
    sellers[order] = seller_sum
    buyers[order] = buyer_sum
    return sellers, buyers


def implicit_price(money: np.ndarray, rights: np.ndarray) -> np.ndarray:
    """``pricing.solve_implicit_price`` of each row of ``money`` and
    ``rights``, bit for bit; it raises if it raises for any row.

    The scan is described at ``wide.implicit_price``. Each row's holders
    are sorted once (stably, as ``sorted`` orders ties by index), ahead of
    the buyers without Right, whose breakpoints read as infinity. Interval
    k of a row is the one whose poor set is its first k holders: interval
    0, then each k past the zero breakpoints whose floor and ceiling,
    breakpoints k - 1 and k, differ. Its poor sums are read off running
    sums, and the row's price is the first candidate at or below its
    interval's ceiling, as in the scan. A breakpoint of infinity ends the
    scan as it does there.
    """
    # ``not x >= 0.0`` also catches NaN, which ``np.minimum`` propagates
    if np.count_nonzero(~((np.minimum(money, rights) >= 0.0) & (rights < np.inf))):
        raise PricingError("money and rights must be non-negative, and rights finite")
    total_rights = _sum(rights)
    if np.count_nonzero(total_rights <= 0.0):
        raise PricingError("no rights in circulation")
    total_money = _sum(money)

    markets, n = money.shape
    held = rights > 0.0
    ratio = money / rights
    rows = np.arange(markets)
    index = (rows[:, None], np.lexsort((ratio, ~held), axis=-1))
    # breakpoint 0 is interval 0's floor; the ceiling of interval k is
    # breakpoint k + 1, and past the holders every breakpoint is infinity
    breakpoints = np.full((markets, n + 2), np.inf)
    breakpoints[:, 0] = 0.0
    breakpoints[:, 1:-1] = np.where(held, ratio, np.inf)[index]
    lo, hi = breakpoints[:, :-1], breakpoints[:, 1:]
    # the poor money and Right of interval k, summed from 0.0 as the scan does
    poor = np.zeros((2, markets, n + 1))
    poor[0, :, 1:] = money[index]
    poor[1, :, 1:] = rights[index]
    poor_money, poor_rights = np.add.accumulate(poor, axis=2)
    # the zero breakpoints are in interval 0's poor set; before interval 0
    # floor and ceiling are both 0.0
    first = np.add.reduce(hi <= 0.0, axis=1)[:, None]
    interval = (hi != lo) | (np.arange(n + 1) == first)

    # the ceiling is the one test, as ``pricing.solve_implicit_price`` says
    # why; a NaN candidate fails it, and any other passes an infinite one
    p = (total_money[:, None] + poor_money) / (total_rights[:, None] + poor_rights)
    slack = EQ_TOL
    inside = p <= hi + slack * np.where(p > 1.0, p, 1.0)
    # the scan stops at the first interval without a ceiling
    last = (interval & (hi == np.inf)).argmax(axis=1)[:, None]
    found = interval & inside & (np.arange(n + 1) <= last)
    pick = found.argmax(axis=1)
    # a row without money clears at 0.0 before any scan
    broke = total_money == 0.0
    if np.count_nonzero(~(found[rows, pick] | broke)):
        raise PricingError("interval scan found no admissible price")
    return np.where(broke, 0.0, p[rows, pick])


def _play_round(
    market: WideState,
    config: MarketConfig,
    tau: int,
    moves: list[tuple[int, BidAdjustment]],
    claims: np.ndarray,
    rights_memo: dict,
) -> tuple[np.ndarray, np.ndarray]:
    """``engine._run_rights_round`` of every market: play round ``tau``,
    check it and return the seller and buyer utilities, one row per market.
    ``moves`` lists the round's adjustments as (market, adjustment), each
    market's in list order."""
    markets, nb = market.money.shape
    ns = market.seller_good.shape[1]
    money_start = market.money

    # offered volumes first: a volume deviation changes the rights everyone
    # sees (``engine._offer_volumes``)
    volumes = np.empty((markets, ns))
    volumes[:] = config.resupply_at(tau)
    for m, adj in moves:
        side, s = adj.trader
        if side == "seller" and s < ns:
            volumes[m, s] += adj.volume_delta
    volumes, offered = offer_volumes(tau, volumes, market.seller_good)

    rights = np.empty((markets, nb))
    offered_list = offered.tolist()
    if len(set(offered_list)) == 1:
        rights[:] = rights_row(rights_memo, config, offered_list[0])
    else:
        rights[:] = [rights_row(rights_memo, config, o) for o in offered_list]
    if config.variant == "myopic_rights":
        price = _sum(money_start) / offered
    else:
        price = implicit_price(money_start, rights)
    # the sellers' offers: the posted price, scaled by any price deviation
    # (``engine._seller_offers``)
    posted = price * config.greedy_price_factor
    prices = np.empty((markets, ns))
    prices[:] = posted[:, None]
    for m, adj in moves:
        side, s = adj.trader
        if side == "seller" and s < ns:
            prices[m, s] *= adj.price_factor
    market.right = rights

    price_avg = mean_price(prices)
    bids = greedy_bids(price_avg[:, None], offered[:, None], money_start, rights, config.variant)
    for m, adj in moves:
        side, b = adj.trader
        if side == "buyer" and b < nb:
            bids[OFFER, m, b] *= adj.right_offer_factor
            bids[OFFER_PRICE, m, b] *= adj.price_factor
            bids[RIGHT_CAP, m, b] *= adj.right_demand_factor

    result = clear(volumes, prices, bids, market, config.variant)
    # each market's Right price, as its record would hold it: ``settle``
    # checks that it is finite
    price_right = mean_right_price(bids[OFFER], bids[OFFER_PRICE])
    seller_u, buyer_u, _, _ = settle(
        market, config, tau, result, volumes, offered, posted, price_avg, price_right, claims
    )
    return seller_u, buyer_u


class Columns:
    """``mechanism.Levels`` of M markets: each holder's price, volume
    offered, remaining, sold and revenue as (M, K) arrays, ``remaining`` a
    copy of ``offered`` drawn down as the book sells.

    A market's live holders are those with more than ``EQ_TOL`` left; its
    cheapest level, ``level``, is its live holders at the lowest price, and
    ``price_level`` is the price of the level's first live holder, as
    ``Levels`` reads it. Both are found again whenever a sale leaves a
    holder of a level with ``EQ_TOL`` or less; ``has_level`` tells the
    markets with a level left.
    """

    __slots__ = (
        "price", "offered", "remaining", "sold", "revenue", "level", "price_level", "has_level"
    )

    def __init__(self, prices: np.ndarray, offered: np.ndarray) -> None:
        self.price = prices
        self.offered = offered
        self.remaining = offered.copy()
        self.sold = np.zeros(offered.shape)
        self.revenue = np.zeros(offered.shape)
        self._find_levels(offered > EQ_TOL)

    def _find_levels(self, live: np.ndarray) -> None:
        if live.shape[1] == 1 or not np.count_nonzero(live):
            # one holder per market, or none live: a market's level is its
            # live holders, priced at holder 0's price as below
            self.level, self.price_level, self.has_level = live, self.price[:, 0], live[:, 0]
            return
        prices = np.where(live, self.price, np.inf)
        self.level = level = live & (prices == np.minimum.reduce(prices, axis=1)[:, None])
        # each level's first member, or holder 0 of a market without one
        first = (np.arange(len(level)), level.argmax(axis=1))
        self.price_level, self.has_level = self.price[first], level[first]

    def supply(self) -> np.ndarray:
        """Each market's volume on sale at its cheapest level."""
        return _sum(np.where(self.level, self.remaining, 0.0))

    def sell(self, go: np.ndarray, volume: np.ndarray, credit: np.ndarray | None = None) -> None:
        """Sell ``volume[m]`` from the cheapest level of each market m that
        ``go`` marks, at the level's price, adding the proceeds to
        ``revenue`` and, when given, to ``credit``."""
        level = self.level & go[:, None]
        take = _equal_rate_fill(self.remaining, level, volume)
        np.copyto(self.remaining, self.remaining - take, where=level)
        np.copyto(self.sold, self.sold + take, where=level)
        proceeds = take * self.price_level[:, None]
        np.copyto(self.revenue, self.revenue + proceeds, where=level)
        if credit is not None:
            np.copyto(credit, credit + proceeds, where=level)
        # a member of a level that sold has ``EQ_TOL`` or less left
        live = self.remaining > EQ_TOL
        if np.count_nonzero(level > live):
            self._find_levels(live)

    def unsold(self) -> np.ndarray:
        """Each holder's offered volume left unsold."""
        return _positive(self.offered - self.sold)


def seller_columns(
    volumes: np.ndarray, prices: np.ndarray, stock: np.ndarray, rejected: list[list[Rejection]]
) -> Columns:
    """``mechanism.seller_levels`` of M markets: the ``Columns`` of the
    sellers' offers.

    An offer with a negative or NaN entry, or a volume above its seller's
    stock by more than ``CONSERVATION_TOL``, is appended to its market's
    list in ``rejected`` and keeps the seller out of the round, as an offer
    of 0.0.
    """
    # ``not x >= 0.0`` also catches NaN
    ok = (volumes >= 0.0) & (prices >= 0.0) & ~(volumes > stock + CONSERVATION_TOL)
    if np.count_nonzero(~ok):
        for m, s in np.argwhere(~ok).tolist():
            offer = SellerOffer(float(volumes[m, s]), float(prices[m, s]))
            reason = f"offer {offer} infeasible against stock {float(stock[m, s])!r}"
            rejected[m].append(Rejection("seller", s, reason))
        volumes = np.where(ok, volumes, 0.0)
    return Columns(prices, volumes)


def clear(
    volumes: np.ndarray,
    prices: np.ndarray,
    bids: np.ndarray,
    market: WideState,
    variant: str,
) -> ClearingResult:
    """``mechanism.clear`` of every market: market m's sellers offer
    ``volumes[m]`` at ``prices[m]``, and its buyers bid ``bids[:, m]``, laid
    out as ``greedy_bids`` builds them. Each field of the ``ClearingResult``
    holds one row per market, and ``rejected`` one tuple per market.

    The rules, and why the loops end, are in ``mechanism``'s docstring, and
    why each step matches the scalar one in ``wide.clear``'s; here a buyer
    whose price ceiling is below the price is left out of a step too, as
    the scalar step leaves them out. The sellers' Good and the Right on
    sale are each a ``Columns`` book, which prices a level as
    ``mechanism.Levels`` does, and each stage is one ``walk``, as in
    ``mechanism.clear``. A step of a walk steps every market with demand
    at its cheapest level. A market without one stops there, as the
    scalar walk does: it trades no more in that walk, so its demand stays
    as it was. ``variant`` is "rights" or "myopic_rights"; anything else
    is a ``ClearingError``.
    """
    if variant not in ("rights", "myopic_rights"):
        raise ClearingError(f"unknown clearing variant {variant!r}")
    markets, nb = market.money.shape
    myopic = variant == "myopic_rights"

    rejected: list[list[Rejection]] = [[] for _ in range(markets)]
    book = seller_columns(volumes, prices, market.seller_good, rejected)

    right = market.right
    offer = bids[OFFER]
    offer_rem = np.where(right < offer, right, offer)
    rights_use = right - offer_rem
    spend = market.money.copy()
    vbar_rem = bids[GOOD_CAP].copy()
    # a buyer who sells Right buys none (``mechanism``'s docstring)
    wbar_rem = np.where(offer_rem > EQ_TOL, 0.0, bids[RIGHT_CAP])
    # ``not x >= 0.0`` also catches NaN
    feasible = np.logical_and.reduce(bids >= 0.0) & ~(offer > right + CONSERVATION_TOL)
    if np.count_nonzero(~feasible):
        for m, b in np.argwhere(~feasible).tolist():
            bid = BuyerBid(*bids[:, m, b].tolist())
            reason = f"bid {bid} infeasible against right {float(right[m, b])!r}"
            rejected[m].append(Rejection("buyer", b, reason))
        # zero caps and no Right on sale keep them out of every walk
        spend, offer_rem, rights_use, vbar_rem, wbar_rem = (
            np.where(feasible, column, 0.0)
            for column in (spend, offer_rem, rights_use, vbar_rem, wbar_rem)
        )
    # a rejected buyer's ceilings may be NaN; their zero caps decide first
    good_ceiling = bids[GOOD_PRICE]
    right_ceiling = bids[RIGHT_PRICE]

    # every column below is written in place, only where a step trades
    flows = np.zeros((4, markets, nb))
    good_bought, right_bought, spent_good, spent_right = flows
    # the Right on sale, whose proceeds a myopic seller spends at once; a
    # market without Right on sale has no supply there, which leaves every
    # buyer a cap of 0
    right_book = Columns(bids[OFFER_PRICE], offer_rem)
    credit = spend if myopic else None

    def walk(licence: np.ndarray, right: Columns | None) -> None:
        """``mechanism.clear``'s walk of every market: Good at ascending
        prices, each unit drawing down a unit of ``licence`` and, with
        ``right``, buying a unit of Right from that book's cheapest level.
        Without it a step leaves the Right out: the scalar walk reads its
        price as 0.0 and its supply as infinity, which change no cap and no
        test (``mechanism``'s docstring), and here that would cost array
        operations that only add 0.0 or take a minimum with infinity."""
        while np.count_nonzero(
            book.has_level if right is None else book.has_level & right.has_level
        ):
            price = book.price_level[:, None]
            unit = price
            cap = np.fmin(vbar_rem, licence)
            wants = good_ceiling >= price
            if right is not None:
                qr, right_avail = right.price_level[:, None], right.supply()
                unit = price + qr
                np.fmin(cap, right_avail[:, None], out=cap)
                wants &= right_ceiling >= qr
            # at unit price 0 even a buyer without money buys
            np.fmin(cap, spend / unit, out=cap, where=unit > 0.0)
            wants &= (cap > 0.0) & (licence > 0.0)
            demand = np.where(wants, cap, 0.0)
            total_demand = _sum(demand)
            # the cheapest level or pair is the easiest to be compatible
            # with, so no demand here means no demand anywhere
            go = book.has_level & (total_demand > EQ_TOL)
            if not np.count_nonzero(go):
                return
            wants &= go[:, None]
            supply = book.supply()
            volume = np.where(supply < total_demand, supply, total_demand)
            if right is not None:
                volume = np.where(right_avail < volume, right_avail, volume)
                right.sell(go, volume, credit)
            book.sell(go, volume)
            # each demander's share, pro rata to their demand, as the
            # scalar step shares it
            x = volume[:, None] * demand / total_demand[:, None]
            np.copyto(good_bought, good_bought + x, where=wants)
            np.copyto(vbar_rem, _positive(vbar_rem - x), where=wants)
            np.copyto(licence, _positive(licence - x), where=wants)
            np.copyto(spend, _positive(spend - x * unit), where=wants)
            np.copyto(spent_good, spent_good + x * price, where=wants)
            if right is not None:
                np.copyto(right_bought, right_bought + x, where=wants)
                np.copyto(spent_right, spent_right + x * qr, where=wants)

    # stage 1, stage 2 and the myopic extra pass, as in ``mechanism.clear``
    walk(rights_use, None)
    walk(wbar_rem, right_book)
    if myopic:
        # the right-sale window is closed; unsold offers revert to licences
        walk(rights_use + right_book.remaining, None)

    return ClearingResult(
        good_bought=good_bought,
        right_bought=right_bought,
        right_sold=right_book.sold,
        money_spent_good=spent_good,
        money_spent_right=spent_right,
        money_earned_right=right_book.revenue,
        seller_revenue=book.revenue,
        seller_sold=book.sold,
        unsold_good=book.unsold(),
        proceeds_deferred=not myopic,
        rejected=tuple(tuple(r) for r in rejected),
    )


def _equal_rate_fill(held: np.ndarray, members: np.ndarray, total: np.ndarray) -> np.ndarray:
    """``core.equal_rate_fill`` of the holdings ``members`` marks in each
    row of ``held``, for ``total[m]`` in row m, bit for bit; 0.0 elsewhere.
    ``total`` is positive wherever a row has members, as in a clearing.

    A row of one member takes ``total if total < a else a``, as the scalar
    fill does; rows of more walk as ``wide._equal_rate_fill`` does. Past a
    row's members the holdings read as infinity, and the running sums turn
    NaN there, so no step past them reaches the total.
    """
    limit = total[:, None]
    out = np.where(members, np.where(limit < held, limit, held), 0.0)
    if held.shape[1] < 2:  # no row can have two members
        return out
    count = np.add.reduce(members, axis=1)
    multi = (count > 1).nonzero()[0]
    if not multi.size:
        return out
    if multi.size < len(held):
        held, members, total, count = held[multi], members[multi], total[multi], count[multi]
    markets, width = held.shape
    # step i raises the level from holding i - 1 (0.0 before the first) to
    # holding i for the count - i members at or above it; the water consumed
    # before each step is summed from 0.0 as the walk sums it
    below, consumed = np.zeros((2, markets, width + 1))
    below[:, 1:] = np.sort(np.where(members, held, np.inf), axis=1)
    consumed[:, 1:] = (below[:, 1:] - below[:, :-1]) * (count[:, None] - np.arange(width))
    consumed = np.add.accumulate(consumed, axis=1)
    rows = np.arange(markets)
    i = (consumed[:, 1:] >= total[:, None]).argmax(axis=1)
    walked = below[rows, i] + (total - consumed[rows, i]) / (count - i)
    level = np.where(consumed[rows, i + 1] >= total, walked, below[rows, count])[:, None]
    fill = np.where(members, np.where(level < held, level, held), 0.0)
    # any rounding residue goes onto the largest holder, the first on a tie
    residue = total - _sum(fill)
    fix = (np.abs(residue) > 0.0).nonzero()[0]
    if fix.size:
        k = np.where(members, held, -np.inf).argmax(axis=1)[fix]
        top = held[fix, k]
        v = fill[fix, k] + residue[fix]
        v = np.where(v > 0.0, v, 0.0)
        fill[fix, k] = np.where(v < top, v, top)
    if multi.size < len(out):
        out[multi] = fill
        return out
    return fill
