"""All-greedy runs of many buyers, played on numpy columns, and the column
rules that ``batch`` shares.

``engine.run`` hands a ``rights`` or ``myopic_rights`` market to
``play_rounds`` once it has ``engine.WIDE_MIN_BUYERS`` buyers and every
trader plays greedy: no bid adjustments and no checkpoints. The kernel
plays the same round as ``engine._run_rights_round`` and makes the same
checks and records, but holds each buyer quantity as one float64 column
and runs every per-buyer pass (the implicit-price solve, the bids, each
clearing step, the balance and rights-cap checks, the record, the
utilities and the transition) as array operations. Sellers are few: they
stay ``SellerState`` objects and share the scalar code
(``mechanism.GoodLevels`` and ``engine``'s offer helpers), and so does
``clear``'s walk over good and Right levels. The buyers' price P is
``pricing.mean_posted_price``, and ``clear`` returns the scalar
``mechanism.ClearingResult``, with a float64 column in each buyer field.

Every replay, the audit's one-round deviations, is played by ``batch``
instead, one market per row, whatever its size; smaller runs, runs with
adjustments or checkpoints and ``free_market`` stay on the scalar round,
the reference both kernels are tested against. The column rules the two kernels share,
``_sum`` through ``settle`` below, are stated once, here, over arrays of
any leading shape: one market's columns, or the rows of M markets. Each
kernel keeps its own round and ``clear``; the implicit-price solve and the
Right fill keep a one-market form here, which is faster (see their
docstrings). ``clear`` also keeps the rejections and the several Right
levels that greedy play never reaches: ``tests/test_clear_oracle.py``
calls it directly.

Every result equals the scalar round's bit for bit, in both kernels:

- an elementwise numpy operation is the same IEEE operation as the scalar
  one, and ``min``/``max`` are spelled so that NaN and signed zeros come
  out as the scalar code compares them;
- every sum that feeds a result adds left to right along its own column,
  as Python's ``sum`` does (``_sum``); ``np.sum`` adds pairwise and would
  not;
- sorts are stable, so ties keep buyer order as Python's ``sorted`` does;
- a step updates only the buyers the scalar loop updates.

``tests/test_wide.py`` plays random markets on the scalar round and on
the kernels and compares them. Below ``engine.WIDE_MIN_BUYERS`` the fixed cost of numpy
calls outweighs the per-buyer work they save, so small markets keep the
scalar round.
"""

from __future__ import annotations

import numpy as np

from .core import CONSERVATION_TOL, EQ_TOL, MarketConfig, MarketState
from .engine import (
    RoundRecord,
    _check_finite,
    _check_residuals,
    _offer_volumes,
    _seller_offers,
)
from .errors import PricingError, SimulationError
from .mechanism import BuyerBid, ClearingResult, GoodLevels, Rejection, SellerOffer
from .pricing import mean_posted_price, mechanism_rights

# rows of a bid array, in ``BuyerBid`` field order, each shaped as the
# buyers' money: one column per buyer, in each market
OFFER, OFFER_PRICE, GOOD_CAP, GOOD_PRICE, RIGHT_CAP, RIGHT_PRICE = range(6)


def _sum(a: np.ndarray):
    """Python's ``sum`` along the last axis of ``a``, bit for bit: a float
    for one column, an array for rows; an empty column sums to 0.0.

    ``np.add.accumulate`` adds left to right as ``sum`` does, but starts
    from the first entry where ``sum`` starts from 0: the two differ only
    while every entry so far is -0.0, and adding 0.0 turns that -0.0 into
    ``sum``'s 0.0 and leaves every other value alone. So a 0.0 put in place
    of an entry a sum leaves out does not change it either.
    """
    if a.ndim == 1:
        return float(np.add.accumulate(a)[-1]) + 0.0 if a.size else 0.0
    if not a.shape[-1]:
        return np.zeros(a.shape[:-1])
    return np.add.accumulate(a, axis=-1)[..., -1] + 0.0


def _positive(a: np.ndarray) -> np.ndarray:
    """``v if v > 0.0 else 0.0`` of each entry: ``np.fmax`` turns NaN and
    negatives into 0.0, and adding 0.0 turns the -0.0 it may keep into 0.0."""
    return np.fmax(a, 0.0) + 0.0


def mean_price(prices: np.ndarray):
    """``pricing.mean_posted_price`` of the posted prices along the last axis
    of ``prices``, bit for bit: P of each market."""
    return _sum(prices) / prices.shape[-1]


def rights_row(memo: dict, config: MarketConfig, offered: float) -> np.ndarray:
    """``pricing.mechanism_rights(config, offered)`` as a float64 row, kept
    in ``memo``, one memo per config, by offered volume."""
    row = memo.get(offered)
    if row is None:
        row = memo[offered] = np.array(mechanism_rights(config, offered), dtype=float)
    return row


def greedy_bids(price_avg, offered_volume, money: np.ndarray, rights: np.ndarray, variant: str):
    """``pricing.greedy_buyer_bids`` as a bid array: row ``OFFER`` and the
    others in ``BuyerBid`` field order, each shaped as ``money``. P,
    ``price_avg``, and the Good on sale, ``offered_volume``, broadcast
    against ``money``: floats for one market's columns, (M, 1) columns for
    the rows of M markets."""
    bids = np.empty((6,) + money.shape)
    bids[OFFER_PRICE] = bids[GOOD_PRICE] = bids[RIGHT_PRICE] = price_avg
    backing = money / price_avg
    psi = _positive(rights - backing)
    xi = _positive(backing - rights)
    free = np.logical_not(price_avg > 0.0)
    if np.count_nonzero(free):
        # Good is free: nobody sells Right, and demand is capped by the
        # Good on sale
        free_xi = offered_volume - rights
        free_xi = np.where((money >= 0.0) & (free_xi > 0.0), free_xi, 0.0)
        xi = np.where(free, free_xi, xi)
        psi = np.where(free, 0.0, psi)
    bids[OFFER] = psi / 2.0 if variant == "myopic_rights" else psi
    bids[GOOD_CAP] = rights + xi
    bids[RIGHT_CAP] = xi
    return bids


def settle(market, tau: int, money_start: np.ndarray, result: ClearingResult, rights, offered):
    """Pay the clearing ``result`` into the buyers' Good and money columns
    of ``market`` (a ``WideState`` or ``batch.Markets``), checking as
    ``engine._run_rights_round`` does that no money goes negative beyond
    rounding dust and no Good is bought beyond the buyer's rights.
    ``offered`` broadcasts against the columns, as in ``greedy_bids``."""
    market.good = market.good + result.good_bought
    # deferred proceeds join the balance only now, after the trading window
    # closed; rounding dust scales with the buyer's money in play
    earned = result.money_earned_right
    money = money_start - result.money_spent_good - result.money_spent_right
    money = money + earned
    short = money < 0.0
    if np.count_nonzero(short):
        in_play = money_start + earned
        broke = short & (money < -CONSERVATION_TOL * np.where(in_play > 1.0, in_play, 1.0))
        _fail(tau, broke, "money went negative")
        money = np.where(short, 0.0, money)
    # rights cap: purchases in the round never exceed licence held + bought
    good_tol = CONSERVATION_TOL * np.fmax(offered, 1.0)
    over_cap = result.good_bought > rights + result.right_bought + good_tol
    _fail(tau, over_cap, "bought good beyond their rights")
    market.money = money


def _fail(tau: int, mask: np.ndarray, what: str) -> None:
    """Raise for the first buyer ``mask`` marks, in the first market."""
    if np.count_nonzero(mask):
        raise SimulationError(tau, f"buyer {int(np.argwhere(mask)[0, -1])} {what}")


class WideState:
    """A ``MarketState`` with the buyers as columns: their Good, money and
    Right as float64 arrays, which are replaced, never written in place, so
    a column read at the start of a round keeps its values. The sellers are
    few and stay ``SellerState`` objects, updated in place as the scalar
    round does."""

    __slots__ = ("round_index", "sellers", "good", "money", "right")

    def __init__(self, state: MarketState) -> None:
        self.round_index = state.round_index
        self.sellers = [s.copy() for s in state.sellers]
        self.good = np.array([b.good for b in state.buyers], dtype=float)
        self.money = np.array([b.money for b in state.buyers], dtype=float)
        self.right = np.array([b.right for b in state.buyers], dtype=float)


def play_rounds(
    config: MarketConfig,
    state: MarketState,
    horizon: int,
    seller_total: list[float],
    buyer_total: list[float],
    records: list[RoundRecord],
) -> tuple[float, float]:
    """``engine._play_rounds`` of an all-greedy rights-variant run, on
    columns: the same rounds, checks, records, utility totals and residuals.
    ``state`` is read once and left as it was."""
    market = WideState(state)
    claims = np.array(config.claims, dtype=float)
    buyer_sum = np.array(buyer_total, dtype=float)
    rights_memo: dict[float, np.ndarray] = {}
    max_money_res = 0.0
    max_good_res = 0.0

    tau = market.round_index
    try:
        # divisions and comparisons run over whole columns, NaN included;
        # the scalar round reads only the entries it would have computed
        with np.errstate(all="ignore"):
            while tau <= horizon:
                seller_u, buyer_u, money_res, good_res = _play_round(
                    market, config, tau, records, claims, rights_memo
                )
                if money_res > max_money_res:
                    max_money_res = money_res
                if good_res > max_good_res:
                    max_good_res = good_res
                seller_total[:] = [total + u for total, u in zip(seller_total, seller_u)]
                buyer_sum = buyer_sum + buyer_u
                tau += 1
                _transition(market, config, claims)
    except SimulationError:
        raise
    except Exception as exc:
        raise SimulationError(tau, str(exc)) from exc
    buyer_total[:] = buyer_sum.tolist()
    return max_money_res, max_good_res


def _transition(market: WideState, config: MarketConfig, claims: np.ndarray) -> None:
    """``core.apply_transition`` on columns."""
    nxt = market.round_index + 1
    g = config.resupply_at(nxt)
    m = config.income_at(nxt)
    for seller, resupply in zip(market.sellers, g):
        seller.good = seller.good + resupply
        seller.money = 0.0
    market.good = _positive(market.good - claims)
    market.money = np.fromiter(m, float, len(m)) + market.money
    market.right = np.zeros(len(m))
    market.round_index = nxt


def implicit_price(money: np.ndarray, rights: np.ndarray) -> float:
    """``pricing.solve_implicit_price(money, rights)``, bit for bit.

    The scalar scan visits interval 0, whose floor is 0.0, and then one
    interval per distinct positive breakpoint M/R, in ascending order, with
    every holder at or below the floor in the poor set. The holders are
    sorted once (stably, as ``sorted`` orders ties by index), the poor
    sums of every interval are read off running sums, and the price is the
    first candidate that lands inside its interval, as in the scan; a
    breakpoint of infinity ends the scan as it does there.

    ``batch.implicit_price`` gives the same price on a one-row view, but it
    scans every breakpoint, not just the distinct ones: at 300 buyers it
    took 69-97 us a call against 54-75 us here, and a 300-buyer, 10-seller
    run played about 10% slower with it (2-core host, raw, interleaved).
    """
    # ``not x >= 0.0`` also catches NaN
    if np.count_nonzero(~(money >= 0.0)) or np.count_nonzero(~(rights >= 0.0)):
        raise PricingError("money and rights must be non-negative")
    total_rights = _sum(rights)
    if total_rights <= 0.0:
        raise PricingError("no rights in circulation")
    total_money = _sum(money)
    if total_money == 0.0:
        return 0.0

    held = rights > 0.0
    m, r = money[held], rights[held]
    ratio = m / r
    order = np.argsort(ratio, kind="stable")
    ratio = ratio[order]
    n = ratio.size
    # poor money and rights once the first k holders are poor, for every k;
    # the leading 0.0 is where the scan's running sums start
    poor_money = np.add.accumulate(np.concatenate(([0.0], m[order])))
    poor_rights = np.add.accumulate(np.concatenate(([0.0], r[order])))
    # the number of holders in the poor set of each interval
    first = int(ratio.searchsorted(0.0, side="right"))
    if first < n:
        ends = (ratio[first + 1:] != ratio[first:-1]).nonzero()[0] + (first + 1)
        poor = np.concatenate(([first], ends, [n]))
    else:
        poor = np.array([first])
    # the floor of interval i > 0 is the breakpoint of holder poor[i] - 1,
    # its ceiling that of holder poor[i], or infinity past the last one;
    # interval 0's floor is tested apart
    breakpoints = np.concatenate(([0.0], ratio, [np.inf]))
    lo = breakpoints[poor]
    hi = breakpoints[poor + 1]

    p = (total_money + poor_money[poor]) / (total_rights + poor_rights[poor])
    slack = EQ_TOL
    inside_hi = (hi == np.inf) | (p <= hi + slack * np.where(p > 1.0, p, 1.0))
    inside_lo = p > lo - slack * np.where(lo > 1.0, lo, 1.0)
    inside_lo[0] = p[0] >= 0.0
    # the scan stops at the first interval without a ceiling
    last = int((hi == np.inf).argmax())
    found = (inside_hi & inside_lo)[: last + 1].nonzero()[0]
    if not found.size:
        raise PricingError("interval scan found no admissible price")
    return float(p[found[0]])


def _play_round(
    market: WideState,
    config: MarketConfig,
    tau: int,
    records: list[RoundRecord],
    claims: np.ndarray,
    rights_memo: dict,
):
    """``engine._run_rights_round`` of an all-greedy round on columns: play
    round ``tau``, check it, record it, and return the seller and buyer
    utilities and the money and Good residuals."""
    money_start = market.money

    volumes, offered = _offer_volumes(config, tau, {}, market.sellers)
    rights = rights_row(rights_memo, config, offered)
    if config.variant == "myopic_rights":
        price = _sum(money_start) / offered
    else:
        price = implicit_price(money_start, rights)
    posted = price * config.greedy_price_factor
    offers = _seller_offers(posted, volumes, {})
    market.right = rights

    price_avg = mean_posted_price(offers)
    bids = greedy_bids(price_avg, offered, money_start, rights, config.variant)

    result = clear(offers, bids, market, config.variant)

    sellers = market.sellers
    for seller, sold, revenue in zip(sellers, result.seller_sold, result.seller_revenue):
        seller.good -= sold
        seller.money += revenue
    settle(market, tau, money_start, result, rights, offered)

    # money only changes hands; good shipped must equal good received
    money_total = _sum(money_start)
    money_res = abs(sum(s.money for s in sellers) + _sum(market.money) - money_total)
    good_res = abs(_sum(result.good_bought) - sum(result.seller_sold))
    for sold, unsold, volume in zip(result.seller_sold, result.unsold_good, volumes):
        res = abs(sold + unsold - volume)
        if res > good_res:
            good_res = res
    _check_residuals(money_res, good_res, money_total, offered)
    _check_finite(tau, posted, price_avg, _sum(market.good), sum(s.good for s in sellers))

    myopic = config.variant == "myopic_rights"
    right_offered = bids[OFFER]
    offered_right = _sum(right_offered)
    price_right = (
        _sum(right_offered * bids[OFFER_PRICE]) / offered_right
        if offered_right > 0.0
        else 0.0
    )
    good_end = market.good
    with_rights = rights > 0.0
    short_of = (rights - good_end) / rights
    frustration = np.where(with_rights & (short_of > 0.0), short_of, 0.0)
    records.append(
        RoundRecord(
            round_index=tau,
            price_good=price_avg,
            price_right=price_right,
            money_start=tuple(money_start.tolist()),
            good_end=tuple(good_end.tolist()),
            right_assigned=mechanism_rights(config, offered),
            frustration=tuple(frustration.tolist()),
            right_offered=tuple(right_offered.tolist()),
            right_demanded=tuple(bids[RIGHT_CAP].tolist()),
            useful_money=sum(result.seller_revenue),
            useless_money=0.0 if myopic else _sum(result.money_earned_right),
            volume_offered=offered,
            volume_sold=result.volume_sold,
            rejections=result.rejected,
        )
    )

    c = config.seller_storage_cost
    seller_u = [s.money - c * s.good for s in sellers]
    good = market.good
    return seller_u, np.where(good < claims, good, claims), money_res, good_res


def clear(
    offers: list[SellerOffer], bids: np.ndarray, market: WideState, variant: str
) -> ClearingResult:
    """``mechanism.clear`` on columns, for a bid matrix laid out as
    ``greedy_bids`` builds it. The ``ClearingResult`` holds a float64
    column in each buyer field. The rules, and why the loops end without an
    iteration cap, are in ``mechanism``'s docstring.

    Each pass over the buyers is an array operation over all of them: a
    buyer the scalar pass skips (no Good cap, licence or Right cap left, or
    a price ceiling below the price) has a demand of at most 0 here and is
    not updated. ``vbar_rem`` and ``wbar_rem`` are never NaN (a NaN cap is
    rejected and a cap only falls through ``_positive``), so an ``np.fmin``
    chain that starts from them skips a NaN bound as the scalar ``v if v <
    cap else cap`` does. A buyer whose licence is not positive, NaN
    included, is left out of a stage-1 pass explicitly, as the scalar pass
    leaves them out.
    """
    nb = market.money.size
    myopic = variant == "myopic_rights"

    rejected: list[Rejection] = []
    book = GoodLevels(offers, market.sellers, rejected)
    good_levels, sell_price, sell_rem = book.levels, book.price, book.remaining

    right = market.right
    offer = bids[OFFER]
    offer_rem = np.where(right < offer, right, offer)
    rights_use = right - offer_rem
    spend = market.money.copy()
    vbar_rem = bids[GOOD_CAP].copy()
    wbar_rem = bids[RIGHT_CAP].copy()
    # a buyer who sells Right buys none (``mechanism``'s docstring)
    wbar_rem[offer_rem > EQ_TOL] = 0.0
    # ``not x >= 0.0`` also catches NaN
    feasible = bids >= 0.0
    over = offer > right + CONSERVATION_TOL
    if not feasible.all() or np.count_nonzero(over):
        bad = ~feasible.all(axis=0) | over
        for b in bad.nonzero()[0].tolist():
            bid = BuyerBid(*bids[:, b].tolist())
            reason = f"bid {bid} infeasible against right {float(right[b])!r}"
            rejected.append(Rejection("buyer", b, reason))
        # zero caps and no Right on sale keep them out of every pass
        for column in (spend, offer_rem, rights_use, vbar_rem, wbar_rem):
            column[bad] = 0.0
    # a rejected buyer's ceilings may be NaN; their zero caps decide first
    good_ceiling = bids[GOOD_PRICE]
    right_ceiling = bids[RIGHT_PRICE]
    right_price = bids[OFFER_PRICE]

    flows = np.zeros((6, nb))
    good_bought, right_bought, right_sold, spent_good, spent_right, earned = flows

    def run_good_for_rights_pass(licence: np.ndarray) -> None:
        """Ascending-price Good sales licensed unit-for-unit by ``licence``."""
        while good_levels:
            level = good_levels[-1]
            pg = sell_price[level[0]]
            cap = np.fmin(vbar_rem, licence)
            if pg > 0.0:
                cap = np.fmin(cap, spend / pg)
            wants = (cap > 0.0) & (licence > 0.0) & (good_ceiling >= pg)
            demanders = wants.nonzero()[0]
            demand = cap[demanders]
            # no buyer left sums to 0.0
            total_demand = _sum(demand)
            if total_demand <= EQ_TOL:
                # the cheapest level is the easiest to be compatible with,
                # so no demand here means no demand anywhere
                return
            supply = sum([sell_rem[s] for s in level])
            volume = supply if supply < total_demand else total_demand
            book.sell(pg, volume)
            x = volume * demand / total_demand
            good_bought[demanders] += x
            licence[demanders] = _positive(licence[demanders] - x)
            vbar_rem[demanders] = _positive(vbar_rem[demanders] - x)
            pay = x * pg
            spend[demanders] = _positive(spend[demanders] - pay)
            spent_good[demanders] += pay

    # -- stage 1: right-licensed Good purchases --------------------------
    run_good_for_rights_pass(rights_use)

    # -- stage 2: paired Good+Right purchases -----------------------------
    # Right levels by price, cheapest last, each listing its sellers in
    # buyer order. A set keeps the first of equal keys, as the scalar dict
    # does, so a level holding -0.0 and 0.0 trades at its first seller's
    # price.
    sellers = (offer_rem > EQ_TOL).nonzero()[0]
    prices = right_price[sellers]
    right_levels = [(q, sellers[prices == q]) for q in sorted(set(prices.tolist()), reverse=True)]
    while good_levels and right_levels:
        good_level = good_levels[-1]
        pg = sell_price[good_level[0]]
        qr, members = right_levels[-1]
        good_avail = sum([sell_rem[s] for s in good_level])
        right_avail = _sum(offer_rem[members])
        unit = pg + qr
        cap = np.fmin(np.fmin(vbar_rem, wbar_rem), right_avail)
        if unit > 0.0:  # at unit price 0 even a buyer without money buys
            cap = np.fmin(cap, spend / unit)
        demanders = ((cap > 0.0) & (good_ceiling >= pg) & (right_ceiling >= qr)).nonzero()[0]
        demand = cap[demanders]
        total_demand = _sum(demand)
        if total_demand <= EQ_TOL:
            # the cheapest pair is the easiest to be compatible with, so no
            # demand here means no demand at any pair
            break
        volume = good_avail if good_avail < total_demand else total_demand
        if right_avail < volume:
            volume = right_avail

        book.sell(pg, volume)
        take = _equal_rate_fill(offer_rem[members], volume)
        offer_rem[members] -= take
        right_sold[members] += take
        proceeds = take * qr
        earned[members] += proceeds
        if myopic:
            spend[members] += proceeds
        x = volume * demand / total_demand
        good_bought[demanders] += x
        right_bought[demanders] += x
        vbar_rem[demanders] = _positive(vbar_rem[demanders] - x)
        wbar_rem[demanders] = _positive(wbar_rem[demanders] - x)
        spend[demanders] = _positive(spend[demanders] - x * unit)
        spent_good[demanders] += x * pg
        spent_right[demanders] += x * qr
        members = members[offer_rem[members] > EQ_TOL]
        if members.size:
            right_levels[-1] = (qr, members)
        else:
            right_levels.pop()

    # -- myopic extra pass: spend same-round proceeds on licensed Good ----
    if myopic:
        # the right-sale window is closed; unsold offers revert to licences
        rights_use += offer_rem
        offer_rem[:] = 0.0
        run_good_for_rights_pass(rights_use)

    return ClearingResult(
        good_bought=good_bought,
        right_bought=right_bought,
        right_sold=right_sold,
        money_spent_good=spent_good,
        money_spent_right=spent_right,
        money_earned_right=earned,
        seller_revenue=tuple(book.revenue),
        seller_sold=tuple(book.sold),
        unsold_good=book.unsold(),
        proceeds_deferred=not myopic,
        rejected=tuple(rejected),
    )


def _equal_rate_fill(held: np.ndarray, total: float) -> np.ndarray:
    """``core.equal_rate_fill`` of a column, bit for bit. The water level's
    breakpoint walk becomes running sums of the steps between the sorted
    holdings, and the walk stops at the first step that reaches ``total``.

    ``batch._equal_rate_fill`` on a one-row view gives the same fill, but
    its member masks and padding played a 300-buyer, 10-seller run about
    10% slower (2-core host, raw, interleaved), so this form stays."""
    n = held.size
    if total <= 0.0:
        return np.zeros(n)
    if n == 1:
        a = float(held[0])
        return np.array([total if total < a else a])
    caps = np.sort(held, kind="stable")
    prev = np.concatenate(([0.0], caps[:-1]))
    steps = (caps - prev) * np.arange(n, 0, -1)
    consumed = np.cumsum(np.concatenate(([0.0], steps)))
    reached = (consumed[1:] >= total).nonzero()[0]
    if reached.size:
        i = int(reached[0])
        level = prev[i] + (total - consumed[i]) / (n - i)
    else:
        level = caps[-1]
    out = np.where(level < held, level, held)
    # any rounding residue goes onto the largest holder, the first on a tie
    residue = total - _sum(out)
    if abs(residue) > 0.0:
        k = int(held.argmax())
        v = out[k] + residue
        v = v if v > 0.0 else 0.0
        out[k] = v if v < held[k] else held[k]
    return out
