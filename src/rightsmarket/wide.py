"""All-greedy runs of many buyers, played on numpy columns, and the column
rules that ``batch`` shares.

``engine.run`` hands a ``rights`` market to ``play_rounds`` once it has
``engine.WIDE_MIN_BUYERS`` buyers and every trader plays greedy: no bid
adjustments and no checkpoints. The kernel plays the same round as
``engine._run_rights_round`` and makes the same checks and records, but
holds each trader quantity as one float64 column and runs every pass
over the traders (the offered volumes, the implicit-price solve, the
bids, each clearing step, the settlement, the checks, the record, the
utilities and the transition) as array operations. The buyers' price P
is ``pricing.mean_posted_price``, and ``clear`` returns the scalar
``mechanism.ClearingResult``, with a float64 column in each field.

Greedy play is all ``clear`` has to handle here: every seller posts one
price, and every buyer prices the Right at P and is on one side of it at
most. So ``clear`` has one good level, one Right level, no per-buyer
price ceilings and no bid rejections: its docstring states the contract
of greedy bids it relies on, and why each rule of ``mechanism.clear`` it
leaves out cannot change a greedy round. The several levels and the
arbitrary bids of the audit's deviations are ``batch``'s, which rejects
bids as ``mechanism.clear`` does.

Every replay, the audit's one-round deviations, is played by ``batch``
instead, one market per row, whatever its size; smaller runs, runs with
adjustments or checkpoints, ``myopic_rights`` and ``free_market`` stay
on the scalar round, the reference both kernels are tested against. (A
myopic run of the default horizon plays faster there, as its settled
rounds are reused; see ``engine.WIDE_MIN_BUYERS``.) The state and the
column rules the two kernels share, ``WideState`` through ``transition``
below, are stated once, here, over arrays of any leading shape: one
market's columns, or the rows of M markets; ``greedy_bids`` takes either
rights variant, as ``batch`` replays both. Each kernel keeps its own
round and ``clear``; the implicit-price solve and the Right fill keep a
one-market form here, which is faster (see their docstrings).

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
the kernels and compares them. Below ``engine.WIDE_MIN_BUYERS`` the fixed
cost of numpy calls outweighs the per-buyer work they save, so small
markets keep the scalar round.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import CONSERVATION_TOL, EQ_TOL, MarketConfig, MarketState
from .engine import RoundRecord, _check_finite, _check_residuals
from .errors import PricingError, SimulationError
from .mechanism import ClearingResult, GoodLevels, SellerOffer
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


def offer_volumes(tau: int, volumes: np.ndarray, stock: np.ndarray):
    """``engine._offer_volumes`` on columns: each seller's volume, clamped
    to [0, ``stock``], and each market's total. Raises when a market offers
    nothing."""
    volumes = np.where(volumes > 0.0, volumes, 0.0)
    volumes = np.where(stock < volumes, stock, volumes)
    offered = _sum(volumes)
    if np.count_nonzero(offered <= 0.0):
        raise SimulationError(tau, "no good offered for sale")
    return volumes, offered


def settle(
    market: WideState,
    config: MarketConfig,
    tau: int,
    result: ClearingResult,
    volumes: np.ndarray,
    offered,
    posted,
    price_avg,
    price_right,
    claims: np.ndarray,
):
    """The tail of ``engine._run_rights_round`` on columns: pay the
    clearing ``result`` into the columns of ``market``, which still hold
    the round's start money and rights, check the round and return the
    seller and buyer utilities and the money and Good residuals.

    The checks run in the scalar round's order: no money goes negative
    beyond rounding dust, no Good is bought beyond the buyer's rights, the
    residuals pass ``engine._check_residuals`` and the prices and Good
    totals are finite (``engine._check_finite``). The first market that
    fails raises. The offered volume, the posted price, P and the Right
    price are floats for one market's columns and one entry per market for
    rows.
    """
    money_start = market.money
    market.seller_good = market.seller_good - result.seller_sold
    market.seller_money = market.seller_money + result.seller_revenue
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
    good_tol = CONSERVATION_TOL * np.fmax(offered, 1.0)[..., None]
    over_cap = result.good_bought > market.right + result.right_bought + good_tol
    _fail(tau, over_cap, "bought good beyond their rights")
    market.money = money

    # money only changes hands; good shipped must equal good received
    money_total = _sum(money_start)
    money_res = abs(_sum(market.seller_money) + _sum(money) - money_total)
    good_res = abs(_sum(result.good_bought) - _sum(result.seller_sold))
    # each seller's residual raises the round's unless it is NaN, as the
    # scalar ``max`` compares; a NaN round residual stays NaN
    sellers_res = np.fmax.reduce(np.abs(result.seller_sold + result.unsold_good - volumes), axis=-1)
    good_res = np.where(np.isnan(good_res), good_res, np.fmax(good_res, sellers_res))
    buyer_good = _sum(market.good)
    seller_good = _sum(market.seller_good)
    # ``not x <= tol`` also catches a NaN residual, and the sum of the
    # prices and Good totals is finite where each of them is
    failing = ~(
        (money_res <= CONSERVATION_TOL)
        & (good_res <= CONSERVATION_TOL)
        & np.isfinite(posted + price_avg + buyer_good + seller_good + price_right)
    )
    if np.count_nonzero(failing):
        for m in np.flatnonzero(failing).tolist():
            money_m, good_m, total_m, offered_m, *finite = (
                float(np.ravel(a)[m])
                for a in (
                    money_res, good_res, money_total, offered,
                    posted, price_avg, buyer_good, seller_good, price_right,
                )
            )
            _check_residuals(money_m, good_m, total_m, offered_m)
            _check_finite(tau, *finite)

    c = config.seller_storage_cost
    good = market.good
    seller_u = market.seller_money - c * market.seller_good
    return seller_u, np.where(good < claims, good, claims), money_res, good_res


def _fail(tau: int, mask: np.ndarray, what: str) -> None:
    """Raise for the first buyer ``mask`` marks, in the first market."""
    if np.count_nonzero(mask):
        raise SimulationError(tau, f"buyer {int(np.argwhere(mask)[0, -1])} {what}")


class WideState:
    """A ``MarketState`` as float64 columns: each seller's Good and money
    and each buyer's Good, money and Right. ``WideState(state)`` holds one
    market's columns; ``WideState(state, M)`` holds M copies of it as the
    rows of (M, S) and (M, N) arrays, and ``join`` appends rows. Every
    array is replaced, never written in place, so an array read at the
    start of a round keeps its values."""

    __slots__ = ("round_index", "seller_good", "seller_money", "good", "money", "right")

    def __init__(self, state: MarketState, *markets: int) -> None:
        self.round_index = state.round_index
        self.seller_good, self.seller_money, self.good, self.money, self.right = (
            np.tile(np.array(column, dtype=float), (*markets, 1)) for column in _columns(state)
        )

    def join(self, states: Sequence[MarketState]) -> None:
        """Append a row for each of ``states``, in order, whatever their
        round: the next round played is this one's."""
        columns = zip(*(_columns(state) for state in states))
        self.seller_good, self.seller_money, self.good, self.money, self.right = (
            np.concatenate((held, np.array(rows, dtype=float)))
            for held, rows in zip(
                (self.seller_good, self.seller_money, self.good, self.money, self.right), columns
            )
        )


def _columns(state: MarketState) -> tuple[list[float], ...]:
    """The sellers' Good and money and the buyers' Good, money and Right of
    ``state``, in ``WideState``'s order."""
    sellers, buyers = state.sellers, state.buyers
    return (
        [s.good for s in sellers],
        [s.money for s in sellers],
        [b.good for b in buyers],
        [b.money for b in buyers],
        [b.right for b in buyers],
    )


def transition(market: WideState, config: MarketConfig, claims: np.ndarray) -> None:
    """``core.apply_transition`` of every market."""
    nxt = market.round_index + 1
    market.seller_good = market.seller_good + np.array(config.resupply_at(nxt), dtype=float)
    market.seller_money = np.zeros(market.seller_money.shape)
    market.good = _positive(market.good - claims)
    market.money = np.array(config.income_at(nxt), dtype=float) + market.money
    market.right = np.zeros(market.right.shape)
    market.round_index = nxt


def play_rounds(
    config: MarketConfig,
    state: MarketState,
    seller_total: list[float],
    buyer_total: list[float],
    records: list[RoundRecord],
) -> tuple[float, float]:
    """``engine._play_rounds`` of an all-greedy ``rights`` run, on columns:
    the same rounds, checks, records, utility totals and residuals.
    ``state`` is read once and left as it was."""
    market = WideState(state)
    claims = np.array(config.claims, dtype=float)
    seller_sum = np.array(seller_total, dtype=float)
    buyer_sum = np.array(buyer_total, dtype=float)
    rights_memo: dict[float, np.ndarray] = {}
    max_money_res = 0.0
    max_good_res = 0.0

    tau = market.round_index
    try:
        # divisions and comparisons run over whole columns, NaN included;
        # the scalar round reads only the entries it would have computed
        with np.errstate(all="ignore"):
            while tau <= config.horizon:
                seller_u, buyer_u, money_res, good_res = _play_round(
                    market, config, tau, records, claims, rights_memo
                )
                if money_res > max_money_res:
                    max_money_res = money_res
                if good_res > max_good_res:
                    max_good_res = good_res
                seller_sum = seller_sum + seller_u
                buyer_sum = buyer_sum + buyer_u
                tau += 1
                transition(market, config, claims)
    except SimulationError:
        raise
    except Exception as exc:
        raise SimulationError(tau, str(exc)) from exc
    seller_total[:] = seller_sum.tolist()
    buyer_total[:] = buyer_sum.tolist()
    return max_money_res, max_good_res


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

    volumes, offered = offer_volumes(tau, np.array(config.resupply_at(tau)), market.seller_good)
    rights = rights_row(rights_memo, config, offered)
    posted = implicit_price(money_start, rights) * config.greedy_price_factor
    offers = [SellerOffer(volume, posted) for volume in volumes.tolist()]
    market.right = rights

    price_avg = mean_posted_price(offers)
    bids = greedy_bids(price_avg, offered, money_start, rights, "rights")

    result = clear(offers, bids, market)
    right_offered = bids[OFFER]
    offered_right = _sum(right_offered)
    price_right = (
        _sum(right_offered * bids[OFFER_PRICE]) / offered_right
        if offered_right > 0.0
        else 0.0
    )
    seller_u, buyer_u, money_res, good_res = settle(
        market, config, tau, result, volumes, offered, posted, price_avg, price_right, claims
    )

    good_end = market.good
    with_rights = rights > 0.0
    short_of = (rights - good_end) / rights
    frustration = np.where(with_rights & (short_of > 0.0), short_of, 0.0)
    # record fields and residuals are floats: ``_sum`` of a column is one,
    # where ``sum`` would give a numpy scalar
    records.append(
        RoundRecord(
            tau, price_avg, price_right, tuple(money_start.tolist()),
            tuple(good_end.tolist()), mechanism_rights(config, offered),
            tuple(frustration.tolist()), tuple(right_offered.tolist()),
            tuple(bids[RIGHT_CAP].tolist()), _sum(result.seller_revenue),
            _sum(result.money_earned_right), offered,
            _sum(result.seller_sold), result.rejected,
        )
    )
    return seller_u, buyer_u, money_res, float(good_res)


def clear(offers: list[SellerOffer], bids: np.ndarray, market: WideState) -> ClearingResult:
    """``mechanism.clear`` of the ``rights`` variant on columns, for the
    offers of one posted price and the bid matrix ``greedy_bids`` builds:
    Right-sale proceeds are deferred to the next round, so stage 1 runs
    once, before stage 2. The ``ClearingResult`` holds a float64 column in
    each field. The rules, and why the loops end without an iteration cap,
    are in ``mechanism``'s docstring.

    The bids are cleared as given, with no bid rejections. ``clear`` relies
    on this contract of greedy bids, which
    ``tests/test_clear_oracle.py::test_greedy_bids_keep_the_contract_wide_clear_relies_on``
    pins:

    - no bid entry is NaN or negative (caps may be infinite): a round
      starts with money that is neither, and with finite rights
      (``pricing.mechanism_rights`` stops the round on any other), and
      ``_positive`` turns the NaN of an infinite M/P into 0.0;
    - every price row is P;
    - no offer is above its Right: psi = max(0, R - M/P) with M/P >= 0 is
      at most R, and 0 in the free-Good branch;
    - no buyer both offers more than ``EQ_TOL`` and has a Right cap above
      0: psi > 0 means M/P < R, which makes xi 0.

    Under the contract four of ``mechanism.clear``'s rules have no effect,
    so they are left out here:

    - the buyers' price ceilings are one test, ``P >= pg``, before each
      step, and stage 2 has one Right level, at P;
    - the offer clamp ``min(offer, right)`` is the offer;
    - zeroing a Right seller's Right cap changes nothing;
    - every seller posts one price, so ``GoodLevels`` holds one good
      level, whose price and supply ``cheapest`` reads as
      ``mechanism.clear`` reads them; it still sells at an equal rate and
      rejects bad offers.

    Each pass over the buyers is an array operation over all of them: a
    buyer the scalar pass skips (no Good cap, licence or Right cap left)
    has a demand of at most 0 here and is not updated. No cap or licence
    is NaN, and each only falls through ``_positive``, so an ``np.fmin``
    chain that starts from them skips a NaN bound as the scalar ``v if v <
    cap else cap`` does, and a stage-1 cap above 0 means a licence above 0.
    """
    nb = market.money.size
    price_avg = float(bids[GOOD_PRICE, 0])  # every price row is P

    rejected: list = []  # the offers ``GoodLevels`` rejects
    book = GoodLevels(offers, market.seller_good.tolist(), rejected)
    good_levels = book.levels

    offer_rem = bids[OFFER].copy()
    licence = market.right - offer_rem
    spend = market.money.copy()
    vbar_rem = bids[GOOD_CAP].copy()
    wbar_rem = bids[RIGHT_CAP].copy()

    flows = np.zeros((6, nb))
    good_bought, right_bought, right_sold, spent_good, spent_right, earned = flows

    # -- stage 1: Good purchases licensed unit-for-unit by the Right held --
    while good_levels:
        pg, supply = book.cheapest()
        if not price_avg >= pg:
            break
        cap = np.fmin(vbar_rem, licence)
        if pg > 0.0:
            cap = np.fmin(cap, spend / pg)
        demanders = (cap > 0.0).nonzero()[0]
        demand = cap[demanders]
        # no buyer left sums to 0.0
        total_demand = _sum(demand)
        if total_demand <= EQ_TOL:
            # the cheapest level is the easiest to be compatible with, so no
            # demand here means no demand anywhere
            break
        volume = supply if supply < total_demand else total_demand
        book.sell(pg, volume)
        x = volume * demand / total_demand
        good_bought[demanders] += x
        licence[demanders] = _positive(licence[demanders] - x)
        vbar_rem[demanders] = _positive(vbar_rem[demanders] - x)
        pay = x * pg
        spend[demanders] = _positive(spend[demanders] - pay)
        spent_good[demanders] += pay

    # -- stage 2: paired Good+Right purchases, the Right at P -------------
    # the Right sellers, in buyer order
    members = (offer_rem > EQ_TOL).nonzero()[0]
    while good_levels and members.size:
        pg, good_avail = book.cheapest()
        if not price_avg >= pg:
            break
        right_avail = _sum(offer_rem[members])
        unit = pg + price_avg
        cap = np.fmin(np.fmin(vbar_rem, wbar_rem), right_avail)
        if unit > 0.0:  # at unit price 0 even a buyer without money buys
            cap = np.fmin(cap, spend / unit)
        demanders = (cap > 0.0).nonzero()[0]
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
        earned[members] += take * price_avg
        x = volume * demand / total_demand
        good_bought[demanders] += x
        right_bought[demanders] += x
        vbar_rem[demanders] = _positive(vbar_rem[demanders] - x)
        wbar_rem[demanders] = _positive(wbar_rem[demanders] - x)
        spend[demanders] = _positive(spend[demanders] - x * unit)
        spent_good[demanders] += x * pg
        spent_right[demanders] += x * price_avg
        members = members[offer_rem[members] > EQ_TOL]

    return ClearingResult(
        good_bought=good_bought,
        right_bought=right_bought,
        right_sold=right_sold,
        money_spent_good=spent_good,
        money_spent_right=spent_right,
        money_earned_right=earned,
        seller_revenue=np.array(book.revenue),
        seller_sold=np.array(book.sold),
        unsold_good=np.array(book.unsold()),
        proceeds_deferred=True,
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
