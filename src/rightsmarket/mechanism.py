"""Two-stage clearing of one round's bids.

Stage 1 sells Good for Money against each buyer's assigned Right. Stage 2
sells Good and Right to the same buyer in equal volume, so a purchase stays
licensed. Cheaper offers trade first; offers at the same price deplete at an
equal rate until one runs out; when supply at a price level is short it is
rationed pro-rata by residual demand. Money earned by selling Right is
deferred to the next round, except in the ``myopic_rights`` variant where it
is spendable immediately and a final pass lets buyers put it toward Good
backed by their unused Right.

Each stage-2 step trades at one pair of a live good price ``pg`` and a live
right-offer price ``qr``: the first pair, in ascending order of unit price
``pg + qr`` with ties broken by the lower ``pg``, at which buyers demand
anything. That pair always has the cheapest live good price. Lowering ``pg``
at a fixed ``qr`` keeps the Right on sale, lowers the unit price and passes
more price ceilings, so no buyer's demand falls; and as float addition never
decreases in either argument, the cheaper pair also comes first in the
order. A step therefore walks the Right levels upward at the cheapest good
price and trades at the first with demand, almost always the first it looks
at; stage 2 ends when none has any. So the tie-break on equal unit prices
never decides which pair trades.

The live sellers are grouped into good levels by price and the levels
sorted once per clear; as a seller's remaining volume only falls, the
cheapest level is trimmed as it sells and dropped once it empties. So a
step finds the cheapest good level at once and costs, per Right level it
looks at, one pass over the buyers that still have Good and Right cap left,
not a pass over every seller, pair and buyer. A stage-1 pass or stage 2
stops as soon as no buyer has cap left.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .core import CONSERVATION_TOL, EQ_TOL, MarketState, SellerState, equal_rate_fill
from .errors import ClearingError


@dataclass(frozen=True)
class SellerOffer:
    """Volume of Good posted for sale at a unit price."""

    volume: float
    price: float


class BuyerBid(NamedTuple):
    """One buyer's complete declaration for a round.

    ``right_offer_volume``/``right_offer_price``: Right put up for sale.
    ``max_good_volume``/``max_good_price``: cap and price ceiling for Good.
    ``max_right_volume``/``max_right_price``: cap and ceiling for Right
    purchases (stage 2 trades Good and Right in equal volume).

    A named tuple rather than a dataclass because a greedy round builds one
    per buyer: it is immutable, builds positionally or by keyword, has the
    dataclass's repr, and ``bid._replace(...)`` returns a modified copy.
    """

    right_offer_volume: float
    right_offer_price: float
    max_good_volume: float
    max_good_price: float
    max_right_volume: float
    max_right_price: float


@dataclass(frozen=True)
class Rejection:
    """A malformed offer or bid that ``clear`` excluded from the round;
    ``side`` is "seller" or "buyer"."""

    side: str
    index: int
    reason: str


@dataclass(frozen=True)
class ClearingResult:
    good_bought: tuple[float, ...]
    right_bought: tuple[float, ...]
    right_sold: tuple[float, ...]
    money_spent_good: tuple[float, ...]
    money_spent_right: tuple[float, ...]
    money_earned_right: tuple[float, ...]
    seller_revenue: tuple[float, ...]
    seller_sold: tuple[float, ...]
    unsold_good: tuple[float, ...]
    proceeds_deferred: bool
    rejected: tuple[Rejection, ...] = ()

    @property
    def volume_sold(self) -> float:
        return sum(self.seller_sold)


class GoodLevels:
    """The sellers' side of one clearing.

    An offer with a negative or NaN entry, or a volume above its seller's
    ``good`` by more than ``CONSERVATION_TOL``, is appended to ``rejected``
    and keeps the seller out of the round. The live sellers go into good
    levels by price, in index order, and ``levels`` lists them cheapest
    last (see the module docstring). ``remaining``, ``sold`` and
    ``revenue`` are per seller.
    """

    __slots__ = ("levels", "price", "remaining", "accepted", "sold", "revenue")

    def __init__(
        self,
        offers: Sequence[SellerOffer],
        sellers: Sequence[SellerState],
        rejected: list[Rejection],
    ) -> None:
        ns = len(offers)
        self.accepted = accepted = [0.0] * ns
        self.remaining = remaining = [0.0] * ns
        self.price = price = [0.0] * ns
        self.sold = [0.0] * ns
        self.revenue = [0.0] * ns
        by_price: dict[float, list[int]] = {}
        for s, off in enumerate(offers):
            # ``not x >= 0.0`` also catches NaN, which fails every comparison
            stock = sellers[s].good
            volume = off.volume
            if not volume >= 0.0 or not off.price >= 0.0 or volume > stock + CONSERVATION_TOL:
                reason = f"offer {off} infeasible against stock {stock!r}"
                rejected.append(Rejection("seller", s, reason))
                continue
            accepted[s] = volume
            remaining[s] = float(volume)
            price[s] = float(off.price)
            if remaining[s] > EQ_TOL:
                by_price.setdefault(price[s], []).append(s)
        self.levels = [by_price[p] for p in sorted(by_price, reverse=True)]

    def sell(self, pg: float, volume: float) -> None:
        """Sell ``volume`` from the cheapest good level at ``pg``."""
        level = self.levels[-1]
        remaining, sold, revenue = self.remaining, self.sold, self.revenue
        take = equal_rate_fill([remaining[s] for s in level], volume)
        for k, s in enumerate(level):
            remaining[s] -= take[k]
            sold[s] += take[k]
            revenue[s] += take[k] * pg
        level[:] = [s for s in level if remaining[s] > EQ_TOL]
        if not level:
            self.levels.pop()

    def unsold(self) -> tuple[float, ...]:
        """Each seller's accepted volume left unsold."""
        return tuple(
            [v if (v := a - x) > 0.0 else 0.0 for a, x in zip(self.accepted, self.sold)]
        )


def useful_useless_split(result: ClearingResult) -> tuple[float, float]:
    """Split the round's money flow into seller revenue ("useful") and
    deferred right-sale proceeds ("useless" until the next round). The two
    add up to the buyers' starting money whenever all offered Good sells."""
    useful = sum(result.seller_revenue)
    useless = sum(result.money_earned_right) if result.proceeds_deferred else 0.0
    return useful, useless


def clear(
    offers: list[SellerOffer],
    bids: list[BuyerBid],
    state: MarketState,
    variant: str = "rights",
) -> ClearingResult:
    """Clear one round of bids against the current state.

    Malformed offers/bids (volume above the trader's holding by more than
    ``CONSERVATION_TOL``, negative or NaN entries) exclude that trader from
    the round and are listed in ``rejected``; everyone else still trades.
    Volumes at or below ``EQ_TOL`` count as exhausted.
    """
    ns, nb = len(state.sellers), len(state.buyers)
    if len(offers) != ns or len(bids) != nb:
        raise ClearingError("offers/bids do not match the trader lists")
    myopic = variant == "myopic_rights"

    rejected: list[Rejection] = []
    book = GoodLevels(offers, state.sellers, rejected)
    good_levels, sell_price, sell_rem = book.levels, book.price, book.remaining
    sell_good = book.sell

    # the buyer loops below spell min(a, b) as ``b if b < a else a`` and
    # max(0.0, v) as ``v if v > 0.0 else 0.0``, which is how the builtins
    # compare, so every result is the same bit for bit, NaN included
    spend = [0.0] * nb          # money usable for purchases
    rights_use = [0.0] * nb     # right usable to license stage-1 purchases
    offer_rem = [0.0] * nb      # right currently up for sale
    vbar_rem = [0.0] * nb
    wbar_rem = [0.0] * nb
    good_ceiling = [0.0] * nb
    right_ceiling = [0.0] * nb
    right_price = [0.0] * nb
    for b, (bid, buyer) in enumerate(zip(bids, state.buyers)):
        offer, q_offer, vbar, p_good, wbar, p_right = bid
        good_ceiling[b] = p_good
        right_ceiling[b] = p_right
        right_price[b] = q_offer
        right = buyer.right
        if not (
            offer >= 0.0 and q_offer >= 0.0 and vbar >= 0.0
            and p_good >= 0.0 and wbar >= 0.0 and p_right >= 0.0
        ) or offer > right + CONSERVATION_TOL:
            reason = f"bid {bid} infeasible against right {right!r}"
            rejected.append(Rejection("buyer", b, reason))
            continue  # zero caps and no Right on sale keep them out of every pass
        spend[b] = float(buyer.money)
        # right committed for sale cannot double as a stage-1 licence
        offer, right = float(offer), float(right)
        offer_rem[b] = right if right < offer else offer
        rights_use[b] = right - offer_rem[b]
        vbar_rem[b] = float(vbar)
        wbar_rem[b] = float(wbar)

    good_bought = [0.0] * nb
    right_bought = [0.0] * nb
    right_sold = [0.0] * nb
    spent_good = [0.0] * nb
    spent_right = [0.0] * nb
    earned = [0.0] * nb

    guard = 20 * (ns + nb) + 200

    def run_good_for_rights_pass(licence: list[float]) -> None:
        """Ascending-price Good sales licensed unit-for-unit by ``licence``."""
        # a buyer without Good cap or licence left demands nothing, and
        # neither comes back during a pass
        buyers = [b for b in range(nb) if vbar_rem[b] > 0.0 and licence[b] > 0.0]
        for _ in range(guard):
            # with no buyer left the demand sum below would be 0.0
            if not buyers or not good_levels:
                return
            level = good_levels[-1]
            # a level's price is its first live seller's, which settles
            # whether a level holding -0.0 and 0.0 trades at -0.0 or 0.0
            pg = sell_price[level[0]]
            # positive demands only, in buyer order: the zeros a scan of
            # every buyer would add leave each sum bit-identical
            demanders, demand = [], []
            for b in buyers:
                if good_ceiling[b] < pg:
                    continue
                cap = vbar_rem[b]
                v = licence[b]
                if v < cap:
                    cap = v
                if pg > 0.0:
                    v = spend[b] / pg
                    if v < cap:
                        cap = v
                if cap > 0.0:
                    demanders.append(b)
                    demand.append(cap)
            total_demand = sum(demand)
            if total_demand <= EQ_TOL:
                # the cheapest level is the easiest to be compatible with,
                # so no demand here means no demand anywhere
                return
            supply = sum([sell_rem[s] for s in level])
            volume = supply if supply < total_demand else total_demand
            if volume <= EQ_TOL:
                return
            sell_good(pg, volume)
            for b, d in zip(demanders, demand):
                x = volume * d / total_demand
                good_bought[b] += x
                v = licence[b] - x
                licence[b] = v if v > 0.0 else 0.0
                v = vbar_rem[b] - x
                vbar_rem[b] = v if v > 0.0 else 0.0
                pay = x * pg
                v = spend[b] - pay
                spend[b] = v if v > 0.0 else 0.0
                spent_good[b] += pay
            buyers = [b for b in buyers if vbar_rem[b] > 0.0 and licence[b] > 0.0]
        raise ClearingError("good-for-rights pass failed to converge")

    # -- stage 1: right-licensed Good purchases --------------------------
    run_good_for_rights_pass(rights_use)

    # -- stage 2: paired Good+Right purchases -----------------------------
    # Right on sale grouped by price in buyer order, and the buyers with
    # Good and Right cap left: both only shrink, so they are kept across
    # steps and trimmed after each trade.
    right_levels: dict[float, list[int]] = {}
    for b in range(nb):
        if offer_rem[b] > EQ_TOL:
            right_levels.setdefault(right_price[b], []).append(b)
    right_prices = sorted(right_levels)
    buyers = [b for b in range(nb) if vbar_rem[b] > 0.0 and wbar_rem[b] > 0.0]
    for _ in range(guard):
        if not buyers or not good_levels or not right_prices:
            break
        # the first pair with demand has the cheapest good price (see the
        # module docstring), so walk its Right levels upward
        good_level = good_levels[-1]
        pg = sell_price[good_level[0]]
        good_avail = sum([sell_rem[s] for s in good_level])
        for qr in right_prices:
            right_level = right_levels[qr]
            right_avail = sum([offer_rem[b] for b in right_level])
            unit = pg + qr
            demanders, demand = [], []
            for b in buyers:
                if good_ceiling[b] < pg or right_ceiling[b] < qr:
                    continue
                # a buyer never buys their own offered Right
                own = offer_rem[b] if offer_rem[b] > EQ_TOL and right_price[b] == qr else 0.0
                cap = vbar_rem[b]
                v = wbar_rem[b]
                if v < cap:
                    cap = v
                v = right_avail - own
                if v < cap:
                    cap = v
                if unit > 0.0:  # at unit price 0 even a buyer without money buys
                    v = spend[b] / unit
                    if v < cap:
                        cap = v
                if cap > 0.0:
                    demanders.append(b)
                    demand.append(cap)
            total_demand = sum(demand)
            if total_demand <= EQ_TOL:
                continue
            volume = good_avail if good_avail < total_demand else total_demand
            if right_avail < volume:
                volume = right_avail
            if volume <= EQ_TOL:
                continue

            sell_good(pg, volume)
            take_right = equal_rate_fill([offer_rem[b] for b in right_level], volume)
            for k, b in enumerate(right_level):
                offer_rem[b] -= take_right[k]
                right_sold[b] += take_right[k]
                proceeds = take_right[k] * qr
                earned[b] += proceeds
                if myopic:
                    spend[b] += proceeds
            for b, d in zip(demanders, demand):
                x = volume * d / total_demand
                good_bought[b] += x
                right_bought[b] += x
                v = vbar_rem[b] - x
                vbar_rem[b] = v if v > 0.0 else 0.0
                v = wbar_rem[b] - x
                wbar_rem[b] = v if v > 0.0 else 0.0
                v = spend[b] - x * unit
                spend[b] = v if v > 0.0 else 0.0
                spent_good[b] += x * pg
                spent_right[b] += x * qr
            break
        else:
            # no Right level has demand at the cheapest good price, so no
            # pair has any
            break
        right_level = [b for b in right_level if offer_rem[b] > EQ_TOL]
        if right_level:
            right_levels[qr] = right_level
        else:
            del right_levels[qr]
            right_prices.remove(qr)
        buyers = [b for b in buyers if vbar_rem[b] > 0.0 and wbar_rem[b] > 0.0]
    else:
        raise ClearingError("stage 2 failed to converge")

    # -- myopic extra pass: spend same-round proceeds on licensed Good ----
    if myopic:
        # the right-sale window is closed; unsold offers revert to licences
        for b in range(nb):
            rights_use[b] += offer_rem[b]
            offer_rem[b] = 0.0
        run_good_for_rights_pass(rights_use)

    return ClearingResult(
        good_bought=tuple(good_bought),
        right_bought=tuple(right_bought),
        right_sold=tuple(right_sold),
        money_spent_good=tuple(spent_good),
        money_spent_right=tuple(spent_right),
        money_earned_right=tuple(earned),
        seller_revenue=tuple(book.revenue),
        seller_sold=tuple(book.sold),
        unsold_good=book.unsold(),
        proceeds_deferred=not myopic,
        rejected=tuple(rejected),
    )
