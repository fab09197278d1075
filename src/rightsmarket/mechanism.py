"""Two-stage clearing of one round's bids.

Stage 1 sells Good for Money against each buyer's assigned Right. Stage 2
sells Good and Right to the same buyer in equal volume, so a purchase stays
licensed. Cheaper offers trade first; offers at the same price deplete at an
equal rate until one runs out; when supply at a price level is short it is
rationed pro-rata by residual demand. Money earned by selling Right is
deferred to the next round, except in the ``myopic_rights`` variant where it
is spendable immediately and a final pass lets buyers put it toward Good
backed by their unused Right.

Both stages, and that pass, are one step, ``walk(licence, right)`` in
``clear``: it sells Good at ascending prices to the buyers with Good cap
and ``licence`` left, and with ``right``, the book of Right on sale, each
unit also takes a unit of Right from that book's cheapest level, whose
supply caps the step. Stage 1 and the pass walk ``rights_use`` without a
Right book, stage 2 walks the Right caps with it. A walk without a Right
book reads the Right's price as 0.0 and its supply as infinity, which
leaves every comparison as it would be without them, for any buyer in
the walk: a buyer with Good cap passed the bid check, so their Right
ceiling is at least 0.0, and no cap is NaN. The unit price ``pg + 0.0``
differs from ``pg`` only in the sign of a zero, and money at a zero unit
price is clamped to 0.0 either way.

A buyer who puts more than ``EQ_TOL`` of Right on sale gets a Right cap
of 0: as in the paper's greedy profile, a buyer sells the Right their money
cannot back or buys the Right their spare money licenses, never both. So no
buyer buys back Right, from themselves or from anyone else.

Each step with a Right book trades at the cheapest live good price
``pg`` and the cheapest live right-offer price ``qr``, and the walk ends
once buyers demand nothing there, because then no pair has demand. A
dearer pair passes no price ceiling the cheapest one fails, and as float
addition and division are monotone it allows no buyer more money-bound
volume. Only the Right on
sale can be larger at a dearer Right level. But the cheapest level holds
more than ``EQ_TOL``, so a demand it caps exceeds ``EQ_TOL`` by itself.
Without the rule above, a buyer's offer could sit in that level and
could not count toward that buyer's demand.

The loops end by construction. Every seller in a good level and every
buyer in a Right level holds more than ``EQ_TOL``, so a step with demand
above ``EQ_TOL`` trades more than ``EQ_TOL``: the smallest of the good
level's supply, the Right level's supply and the demand. It therefore
empties its good level, empties its Right level or fills every demand it
met, down to rounding dust in the caps it used; dust above ``EQ_TOL``,
which only large amounts leave, is a few units in the last place of a cap
and shrinks as fast again at each later step. A walk ends when no level
or no buyer with cap is left, or when the demand at the cheapest level is
at most ``EQ_TOL``. ``tests/test_clear_oracle.py`` checks, at amounts up
to 1e100, that a clearing makes no more trades than there are good
levels, Right levels and buyers together.

Each side of a clearing is one book of one class, ``Levels``: the
sellers' Good, which ``seller_levels`` builds from the offers it accepts,
and the Right on sale, whose holders are the buyers who offer it. A book
groups its live holders into levels by price and sorts the levels once
per clear; as a holder's remaining volume only falls, the cheapest level
is trimmed as it sells and dropped once it empties. On
both sides a level trades at the price of its first live holder, which
settles whether a level holding -0.0 and 0.0 trades at -0.0 or 0.0. A
level with one holder, the common case when prices differ, sells
``equal_rate_fill`` of that holder alone, reads its supply as the
holder's remainder and is dropped once that is at most ``EQ_TOL``,
without the lists a level of several holders builds. So a step finds both
cheapest levels at once and walks only the buyers that demanded at the
step before and still have cap left, not every seller, pair and buyer.

That walk is exact: a buyer who demands nothing at a step cannot demand
again in the same walk. Prices only rise, so a failed price ceiling stays
failed. A buyer who does not trade keeps their money and caps, and as
float division is monotone, a money bound of 0 stays 0 at a dearer level
or pair. The Right on sale, the one bound that
can grow, exceeds ``EQ_TOL`` at every Right level. The one buyer whose
money rises, a Right seller under ``myopic_rights``, has a Right cap of 0
and so is never among stage 2's buyers; each walk builds its buyers
afresh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .core import CONSERVATION_TOL, EQ_TOL, MarketState, equal_rate_fill
from .errors import ClearingError


class SellerOffer(NamedTuple):
    """Volume of Good posted for sale at a unit price. A named tuple, as
    ``BuyerBid`` is: a round builds one per seller, and it keeps the
    dataclass's repr, which rejection reasons print."""

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


class ClearingResult(NamedTuple):
    """What one clearing traded: the six buyer fields, then the three
    seller fields, each with one entry per trader.

    ``mechanism.clear`` returns the nine fields as tuples of floats, and
    ``wide.clear`` as float64 columns, one per field; ``batch.clear``
    returns one row of each per market. ``rejected`` is a tuple.
    ``proceeds_deferred`` is False in the ``myopic_rights`` variant, where
    right-sale proceeds are spent inside the round. A named tuple, as
    ``BuyerBid`` is: a round builds one, and ``result._replace(...)``
    returns a modified copy.
    """

    good_bought: Sequence[float]
    right_bought: Sequence[float]
    right_sold: Sequence[float]
    money_spent_good: Sequence[float]
    money_spent_right: Sequence[float]
    money_earned_right: Sequence[float]
    seller_revenue: Sequence[float]
    seller_sold: Sequence[float]
    unsold_good: Sequence[float]
    proceeds_deferred: bool
    rejected: tuple[Rejection, ...] = ()

    @property
    def volume_sold(self) -> float:
        return sum(self.seller_sold)


class Levels:
    """One side of a clearing: the volume each holder ``offered`` at their
    ``price``, as lists of floats, one entry per holder.

    The holders who offered more than ``EQ_TOL`` go into levels by price,
    in index order, and ``levels`` lists them cheapest last. A level trades
    at the price of its first live holder, which settles whether a level
    holding -0.0 and 0.0 trades at -0.0 or 0.0, and sells at an equal rate
    (see the module docstring). ``remaining`` starts as a copy of
    ``offered`` and is drawn down as the book sells; ``sold`` and
    ``revenue`` are per holder. The sellers' book comes from
    ``seller_levels``, the Right on sale is built directly.

    >>> right = Levels([0.75, 0.25, 0.5], [1.0, 0.0, 2.0])
    >>> right.levels
    [[0], [2]]
    >>> right.cheapest()
    (0.5, 2.0)
    """

    __slots__ = ("levels", "price", "offered", "remaining", "sold", "revenue")

    def __init__(self, price: list[float], offered: list[float]) -> None:
        self.price, self.offered = price, offered
        self.remaining = list(offered)
        self.sold = [0.0] * len(price)
        self.revenue = [0.0] * len(price)
        by_price: dict[float, list[int]] = {}
        for h, held in enumerate(offered):
            if held > EQ_TOL:
                by_price.setdefault(price[h], []).append(h)
        self.levels = [by_price[p] for p in sorted(by_price, reverse=True)]

    def cheapest(self) -> tuple[float, float]:
        """The cheapest level's price and the volume it holds."""
        level = self.levels[-1]
        h = level[0]
        if len(level) == 1:
            # a one-holder level's supply is its one-element sum
            return self.price[h], self.remaining[h]
        remaining = self.remaining
        return self.price[h], sum([remaining[k] for k in level])

    def sell(self, price: float, volume: float, credit: list[float] | None = None) -> None:
        """Sell ``volume`` from the cheapest level at ``price``, its
        ``cheapest()`` one, adding the proceeds to ``revenue`` and, when
        given, to ``credit``."""
        level = self.levels[-1]
        remaining, sold, revenue = self.remaining, self.sold, self.revenue
        if len(level) == 1:
            # one holder: the general path below without its lists
            h = level[0]
            x = equal_rate_fill([remaining[h]], volume)[0]
            remaining[h] -= x
            sold[h] += x
            revenue[h] += x * price
            if credit is not None:
                credit[h] += x * price
            if not remaining[h] > EQ_TOL:
                self.levels.pop()
            return
        take = equal_rate_fill([remaining[h] for h in level], volume)
        for h, x in zip(level, take):
            remaining[h] -= x
            sold[h] += x
            revenue[h] += x * price
        if credit is not None:
            for h, x in zip(level, take):
                credit[h] += x * price
        level[:] = [h for h in level if remaining[h] > EQ_TOL]
        if not level:
            self.levels.pop()

    def unsold(self) -> tuple[float, ...]:
        """Each holder's offered volume left unsold."""
        return tuple(
            [v if (v := a - x) > 0.0 else 0.0 for a, x in zip(self.offered, self.sold)]
        )


def seller_levels(
    offers: Sequence[SellerOffer], stock: Sequence[float], rejected: list[Rejection]
) -> Levels:
    """The sellers' side of one clearing: the ``Levels`` of their offers.

    ``stock`` holds each seller's Good, as floats. An offer with a negative
    or NaN entry, or a volume above its seller's stock by more than
    ``CONSERVATION_TOL``, is appended to ``rejected`` and keeps the seller
    out of the round, as an offer of 0.0 at price 0.0.
    """
    volume = [0.0] * len(offers)
    price = [0.0] * len(offers)
    for s, (off, held) in enumerate(zip(offers, stock)):
        # ``not x >= 0.0`` also catches NaN, which fails every comparison
        if not off.volume >= 0.0 or not off.price >= 0.0 or off.volume > held + CONSERVATION_TOL:
            reason = f"offer {off} infeasible against stock {held!r}"
            rejected.append(Rejection("seller", s, reason))
            continue
        volume[s] = float(off.volume)
        price[s] = float(off.price)
    return Levels(price, volume)


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
    Volumes at or below ``EQ_TOL`` count as exhausted. ``variant`` is
    "rights" or "myopic_rights"; anything else is a ``ClearingError``.
    """
    if variant not in ("rights", "myopic_rights"):
        raise ClearingError(f"unknown clearing variant {variant!r}")
    ns, nb = len(state.sellers), len(state.buyers)
    if len(offers) != ns or len(bids) != nb:
        raise ClearingError("offers/bids do not match the trader lists")
    myopic = variant == "myopic_rights"

    rejected: list[Rejection] = []
    book = seller_levels(offers, [s.good for s in state.sellers], rejected)
    good_levels, cheapest_good, sell_good = book.levels, book.cheapest, book.sell

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
        # a buyer who sells Right buys none (module docstring)
        wbar_rem[b] = float(wbar) if offer_rem[b] <= EQ_TOL else 0.0

    good_bought = [0.0] * nb
    right_bought = [0.0] * nb
    spent_good = [0.0] * nb
    spent_right = [0.0] * nb
    # the Right on sale, whose proceeds a myopic seller spends at once
    right_book = Levels(right_price, offer_rem)
    credit = spend if myopic else None

    def walk(licence: list[float], right: Levels | None) -> None:
        """Sell Good at ascending prices to the buyers with Good cap and
        ``licence`` left, each unit drawing down a unit of ``licence``;
        with ``right``, each unit also buys a unit of Right from that book's
        cheapest level, whose supply caps the step. Without a Right book
        the Right reads as price 0.0 and supply infinity, which leaves each
        comparison as it is for a buyer with Good cap (module docstring)."""
        # a buyer without Good cap or licence left demands nothing, and
        # neither comes back during a walk
        buyers = [b for b in range(nb) if vbar_rem[b] > 0.0 and licence[b] > 0.0]
        qr, right_avail = 0.0, math.inf
        # with no buyer left the demand sum below would be 0.0
        while buyers and good_levels and (right is None or right.levels):
            pg, good_avail = cheapest_good()
            if right is not None:
                qr, right_avail = right.cheapest()
            unit = pg + qr
            # positive demands only, in buyer order: the zeros a scan of
            # every buyer would add leave each sum bit-identical
            demanders, demand = [], []
            for b in buyers:
                if good_ceiling[b] < pg or right_ceiling[b] < qr:
                    continue
                cap = vbar_rem[b]
                v = licence[b]
                if v < cap:
                    cap = v
                if right_avail < cap:
                    cap = right_avail
                if unit > 0.0:  # at unit price 0 even a buyer without money buys
                    v = spend[b] / unit
                    if v < cap:
                        cap = v
                if cap > 0.0:
                    demanders.append(b)
                    demand.append(cap)
            total_demand = sum(demand)
            if total_demand <= EQ_TOL:
                # the cheapest level or pair is the easiest to be compatible
                # with, so no demand here means no demand anywhere
                return
            volume = good_avail if good_avail < total_demand else total_demand
            if right_avail < volume:
                volume = right_avail
            sell_good(pg, volume)
            if right is not None:
                right.sell(qr, volume, credit)
            # the next step walks the demanders with cap left: no other
            # buyer demands again in this walk (module docstring)
            buyers = []
            for b, d in zip(demanders, demand):
                x = volume * d / total_demand
                good_bought[b] += x
                v = vbar_rem[b] - x
                vbar_rem[b] = v if v > 0.0 else 0.0
                v = licence[b] - x
                licence[b] = v if v > 0.0 else 0.0
                v = spend[b] - x * unit
                spend[b] = v if v > 0.0 else 0.0
                spent_good[b] += x * pg
                if right is not None:
                    right_bought[b] += x
                    spent_right[b] += x * qr
                if vbar_rem[b] > 0.0 and licence[b] > 0.0:
                    buyers.append(b)

    # stage 1: Good licensed by the Right held; stage 2: Good and Right in
    # equal volume, up to each buyer's Right cap
    walk(rights_use, None)
    walk(wbar_rem, right_book)
    if myopic:
        # the right-sale window is closed; unsold offers revert to licences,
        # and same-round proceeds buy Good they license
        walk([u + r for u, r in zip(rights_use, right_book.remaining)], None)

    return ClearingResult(
        good_bought=tuple(good_bought),
        right_bought=tuple(right_bought),
        right_sold=tuple(right_book.sold),
        money_spent_good=tuple(spent_good),
        money_spent_right=tuple(spent_right),
        money_earned_right=tuple(right_book.revenue),
        seller_revenue=tuple(book.revenue),
        seller_sold=tuple(book.sold),
        unsold_good=book.unsold(),
        proceeds_deferred=not myopic,
        rejected=tuple(rejected),
    )
