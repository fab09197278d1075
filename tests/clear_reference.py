"""``rightsmarket.mechanism.clear`` as it was before stage 2 walked only the
cheapest good price, kept as a differential oracle.

``tests/test_clear_oracle.py`` requires the current ``clear`` to return a
``ClearingResult`` equal field for field (``==`` on every float) to this one.
On each stage-2 step it rebuilds and sorts every live (good price, Right
price) pair and scans every buyer for demand. It is not part of the package.

One rule changed since, in both: a buyer who puts more than ``EQ_TOL`` of
Right on sale gets a Right cap of 0. It replaced a term that kept only the
buyer's own offer out of their demand.
"""

from __future__ import annotations

from rightsmarket.core import CONSERVATION_TOL, EQ_TOL, MarketState, equal_rate_fill
from rightsmarket.errors import ClearingError
from rightsmarket.mechanism import BuyerBid, ClearingResult, Rejection, SellerOffer


def clear(
    offers: list[SellerOffer],
    bids: list[BuyerBid],
    state: MarketState,
    variant: str = "rights",
    tolerance: float = CONSERVATION_TOL,
) -> ClearingResult:
    """Clear one round of bids against the current state.

    Malformed offers/bids (volume above the trader's holding, negative
    entries) exclude that trader from the round and are listed in
    ``rejected``; everyone else still trades. Volumes at or below
    ``EQ_TOL`` count as exhausted.
    """
    ns, nb = len(state.sellers), len(state.buyers)
    if len(offers) != ns or len(bids) != nb:
        raise ClearingError("offers/bids do not match the trader lists")
    myopic = variant == "myopic_rights"

    rejected: list[Rejection] = []
    accepted_volume = [0.0] * ns
    sell_rem = [0.0] * ns
    sell_price = [0.0] * ns
    for s, off in enumerate(offers):
        bad = (
            off.volume < 0.0
            or off.price < 0.0
            or off.volume > state.sellers[s].good + tolerance
        )
        if bad:
            reason = f"offer {off} infeasible against stock {state.sellers[s].good!r}"
            rejected.append(Rejection("seller", s, reason))
            continue
        accepted_volume[s] = off.volume
        sell_rem[s] = float(off.volume)
        sell_price[s] = float(off.price)

    spend = [0.0] * nb          # money usable for purchases
    rights_use = [0.0] * nb     # right usable to license stage-1 purchases
    offer_rem = [0.0] * nb      # right currently up for sale
    vbar_rem = [0.0] * nb
    wbar_rem = [0.0] * nb
    active = [False] * nb
    for b, bid in enumerate(bids):
        fields = (
            bid.right_offer_volume, bid.right_offer_price,
            bid.max_good_volume, bid.max_good_price,
            bid.max_right_volume, bid.max_right_price,
        )
        bad = any(x < 0.0 for x in fields) or (
            bid.right_offer_volume > state.buyers[b].right + tolerance
        )
        if bad:
            reason = f"bid {bid} infeasible against right {state.buyers[b].right!r}"
            rejected.append(Rejection("buyer", b, reason))
            continue
        active[b] = True
        spend[b] = float(state.buyers[b].money)
        # right committed for sale cannot double as a stage-1 licence
        offer_rem[b] = min(float(bid.right_offer_volume), float(state.buyers[b].right))
        rights_use[b] = float(state.buyers[b].right) - offer_rem[b]
        vbar_rem[b] = float(bid.max_good_volume)
        # a buyer who sells Right buys none
        wbar_rem[b] = float(bid.max_right_volume) if offer_rem[b] <= EQ_TOL else 0.0

    good_bought = [0.0] * nb
    right_bought = [0.0] * nb
    right_sold = [0.0] * nb
    spent_good = [0.0] * nb
    spent_right = [0.0] * nb
    earned = [0.0] * nb
    revenue = [0.0] * ns
    sold = [0.0] * ns

    guard = 20 * (ns + nb) + 200

    def run_good_for_rights_pass(licence: list[float]) -> None:
        """Ascending-price Good sales licensed unit-for-unit by ``licence``."""
        for _ in range(guard):
            live = [s for s in range(ns) if sell_rem[s] > EQ_TOL]
            if not live:
                return
            pg = min(sell_price[s] for s in live)
            level = [s for s in live if sell_price[s] == pg]
            demand = [0.0] * nb
            for b in range(nb):
                if not active[b] or bids[b].max_good_price < pg:
                    continue
                cap = min(vbar_rem[b], licence[b])
                if pg > 0.0:
                    cap = min(cap, spend[b] / pg)
                demand[b] = max(0.0, cap)
            total_demand = sum(demand)
            if total_demand <= EQ_TOL:
                # the cheapest level is the easiest to be compatible with,
                # so no demand here means no demand anywhere
                return
            supply = sum(sell_rem[s] for s in level)
            volume = min(total_demand, supply)
            if volume <= EQ_TOL:
                return
            take = equal_rate_fill([sell_rem[s] for s in level], volume)
            for k, s in enumerate(level):
                sell_rem[s] -= take[k]
                sold[s] += take[k]
                revenue[s] += take[k] * pg
            for b in range(nb):
                if demand[b] <= 0.0:
                    continue
                x = volume * demand[b] / total_demand
                good_bought[b] += x
                licence[b] = max(0.0, licence[b] - x)
                vbar_rem[b] = max(0.0, vbar_rem[b] - x)
                pay = x * pg
                spend[b] = max(0.0, spend[b] - pay)
                spent_good[b] += pay
        raise ClearingError("good-for-rights pass failed to converge")

    # -- stage 1: right-licensed Good purchases --------------------------
    run_good_for_rights_pass(rights_use)

    # -- stage 2: paired Good+Right purchases -----------------------------
    for _ in range(guard):
        live_good = [s for s in range(ns) if sell_rem[s] > EQ_TOL]
        live_right = [b for b in range(nb) if offer_rem[b] > EQ_TOL]
        if not live_good or not live_right:
            break
        pairs = sorted(
            {
                (sell_price[s], bids[b].right_offer_price)
                for s in live_good
                for b in live_right
            },
            key=lambda t: (t[0] + t[1], t[0], t[1]),
        )
        traded = False
        for pg, qr in pairs:
            good_level = [s for s in live_good if sell_price[s] == pg]
            right_level = [b for b in live_right if bids[b].right_offer_price == qr]
            good_avail = sum(sell_rem[s] for s in good_level)
            right_avail = sum(offer_rem[b] for b in right_level)
            unit = pg + qr
            demand = [0.0] * nb
            for b in range(nb):
                if not active[b]:
                    continue
                if bids[b].max_good_price < pg or bids[b].max_right_price < qr:
                    continue
                cap = min(vbar_rem[b], wbar_rem[b], right_avail)
                if unit > 0.0:
                    cap = min(cap, spend[b] / unit)
                demand[b] = max(0.0, cap)
            total_demand = sum(demand)
            if total_demand <= EQ_TOL:
                continue
            volume = min(total_demand, good_avail, right_avail)
            if volume <= EQ_TOL:
                continue

            take_good = equal_rate_fill([sell_rem[s] for s in good_level], volume)
            for k, s in enumerate(good_level):
                sell_rem[s] -= take_good[k]
                sold[s] += take_good[k]
                revenue[s] += take_good[k] * pg
            take_right = equal_rate_fill([offer_rem[b] for b in right_level], volume)
            for k, b in enumerate(right_level):
                offer_rem[b] -= take_right[k]
                right_sold[b] += take_right[k]
                proceeds = take_right[k] * qr
                earned[b] += proceeds
                if myopic:
                    spend[b] += proceeds
            for b in range(nb):
                if demand[b] <= 0.0:
                    continue
                x = volume * demand[b] / total_demand
                good_bought[b] += x
                right_bought[b] += x
                vbar_rem[b] = max(0.0, vbar_rem[b] - x)
                wbar_rem[b] = max(0.0, wbar_rem[b] - x)
                spend[b] = max(0.0, spend[b] - x * unit)
                spent_good[b] += x * pg
                spent_right[b] += x * qr
            traded = True
            break
        if not traded:
            break
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
        seller_revenue=tuple(revenue),
        seller_sold=tuple(sold),
        unsold_good=tuple(max(0.0, accepted_volume[s] - sold[s]) for s in range(ns)),
        proceeds_deferred=not myopic,
        rejected=tuple(rejected),
    )
