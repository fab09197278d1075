"""Differential oracle: ``mechanism.clear`` must return exactly what the
previous clearing, kept in ``clear_reference.py``, returns, bit for bit, and
``wide.clear`` exactly what ``mechanism.clear`` returns on the greedy
``rights`` bids it is built for; ``tests/test_batch.py`` holds
``batch.clear`` to it on any bids.

Prices come from a six-value grid so that price levels tie, pairs share a
unit price and zero-price pairs occur; the grid holds 0.0 and -0.0, which
share a level, and results are compared by ``repr``, so the sign of a zero
counts. Buyers may hold no money, and offers or bids may exceed the
trader's holding so that rejections occur too. The
benchmark's ``hetero-clear`` profiles add the many-level case, and
hand-built markets leave a trader with a remainder at or below ``EQ_TOL``,
in levels of several holders and of one, and check the walk over the
previous step's demanders.

The same markets, scaled up to 1e100, bound the number of trades every
clearing makes: they stop because every trade empties a level or fills the
demand of the buyers it serves, not because of an iteration cap.

    PYTHONPATH=src python -m pytest tests/test_clear_oracle.py --hypothesis-profile=ci
"""

import functools
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import clear_reference
from rightsmarket import batch, mechanism, wide
from rightsmarket.core import EQ_TOL, BuyerState, MarketState, SellerState
from rightsmarket.mechanism import BuyerBid, ClearingResult, GoodLevels, SellerOffer
from rightsmarket.pricing import mean_posted_price

# -0.0 and 0.0 share a level, which trades at its first live holder's price
PRICE_GRID = (0.0, 0.25, 0.5, 0.75, 1.0, -0.0)
# hypothesis starts from and shrinks toward the first value of each list
AMOUNTS = st.sampled_from([1.0, 0.5, 1.5, 0.25, 0.0])
MONEY = st.sampled_from([0.0, 0.0, 0.0, 0.1, 1.0, 3.0])
# one offer or bid in five exceeds the trader's holding and is rejected
EXCESS = st.sampled_from([0.0, 0.0, 0.0, 0.0, 0.5])
VARIANTS = ("rights", "myopic_rights")


def assert_same(offers, bids, state, variant):
    want = clear_reference.clear(offers, bids, state, variant)
    got = mechanism.clear(offers, bids, state, variant)
    # ``repr`` tells -0.0 from 0.0
    assert repr(got) == repr(want)


def some_of(grid):
    """Draws from a few values of ``grid``, chosen once per market."""
    # unique by ``repr``, as -0.0 == 0.0, so that a market may draw both
    return st.lists(st.sampled_from(grid), min_size=1, max_size=len(grid), unique_by=repr).map(
        st.sampled_from
    )


@st.composite
def market(draw, price_grids=some_of(PRICE_GRID)):
    """A state with its offers and bids. By default each market draws its
    prices from a few values of ``PRICE_GRID``, so levels tie and, when 0
    is among them, zero-price pairs are common."""
    prices = draw(price_grids)
    sellers, offers = [], []
    for _ in range(draw(st.integers(1, 8))):
        good = draw(AMOUNTS)
        volume = draw(st.sampled_from([good, good / 2])) + draw(EXCESS)
        sellers.append(SellerState(good=good))
        offers.append(SellerOffer(volume, draw(prices)))
    buyers, bids = [], []
    for _ in range(draw(st.integers(1, 12))):
        right = draw(AMOUNTS)
        buyers.append(BuyerState(good=0.0, money=draw(MONEY), right=right))
        bids.append(BuyerBid(
            right_offer_volume=draw(st.sampled_from([right, 0.0, right / 2])) + draw(EXCESS),
            right_offer_price=draw(prices),
            max_good_volume=draw(AMOUNTS),
            max_good_price=draw(prices),
            max_right_volume=draw(AMOUNTS),
            max_right_price=draw(prices),
        ))
    return offers, bids, MarketState(1, sellers, buyers)


@settings(deadline=None)
@given(market=market(), variant=st.sampled_from(VARIANTS))
def test_clear_matches_reference(market, variant):
    assert_same(*market, variant)


# most prices 0: money does not limit demand at a zero-price pair, so a
# buyer without money still buys there
@settings(deadline=None)
@given(
    market=market(st.just(st.sampled_from([0.0, 0.0, -0.0, 0.5, 1.0]))),
    variant=st.sampled_from(VARIANTS),
)
def test_clear_matches_reference_at_zero_prices(market, variant):
    assert_same(*market, variant)


@functools.cache
def benchmark_workloads():
    """The benchmark's ``perfbench/workloads.py``, for its ``hetero-clear``
    profiles."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("variant", VARIANTS)
def test_clear_matches_reference_on_hetero_profiles(seed, variant):
    workloads = benchmark_workloads()
    sizes = workloads.HETERO_SIZES
    for k in range(workloads.HETERO_POOL):
        ns, nb = sizes[k % len(sizes)]
        offers, bids, state = workloads.hetero_profile(ns, nb, np.random.default_rng([seed, k]))
        assert_same(offers, bids, state, variant)


def test_zero_money_buyer_at_zero_price_pair():
    """Money does not limit demand at a pair with unit price 0, so a buyer
    with none still buys there."""
    state = MarketState(
        1,
        [SellerState(good=1.0)],
        [BuyerState(good=0.0, money=0.0, right=0.0), BuyerState(good=0.0, money=0.0, right=1.0)],
    )
    offers = [SellerOffer(1.0, 0.0)]
    bids = [BuyerBid(0.0, 0.0, 1.0, 0.0, 1.0, 0.0), BuyerBid(1.0, 0.0, 0.0, 0.0, 0.0, 0.0)]
    for variant in VARIANTS:
        assert_same(offers, bids, state, variant)
        assert mechanism.clear(offers, bids, state, variant).good_bought == (1.0, 0.0)


# a fill at water level 1 - 1e-13 leaves the two unit holders of a level
# with 1e-13 each, at or below EQ_TOL, so they drop out of the level
DUST_VOLUME = 3.0 - 3e-13


def test_good_dust_leaves_its_level():
    # buyer 0 takes DUST_VOLUME from the three sellers at 0.5 with all of
    # buyer 1's Right; buyer 0 then buys buyer 2's unit of Right at
    # (0.5, 0.5) with Good from seller 2 alone
    state = MarketState(
        1,
        [SellerState(good=1.0), SellerState(good=1.0), SellerState(good=5.0)],
        [
            BuyerState(good=0.0, money=100.0, right=0.0),
            BuyerState(good=0.0, money=0.0, right=3.0),
            BuyerState(good=0.0, money=0.0, right=1.0),
        ],
    )
    offers = [SellerOffer(1.0, 0.5), SellerOffer(1.0, 0.5), SellerOffer(5.0, 0.5)]
    bids = [
        BuyerBid(0.0, 0.0, 4.0, 1.0, 4.0, 1.0),
        BuyerBid(DUST_VOLUME, 0.25, 0.0, 0.0, 0.0, 0.0),
        BuyerBid(1.0, 0.5, 0.0, 0.0, 0.0, 0.0),
    ]
    result = mechanism.clear(offers, bids, state)
    assert 0.0 < 1.0 - result.seller_sold[0] <= EQ_TOL
    assert result.right_sold == (0.0, DUST_VOLUME, 1.0)
    assert_same(offers, bids, state, "rights")


def test_right_dust_leaves_its_level():
    # buyer 0 buys DUST_VOLUME Right from the three offers at 0.25, which
    # empties the good at 0.5; the rest trades at 0.75 with buyer 3's Right
    state = MarketState(
        1,
        [SellerState(good=DUST_VOLUME), SellerState(good=5.0)],
        [
            BuyerState(good=0.0, money=100.0, right=0.0),
            BuyerState(good=0.0, money=0.0, right=1.0),
            BuyerState(good=0.0, money=0.0, right=1.0),
            BuyerState(good=0.0, money=0.0, right=5.0),
        ],
    )
    offers = [SellerOffer(DUST_VOLUME, 0.5), SellerOffer(5.0, 0.75)]
    bids = [
        BuyerBid(0.0, 0.0, 10.0, 1.0, 10.0, 1.0),
        BuyerBid(1.0, 0.25, 0.0, 0.0, 0.0, 0.0),
        BuyerBid(1.0, 0.25, 0.0, 0.0, 0.0, 0.0),
        BuyerBid(5.0, 0.25, 0.0, 0.0, 0.0, 0.0),
    ]
    result = mechanism.clear(offers, bids, state)
    assert 0.0 < 1.0 - result.right_sold[1] <= EQ_TOL
    assert result.seller_sold[1] > 0.0
    assert_same(offers, bids, state, "rights")


# -- one-holder levels and the demander walk -----------------------------------
#
# Each market below is cleared under both variants and compared with the
# reference. A level with one holder sells without the general fill loop,
# and each step walks only the buyers that demanded at the step before.


def rich(right=0.0):
    return BuyerState(good=0.0, money=10.0, right=right)


@pytest.mark.parametrize("stage", [1, 2])
def test_a_buyer_priced_out_between_two_good_levels(stage):
    # buyer 0's ceiling of 0.5 lies between the levels at 0.25 and 0.75:
    # both buyers split the cheap unit, then buyer 1 alone buys at 0.75;
    # in stage 2 the Right comes from buyer 2
    right = 2.0 if stage == 1 else 0.0
    state = MarketState(
        1,
        [SellerState(good=1.0), SellerState(good=1.0)],
        [rich(right), rich(right), BuyerState(good=0.0, money=0.0, right=4.0)],
    )
    offers = [SellerOffer(1.0, 0.25), SellerOffer(1.0, 0.75)]
    bids = [
        BuyerBid(0.0, 0.0, 2.0, 0.5, 2.0, 1.0),
        BuyerBid(0.0, 0.0, 2.0, 1.0, 2.0, 1.0),
        BuyerBid(4.0 if stage == 2 else 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    ]
    for variant in VARIANTS:
        assert_same(offers, bids, state, variant)
        assert mechanism.clear(offers, bids, state, variant).good_bought == (0.5, 1.5, 0.0)


def test_a_buyer_without_money_drops_out_after_a_zero_price_pair():
    # at the pair (0, 0) both buyers split seller 0's half unit; at (0.5, 0)
    # buyer 0 has no money and buyer 1 buys seller 1's unit alone
    state = MarketState(
        1,
        [SellerState(good=0.5), SellerState(good=1.0)],
        [
            BuyerState(good=0.0, money=0.0, right=0.0),
            BuyerState(good=0.0, money=1.0, right=0.0),
            BuyerState(good=0.0, money=0.0, right=2.0),
        ],
    )
    offers = [SellerOffer(0.5, 0.0), SellerOffer(1.0, 0.5)]
    bids = [
        BuyerBid(0.0, 0.0, 2.0, 1.0, 2.0, 1.0),
        BuyerBid(0.0, 0.0, 2.0, 1.0, 2.0, 1.0),
        BuyerBid(2.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    ]
    for variant in VARIANTS:
        assert_same(offers, bids, state, variant)
        result = mechanism.clear(offers, bids, state, variant)
        assert result.good_bought == (0.25, 1.25, 0.0)
        assert result.money_spent_good == (0.0, 0.5, 0.0)


# a one-holder level left with 1e-13 of its unit
ONE_DUST_VOLUME = 1.0 - 1e-13


def test_good_dust_leaves_a_one_holder_level():
    # buyer 0's licence takes ONE_DUST_VOLUME from seller 0 alone in stage 1;
    # stage 2 then sells buyer 1 seller 1's Good at 0.75, not the dust
    state = MarketState(
        1,
        [SellerState(good=1.0), SellerState(good=1.0)],
        [rich(ONE_DUST_VOLUME), rich(), BuyerState(good=0.0, money=0.0, right=1.0)],
    )
    offers = [SellerOffer(1.0, 0.5), SellerOffer(1.0, 0.75)]
    bids = [
        BuyerBid(0.0, 0.0, ONE_DUST_VOLUME, 1.0, 0.0, 0.0),
        BuyerBid(0.0, 0.0, 1.0, 1.0, 1.0, 1.0),
        BuyerBid(1.0, 0.25, 0.0, 0.0, 0.0, 0.0),
    ]
    for variant in VARIANTS:
        assert_same(offers, bids, state, variant)
        result = mechanism.clear(offers, bids, state, variant)
        assert 0.0 < 1.0 - result.seller_sold[0] <= EQ_TOL
        assert result.seller_sold[1] == 1.0


def test_right_dust_leaves_a_one_holder_level():
    # seller 0's ONE_DUST_VOLUME empties at the pair (0.5, 0.25) and leaves
    # buyer 1 with dust of Right; the rest trades at (0.75, 0.5) with
    # buyer 2's Right
    state = MarketState(
        1,
        [SellerState(good=ONE_DUST_VOLUME), SellerState(good=5.0)],
        [
            rich(),
            BuyerState(good=0.0, money=0.0, right=1.0),
            BuyerState(good=0.0, money=0.0, right=5.0),
        ],
    )
    offers = [SellerOffer(ONE_DUST_VOLUME, 0.5), SellerOffer(5.0, 0.75)]
    bids = [
        BuyerBid(0.0, 0.0, 3.0, 1.0, 3.0, 1.0),
        BuyerBid(1.0, 0.25, 0.0, 0.0, 0.0, 0.0),
        BuyerBid(5.0, 0.5, 0.0, 0.0, 0.0, 0.0),
    ]
    for variant in VARIANTS:
        assert_same(offers, bids, state, variant)
        result = mechanism.clear(offers, bids, state, variant)
        assert 0.0 < 1.0 - result.right_sold[1] <= EQ_TOL
        assert result.right_sold[2] > 0.0


def test_one_holder_right_proceeds_fund_the_myopic_pass():
    # buyer 1, without money, sells buyer 0 one of their two units of
    # Right at 0.5; under ``myopic_rights`` the 0.5 earned buys Good at
    # 0.25 licensed by the unsold unit, and under ``rights`` it waits
    state = MarketState(
        1,
        [SellerState(good=2.0)],
        [rich(), BuyerState(good=0.0, money=0.0, right=2.0)],
    )
    offers = [SellerOffer(2.0, 0.25)]
    bids = [BuyerBid(0.0, 0.0, 1.0, 1.0, 1.0, 1.0), BuyerBid(2.0, 0.5, 1.0, 1.0, 0.0, 0.0)]
    for variant in VARIANTS:
        assert_same(offers, bids, state, variant)
    assert mechanism.clear(offers, bids, state, "rights").good_bought == (1.0, 0.0)
    result = mechanism.clear(offers, bids, state, "myopic_rights")
    assert result.good_bought == (1.0, 1.0)
    assert result.money_spent_good == (0.25, 0.25)


# -- wide.clear against mechanism.clear ----------------------------------------


def clear_wide(offers, bids, state):
    """``wide.clear`` on the bid matrix of ``bids``, with its nine columns
    turned into tuples as ``mechanism.clear`` of the ``rights`` variant
    returns them."""
    matrix = np.array(bids, dtype=float).T.copy()
    with np.errstate(all="ignore"):
        got = wide.clear(offers, matrix, wide.WideState(state))
    return got._replace(**{name: tuple(getattr(got, name).tolist()) for name in got._fields[:9]})


def clear_batch(markets, variant):
    """``batch.clear`` of ``markets`` as the rows of one batch, each padded
    to the widest with sellers and buyers who hold, offer and bid nothing,
    and so trade nothing; every market's row, cut back to its traders, with
    each field a tuple as ``mechanism.clear`` returns them."""
    ns = max(len(offers) for offers, _, _ in markets)
    nb = max(len(bids) for _, bids, _ in markets)
    volumes, prices, stock = np.zeros((3, len(markets), ns))
    bid_rows = np.zeros((6, len(markets), nb))
    money, right = np.zeros((2, len(markets), nb))
    for m, (offers, bids, state) in enumerate(markets):
        for s, (offer, seller) in enumerate(zip(offers, state.sellers)):
            volumes[m, s], prices[m, s], stock[m, s] = offer.volume, offer.price, seller.good
        for b, (bid, buyer) in enumerate(zip(bids, state.buyers)):
            bid_rows[:, m, b] = bid
            money[m, b], right[m, b] = buyer.money, buyer.right
    rows = wide.WideState(MarketState(1, [SellerState(0.0)] * ns, [BuyerState(0.0, 0.0)] * nb), 1)
    rows.seller_good, rows.money, rows.right = stock, money, right
    with np.errstate(all="ignore"):
        got = batch.clear(volumes, prices, bid_rows, rows, variant)
    out = []
    for m, (offers, bids, _) in enumerate(markets):
        width = {name: len(offers) if name.startswith(("seller", "unsold")) else len(bids)
                 for name in got._fields[:9]}
        out.append(got._replace(
            **{name: tuple(getattr(got, name)[m, :n].tolist()) for name, n in width.items()},
            rejected=got.rejected[m],
        ))
    return out


# the clearings of any bids; ``wide.clear`` takes greedy bids only
KERNELS = {
    "scalar": mechanism.clear,
    # the market and a copy of it as one batch
    "batch": lambda offers, bids, state, variant: clear_batch([(offers, bids, state)] * 2, variant)[0],
}

# ten sellers whose float mean price rounds one ulp below their price
# (``tests/test_pricing.py``), so no buyer's P reaches their offers
ULP_BELOW = 1.0001748401014516


@st.composite
def greedy_market(draw):
    """A state, the offers of its sellers at one posted price and the bids
    ``wide.greedy_bids`` builds against them, as ``wide`` plays a round of
    the ``rights`` variant, the one it plays. P is the mean posted price:
    one ulp below it for ten sellers at ``ULP_BELOW``, and 0 or -0.0 in the
    free-Good branch. Stocks hold at least the volume offered, as
    ``engine._offer_volumes`` clamps it. Every Right is finite, as
    ``pricing.mechanism_rights`` assigns them."""
    posted = draw(st.sampled_from([0.5, 1.0, 0.25, ULP_BELOW, 0.0, -0.0]))
    ns = 10 if posted == ULP_BELOW else draw(st.integers(1, 8))
    volumes = [draw(AMOUNTS) for _ in range(ns)]
    sellers = [SellerState(good=v + draw(st.sampled_from([0.0, 0.5]))) for v in volumes]
    offers = [SellerOffer(v, posted) for v in volumes]
    nb = draw(st.integers(1, 12))
    money = [draw(MONEY) for _ in range(nb)]
    rights = [draw(AMOUNTS) for _ in range(nb)]
    price_avg = mean_posted_price(offers)
    with np.errstate(all="ignore"):
        matrix = wide.greedy_bids(
            price_avg, sum(volumes), np.array(money), np.array(rights), "rights"
        )
    bids = [BuyerBid(*column) for column in matrix.T.tolist()]
    buyers = [BuyerState(good=0.0, money=m, right=r) for m, r in zip(money, rights)]
    return offers, bids, MarketState(1, sellers, buyers)


# money a run can hold: not negative, and infinite once it overflows
RUN_MONEY = st.one_of(st.sampled_from([0.0, float("inf")]), st.floats(0.0, 1e300))


@settings(deadline=None)
@given(
    st.lists(RUN_MONEY, min_size=1, max_size=20),
    st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e6)), min_size=20, max_size=20),
    st.one_of(st.sampled_from([0.0, -0.0, float("inf")]), st.floats(0.0, 1e300)),
    st.sampled_from(VARIANTS),
)
def test_greedy_bids_keep_the_contract_wide_clear_relies_on(money, rights, price_avg, variant):
    # the contract of ``wide.clear``'s docstring, which clears these bids
    # without rejecting any
    rights = np.array(rights[: len(money)])
    with np.errstate(all="ignore"):
        bids = wide.greedy_bids(price_avg, 1.0, np.array(money), rights, variant)
    # no entry NaN or negative; a cap may be infinite
    assert (bids >= 0.0).all()
    # one Right price and one ceiling: P
    for row in (wide.OFFER_PRICE, wide.GOOD_PRICE, wide.RIGHT_PRICE):
        assert (bids[row] == price_avg).all()
    # no offer above its Right, and no buyer on both sides
    assert (bids[wide.OFFER] <= rights).all()
    assert not ((bids[wide.OFFER] > EQ_TOL) & (bids[wide.RIGHT_CAP] > 0.0)).any()


@settings(deadline=None)
@given(greedy_market())
def test_wide_clear_matches_clear(market):
    # ``repr`` tells -0.0 from 0.0
    assert repr(clear_wide(*market)) == repr(mechanism.clear(*market, "rights"))


@pytest.mark.parametrize("field", [*BuyerBid._fields, "right"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_a_nan_bid_is_rejected_on_batch_as_on_clear(field, variant):
    # a bid ``wide.clear`` never gets: buyer 0 is rejected with the scalar
    # reason, and buyer 1 still trades; "right" is the greedy bid of a NaN
    # Right, which ``pricing.mechanism_rights`` stops before any bid is built
    state = MarketState(
        1,
        [SellerState(good=1.0)],
        [BuyerState(good=0.0, money=1.0, right=0.5), BuyerState(good=0.0, money=1.0, right=0.5)],
    )
    offers = [SellerOffer(1.0, 0.5)]
    bids = [BuyerBid(0.0, 0.5, 1.0, 0.5, 0.5, 0.5)] * 2
    if field == "right":
        state.buyers[0].right = float("nan")
        with np.errstate(all="ignore"):
            greedy = wide.greedy_bids(0.5, 1.0, np.array([1.0]), np.array([np.nan]), variant)
        bids[0] = BuyerBid(*greedy[:, 0].tolist())
    else:
        bids[0] = bids[0]._replace(**{field: float("nan")})
    want = mechanism.clear(offers, bids, state, variant)
    assert [(r.side, r.index) for r in want.rejected] == [("buyer", 0)]
    assert want.good_bought[0] == 0.0 < want.good_bought[1]
    # ``repr`` compares the rejection reasons, NaN included
    assert repr(clear_batch([(offers, bids, state)] * 2, variant)[0]) == repr(want)


# -- termination ---------------------------------------------------------------


def scaled(offers, bids, state, k):
    """The market with every amount, money included, times ``k``; prices
    stay as they are."""
    offers = [SellerOffer(o.volume * k, o.price) for o in offers]
    bids = [
        b._replace(
            right_offer_volume=b.right_offer_volume * k,
            max_good_volume=b.max_good_volume * k,
            max_right_volume=b.max_right_volume * k,
        )
        for b in bids
    ]
    state = MarketState(
        1,
        [SellerState(good=s.good * k) for s in state.sellers],
        [BuyerState(good=0.0, money=b.money * k, right=b.right * k) for b in state.buyers],
    )
    return offers, bids, state


def counting_trades(call, *args):
    """What ``call(*args)`` returns, and how many trades it made: every
    trade of either stage sells Good through ``GoodLevels.sell``, or
    through ``batch.GoodColumns.sell``, counted for the first market."""
    trades = []
    real = GoodLevels.sell
    real_batch = batch.GoodColumns.sell

    def sell(self, pg, volume):
        trades.append(volume)
        real(self, pg, volume)

    def sell_batch(self, go, volume):
        if go[0] and self.has_level[0]:
            trades.append(volume[0])
        real_batch(self, go, volume)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(GoodLevels, "sell", sell)
        mp.setattr(batch.GoodColumns, "sell", sell_batch)
        return call(*args), len(trades)


@settings(deadline=None)
@given(
    case=st.one_of(
        st.tuples(st.sampled_from(sorted(KERNELS)), market(), st.sampled_from(VARIANTS)),
        greedy_market().map(lambda market: ("wide", market, "rights")),
    ),
    scale=st.sampled_from([1.0, 1e50, 1e100]),
)
def test_trades_are_bounded_by_levels_and_buyers(case, scale):
    # the general clearings on any market, ``wide.clear`` on greedy ones
    kernel, market_, variant = case
    offers, bids, state = scaled(*market_, scale)
    if kernel == "wide":
        result, trades = counting_trades(clear_wide, offers, bids, state)
    else:
        result, trades = counting_trades(KERNELS[kernel], offers, bids, state, variant)
    good_levels = len(GoodLevels(offers, [s.good for s in state.sellers], []).levels)
    rejected = {r.index for r in result.rejected if r.side == "buyer"}
    right_levels = len({
        bid.right_offer_price
        for b, (bid, buyer) in enumerate(zip(bids, state.buyers))
        if b not in rejected and min(bid.right_offer_volume, buyer.right) > EQ_TOL
    })
    assert trades <= good_levels + right_levels + len(bids)


@pytest.mark.parametrize("kernel", sorted(KERNELS))
@pytest.mark.parametrize("scale", [1.0, 1e8, 1e50, 1e100])
def test_a_right_seller_buys_no_right(kernel, scale):
    # buyers 0 and 1 each offer 1 Right at 0.5, and buyer 0 also bids for
    # 10; stage 2 used to sell buyer 0 their own Right back, in ever
    # smaller steps, until it gave up at 1e100
    state = MarketState(
        1,
        [SellerState(good=10.0 * scale)],
        [
            BuyerState(good=0.0, money=10.0 * scale, right=scale),
            BuyerState(good=0.0, money=0.0, right=scale),
        ],
    )
    offers = [SellerOffer(10.0 * scale, 0.5)]
    bids = [
        BuyerBid(scale, 0.5, 10.0 * scale, 1.0, 10.0 * scale, 1.0),
        BuyerBid(scale, 0.5, 0.0, 0.0, 0.0, 0.0),
    ]
    result = KERNELS[kernel](offers, bids, state, "rights")
    assert result == ClearingResult(
        (0.0, 0.0), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0),
        (0.0,), (0.0,), (10.0 * scale,), True,
    )
    # in the myopic variant buyer 0's unsold offer becomes a licence
    result = KERNELS[kernel](offers, bids, state, "myopic_rights")
    assert result == ClearingResult(
        (scale, 0.0), (0.0, 0.0), (0.0, 0.0), (0.5 * scale, 0.0), (0.0, 0.0), (0.0, 0.0),
        (0.5 * scale,), (scale,), (10.0 * scale - scale,), False,
    )
    # an offer of at most EQ_TOL counts as none: buyer 0 keeps their Right
    # cap and buys buyer 1's Right
    bids[0] = bids[0]._replace(right_offer_volume=EQ_TOL)
    result = KERNELS[kernel](offers, bids, state, "rights")
    assert result.right_bought == (scale, 0.0)
    assert result.right_sold == (0.0, scale)
