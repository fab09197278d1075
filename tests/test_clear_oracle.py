"""Differential oracle: ``mechanism.clear`` must return exactly what the
previous clearing, kept in ``clear_reference.py``, returns, bit for bit.

Prices come from a five-value grid so that price levels tie, pairs share a
unit price and zero-price pairs occur; buyers may hold no money, and offers
or bids may exceed the trader's holding so that rejections occur too. The
benchmark's ``hetero-clear`` profiles add the many-level case, and two
hand-built markets leave a trader with a remainder at or below ``EQ_TOL``.

    PYTHONPATH=src python -m pytest tests/test_clear_oracle.py --hypothesis-profile=ci
"""

import dataclasses
import functools
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import clear_reference
from rightsmarket import mechanism
from rightsmarket.core import EQ_TOL, BuyerState, MarketState, SellerState
from rightsmarket.mechanism import BuyerBid, SellerOffer

PRICE_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)
# hypothesis starts from and shrinks toward the first value of each list
AMOUNTS = st.sampled_from([1.0, 0.5, 1.5, 0.25, 0.0])
MONEY = st.sampled_from([0.0, 0.0, 0.0, 0.1, 1.0, 3.0])
# one offer or bid in five exceeds the trader's holding and is rejected
EXCESS = st.sampled_from([0.0, 0.0, 0.0, 0.0, 0.5])
VARIANTS = ("rights", "myopic_rights")


def assert_same(offers, bids, state, variant):
    want = clear_reference.clear(offers, bids, state, variant)
    got = mechanism.clear(offers, bids, state, variant)
    assert dataclasses.astuple(got) == dataclasses.astuple(want)


def some_of(grid):
    """Draws from a few values of ``grid``, chosen once per market."""
    return st.lists(st.sampled_from(grid), min_size=1, max_size=len(grid), unique=True).map(
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
    market=market(st.just(st.sampled_from([0.0, 0.0, 0.0, 0.5, 1.0]))),
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
    # buyer 0 takes DUST_VOLUME from the three sellers at 0.5 with buyer
    # 1's Right; buyer 1 then buys at (0.5, 0.5) from seller 2 alone
    state = MarketState(
        1,
        [SellerState(good=1.0), SellerState(good=1.0), SellerState(good=5.0)],
        [
            BuyerState(good=0.0, money=100.0, right=0.0),
            BuyerState(good=0.0, money=100.0, right=10.0),
            BuyerState(good=0.0, money=0.0, right=1.0),
        ],
    )
    offers = [SellerOffer(1.0, 0.5), SellerOffer(1.0, 0.5), SellerOffer(5.0, 0.5)]
    bids = [
        BuyerBid(0.0, 0.0, DUST_VOLUME, 1.0, DUST_VOLUME, 1.0),
        BuyerBid(10.0, 0.25, 1.0, 1.0, 1.0, 1.0),
        BuyerBid(1.0, 0.5, 0.0, 0.0, 0.0, 0.0),
    ]
    result = mechanism.clear(offers, bids, state)
    assert 0.0 < 1.0 - result.seller_sold[0] <= EQ_TOL
    assert result.good_bought[1] == 1.0
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
