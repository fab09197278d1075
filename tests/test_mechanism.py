"""Two-stage clearing: the hand-executed benchmark round, conservation and
rationing symmetry.

The benchmark expectations below were derived by executing the two stages by
hand with exact fractions: at p = q = 75/116 the poor buyers' purchases are
money-bound at M/p, the remaining good 41/75 exactly matches the offered
right, and the single rich buyer takes it all in paired trades.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from rightsmarket.core import BuyerState, MarketState, SellerState
from rightsmarket.errors import ClearingError
from rightsmarket.mechanism import BuyerBid, Levels, SellerOffer, clear, useful_useless_split

from test_clear_oracle import KERNELS

P = 75 / 116
RIGHTS = (8 / 15, 6 / 15, 1 / 15)
MONEY = (0.0, 0.25, 0.75)


def benchmark_state():
    return MarketState(
        1,
        [SellerState(good=1.0)],
        [
            BuyerState(good=0.0, money=m, right=r)
            for m, r in zip(MONEY, RIGHTS)
        ],
    )


def greedy_bid(money, right, price):
    backing = money / price
    psi = max(0.0, right - backing)
    xi = max(0.0, backing - right)
    return BuyerBid(psi, price, right + xi, price, xi, price)


def benchmark_bids(price=P):
    return [greedy_bid(m, r, price) for m, r in zip(MONEY, RIGHTS)]


class TestBenchmarkRound:
    def test_good_allocation(self):
        result = clear([SellerOffer(1.0, P)], benchmark_bids(), benchmark_state())
        assert result.good_bought[0] == pytest.approx(0.0, abs=1e-12)
        assert result.good_bought[1] == pytest.approx(29 / 75, abs=1e-12)
        assert result.good_bought[2] == pytest.approx(46 / 75, abs=1e-12)
        assert result.volume_sold == pytest.approx(1.0, abs=1e-12)
        assert result.unsold_good[0] == pytest.approx(0.0, abs=1e-12)

    def test_right_flows(self):
        result = clear([SellerOffer(1.0, P)], benchmark_bids(), benchmark_state())
        assert result.right_sold[0] == pytest.approx(8 / 15, abs=1e-12)
        assert result.right_sold[1] == pytest.approx(1 / 75, abs=1e-12)
        assert result.right_sold[2] == 0.0
        assert result.right_bought[0] == 0.0
        assert result.right_bought[2] == pytest.approx(41 / 75, abs=1e-12)

    def test_money_flows(self):
        result = clear([SellerOffer(1.0, P)], benchmark_bids(), benchmark_state())
        assert result.money_spent_good[1] == pytest.approx(0.25, abs=1e-12)
        assert result.money_spent_good[2] == pytest.approx(23 / 58, abs=1e-12)
        assert result.money_spent_right[2] == pytest.approx(41 / 116, abs=1e-12)
        assert result.money_earned_right[0] == pytest.approx(10 / 29, abs=1e-12)
        assert result.money_earned_right[1] == pytest.approx(1 / 116, abs=1e-12)
        assert result.seller_revenue[0] == pytest.approx(P, abs=1e-12)

    def test_useful_useless_split(self):
        result = clear([SellerOffer(1.0, P)], benchmark_bids(), benchmark_state())
        useful, useless = useful_useless_split(result)
        assert useful == pytest.approx(75 / 116, abs=1e-12)
        assert useless == pytest.approx(41 / 116, abs=1e-12)
        assert useful + useless == pytest.approx(sum(MONEY), abs=1e-12)

    def test_next_round_money_law(self):
        result = clear([SellerOffer(1.0, P)], benchmark_bids(), benchmark_state())
        for b in range(3):
            leftover = (
                MONEY[b]
                - result.money_spent_good[b]
                - result.money_spent_right[b]
                + result.money_earned_right[b]
            )
            expected = max(0.0, P * RIGHTS[b] - MONEY[b])
            assert leftover == pytest.approx(expected, abs=1e-12)


class TestSimpleRounds:
    def test_exact_single_pair(self):
        state = MarketState(1, [SellerState(1.0)], [BuyerState(0.0, 1.0, right=1.0)])
        result = clear([SellerOffer(1.0, 1.0)], [BuyerBid(0, 1, 1, 1, 0, 1)], state)
        assert result.good_bought[0] == pytest.approx(1.0, abs=1e-12)
        assert result.money_spent_good[0] == pytest.approx(1.0, abs=1e-12)
        assert result.right_bought[0] == 0.0

    def test_price_ceiling_excludes_seller(self):
        state = MarketState(1, [SellerState(1.0)], [BuyerState(0.0, 1.0, right=1.0)])
        bid = BuyerBid(0.5, 0.8, 1.0, 0.8, 0.0, 0.8)  # accepts at most 0.8
        result = clear([SellerOffer(1.0, 1.0)], [bid], state)
        assert result.good_bought[0] == 0.0
        assert result.unsold_good[0] == 1.0

    def test_malformed_bid_excluded_but_round_proceeds(self):
        state = MarketState(
            1,
            [SellerState(1.0)],
            [BuyerState(0.0, 1.0, right=0.5), BuyerState(0.0, 1.0, right=0.5)],
        )
        bids = [
            BuyerBid(0.9, 1.0, 1.0, 1.0, 0.0, 1.0),  # offers more right than held
            BuyerBid(0.0, 1.0, 0.5, 1.0, 0.0, 1.0),
        ]
        result = clear([SellerOffer(1.0, 1.0)], bids, state)
        assert [(r.side, r.index) for r in result.rejected] == [("buyer", 0)]
        assert result.rejected[0].reason == (
            "bid BuyerBid(right_offer_volume=0.9, right_offer_price=1.0, max_good_volume=1.0, "
            "max_good_price=1.0, max_right_volume=0.0, max_right_price=1.0) "
            "infeasible against right 0.5"
        )
        assert result.good_bought[0] == 0.0
        assert result.good_bought[1] == pytest.approx(0.5, abs=1e-12)

    def test_malformed_offer_excluded(self):
        state = MarketState(1, [SellerState(0.5)], [BuyerState(0.0, 1.0, right=0.5)])
        result = clear([SellerOffer(1.0, 1.0)], [BuyerBid(0, 1, 0.5, 1, 0, 1)], state)
        assert [(r.side, r.index) for r in result.rejected] == [("seller", 0)]
        assert result.volume_sold == 0.0
        assert result.unsold_good == (0.0,)  # a rejected offer never reached the market

    @pytest.mark.parametrize("variant", ["myopic", "free_market", "", None])
    def test_unknown_variant_is_refused_by_name(self, variant):
        # "myopic" used to clear as "rights" without a word, on both kernels
        for kernel in KERNELS.values():
            with pytest.raises(ClearingError, match=f"unknown clearing variant {variant!r}"):
                kernel([SellerOffer(1.0, P)], benchmark_bids(), benchmark_state(), variant)

    def test_cheaper_seller_trades_first(self):
        state = MarketState(
            1,
            [SellerState(0.5), SellerState(0.5)],
            [BuyerState(0.0, 0.6, right=0.6)],
        )
        offers = [SellerOffer(0.5, 1.0), SellerOffer(0.5, 0.5)]
        result = clear(offers, [BuyerBid(0, 1, 0.6, 1.0, 0, 1)], state)
        # 0.5 at the cheap level costs 0.25, the rest buys 0.1 at price 1
        assert result.seller_sold[1] == pytest.approx(0.5, abs=1e-12)
        assert result.seller_sold[0] == pytest.approx(0.1, abs=1e-12)

    def test_equal_price_sellers_deplete_at_equal_rate(self):
        state = MarketState(
            1,
            [SellerState(0.8), SellerState(0.2)],
            [BuyerState(0.0, 0.6, right=0.6)],
        )
        offers = [SellerOffer(0.8, 1.0), SellerOffer(0.2, 1.0)]
        result = clear(offers, [BuyerBid(0, 1, 0.6, 1.0, 0, 1)], state)
        # common level 0.4: the small seller exhausts at 0.2 first
        assert result.seller_sold[0] == pytest.approx(0.4, abs=1e-12)
        assert result.seller_sold[1] == pytest.approx(0.2, abs=1e-12)

    def test_scarce_level_rationed_pro_rata(self):
        state = MarketState(
            1,
            [SellerState(0.3)],
            [BuyerState(0.0, 1.0, right=0.4), BuyerState(0.0, 1.0, right=0.2)],
        )
        bids = [BuyerBid(0, 1, 0.4, 1, 0, 1), BuyerBid(0, 1, 0.2, 1, 0, 1)]
        result = clear([SellerOffer(0.3, 1.0)], bids, state)
        assert result.good_bought[0] == pytest.approx(0.2, abs=1e-12)
        assert result.good_bought[1] == pytest.approx(0.1, abs=1e-12)

    def test_myopic_proceeds_spendable_same_round(self):
        # two buyers, one without money: the poor one sells half its right,
        # then uses the proceeds to buy licensed good within the round
        state = MarketState(
            1,
            [SellerState(1.0)],
            [BuyerState(0.0, 0.0, right=0.5), BuyerState(0.0, 1.0, right=0.5)],
        )
        bids = [
            BuyerBid(0.25, 1.0, 0.5, 1.0, 0.0, 1.0),
            BuyerBid(0.0, 1.0, 1.0, 1.0, 0.5, 1.0),
        ]
        result = clear([SellerOffer(1.0, 1.0)], bids, state, variant="myopic_rights")
        assert result.right_sold[0] == pytest.approx(0.25, abs=1e-12)
        assert result.good_bought[0] == pytest.approx(0.25, abs=1e-12)
        deferred = useful_useless_split(result)[1]
        assert deferred == 0.0
        # in the deferred variant the same bids leave the poor buyer empty
        held = clear([SellerOffer(1.0, 1.0)], bids, benchmark_two_buyer_state())
        assert held.good_bought[0] == 0.0

    def test_all_rich_round_has_no_useless_money(self):
        # everyone can back their rights with money: no right sales, so the
        # sellers collect every coin that moves
        state = MarketState(
            1,
            [SellerState(1.0)],
            [BuyerState(0.0, 0.6, right=0.5), BuyerState(0.0, 0.6, right=0.5)],
        )
        bids = [greedy_bid(0.6, 0.5, 1.0), greedy_bid(0.6, 0.5, 1.0)]
        result = clear([SellerOffer(1.0, 1.0)], bids, state)
        useful, useless = useful_useless_split(result)
        assert useless == 0.0
        assert useful == pytest.approx(1.0, abs=1e-12)

    def test_no_self_purchase_of_own_right(self):
        # a buyer who puts Right on sale buys no Right: not their own at
        # 1.0, and not buyer 1's at 0.5 either
        state = MarketState(
            1,
            [SellerState(1.0)],
            [BuyerState(0.0, 1.0, right=0.3), BuyerState(0.0, 0.0, right=1.0)],
        )
        offers = [SellerOffer(1.0, 0.25)]
        right_seller = BuyerBid(1.0, 0.5, 0.0, 0.0, 0.0, 0.0)
        bids = [BuyerBid(0.3, 1.0, 1.0, 1.0, 1.0, 1.0), right_seller]
        result = clear(offers, bids, state)
        assert result.right_bought == (0.0, 0.0)
        assert result.right_sold == (0.0, 0.0)
        assert result.good_bought == (0.0, 0.0)
        # myopic: the unsold offer licenses Good after stage 2, still no Right
        result = clear(offers, bids, state, variant="myopic_rights")
        assert result.right_bought == (0.0, 0.0)
        assert result.good_bought == (0.3, 0.0)


def benchmark_two_buyer_state():
    return MarketState(
        1,
        [SellerState(1.0)],
        [BuyerState(0.0, 0.0, right=0.5), BuyerState(0.0, 1.0, right=0.5)],
    )


class TestNaNRejection:
    """Every comparison with NaN is false, so ``x < 0.0`` lets NaN through;
    ``clear`` rejects a NaN field like a negative one."""

    def test_nan_offer_price(self):
        # a NaN minimum price once hid the valid seller at 0.5 from every buyer
        state = MarketState(
            1, [SellerState(1.0), SellerState(1.0)], [BuyerState(0.0, 1.0, right=1.0)]
        )
        offers = [SellerOffer(1.0, math.nan), SellerOffer(1.0, 0.5)]
        result = clear(offers, [BuyerBid(0, 1, 1, 1, 0, 1)], state)
        assert [(r.side, r.index) for r in result.rejected] == [("seller", 0)]
        assert result.seller_sold == (0.0, 1.0)
        assert result.seller_revenue == (0.0, 0.5)
        assert result.good_bought == (1.0,)

    def test_nan_offer_volume(self):
        state = MarketState(
            1, [SellerState(1.0), SellerState(1.0)], [BuyerState(0.0, 1.0, right=1.0)]
        )
        offers = [SellerOffer(math.nan, 0.5), SellerOffer(1.0, 0.5)]
        result = clear(offers, [BuyerBid(0, 1, 1, 1, 0, 1)], state)
        assert [(r.side, r.index) for r in result.rejected] == [("seller", 0)]
        assert result.seller_sold == (0.0, 1.0)
        assert result.unsold_good == (0.0, 0.0)

    def test_nan_max_good_volume(self):
        state = MarketState(
            1,
            [SellerState(1.0)],
            [BuyerState(0.0, 1.0, right=0.5), BuyerState(0.0, 1.0, right=0.5)],
        )
        bids = [BuyerBid(0, 1, math.nan, 1, 0, 1), BuyerBid(0, 1, 0.5, 1, 0, 1)]
        result = clear([SellerOffer(1.0, 1.0)], bids, state)
        assert [(r.side, r.index) for r in result.rejected] == [("buyer", 0)]
        assert result.good_bought == (0.0, 0.5)

    @pytest.mark.parametrize("field", BuyerBid._fields)
    def test_nan_in_any_bid_field(self, field):
        state = MarketState(
            1,
            [SellerState(1.0)],
            [BuyerState(0.0, 1.0, right=0.5), BuyerState(0.0, 1.0, right=0.5)],
        )
        valid = BuyerBid(0.0, 1.0, 0.5, 1.0, 0.0, 1.0)
        bids = [valid._replace(**{field: math.nan}), valid]
        result = clear([SellerOffer(1.0, 1.0)], bids, state)
        assert [(r.side, r.index) for r in result.rejected] == [("buyer", 0)]
        assert result.good_bought == (0.0, 0.5)

    def test_infinite_caps_and_ceilings_accepted(self):
        state = MarketState(1, [SellerState(1.0)], [BuyerState(0.0, 0.25, right=1.0)])
        bid = BuyerBid(0, 1, math.inf, math.inf, 0, math.inf)
        result = clear([SellerOffer(1.0, 0.5)], [bid], state)
        assert result.rejected == ()
        assert result.good_bought == (0.5,)  # money-bound: 0.25 / 0.5


class TestGoodLevels:
    """``clear`` groups the live sellers, and the Right on sale, into price
    levels once (``Levels``) and trims the cheapest as it sells. These
    markets empty a level mid-pass and check that the next level up trades;
    the book's own cases follow them. Every amount is exact in binary, so
    each result is pinned exactly."""

    def test_stage_one_moves_up_when_the_cheap_level_empties(self):
        # the level at 0.5 holds sellers 1 and 2 in index order; it fills
        # 0.5 of the buyer's demand at an equal rate and empties, and the
        # rest comes from seller 0 at 1.0
        state = MarketState(
            1,
            [SellerState(0.5), SellerState(0.125), SellerState(0.375)],
            [BuyerState(0.0, 2.0, right=1.0)],
        )
        offers = [SellerOffer(0.5, 1.0), SellerOffer(0.125, 0.5), SellerOffer(0.375, 0.5)]
        result = clear(offers, [BuyerBid(0.0, 1.0, 1.0, 1.0, 0.0, 1.0)], state)
        assert result.seller_sold == (0.5, 0.125, 0.375)
        assert result.seller_revenue == (0.5, 0.0625, 0.1875)
        assert result.unsold_good == (0.0, 0.0, 0.0)
        assert result.good_bought == (1.0,)
        assert result.money_spent_good == (0.75,)

    def test_stage_two_moves_up_when_the_cheap_level_empties(self):
        # buyer 0 holds no Right, so stage 1 has no buyer; stage 2 sells
        # buyer 1's Right with all of seller 1's Good at 0.25, then the
        # rest of the Right with seller 0's Good at 0.75
        state = MarketState(
            1,
            [SellerState(1.0), SellerState(0.5)],
            [BuyerState(0.0, 1.0, right=0.0), BuyerState(0.0, 0.0, right=1.0)],
        )
        offers = [SellerOffer(1.0, 0.75), SellerOffer(0.5, 0.25)]
        bids = [BuyerBid(0.0, 1.0, 1.0, 1.0, 1.0, 1.0), BuyerBid(1.0, 0.25, 0.0, 0.0, 0.0, 0.0)]
        result = clear(offers, bids, state)
        assert result.seller_sold == (0.5, 0.5)
        assert result.seller_revenue == (0.375, 0.125)
        assert result.unsold_good == (0.5, 0.0)
        assert result.good_bought == (1.0, 0.0)
        assert result.right_bought == (1.0, 0.0)
        assert result.right_sold == (0.0, 1.0)
        assert result.money_spent_good == (0.5, 0.0)
        assert result.money_spent_right == (0.25, 0.0)
        assert result.money_earned_right == (0.0, 0.25)

    @pytest.mark.parametrize(
        "prices", [(0.0, -0.0), (-0.0, 0.0)], ids=("zero-first", "minus-zero-first")
    )
    def test_minus_zero_and_zero_are_one_level(self, prices):
        # one level depletes at an equal rate: the buyer's 0.25 comes half
        # from each seller, not all from the one listed first
        state = MarketState(
            1,
            [SellerState(0.25), SellerState(0.5), SellerState(1.0)],
            [BuyerState(0.0, 0.0, right=1.0)],
        )
        offers = [SellerOffer(0.25, prices[0]), SellerOffer(0.5, prices[1]), SellerOffer(1.0, 0.5)]
        result = clear(offers, [BuyerBid(0.0, 1.0, 0.25, 1.0, 0.0, 1.0)], state)
        assert result.seller_sold == (0.125, 0.125, 0.0)
        assert result.good_bought == (0.25,)
        assert [math.copysign(1.0, r) for r in result.seller_revenue] == [1.0, 1.0, 1.0]
        assert math.copysign(1.0, result.money_spent_good[0]) == 1.0

    def test_myopic_pass_skips_a_level_stage_two_emptied(self):
        # stage 2 sells buyer 1's offered Right to buyer 0 with all the Good
        # at 0.5; the myopic pass then spends buyer 1's proceeds at 1.0
        state = MarketState(
            1,
            [SellerState(0.5), SellerState(1.0)],
            [BuyerState(0.0, 1.0, right=0.0), BuyerState(0.0, 0.0, right=1.0)],
        )
        offers = [SellerOffer(0.5, 0.5), SellerOffer(1.0, 1.0)]
        bids = [BuyerBid(0.0, 1.0, 1.0, 1.0, 0.5, 1.0), BuyerBid(0.5, 0.5, 1.0, 1.0, 0.0, 1.0)]
        result = clear(offers, bids, state, variant="myopic_rights")
        assert result.seller_sold == (0.5, 0.25)
        assert result.seller_revenue == (0.25, 0.25)
        assert result.unsold_good == (0.0, 0.75)
        assert result.good_bought == (0.5, 0.25)
        assert result.right_bought == (0.5, 0.0)
        assert result.right_sold == (0.0, 0.5)
        assert result.money_spent_good == (0.25, 0.25)
        assert result.money_spent_right == (0.25, 0.0)
        assert result.money_earned_right == (0.0, 0.25)
        assert not result.proceeds_deferred

    def test_right_levels_list_buyers_in_order_cheapest_last(self):
        # buyer 3's 2**-40 is at most EQ_TOL, so they sell nothing
        book = Levels([0.5, 0.25, 0.5, 0.25, 0.75], [1.0, 0.5, 0.25, 2**-40, 0.5])
        assert book.levels == [[4], [0, 2], [1]]
        assert book.cheapest() == (0.25, 0.5)
        # stage 2 sells buyers 2 and 3's Right at 0.25 first, at an equal
        # rate, then 0.25 of buyer 1's at 0.5, on both kernels
        state = MarketState(
            1,
            [SellerState(2.0)],
            [BuyerState(0.0, 2.0, right=0.0), BuyerState(0.0, 0.0, right=0.5),
             BuyerState(0.0, 0.0, right=0.25), BuyerState(0.0, 0.0, right=0.5)],
        )
        bids = [BuyerBid(0.0, 1.0, 1.0, 1.0, 1.0, 1.0), BuyerBid(0.5, 0.5, 0.0, 0.0, 0.0, 0.0),
                BuyerBid(0.25, 0.25, 0.0, 0.0, 0.0, 0.0), BuyerBid(0.5, 0.25, 0.0, 0.0, 0.0, 0.0)]
        for kernel in KERNELS.values():
            result = kernel([SellerOffer(2.0, 0.5)], bids, state, "rights")
            assert result.right_sold == (0.0, 0.25, 0.25, 0.5)
            assert result.money_earned_right == (0.0, 0.125, 0.0625, 0.125)
            assert result.right_bought == (1.0, 0.0, 0.0, 0.0)
            assert result.money_spent_right == (0.3125, 0.0, 0.0, 0.0)
            assert result.money_spent_good == (0.5, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize(
        "prices", [(0.0, -0.0), (-0.0, 0.0)], ids=("zero-first", "minus-zero-first")
    )
    def test_a_level_of_minus_zero_and_zero_trades_at_its_first_live_holder(self, prices):
        book = Levels([*prices, 0.5], [0.25, 0.5, 1.0])
        assert book.levels == [[2], [0, 1]]
        price, supply = book.cheapest()
        assert (repr(price), supply) == (repr(prices[0]), 0.75)
        # holder 0 empties at an equal rate, and holder 1 prices the level
        book.sell(price, 0.5)
        assert book.levels == [[2], [1]]
        price, supply = book.cheapest()
        assert (repr(price), supply) == (repr(prices[1]), 0.25)
        assert book.sold == [0.25, 0.25, 0.0]

    @pytest.mark.parametrize(
        ("left", "levels"), [(2**-40, [[0]]), (2**-39, [[0], [1]])], ids=("dust", "above-dust")
    )
    def test_a_one_holder_level_is_popped_at_eq_tol(self, left, levels):
        # 2**-40 is at most EQ_TOL and 2**-39 is above it
        book = Levels([0.5, 0.25], [1.0, 0.5 + left])
        book.sell(0.25, 0.5)
        assert book.levels == levels
        assert book.remaining == [1.0, left]
        assert (book.sold, book.revenue) == ([0.0, 0.5], [0.0, 0.125])

    @pytest.mark.parametrize("holders", [1, 2])
    def test_proceeds_are_credited_only_when_asked(self, holders):
        # a one-holder level and a level of two, each selling 0.5 at 0.5
        held = [0.5, 0.25][:holders]
        volume = sum(held)
        credit = [1.0] * holders
        book = Levels([0.5] * holders, list(held))
        book.sell(0.5, volume, credit)
        assert book.revenue == [0.25, 0.125][:holders]
        assert credit == [1.25, 1.125][:holders]
        uncredited = Levels([0.5] * holders, list(held))
        uncredited.sell(0.5, volume)
        assert (uncredited.sold, uncredited.revenue) == (book.sold, book.revenue)

    @pytest.mark.parametrize("variant", ["rights", "myopic_rights"])
    def test_myopic_proceeds_go_to_spend_and_nowhere_under_rights(self, variant):
        # buyers 1 and 2 sell Right at 0.5 from one level to buyer 0, and
        # keep 0.5 of Right as licences but no money: under myopic_rights
        # each spends their own proceeds on Good in the extra pass, on both
        # kernels
        state = MarketState(
            1,
            [SellerState(2.0)],
            [BuyerState(0.0, 2.0, right=0.0), BuyerState(0.0, 0.0, right=1.0),
             BuyerState(0.0, 0.0, right=0.75)],
        )
        bids = [BuyerBid(0.0, 1.0, 1.0, 1.0, 1.0, 1.0), BuyerBid(0.5, 0.5, 1.0, 1.0, 0.0, 1.0),
                BuyerBid(0.25, 0.5, 1.0, 1.0, 0.0, 1.0)]
        extra = (0.5, 0.25) if variant == "myopic_rights" else (0.0, 0.0)
        for kernel in KERNELS.values():
            result = kernel([SellerOffer(2.0, 0.5)], bids, state, variant)
            assert result.right_sold == (0.0, 0.5, 0.25)
            assert result.money_earned_right == (0.0, 0.25, 0.125)
            assert result.good_bought == (0.75, *extra)
            assert result.money_spent_good == (0.375, *(x * 0.5 for x in extra))


class TestPermutationInvariance:
    def test_buyer_order_does_not_matter(self):
        state = benchmark_state()
        bids = benchmark_bids()
        base = clear([SellerOffer(1.0, P)], bids, state)
        perm = [2, 0, 1]
        state_p = MarketState(
            1,
            [SellerState(1.0)],
            [state.buyers[i].copy() for i in perm],
        )
        result_p = clear([SellerOffer(1.0, P)], [bids[i] for i in perm], state_p)
        for slot, orig in enumerate(perm):
            assert result_p.good_bought[slot] == pytest.approx(base.good_bought[orig], abs=1e-12)
            assert result_p.right_sold[slot] == pytest.approx(base.right_sold[orig], abs=1e-12)

    def test_equal_price_seller_order_does_not_matter(self):
        buyers = [BuyerState(0.0, 0.6, right=0.6)]
        offers = [SellerOffer(0.7, 1.0), SellerOffer(0.3, 1.0)]
        state = MarketState(1, [SellerState(0.7), SellerState(0.3)], [b.copy() for b in buyers])
        base = clear(offers, [BuyerBid(0, 1, 0.6, 1.0, 0, 1)], state)
        state_r = MarketState(1, [SellerState(0.3), SellerState(0.7)], [b.copy() for b in buyers])
        result_r = clear(offers[::-1], [BuyerBid(0, 1, 0.6, 1.0, 0, 1)], state_r)
        assert result_r.seller_sold[0] == pytest.approx(base.seller_sold[1], abs=1e-12)
        assert result_r.seller_sold[1] == pytest.approx(base.seller_sold[0], abs=1e-12)


@st.composite
def random_market(draw):
    ns = draw(st.integers(1, 3))
    nb = draw(st.integers(1, 4))
    sellers = [SellerState(draw(st.floats(0.0, 2.0))) for _ in range(ns)]
    buyers = [
        BuyerState(0.0, draw(st.floats(0.0, 2.0)), right=draw(st.floats(0.0, 1.5)))
        for _ in range(nb)
    ]
    offers = [
        SellerOffer(volume=s.good * draw(st.floats(0.0, 1.0)), price=draw(st.floats(0.0, 2.0)))
        for s in sellers
    ]
    bids = []
    for b in buyers:
        w = b.right * draw(st.floats(0.0, 1.0))
        bids.append(
            BuyerBid(
                right_offer_volume=w,
                right_offer_price=draw(st.floats(0.0, 2.0)),
                max_good_volume=draw(st.floats(0.0, 3.0)),
                max_good_price=draw(st.floats(0.0, 2.0)),
                max_right_volume=draw(st.floats(0.0, 2.0)),
                max_right_price=draw(st.floats(0.0, 2.0)),
            )
        )
    variant = draw(st.sampled_from(["rights", "myopic_rights"]))
    return MarketState(1, sellers, buyers), offers, bids, variant


class TestConservationProperties:
    @given(random_market())
    @settings(max_examples=300, deadline=None)
    def test_clearing_conserves_everything(self, market):
        state, offers, bids, variant = market
        result = clear(offers, bids, state, variant=variant)
        ns, nb = len(state.sellers), len(state.buyers)
        # good: shipped == received, and per-seller sold + unsold == offered
        assert math.isclose(
            sum(result.good_bought), sum(result.seller_sold), abs_tol=1e-9
        )
        for s in range(ns):
            if ("seller", s) not in {(r.side, r.index) for r in result.rejected}:
                assert math.isclose(
                    result.seller_sold[s] + result.unsold_good[s],
                    offers[s].volume,
                    abs_tol=1e-9,
                )
        # money: buyers' spending lands with sellers / right sellers
        assert math.isclose(
            sum(result.money_spent_good), sum(result.seller_revenue), abs_tol=1e-9
        )
        assert math.isclose(
            sum(result.money_spent_right), sum(result.money_earned_right), abs_tol=1e-9
        )
        # right: sold within offered, bought within sold
        assert math.isclose(sum(result.right_bought), sum(result.right_sold), abs_tol=1e-9)
        for b in range(nb):
            assert result.right_sold[b] <= bids[b].right_offer_volume + 1e-9
            # rights cap: purchased good is licensed by held + bought right
            assert (
                result.good_bought[b]
                <= state.buyers[b].right + result.right_bought[b] + 1e-9
            )
            # spendable money never overdrawn
            earned = result.money_earned_right[b] if variant == "myopic_rights" else 0.0
            spent = result.money_spent_good[b] + result.money_spent_right[b]
            assert spent <= state.buyers[b].money + earned + 1e-9
