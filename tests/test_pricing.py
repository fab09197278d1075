"""Price solver, closed forms and greedy bids.

Derived expectations are frozen from an independent bisection oracle on the
monotone residual of the implicit price equation; the oracle lives in
``analysis`` and is re-run here against the frozen numbers before they are
asserted on the solver.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import price_reference
from rightsmarket import batch, wide
from rightsmarket.analysis import bisection_price
from rightsmarket.core import BuyerSpec, MarketConfig, SellerSpec, initial_state
from rightsmarket.engine import SupplySchedule
from rightsmarket.errors import ConfigError, PricingError
from rightsmarket.mechanism import SellerOffer
from rightsmarket.pricing import (
    canonical_closed_form,
    canonical_lower_bound,
    free_market_clearing_price,
    greedy_buyer_bid,
    greedy_buyer_bids,
    mean_posted_price,
    mechanism_rank_weights,
    posted_greedy_price,
    solve_implicit_price,
)
from rightsmarket.rights import DistributionMechanism

from conftest import run_python

BENCH_RIGHTS = [8 / 15, 6 / 15, 1 / 15]
BENCH_MONEY = [0.0, 0.25, 0.75]


NAN = float("nan")
INF = float("inf")

# each price solver on one input, printing what it raises
NAN_SOLVERS = """
import numpy as np
from rightsmarket import batch, wide
from rightsmarket.pricing import solve_implicit_price
nan, inf = float("nan"), float("inf")
money, rights = {money}, {rights}
for solve in (
    lambda: solve_implicit_price(money, rights),
    lambda: wide.implicit_price(np.array(money), np.array(rights)),
    lambda: batch.implicit_price(np.array([money]), np.array([rights])),
):
    try:
        print("returned", solve())
    except Exception as exc:
        print(exc)
"""


def residual(p, money, rights):
    return sum(m - max(0.0, p * r - m) for m, r in zip(money, rights)) - p * sum(rights)


class TestImplicitPriceSolver:
    def test_benchmark_round_one(self):
        oracle = bisection_price(BENCH_MONEY, BENCH_RIGHTS)
        assert oracle == pytest.approx(75 / 116, abs=1e-12)
        price = solve_implicit_price(BENCH_MONEY, BENCH_RIGHTS)
        assert price == pytest.approx(75 / 116, abs=1e-12)
        # buyers 0 and 1 cannot back their Right at that price
        poor = [b for b in range(3) if price * BENCH_RIGHTS[b] > BENCH_MONEY[b]]
        assert poor == [0, 1]

    def test_benchmark_round_two(self):
        money = [0.34483, 0.25862, 0.75]
        oracle = bisection_price(money, BENCH_RIGHTS)
        assert oracle == pytest.approx(1.01219, abs=5e-6)
        assert solve_implicit_price(money, BENCH_RIGHTS) == pytest.approx(oracle, abs=1e-10)

    def test_balanced_single_buyer_boundary_is_rich(self):
        price = solve_implicit_price([1.0], [1.0])
        assert price == 1.0
        # p * R == M exactly: the boundary, which counts as rich
        assert not price * 1.0 > 1.0

    def test_zero_money(self):
        assert solve_implicit_price([0.0, 0.0], [0.5, 0.5]) == 0.0

    def test_no_rights_is_an_error(self):
        with pytest.raises(PricingError, match="no rights"):
            solve_implicit_price([1.0], [0.0])

    @pytest.mark.parametrize(
        ("money", "rights"),
        [
            ([NAN, 1.0], [1.0, 1.0]),
            ([1.0, 1.0], [NAN, 1.0]),
            ([NAN, -1.0], [1.0, NAN]),
            ([INF], [INF]),
        ],
        ids=("nan-money", "nan-rights", "nan-and-negative", "infinite-right"),
    )
    def test_nan_fails_the_input_check_of_every_solver(self, money, rights):
        # in a subprocess: the scalar scan never ended on a NaN breakpoint,
        # which an infinite Right with infinite money makes too
        script = NAN_SOLVERS.format(money=money, rights=rights)
        done = run_python("-c", script, timeout=30.0)
        assert done.stderr == ""
        want = "money and rights must be non-negative, and rights finite"
        assert done.stdout.splitlines() == [want] * 3

    def test_mismatched_lengths(self):
        with pytest.raises(PricingError):
            solve_implicit_price([1.0, 2.0], [1.0])

    def test_exact_breakpoint_state(self):
        # a poor buyer's money after one greedy round sits exactly on a
        # breakpoint of the next round's equation; the scan must not lose
        # the root to rounding (regression)
        money = [0.10771756993328188, 0.4772167486323613, 0.7500000000000002]
        price = solve_implicit_price(money, BENCH_RIGHTS)
        assert abs(residual(price, money, BENCH_RIGHTS)) < 1e-12

    def test_price_bounded_by_free_market(self):
        price = solve_implicit_price(BENCH_MONEY, BENCH_RIGHTS)
        assert price <= sum(BENCH_MONEY) / sum(BENCH_RIGHTS) + 1e-12

    @given(
        money=st.lists(st.floats(0.0, 3.0), min_size=1, max_size=7),
        rights=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=7),
    )
    @settings(max_examples=300)
    def test_agrees_with_bisection(self, money, rights):
        n = min(len(money), len(rights))
        money, rights = money[:n], rights[:n]
        if sum(rights) <= 1e-9:
            return
        price = solve_implicit_price(money, rights)
        scale = max(1.0, price)
        assert abs(price - bisection_price(money, rights)) < 1e-9 * scale
        assert abs(residual(price, money, rights)) < 1e-9 * scale

    @given(
        money=st.lists(st.floats(0.0, 3.0), min_size=2, max_size=6),
        rights=st.lists(st.floats(0.01, 2.0), min_size=2, max_size=6),
        bump=st.floats(0.01, 1.0),
        who=st.integers(0, 5),
    )
    @settings(max_examples=200)
    def test_price_weakly_increasing_in_money(self, money, rights, bump, who):
        n = min(len(money), len(rights))
        money, rights = money[:n], rights[:n]
        base = solve_implicit_price(money, rights)
        bumped = list(money)
        bumped[who % n] += bump
        higher = solve_implicit_price(bumped, rights)
        assert higher >= base - 1e-12
        if any(r > 0.0 and base * r > m for m, r in zip(money, rights)):
            assert higher > base


@st.composite
def scan_inputs(draw):
    """Money and Right of 1 to 300 buyers, from a drawn seed. Each column has
    a scale from 1e-300 to 1e300, spreads over up to 30 decades, repeats
    values from a pool of drawn size, so that breakpoints tie, and has a
    drawn share of zeros. A drawn share of the buyers then loses 1 to 300
    decades of money, which makes them poor: the scan passes their
    breakpoints before it reaches its price."""
    n = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def column():
        scale = 10.0 ** draw(st.integers(-300, 300))
        decades = draw(st.integers(0, 30))
        ties = draw(st.integers(1, n))
        zeros = draw(st.sampled_from((0.0, 0.1, 0.5, 0.9)))
        pool = rng.random(ties) * 10.0 ** -rng.integers(0, decades + 1, ties)
        values = pool[rng.integers(0, ties, n)]
        return np.where(rng.random(n) < zeros, 0.0, values * scale)

    money, rights = column(), column()
    poor = rng.random(n) < draw(st.sampled_from((0.0, 0.5, 0.9, 1.0)))
    return np.where(poor, money * 10.0 ** -draw(st.integers(1, 300)), money), rights


def outcome(solve):
    """``repr`` of the price ``solve()`` returns, or of the ``PricingError``
    it raises."""
    try:
        with np.errstate(all="ignore"):
            return repr(float(solve()))
    except PricingError as exc:
        return repr(exc)


@settings(deadline=None)
@given(scan_inputs())
def test_every_solver_gives_the_price_of_the_scan_with_a_floor_test(columns):
    # the floor test never refused a candidate, so without it every solver
    # returns what the frozen scan returns
    money, rights = columns
    want = outcome(lambda: price_reference.solve_implicit_price(money.tolist(), rights.tolist()))
    assert [
        outcome(lambda: solve_implicit_price(money.tolist(), rights.tolist())),
        outcome(lambda: wide.implicit_price(money, rights)),
        outcome(lambda: batch.implicit_price(money[None], rights[None])[0]),
    ] == [want] * 3


class TestMeanPostedPrice:
    def test_one_offer_gives_its_price(self):
        assert mean_posted_price([SellerOffer(0.3, 1.0001748401014516)]) == 1.0001748401014516

    @pytest.mark.xfail(
        strict=True,
        reason="the float sum of ten equal prices rounds one ulp below the price, "
        "so no greedy buyer reaches any offer (README Known divergences)",
    )
    def test_equal_prices_give_that_price(self):
        price = 1.0001748401014516
        assert mean_posted_price([SellerOffer(0.1, price)] * 10) == price


class TestFreeMarketPrice:
    def test_normalized_system_clears_at_one(self):
        assert free_market_clearing_price(BENCH_MONEY, 1.0) == 1.0

    def test_single_buyer(self):
        assert free_market_clearing_price([2.0], 1.0) == 2.0

    def test_no_money(self):
        assert free_market_clearing_price([0.0, 0.0], 1.0) == 0.0

    def test_zero_volume_is_an_error(self):
        with pytest.raises(PricingError):
            free_market_clearing_price([1.0], 0.0)


class TestCanonicalClosedForm:
    def test_first_round(self):
        assert canonical_closed_form(3, [0.0, 0.25, 0.75], 1) == pytest.approx(7 / 8, abs=1e-15)

    def test_later_rounds_are_one(self):
        for tau in (2, 3, 10, 100):
            assert canonical_closed_form(3, [0.0, 0.25, 0.75], tau) == 1.0

    def test_fixed_point_when_holder_has_all_income(self):
        assert canonical_closed_form(1, [1.0, 0.0], 1) == 1.0

    def test_requires_normalized_incomes(self):
        with pytest.raises(ConfigError):
            canonical_closed_form(1, [0.5, 0.2], 1)


class TestCanonicalLowerBound:
    def test_one_hot_weights(self):
        assert canonical_lower_bound([1.0, 0.0], [0.0, 1.0]) == 0.5

    def test_benchmark_weights(self):
        bound = canonical_lower_bound(BENCH_RIGHTS, BENCH_MONEY)
        assert bound == pytest.approx(0.575, abs=1e-12)
        # the bound is honored by the solved round-one price
        assert bound <= solve_implicit_price(BENCH_MONEY, BENCH_RIGHTS)

    def test_single_buyer(self):
        assert canonical_lower_bound([1.0], [1.0]) == 1.0

    def test_rank_weights_of_mechanisms(self):
        claims = [1.0, 0.75, 0.125]
        assert mechanism_rank_weights(DistributionMechanism.canonical(2), claims) == [0, 1, 0]
        prop = mechanism_rank_weights(DistributionMechanism.proportional(), claims)
        assert prop == pytest.approx([8 / 15, 6 / 15, 1 / 15], abs=1e-12)


def _benchmark_state(config):
    state = initial_state(config)
    rights = config.mechanism.allocate(1.0, config.claims)
    for b, r in zip(state.buyers, rights):
        b.right = r
    return state


def _benchmark_config(mech=None, incomes=(0.0, 0.25, 0.75), variant="rights"):
    return MarketConfig(
        sellers=(SellerSpec(SupplySchedule.constant(1.0)),),
        buyers=tuple(
            BuyerSpec(income=SupplySchedule.constant(m), claim=d)
            for m, d in zip(incomes, (1.0, 0.75, 0.125))
        ),
        mechanism=mech if mech is not None else DistributionMechanism.proportional(),
        variant=variant,
        horizon=10,
    )


def _greedy_offer(cfg):
    """Seller 0's round-1 offer when every seller is greedy: its resupply at
    the price posted for the total resupply."""
    volumes = cfg.resupply_at(1)
    price, _ = posted_greedy_price(initial_state(cfg), cfg, sum(volumes))
    return SellerOffer(volume=volumes[0], price=price)


class TestGreedyBids:
    def test_seller_posts_solved_price_on_full_resupply(self):
        cfg = _benchmark_config()
        offer = _greedy_offer(cfg)
        assert offer.volume == 1.0
        assert offer.price == pytest.approx(75 / 116, abs=1e-12)

    def test_balanced_single_pair(self):
        cfg = MarketConfig(
            sellers=(SellerSpec(SupplySchedule.constant(1.0)),),
            buyers=(BuyerSpec(income=SupplySchedule.constant(1.0), claim=1.0),),
            mechanism=DistributionMechanism.proportional(),
            horizon=5,
        )
        offer = _greedy_offer(cfg)
        assert (offer.volume, offer.price) == (1.0, 1.0)

    def test_canonical_top_rank_price(self):
        cfg = _benchmark_config(
            DistributionMechanism.canonical(1), incomes=(0.75, 0.25, 0.0)
        )
        offer = _greedy_offer(cfg)
        assert offer.price == pytest.approx(7 / 8, abs=1e-12)

    def test_poor_buyer_sells_surplus_right(self):
        cfg = _benchmark_config()
        state = _benchmark_state(cfg)
        bid = greedy_buyer_bid(0, [SellerOffer(1.0, 75 / 116)], state, cfg)
        assert bid.right_offer_volume == pytest.approx(8 / 15, abs=1e-12)
        assert bid.right_offer_price == pytest.approx(75 / 116, abs=1e-12)
        assert bid.max_good_volume == pytest.approx(8 / 15, abs=1e-12)
        assert bid.max_right_volume == 0.0

    def test_rich_buyer_buys_right(self):
        cfg = _benchmark_config()
        state = _benchmark_state(cfg)
        bid = greedy_buyer_bid(2, [SellerOffer(1.0, 75 / 116)], state, cfg)
        assert bid.right_offer_volume == 0.0
        assert bid.max_right_volume == pytest.approx(82 / 75, abs=1e-12)
        assert bid.max_good_volume == pytest.approx(1 / 15 + 82 / 75, abs=1e-12)

    def test_boundary_buyer_neither_sells_nor_buys(self):
        cfg = _benchmark_config()
        state = _benchmark_state(cfg)
        price = 0.5
        state.buyers[1].money = price * state.buyers[1].right
        bid = greedy_buyer_bid(1, [SellerOffer(1.0, price)], state, cfg)
        assert bid.right_offer_volume == 0.0
        assert bid.max_right_volume == 0.0

    def test_myopic_buyer_offers_half_surplus(self):
        cfg = _benchmark_config(variant="myopic_rights")
        state = _benchmark_state(cfg)
        bid = greedy_buyer_bid(0, [SellerOffer(1.0, 1.0)], state, cfg)
        assert bid.right_offer_volume == pytest.approx(0.5 * 8 / 15, abs=1e-12)

    def test_single_bid_is_its_entry_of_the_batch(self):
        cfg = _benchmark_config(variant="myopic_rights")
        state = _benchmark_state(cfg)
        offers = [SellerOffer(0.4, 0.7), SellerOffer(0.6, 0.9)]
        price_avg = mean_posted_price(offers)
        batch = greedy_buyer_bids(
            price_avg,
            1.0,
            [b.money for b in state.buyers],
            [b.right for b in state.buyers],
            cfg.variant,
        )
        assert batch == [greedy_buyer_bid(b, offers, state, cfg) for b in range(3)]
        assert batch[0].right_offer_volume > 0.0 and batch[2].max_right_volume > 0.0

    def test_free_goods_demand_is_capped_by_the_offered_volume(self):
        bids = greedy_buyer_bids(0.0, 1.5, [0.0, 0.3], [0.5, 2.0], "rights")
        assert [tuple(b) for b in bids] == [
            (0.0, 0.0, 1.5, 0.0, 1.0, 0.0),
            (0.0, 0.0, 2.0, 0.0, 0.0, 0.0),
        ]

    @given(
        money=st.floats(0.0, 3.0),
        right=st.floats(0.0, 2.0),
        price=st.floats(0.01, 3.0),
    )
    def test_never_both_sides_of_the_right_market(self, money, right, price):
        cfg = _benchmark_config()
        state = _benchmark_state(cfg)
        state.buyers[1].money = money
        state.buyers[1].right = right
        bid = greedy_buyer_bid(1, [SellerOffer(1.0, price)], state, cfg)
        assert bid.right_offer_volume * bid.max_right_volume == 0.0
