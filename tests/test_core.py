"""Domain types, transition function and shared accounting primitives."""

import math

import pytest
from hypothesis import given, strategies as st

from rightsmarket.core import (
    BuyerSpec,
    BuyerState,
    MarketConfig,
    MarketState,
    SellerSpec,
    SellerState,
    apply_transition,
    consumed_utility,
    equal_rate_fill,
    initial_state,
    non_negative,
    water_level,
)
from rightsmarket.engine import SupplySchedule
from rightsmarket.errors import ConfigError, NegativeQuantityError
from rightsmarket.rights import DistributionMechanism

from conftest import make_benchmark


def test_quantity_accepts_non_negative():
    assert non_negative(0.0) == 0.0
    assert non_negative(1.5) == 1.5
    assert non_negative(2) == 2.0


@pytest.mark.parametrize("bad", [-1.0, -1e-300, float("nan")])
def test_quantity_rejects_negative_and_nan(bad):
    with pytest.raises(NegativeQuantityError):
        non_negative(bad)


def _config(claims, incomes, resupply=(1.0,), **kw):
    return MarketConfig(
        sellers=tuple(SellerSpec(SupplySchedule.constant(g)) for g in resupply),
        buyers=tuple(
            BuyerSpec(income=SupplySchedule.constant(m), claim=d)
            for m, d in zip(incomes, claims)
        ),
        mechanism=DistributionMechanism.proportional(),
        **kw,
    )


class TestTransition:
    def test_seller_gains_resupply_and_loses_money(self):
        cfg = _config([1.0], [0.25])
        state = MarketState(3, [SellerState(good=0.0, money=0.9)], [BuyerState(0.0, 0.0)])
        nxt = apply_transition(state, cfg)
        assert nxt.sellers[0].good == 1.0
        assert nxt.sellers[0].money == 0.0
        assert nxt.round_index == 4

    def test_buyer_consumes_up_to_claim(self):
        cfg = _config([0.15], [0.25])
        state = MarketState(1, [SellerState(1.0)], [BuyerState(good=0.25, money=0.0)])
        nxt = apply_transition(state, cfg)
        assert nxt.buyers[0].good == pytest.approx(0.10, abs=1e-12)
        assert nxt.buyers[0].money == pytest.approx(0.25, abs=1e-12)

    def test_buyer_below_claim_consumes_everything(self):
        cfg = _config([0.125], [0.0])
        state = MarketState(1, [SellerState(1.0)], [BuyerState(good=0.05, money=0.3)])
        nxt = apply_transition(state, cfg)
        assert nxt.buyers[0].good == 0.0
        assert nxt.buyers[0].money == pytest.approx(0.3, abs=1e-12)

    def test_rights_expire(self):
        cfg = _config([1.0], [0.5])
        state = MarketState(1, [SellerState(1.0)], [BuyerState(0.0, 0.0, right=0.7)])
        assert apply_transition(state, cfg).buyers[0].right == 0.0

    @given(
        good=st.floats(0, 5),
        money=st.floats(0, 5),
        claim=st.floats(0, 5),
        income=st.floats(0, 5),
    )
    def test_transition_total_on_valid_states(self, good, money, claim, income):
        cfg = _config([claim], [income])
        state = MarketState(1, [SellerState(0.5, 0.2)], [BuyerState(good, money, right=0.1)])
        nxt = apply_transition(state, cfg)
        assert nxt.buyers[0].good >= 0.0
        assert nxt.buyers[0].money == pytest.approx(income + money, rel=1e-12)
        assert nxt.buyers[0].right == 0.0
        assert nxt.sellers[0].money == 0.0


class TestConsumedUtility:
    def test_seller_utility_is_money_minus_storage(self):
        cfg = _config([1.0], [0.0], seller_storage_cost=1.0)
        state = MarketState(1, [SellerState(good=0.0, money=1.0)], [BuyerState(0.0, 0.0)])
        seller_u, _ = consumed_utility(state, cfg)
        assert seller_u[0] == 1.0

    def test_buyer_utility_capped_by_claim(self):
        cfg = _config([0.125], [0.0])
        state = MarketState(1, [SellerState(0.0)], [BuyerState(good=0.61333, money=0.0)])
        _, buyer_u = consumed_utility(state, cfg)
        assert buyer_u[0] == pytest.approx(0.125, abs=1e-12)

    def test_buyer_with_nothing(self):
        cfg = _config([1.0], [0.0])
        state = MarketState(1, [SellerState(0.0)], [BuyerState(good=0.0, money=0.5)])
        _, buyer_u = consumed_utility(state, cfg)
        assert buyer_u[0] == 0.0


class TestConfigValidation:
    def test_needs_traders(self):
        with pytest.raises(ConfigError):
            _config([], [])
        with pytest.raises(ConfigError):
            _config([1.0], [0.5], resupply=())

    def test_rejects_unknown_variant(self):
        with pytest.raises(ConfigError):
            _config([1.0], [0.5], variant="barter")

    def test_rejects_negative_claim(self):
        with pytest.raises(NegativeQuantityError):
            _config([-0.1], [0.5])

    @pytest.mark.parametrize(
        ("field", "bad"),
        [
            ("greedy_price_factor", 0.0),
            ("greedy_price_factor", -1.0),
            ("greedy_price_factor", math.nan),
            ("greedy_price_factor", math.inf),
            ("seller_storage_cost", -0.5),
            ("seller_storage_cost", math.nan),
            ("seller_storage_cost", math.inf),
            ("horizon", 0),
            ("horizon", 2.5),
            ("horizon", True),
        ],
    )
    def test_rejects_a_bad_number_naming_its_field(self, field, bad):
        # each used to build: a NaN or infinite storage cost made every
        # seller utility NaN, which the audit read as no gain; a NaN or
        # infinite factor failed in round 1 on a misleading residual or
        # price check; a horizon of 2.5 played 2 rounds
        with pytest.raises(ConfigError, match=f"^{field} must be "):
            _config([1.0], [0.5], **{field: bad})

    def test_accepts_the_edges_of_each_number(self):
        cfg = _config([1.0], [0.5], horizon=1, seller_storage_cost=0.0, greedy_price_factor=5e-324)
        assert (cfg.horizon, cfg.seller_storage_cost, cfg.greedy_price_factor) == (1, 0.0, 5e-324)

    @pytest.mark.parametrize(
        "mechanism",
        [
            DistributionMechanism.canonical(5),
            DistributionMechanism.canonical(4),
            DistributionMechanism.weighted([(0.5, 1), (0.5, 4)]),
        ],
        ids=("canonical-5", "canonical-4", "weighted-4"),
    )
    def test_rejects_a_rank_no_buyer_holds(self, mechanism):
        # the config used to build, and ``run`` failed in round 1; a rank
        # below 1 is refused where the mechanism is built
        # (``tests/test_rights.py``)
        with pytest.raises(ConfigError, match="out of range for 3 buyers"):
            make_benchmark(mechanism=mechanism, horizon=3)

    def test_accepts_every_rank_a_buyer_holds(self):
        for rank in (1, 2, 3):
            make_benchmark(mechanism=DistributionMechanism.canonical(rank), horizon=3)
        make_benchmark(mechanism=DistributionMechanism.weighted([(0.5, 1), (0.5, 3)]), horizon=3)

    def test_normalized_regime_detection(self):
        assert _config([1.0, 0.5], [0.25, 0.75]).is_normalized()
        assert not _config([1.0], [0.6]).is_normalized()

    def test_initial_state_uses_first_round_schedules(self):
        cfg = _config([1.0], [0.25], resupply=(0.5, 0.5))
        state = initial_state(cfg)
        assert [s.good for s in state.sellers] == [0.5, 0.5]
        assert state.buyers[0].money == 0.25
        assert state.buyers[0].right == 0.0
        assert state.round_index == 1


class TestWaterLevel:
    def test_exact_breakpoints(self):
        # loss level of the contested garment benchmark: 7/16 exactly
        assert water_level([0.5, 0.375, 0.0625], 0.875) == 0.4375

    def test_saturates_at_largest_cap(self):
        assert water_level([0.2, 0.3], 0.5) == 0.3

    @given(
        caps=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=8),
        frac=st.floats(0.0, 1.0),
    )
    def test_fill_matches_requested_total(self, caps, frac):
        total = frac * sum(caps)
        fill = equal_rate_fill(caps, total)
        assert all(0.0 <= f <= c + 1e-12 for f, c in zip(fill, caps))
        assert math.isclose(sum(fill), total, abs_tol=1e-9)

    @given(
        caps=st.lists(st.floats(0.01, 10.0), min_size=2, max_size=8),
        frac=st.floats(0.01, 0.99),
    )
    def test_equal_rate_means_common_level(self, caps, frac):
        total = frac * sum(caps)
        fill = equal_rate_fill(caps, total)
        partial = [f for f, c in zip(fill, caps) if f < c - 1e-9]
        if len(partial) > 1:
            assert max(partial) - min(partial) < 1e-6

    @given(
        a=st.floats(0.0, 1e6),
        where=st.sampled_from(["below", "at", "above", "nan"]),
        frac=st.floats(0.0, 1.0, exclude_min=True),
    )
    def test_one_holder_matches_the_general_fill(self, a, where, frac):
        # ``equal_rate_fill`` fills a single holder directly; the general
        # path below must give the same float, including at a == 0, where
        # the residue above ``a`` is clamped back, and for a NaN total
        total = {"below": a * frac, "at": a, "above": a + frac, "nan": math.nan}[where]
        if not total > 0.0 and where != "nan":
            return  # a total of 0 takes the all-zero path before either
        level = water_level([a], total)
        general = level if level < a else a
        residue = total - general
        if abs(residue) > 0.0:
            general = min(a, max(0.0, general + residue))
        (got,) = equal_rate_fill([a], total)
        assert got.hex() == general.hex()
