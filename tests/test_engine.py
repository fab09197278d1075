"""Repeated-market loop: price paths, frustration metrics, schedules,
variants and the scenario generator."""

import math
import re
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from rightsmarket import batch, engine
from rightsmarket.cli import load_scenario
from rightsmarket.core import BuyerSpec, MarketConfig, SellerSpec
from rightsmarket.engine import (
    BidAdjustment,
    RoundRecord,
    SupplySchedule,
    frustration,
    generate_dirichlet_scenario,
    replay_batch,
    run,
    run_with_checkpoints,
)
from rightsmarket.errors import ConfigError, SimulationError
from rightsmarket.mechanism import Rejection
from rightsmarket.rights import DistributionMechanism

from conftest import A_CLAIMS, A_INCOMES, make_benchmark
from test_wide import FAULT_ROUND, batch_clear, scalar_clear


class TestFrustration:
    def test_nothing_bought(self):
        assert frustration(8 / 15, 0.0) == 1.0

    def test_partial(self):
        assert frustration(0.4, 0.38666666666666666) == pytest.approx(1 / 30, abs=1e-12)

    def test_no_right_assigned_means_no_frustration(self):
        assert frustration(0.0, 123.0) == 0.0
        assert frustration(0.0, 0.0) == 0.0

    @given(right=st.floats(0.0, 5.0), good=st.floats(0.0, 5.0))
    def test_bounded_unit_interval(self, right, good):
        f = frustration(right, good)
        assert 0.0 <= f <= 1.0


class TestSchedules:
    def test_cosine_reproduces_benchmark_wave(self):
        sched = SupplySchedule.cosine(0.25, 10, 0.75)
        assert sched.value_at(10) == pytest.approx(1.0, abs=1e-12)
        assert sched.value_at(5) == pytest.approx(0.5, abs=1e-12)

    def test_constant(self):
        assert SupplySchedule.constant(1.0).value_at(7) == 1.0

    def test_step(self):
        sched = SupplySchedule.step(1.0, 0.5, 20)
        assert sched.value_at(19) == 1.0
        assert sched.value_at(20) == 0.5

    def test_hubbert_peaks_at_center(self):
        sched = SupplySchedule.hubbert(1.5, 8.0, 50.0)
        assert sched.value_at(50) == pytest.approx(1.5, abs=1e-12)
        assert sched.value_at(10) < 0.1

    def test_clamped_at_zero(self):
        sched = SupplySchedule.linear(-1.0, 2.0)
        assert sched.value_at(5) == 0.0

    @pytest.mark.parametrize(
        "sched",
        [SupplySchedule.hubbert(1.0, 0.01, 60.0), SupplySchedule.logistic(1.0, 100.0, 50.0)],
        ids=("hubbert", "logistic"),
    )
    def test_overflowing_exponential_reads_zero(self, sched):
        assert sched.value_at(1) == 0.0

    def test_overflowing_bullwhip_names_its_round(self):
        sched = SupplySchedule.bullwhip(0.0, 0.0, 10.0, -20.0)
        assert sched.value_at(35) == 0.0
        with pytest.raises(ConfigError, match="round 36"):
            sched.value_at(36)

    @pytest.mark.parametrize(
        ("sched", "round_index"),
        [
            (SupplySchedule.linear(1e308, 0.0), 2),
            (SupplySchedule.cosine(1e308, 10.0, 1e308), 1),
            # the exponential is finite, the product is not
            (SupplySchedule.bullwhip(0.0, 1e308, 1e6, -1.0), 1),
        ],
        ids=("linear", "cosine", "bullwhip-product"),
    )
    def test_a_value_that_overflows_names_its_round(self, sched, round_index):
        # a float ``*`` or ``+`` gives inf without raising OverflowError
        if round_index > 1:
            assert math.isfinite(sched.value_at(round_index - 1))
        with pytest.raises(ConfigError, match=f"{sched.kind} schedule overflows at round {round_index}$"):
            sched.value_at(round_index)

    def test_round_index_starts_at_one(self):
        with pytest.raises(ConfigError):
            SupplySchedule.constant(1.0).value_at(0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            SupplySchedule("sawtooth", (1.0,))

    @pytest.mark.parametrize(
        "sched",
        [
            lambda: SupplySchedule.constant(float("nan")),
            lambda: SupplySchedule.linear(float("inf"), 0.0),
            lambda: SupplySchedule.cosine(0.25, 0.0, 0.75),
            lambda: SupplySchedule.bullwhip(1.0, 0.5, 0.0, 0.1),
            lambda: SupplySchedule.hubbert(1.5, 0.0, 50.0),
        ],
        ids=("nan", "inf", "cosine-period-0", "bullwhip-period-0", "hubbert-width-0"),
    )
    def test_unusable_parameters_rejected(self, sched):
        with pytest.raises(ConfigError):
            sched()


class TestCheckpoints:
    def test_checkpointed_run_equals_run(self):
        cfg = make_benchmark(horizon=12)
        trace, checkpoints = run_with_checkpoints(cfg)
        assert trace == run(cfg)
        assert len(checkpoints) == 13
        assert [c.state.round_index for c in checkpoints] == list(range(1, 14))
        assert checkpoints[0].seller_utilities == (0.0,)
        assert checkpoints[-1].buyer_utilities == trace.buyer_utilities

    def test_replay_without_adjustments_reproduces_totals(self):
        cfg = make_benchmark(mechanism=DistributionMechanism.contested_garment(), horizon=12)
        trace, checkpoints = run_with_checkpoints(cfg)
        # with n checkpoints, a list with nothing to adjust resumes at round n
        for n in range(1, len(checkpoints) + 1):
            assert replay_batch(cfg, checkpoints[:n], [()]) == [
                (trace.seller_utilities, trace.buyer_utilities)
            ]

    def test_replay_leaves_checkpoint_untouched(self):
        cfg = make_benchmark(horizon=8)
        _, checkpoints = run_with_checkpoints(cfg)
        before = checkpoints[3].state.copy()
        # the replay resumes at round 4, from checkpoint 3
        replay_batch(cfg, checkpoints, [[BidAdjustment(4, ("seller", 0), price_factor=0.9)]])
        assert checkpoints[3].state == before

    def test_adjustments_apply_in_list_order(self):
        cfg = make_benchmark(horizon=4)
        seller = ("seller", 0)
        price = run(cfg).records[1].price_good
        repriced = run(
            cfg,
            adjustments=[
                BidAdjustment(2, seller, price_factor=1.1),
                BidAdjustment(2, seller, price_factor=0.7),
            ],
        )
        assert repriced.records[1].price_good == price * 1.1 * 0.7
        resized = run(
            cfg,
            adjustments=[
                BidAdjustment(2, seller, volume_delta=-0.1),
                BidAdjustment(2, seller, volume_delta=0.05),
            ],
        )
        assert resized.records[1].volume_offered == 1.0 - 0.1 + 0.05

    @pytest.mark.parametrize("side", ["sellers", "Seller", "buyers", ""])
    def test_unknown_trader_side_rejected(self, side):
        # a misspelt side would otherwise change no bid and go unnoticed
        with pytest.raises(ConfigError, match=f"got {side!r}"):
            BidAdjustment(2, (side, 0), price_factor=2.0)

    @pytest.mark.parametrize(
        "field", ["volume_delta", "price_factor", "right_offer_factor", "right_demand_factor"]
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_delta_or_factor_rejected(self, field, value):
        # a NaN volume_delta used to fall through min(max(0.0, v), stock)
        # to an offer of 0
        with pytest.raises(ConfigError, match=f"{field} must be finite"):
            BidAdjustment(2, ("seller", 0), **{field: value})

    def test_trader_without_such_index_changes_nothing(self):
        # on the scalar round and on ``batch``: the reference rule knows no
        # config, so it lets the index through
        cfg = make_benchmark(horizon=5)
        adjustments = [
            BidAdjustment(2, ("seller", 7), price_factor=2.0),
            BidAdjustment(2, ("buyer", 3), right_offer_factor=0.0),
        ]
        greedy, checkpoints = run_with_checkpoints(cfg)
        assert run(cfg, adjustments=adjustments) == greedy
        [totals] = replay_batch(cfg, checkpoints, [adjustments])
        assert totals == (greedy.seller_utilities, greedy.buyer_utilities)

    @pytest.mark.parametrize(
        ("round_index", "trader"),
        [
            (2, ("buyer", 1.5)),
            (2, ("buyer", 1.0)),
            (2, ("buyer", True)),
            (2, ("buyer", -1)),
            (2, ("buyer", 0, 1)),
            (2, ["buyer", 0]),
            (2, "buyer"),
            (2.5, ("buyer", 0)),
            (2.0, ("buyer", 0)),
            (True, ("buyer", 0)),
        ],
    )
    def test_a_reference_outside_the_rule_is_refused(self, round_index, trader):
        # ``run`` ignored 1.5, the triple and round 2.5 and applied 1.0, True
        # and round 2.0; ``replay_batch`` crashed on all but True, on which
        # it gave other totals than ``run``, and -1 changed nothing on both
        adjustment = f"BidAdjustment(round_index={round_index!r}, trader={trader!r}"
        with pytest.raises(ConfigError, match=f"^{re.escape(adjustment)}"):
            BidAdjustment(round_index, trader, price_factor=0.9)


class TestRoundRecord:
    """A record is an immutable, hashable named tuple whose repr is the one
    the frozen dataclass it replaced printed."""

    RECORD = RoundRecord(
        2, 1.25, 0.0, (0.5, -0.0), (1e-300, 2.0), (0.75, 0.25), (1.0, 0.0), (0.0, 0.125),
        (0.5, 0.0), 1.5, 0.0, 1.0, 0.875,
        (Rejection("seller", 0, "offer SellerOffer(volume=2.0, price=1.0) infeasible"),),
    )

    def test_a_field_cannot_be_assigned(self):
        with pytest.raises(AttributeError):
            self.RECORD.price_good = 2.0

    def test_replace_returns_a_modified_copy(self):
        changed = self.RECORD._replace(price_good=2.0, rejections=())
        assert (changed.price_good, changed.rejections) == (2.0, ())
        assert changed[2:-1] == self.RECORD[2:-1]
        assert self.RECORD.price_good == 1.25

    def test_records_are_hashable(self):
        same = RoundRecord(*self.RECORD)
        assert hash(same) == hash(self.RECORD)
        assert len({self.RECORD, same, self.RECORD._replace(round_index=3)}) == 2

    def test_repr_is_the_dataclass_repr(self):
        # printed by the frozen dataclass that ``RoundRecord`` used to be
        assert repr(self.RECORD) == (
            "RoundRecord(round_index=2, price_good=1.25, price_right=0.0, "
            "money_start=(0.5, -0.0), good_end=(1e-300, 2.0), right_assigned=(0.75, 0.25), "
            "frustration=(1.0, 0.0), right_offered=(0.0, 0.125), right_demanded=(0.5, 0.0), "
            "useful_money=1.5, useless_money=0.0, volume_offered=1.0, volume_sold=0.875, "
            "rejections=(Rejection(side='seller', index=0, "
            "reason='offer SellerOffer(volume=2.0, price=1.0) infeasible'),))"
        )

    def test_rejections_default_to_none(self):
        assert RoundRecord(*self.RECORD[:-1]).rejections == ()
        assert run(make_benchmark(horizon=1)).records[0].rejections == ()


class TestBenchmarkTrace:
    def test_price_path_contracts_oscillating(self):
        trace = run(make_benchmark(horizon=10))
        prices = trace.price_path()
        assert prices[0] == pytest.approx(75 / 116, abs=1e-12)
        assert prices[1] == pytest.approx(1.0121878715814507, abs=1e-9)
        gaps = [abs(p - 1.0) for p in prices]
        assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))

    def test_round_one_record(self):
        trace = run(make_benchmark(horizon=1))
        rec = trace.records[0]
        assert rec.frustration == pytest.approx((1.0, 1 / 30, 0.0), abs=1e-12)
        assert rec.good_end == pytest.approx((0.0, 29 / 75, 46 / 75), abs=1e-12)
        assert rec.useful_money == pytest.approx(75 / 116, abs=1e-12)
        assert rec.useless_money == pytest.approx(41 / 116, abs=1e-12)
        assert rec.volume_offered == 1.0
        assert rec.volume_sold == pytest.approx(1.0, abs=1e-12)
        assert rec.price_right == pytest.approx(rec.price_good, abs=1e-12)

    def test_next_money_law_along_trace(self):
        trace = run(make_benchmark(horizon=40))
        incomes = (0.0, 0.25, 0.75)
        for prev, nxt in zip(trace.records, trace.records[1:]):
            for b in range(3):
                expected = incomes[b] + max(
                    0.0, prev.price_good * prev.right_assigned[b] - prev.money_start[b]
                )
                assert nxt.money_start[b] == pytest.approx(expected, abs=1e-9)

    def test_all_good_sold_every_round(self):
        trace = run(make_benchmark(horizon=40))
        for rec in trace.records:
            assert rec.volume_sold == pytest.approx(rec.volume_offered, abs=1e-9)

    def test_expected_frustration_path_recomputable(self):
        trace = run(make_benchmark(horizon=25))
        total = 0.0
        for tau, rec in enumerate(trace.records, start=1):
            total += sum(rec.frustration)
            assert trace.expected_frustration_path[tau - 1] == pytest.approx(
                total / (tau * 3), abs=1e-12
            )

    def test_asymptotic_money_two_round_average(self):
        # poor buyers' money settles into a two-round cycle whose mean is
        # (income + right) / 2 at the limiting unit price
        trace = run(make_benchmark(horizon=1000))
        last, prev = trace.records[-1], trace.records[-2]
        rights = (8 / 15, 6 / 15, 1 / 15)
        incomes = (0.0, 0.25, 0.75)
        for b in (0, 1):  # the poor buyers
            avg = (last.money_start[b] + prev.money_start[b]) / 2
            assert avg == pytest.approx((incomes[b] + rights[b]) / 2, abs=1e-6)

    def test_conservation_residuals_tracked(self):
        trace = run(make_benchmark(horizon=100))
        assert trace.max_money_residual <= 1e-9
        assert trace.max_good_residual <= 1e-9


class TestScenarioB:
    def test_proportional_frustration_dies_out(self, scenario_b):
        trace = run(scenario_b(horizon=60))
        start = trace.first_all_zero_frustration_round()
        assert start is not None
        # Why round 6 (TestScenarioBExact recomputes it exactly): buyer 0 has
        # no income, right 8/15 and claim 1/5. From round 2 on it spends its
        # deferred right-sale proceeds, buying about 0.34 and 0.195 of Good in
        # alternate rounds, and consumes 0.2 a round. Its end-of-round stock
        # runs 0.341, 0.336, 0.474, 0.469, 0.607 over rounds 2-6, so it first
        # covers its right (8/15 ~ 0.533) in round 6; round 4 is still
        # frustrated. At a price near 1 it buys half its right a round on
        # average, so the stock keeps growing by about (8/15)/2 - 1/5 = 1/15
        # a round and every buyer stays unfrustrated afterwards.
        assert start == 6
        for rec in trace.records[start - 1 :]:
            assert all(f <= 1e-12 for f in rec.frustration)

    def test_contested_garment_takes_much_longer(self, scenario_b):
        trace = run(scenario_b(mechanism=DistributionMechanism.contested_garment(), horizon=120))
        start = trace.first_all_zero_frustration_round()
        # buyer 0's right is only 49/120 here, so its stock grows by about
        # (49/120)/2 - 1/5 = 1/240 a round (exact reference: round 48)
        assert start is not None and 44 <= start <= 50

    def test_free_market_approaches_one_third(self, scenario_b):
        trace = run(scenario_b(variant="free_market", horizon=200))
        assert trace.expected_frustration() == pytest.approx(1 / 3, abs=1e-3)

    def test_free_market_price_is_one(self, scenario_b):
        trace = run(scenario_b(variant="free_market", horizon=10))
        assert all(p == pytest.approx(1.0, abs=1e-12) for p in trace.price_path())


# Exact-arithmetic reference for scenario B, rebuilt in Fraction from the
# documented equations alone (no call into rightsmarket.pricing or .engine):
# - rights: proportional to claims; contested garment, with the offered
#   volume 1 above the total claim 3/8, makes every claim whole and splits the
#   surplus equally;
# - price: the root p of sum_b [M_b - max(0, p R_b - M_b)] = p sum_b R_b;
# - greedy trade: a poor buyer (p R_b > M_b) spends all its money on Good and
#   sells its unbacked Right, the proceeds p R_b - M_b arriving next round; a
#   rich buyer buys Good on its own Right and spends the rest of its money on
#   Good+Right pairs at 2p (at the solved price the Right on sale covers
#   exactly these pairs), ending the round with no money;
# - transition: each buyer consumes Good up to its claim and keeps the rest.
B_CLAIMS = tuple(Fraction(d) / 5 for d in A_CLAIMS)
B_INCOMES = tuple(Fraction(m) for m in A_INCOMES)


def _exact_rights(kind):
    total = sum(B_CLAIMS)
    if kind == "proportional":
        return [d / total for d in B_CLAIMS]
    return [d + (1 - total) / len(B_CLAIMS) for d in B_CLAIMS]


def _exact_price(money, rights):
    # the left side is decreasing and the right side increasing in p, so
    # exactly one poor set (a prefix in breakpoint order M_b/R_b) is
    # consistent with its own linear solution
    order = sorted(range(len(money)), key=lambda b: money[b] / rights[b])
    for k in range(len(order) + 1):
        poor = order[:k]
        p = (sum(money) + sum(money[b] for b in poor)) / (
            sum(rights) + sum(rights[b] for b in poor)
        )
        if {b for b in order if p * rights[b] > money[b]} == set(poor):
            return p
    raise AssertionError("the price equation has no root")


def _exact_scenario_b(kind, horizon):
    """(price, frustration vector) of each round of greedy play."""
    rights = _exact_rights(kind)
    money = list(B_INCOMES)
    stock = [Fraction(0)] * len(money)
    rounds = []
    for _ in range(horizon):
        p = _exact_price(money, rights)
        frus = []
        for b, (m, r) in enumerate(zip(money, rights)):
            if p * r > m:
                bought, money[b] = m / p, B_INCOMES[b] + p * r - m
            else:
                bought, money[b] = (m + p * r) / (2 * p), B_INCOMES[b]
            held = stock[b] + bought
            frus.append(max(Fraction(0), (r - held) / r))
            stock[b] = max(Fraction(0), held - B_CLAIMS[b])
        rounds.append((p, frus))
    return rounds


class TestScenarioBExact:
    def test_first_two_prices(self):
        prices = [p for p, _ in _exact_scenario_b("proportional", 2)]
        assert prices == [Fraction(75, 116), Fraction(3405, 3364)]

    def test_round_four_is_still_frustrated(self):
        _, frus = _exact_scenario_b("proportional", 4)[3]
        assert frus[0] > 0
        assert float(frus[0]) == pytest.approx(0.1115, abs=1e-4)

    @pytest.mark.parametrize(
        "kind, horizon, expected",
        [("proportional", 60, 6), ("contested_garment", 120, 48)],
    )
    def test_first_stable_all_zero_round(self, kind, horizon, expected):
        start = None
        for tau, (_, frus) in enumerate(_exact_scenario_b(kind, horizon), start=1):
            if any(frus):
                start = None
            elif start is None:
                start = tau
        assert start == expected

    @pytest.mark.parametrize("kind", ["proportional", "contested_garment"])
    def test_engine_matches_exact_trace(self, scenario_b, kind):
        mechanism = DistributionMechanism(kind)
        trace = run(scenario_b(mechanism=mechanism, horizon=12))
        for rec, (p, frus) in zip(trace.records, _exact_scenario_b(kind, 12), strict=True):
            assert rec.price_good == pytest.approx(float(p), abs=1e-12)
            assert rec.frustration == pytest.approx(tuple(float(f) for f in frus), abs=1e-12)


class TestFrustrationHalving:
    def test_ratio_and_componentwise_identities(self):
        rights_trace = run(make_benchmark(horizon=1000))
        free_trace = run(make_benchmark(variant="free_market", horizon=1000))
        ratio = rights_trace.per_round_mean_frustration(100) / free_trace.per_round_mean_frustration(100)
        assert ratio == pytest.approx(0.5, abs=1e-3)
        rights = (8 / 15, 6 / 15, 1 / 15)
        incomes = (0.0, 0.25, 0.75)
        mean_r = rights_trace.per_buyer_mean_frustration(100)
        mean_f = free_trace.per_buyer_mean_frustration(100)
        for b in (0, 1):
            target = 1.0 - incomes[b] / rights[b]
            assert mean_r[b] == pytest.approx(target / 2, abs=1e-4)
            assert mean_f[b] == pytest.approx(target, abs=1e-4)


class TestCanonicalTrace:
    def test_prices_follow_closed_form(self):
        trace = run(make_benchmark(mechanism=DistributionMechanism.canonical(3), horizon=8))
        prices = trace.price_path()
        assert prices[0] == pytest.approx(7 / 8, abs=1e-12)
        for p in prices[1:]:
            assert p == pytest.approx(1.0, abs=1e-12)

    def test_unassigned_buyers_have_zero_frustration(self):
        trace = run(make_benchmark(mechanism=DistributionMechanism.canonical(3), horizon=3))
        for rec in trace.records:
            assert rec.frustration[0] == 0.0 and rec.frustration[1] == 0.0


class TestMyopicVariant:
    def test_sellers_post_free_market_price(self):
        trace = run(make_benchmark(variant="myopic_rights", horizon=5))
        assert all(p == pytest.approx(1.0, abs=1e-12) for p in trace.price_path())

    def test_frustration_at_most_half(self):
        trace = run(make_benchmark(variant="myopic_rights", horizon=10))
        for rec in trace.records:
            for f in rec.frustration:
                assert f <= 0.5 + 1e-12

    def test_rounds_decouple(self):
        trace = run(make_benchmark(variant="myopic_rights", horizon=6))
        first = trace.records[0]
        for rec in trace.records[1:]:
            assert rec.money_start == pytest.approx(first.money_start, abs=1e-9)
            assert rec.frustration == pytest.approx(first.frustration, abs=1e-9)


class TestTimeDependentSupply:
    @pytest.mark.parametrize(
        "sched",
        [
            SupplySchedule.cosine(0.25, 10, 0.75),
            SupplySchedule.step(1.0, 0.5, 50),
            SupplySchedule.logistic(1.0, 0.15, 50.0),
            SupplySchedule.bullwhip(0.75, 0.5, 10.0, 0.05),
            SupplySchedule.hubbert(1.5, 8.0, 50.0),
        ],
        ids=lambda s: s.kind,
    )
    def test_rights_beat_free_market(self, sched):
        def config(variant):
            base = make_benchmark(variant=variant, horizon=100)
            return MarketConfig(
                sellers=(SellerSpec(resupply=sched),),
                buyers=base.buyers,
                mechanism=base.mechanism,
                variant=variant,
                horizon=100,
            )

        rights_trace = run(config("rights"))
        free_trace = run(config("free_market"))
        assert rights_trace.max_money_residual <= 1e-9
        assert rights_trace.expected_frustration() < free_trace.expected_frustration()

    def test_cosine_income_runs(self):
        base = make_benchmark(horizon=60)
        buyers = (
            BuyerSpec(income=SupplySchedule.constant(0.0), claim=1.0),
            BuyerSpec(income=SupplySchedule.cosine(0.0625, 10, 0.1875), claim=0.75),
            BuyerSpec(income=SupplySchedule.cosine(0.1875, 10, 0.5625), claim=0.125),
        )
        cfg = MarketConfig(
            sellers=base.sellers, buyers=buyers, mechanism=base.mechanism, horizon=60
        )
        trace = run(cfg)
        assert trace.max_money_residual <= 1e-9


class TestDirichletGenerator:
    def test_same_seed_same_config(self):
        a = generate_dirichlet_scenario(5, 20.0, rng_seed=7)
        b = generate_dirichlet_scenario(5, 20.0, rng_seed=7)
        assert a.claims == b.claims
        assert a.income_at(1) == b.income_at(1)

    def test_incomes_normalized(self):
        cfg = generate_dirichlet_scenario(50, 10.0, rng_seed=3)
        assert sum(cfg.income_at(1)) == pytest.approx(1.0, abs=1e-12)
        assert cfg.is_normalized()

    def test_infinite_concentration_gives_exact_means(self):
        cfg = generate_dirichlet_scenario(3, float("inf"), rng_seed=0)
        weights = [1.0, 1 / 2, 1 / 3]
        total = sum(weights)
        shares = [w / total for w in weights]
        assert cfg.claims == pytest.approx([2 * s for s in shares], abs=1e-12)
        assert list(cfg.income_at(1)) == pytest.approx(shares[::-1], abs=1e-12)

    def test_claims_descend_incomes_ascend(self):
        cfg = generate_dirichlet_scenario(4, float("inf"), rng_seed=0)
        claims = list(cfg.claims)
        incomes = list(cfg.income_at(1))
        assert claims == sorted(claims, reverse=True)
        assert incomes == sorted(incomes)

    def test_claim_scale(self):
        cfg = generate_dirichlet_scenario(4, float("inf"), rng_seed=0, claim_scale=0.25)
        assert sum(cfg.claims) == pytest.approx(0.5, abs=1e-12)

    def test_needs_two_buyers(self):
        with pytest.raises(ConfigError):
            generate_dirichlet_scenario(1, 10.0, rng_seed=0)

    @pytest.mark.parametrize(
        "field, kwargs",
        [
            ("num_buyers", {"num_buyers": 2.5}),
            ("num_buyers", {"num_buyers": True}),
            ("concentration", {"concentration": math.nan}),
            ("concentration", {"concentration": -math.inf}),
            ("concentration", {"concentration": 0.0}),
            ("claim_scale", {"claim_scale": -0.5}),
            ("claim_scale", {"claim_scale": math.nan}),
            ("claim_scale", {"claim_scale": math.inf}),
        ],
    )
    def test_refuses_a_bad_argument_by_name(self, field, kwargs):
        # NaN concentration failed as "schedule 'constant': level must be
        # finite", 2.5 buyers as a raw TypeError, -inf concentration gave
        # the exact means, and a negative claim scale failed on a claim
        args = {"num_buyers": 4, "concentration": 20.0, "claim_scale": 1.0} | kwargs
        with pytest.raises(ConfigError, match=f"^{field} must be "):
            generate_dirichlet_scenario(rng_seed=0, **args)


class TestConfigMemos:
    """A config memoizes its schedules per round and its rights per offered
    volume; a memo must never change what a run gives."""

    SCHEDULES = (
        SupplySchedule.constant(0.4),
        SupplySchedule.cosine(0.3, 12.0, 0.5),
        SupplySchedule.linear(-0.01, 0.6),
        SupplySchedule.step(0.2, 0.7, 9),
        SupplySchedule.logistic(1.0, 0.4, 20.0),
        SupplySchedule.bullwhip(0.5, 0.3, 8.0, 0.05),
        SupplySchedule.hubbert(0.6, 5.0, 25.0),
    )

    def test_memoized_schedules_equal_fresh_values(self):
        cfg = replace(
            make_benchmark(),
            sellers=tuple(SellerSpec(s) for s in self.SCHEDULES),
            buyers=tuple(BuyerSpec(income=s, claim=0.5) for s in self.SCHEDULES),
        )
        for _ in range(2):  # the second pass reads the memo
            for t in range(1, 61):
                fresh = tuple(s.value_at(t) for s in self.SCHEDULES)
                assert cfg.resupply_at(t) == fresh
                assert cfg.income_at(t) == fresh

    def test_overflowing_schedule_raises_on_every_call(self):
        cfg = replace(
            make_benchmark(),
            buyers=(
                BuyerSpec(income=SupplySchedule.bullwhip(0.0, 0.0, 10.0, -20.0), claim=1.0),
                *make_benchmark().buyers[1:],
            ),
        )
        assert cfg.resupply_at(36) == (1.0,)
        for _ in range(2):
            with pytest.raises(ConfigError, match="overflows at round 36"):
                cfg.income_at(36)

    @pytest.mark.parametrize(
        "change",
        [
            {"buyers": make_benchmark(claim_scale=0.2).buyers},
            {"mechanism": DistributionMechanism.contested_garment()},
            {"greedy_price_factor": 1.2},
        ],
        ids=("buyers", "mechanism", "price-factor"),
    )
    def test_replaced_config_of_a_run_config_runs_fresh(self, change):
        used = make_benchmark(horizon=12)
        run(used)
        fresh = replace(make_benchmark(horizon=12), **change)
        assert run(replace(used, **change)) == run(fresh)

    @pytest.mark.parametrize("variant", ["rights", "free_market", "myopic_rights"])
    def test_a_run_changes_neither_equality_nor_repr(self, variant):
        cfg = make_benchmark(variant=variant, horizon=8)
        before = repr(cfg)
        run(cfg)
        assert cfg == make_benchmark(variant=variant, horizon=8)
        assert repr(cfg) == before


class TestReplayChecks:
    """``replay_batch`` plays on ``batch`` and builds no round records, but
    every check a round makes still runs: a fault in a replayed round
    raises exactly what the full run on the scalar round raises. Each fault
    is injected into ``engine.clear`` for the run and into ``batch.clear``
    for the replay, in round ``FAULT_ROUND``."""

    @staticmethod
    def break_money(flows, money, right):
        flows["seller_revenue"][0] += 0.01

    @staticmethod
    def break_good(flows, money, right):
        flows["seller_sold"][0] -= 0.01

    @staticmethod
    def overspend(flows, money, right):
        flows["money_spent_good"][2] = money[2] + 0.5

    @staticmethod
    def overbuy(flows, money, right):
        flows["good_bought"][1] = right[1] + flows["right_bought"][1] + 0.5

    @pytest.mark.parametrize(
        ("fault", "message"),
        [
            ("break_money", "accounting residual money=0.01 good=0 exceeds tolerance"),
            ("break_good", "accounting residual money=0 good=0.01 exceeds tolerance"),
            ("overspend", "buyer 2 money went negative"),
            ("overbuy", "buyer 1 bought good beyond their rights"),
        ],
    )
    def test_replay_raises_what_the_run_raises(self, monkeypatch, fault, message):
        cfg = make_benchmark(horizon=8)
        _, checkpoints = run_with_checkpoints(cfg)
        adjustments = [BidAdjustment(3, ("seller", 0), price_factor=0.9)]
        breaks = getattr(self, fault)
        monkeypatch.setattr(engine, "clear", scalar_clear(breaks))
        monkeypatch.setattr(batch, "clear", batch_clear(breaks))
        with pytest.raises(SimulationError) as full:
            run(cfg, adjustments=adjustments)
        assert full.value.round_index == FAULT_ROUND
        assert message in str(full.value)
        for n in (1, 2, 3):  # resume at rounds 1 to 3, before the deviation
            with pytest.raises(SimulationError) as replayed:
                replay_batch(cfg, checkpoints[:n], [adjustments])
            assert replayed.value.round_index == full.value.round_index
            assert str(replayed.value) == str(full.value)


class TestSettledRounds:
    """Greedy play settles: a rights round without adjustments that starts
    with the offered volumes and buyer money of one of the last
    ``engine.SETTLED_ROUNDS`` such rounds, bit for bit, reuses their price,
    bids and clearing."""

    @staticmethod
    def clearing_rounds(monkeypatch):
        """The round of every ``engine.clear`` call from now on."""
        rounds = []
        real = engine.clear

        def spy(offers, bids, state, variant):
            rounds.append(state.round_index)
            return real(offers, bids, state, variant)

        monkeypatch.setattr(engine, "clear", spy)
        return rounds

    @pytest.mark.parametrize(
        ("preset", "calls"),
        [
            ("canonical-rank3-a", 2),
            ("scenario-a-proportional", 15),
            ("myopic-a", 1),
            ("scenario-b-proportional", 16),
        ],
    )
    def test_a_settled_round_clears_no_more(self, monkeypatch, preset, calls):
        config = load_scenario(preset).config
        rounds = self.clearing_rounds(monkeypatch)
        run(config)
        assert len(rounds) == calls < config.horizon
        assert rounds == list(range(1, calls + 1))

    def test_a_reused_round_gives_the_buyers_its_rights(self, monkeypatch):
        # as a computed round does; the transition resets every Right to 0,
        # and rounds 3 to 60 are reused
        config = load_scenario("canonical-rank3-a").config
        held = []
        real = engine.consumed_utility

        def spy(state, config):
            held.append(tuple(b.right for b in state.buyers))
            return real(state, config)

        monkeypatch.setattr(engine, "consumed_utility", spy)
        trace = run(config)
        assert held == [r.right_assigned for r in trace.records] == [(0.0, 0.0, 1.0)] * 60

    def test_a_cycle_of_four_rounds_is_reused(self, monkeypatch):
        # from round 56 on, each round of this scalar market starts as the
        # round four back did, which two entries missed: the run cleared
        # 590 times. ``generate_dirichlet_scenario(10, 20.0, 0)`` repeats 22
        # rounds back, past ``engine.SETTLED_ROUNDS``, and stays uncaught
        config = generate_dirichlet_scenario(59, 20.0, rng_seed=0)
        assert config.num_buyers < engine.WIDE_MIN_BUYERS
        assert config.horizon == 590
        rounds = self.clearing_rounds(monkeypatch)
        trace = run(config)
        assert rounds == list(range(1, 56))
        # with no entry kept, every round clears, to the same trace
        monkeypatch.setattr(engine, "SETTLED_ROUNDS", 0)
        rounds.clear()
        assert repr(run(config)) == repr(trace)
        assert len(rounds) == 590

    def test_a_round_after_a_deviation_reuses_one_from_before_it(self, monkeypatch):
        # from round 3 on, each round of canonical-rank3-a starts as round 1
        # or round 2 did; buyer 1 asking for less Right in round 40 changes
        # that round's record but not the state, so rounds 41 and 42 reuse
        # rounds 1 and 2, from before the deviation, and the adjusted round
        # is not reused
        config = load_scenario("canonical-rank3-a").config
        adjustments = [BidAdjustment(40, ("buyer", 1), right_demand_factor=0.5)]
        greedy, checkpoints = run_with_checkpoints(config)
        rounds = self.clearing_rounds(monkeypatch)
        trace = run(config, adjustments=adjustments)
        assert rounds == [1, 2, 40]
        assert trace.records[39] != greedy.records[39]
        assert trace.records[40:] == greedy.records[40:]
        [totals] = replay_batch(config, checkpoints, [adjustments])
        assert repr(totals) == repr((trace.seller_utilities, trace.buyer_utilities))


class TestRunValidation:
    def test_free_market_adjustments_are_refused(self):
        # the free-market round ignores deviations: this run used to return
        # a trace with the same ``repr`` as the baseline's
        config = replace(load_scenario("free-market-a").config, horizon=6)
        adjustment = BidAdjustment(2, ("seller", 0), volume_delta=-0.5, price_factor=0.5)
        with pytest.raises(ConfigError, match="^variant 'free_market' cannot be replayed: "):
            run(config, adjustments=[adjustment])
        assert run(config, adjustments=[]) == run(config)

    @pytest.mark.parametrize("stale", [2.5, True, 5])
    def test_a_second_positional_argument_is_a_type_error(self, stale):
        # the horizon is the config's alone, and adjustments are keyword-only:
        # ``run(config, 2.5)`` used to play 2 rounds and ``run(config, True)`` 1
        config = make_benchmark(horizon=4)
        with pytest.raises(TypeError):
            run(config, stale)

    def test_zero_supply_round_aborts_with_round_index(self):
        cfg = MarketConfig(
            sellers=(SellerSpec(SupplySchedule.step(1.0, 0.0, 3)),),
            buyers=make_benchmark().buyers,
            mechanism=DistributionMechanism.proportional(),
            horizon=10,
        )
        with pytest.raises(SimulationError) as err:
            run(cfg)
        assert err.value.round_index == 3

    @pytest.mark.parametrize("fails_at", [1, 36])
    def test_schedule_failure_aborts_with_round_index(self, fails_at):
        # exp(20 t) overflows from t = 36 on; decay -1000 overflows at t = 1,
        # when the initial state is built
        decay = -20.0 if fails_at == 36 else -1000.0
        cfg = replace(
            make_benchmark(),
            buyers=(
                BuyerSpec(income=SupplySchedule.bullwhip(0.0, 0.0, 10.0, decay), claim=1.0),
                *make_benchmark().buyers[1:],
            ),
        )
        with pytest.raises(SimulationError) as err:
            run(cfg)
        assert err.value.round_index == fails_at

    @pytest.mark.parametrize(
        ("overspent", "overbought", "message"),
        [
            ((), (1,), "buyer 1 bought good beyond their rights"),
            ((), (2, 0), "buyer 0 bought good beyond their rights"),
            ((2,), (), "buyer 2 money went negative"),
            ((2,), (0, 1), "buyer 2 money went negative"),
        ],
        ids=("over-cap", "two-over-cap", "negative", "negative-and-over-cap"),
    )
    def test_failed_checks_report_the_first_in_order(
        self, monkeypatch, overspent, overbought, message
    ):
        # round 3's clearing makes some buyers overspend or buy beyond their
        # rights; a negative balance is reported before a rights-cap breach,
        # and among buyers the lowest index first
        real_clear = engine.clear

        def faulty_clear(offers, bids, state, variant):
            result = real_clear(offers, bids, state, variant)
            if state.round_index != 3:
                return result
            good, spent = list(result.good_bought), list(result.money_spent_good)
            for b in overbought:
                good[b] = state.buyers[b].right + result.right_bought[b] + 0.5
            for b in overspent:
                spent[b] = state.buyers[b].money + 0.5
            return result._replace(good_bought=tuple(good), money_spent_good=tuple(spent))

        monkeypatch.setattr(engine, "clear", faulty_clear)
        with pytest.raises(SimulationError) as err:
            run(make_benchmark(horizon=6))
        assert err.value.round_index == 3
        assert str(err.value) == f"round 3: {message}"


class TestTraceWindows:
    @pytest.mark.parametrize("window", [0, -3])
    def test_window_below_one_is_rejected(self, window):
        # records[-0:] is the whole trace, so a window of 0 must not reach it
        trace = run(make_benchmark(horizon=20))
        with pytest.raises(ValueError, match="window must be at least 1"):
            trace.per_round_mean_frustration(window)
        with pytest.raises(ValueError, match="window must be at least 1"):
            trace.per_buyer_mean_frustration(window)

    def test_window_longer_than_the_trace_averages_all_of_it(self):
        trace = run(make_benchmark(horizon=20))
        assert trace.per_round_mean_frustration(50) == trace.per_round_mean_frustration(20)
        assert trace.per_round_mean_frustration() == trace.per_round_mean_frustration(20)
        assert trace.per_round_mean_frustration(2) != trace.per_round_mean_frustration(20)
        assert trace.per_buyer_mean_frustration(50) == trace.per_buyer_mean_frustration(20)


class TestRejections:
    def test_over_offered_right_is_rejected_in_its_round_only(self):
        # buyer 0 is poor in round 3 and offers more than half its right, so
        # doubling the offer exceeds the right it holds
        cfg = make_benchmark(horizon=8)
        trace = run(cfg, adjustments=[BidAdjustment(3, ("buyer", 0), right_offer_factor=2.0)])
        for rec in trace.records:
            if rec.round_index == 3:
                assert [(r.side, r.index) for r in rec.rejections] == [("buyer", 0)]
            else:
                assert rec.rejections == ()
        assert all(rec.rejections == () for rec in run(cfg).records)


class TestScaledMarkets:
    """The conservation checks scale with the money and Good in play, so
    scenario A in large units runs like the normalized one."""

    @pytest.mark.parametrize("factor", [1e8, 1e10])
    @pytest.mark.parametrize("kind", ["proportional", "contested_garment"])
    def test_scaled_incomes(self, kind, factor):
        base = make_benchmark(mechanism=getattr(DistributionMechanism, kind)(), horizon=10)
        scaled = replace(base, buyers=tuple(
            replace(b, income=SupplySchedule.constant(m * factor))
            for b, m in zip(base.buyers, A_INCOMES)
        ))
        self.assert_same_frustration(run(base), run(scaled))

    @pytest.mark.parametrize("factor", [1e8, 1e10])
    @pytest.mark.parametrize("kind", ["proportional", "contested_garment"])
    def test_scaled_good(self, kind, factor):
        base = make_benchmark(mechanism=getattr(DistributionMechanism, kind)(), horizon=10)
        scaled = replace(
            base,
            sellers=(SellerSpec(SupplySchedule.constant(factor)),),
            buyers=tuple(replace(b, claim=b.claim * factor) for b in base.buyers),
        )
        self.assert_same_frustration(run(base), run(scaled))

    @staticmethod
    def assert_same_frustration(want, got):
        assert len(got.records) == len(want.records) == 10
        for a, b in zip(want.records, got.records):
            assert b.frustration == pytest.approx(a.frustration, rel=0, abs=1e-12)
