"""Equilibrium audit, convergence checks and solver cross-validation."""

import dataclasses
import hashlib
import json
import re
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from rightsmarket import analysis
from rightsmarket.analysis import (
    DEFAULT_MAGNITUDES,
    DEVIATION_KINDS,
    Deviation,
    audit,
    audit_coalition,
    audit_unilateral,
    bisection_price,
    check_nonexpansive,
    check_price_lower_bound,
    cross_validate_price_solver,
    default_coalition_menu,
    default_deviation_grid,
)
from rightsmarket.cli import default_coalitions, load_scenario
from rightsmarket.core import SellerSpec
from rightsmarket.engine import SupplySchedule, generate_dirichlet_scenario, run
from rightsmarket.errors import ConfigError
from rightsmarket.pricing import mechanism_rank_weights
from rightsmarket.rights import DistributionMechanism

from conftest import make_benchmark

AUDIT_HORIZON = 20


@pytest.fixture(scope="module")
def unilateral_report():
    return audit_unilateral(make_benchmark(horizon=AUDIT_HORIZON))


class TestUnilateralAudit:
    def test_no_profitable_deviation(self, unilateral_report):
        assert unilateral_report.max_gain <= 1e-9
        assert unilateral_report.passed

    def test_grid_is_large_enough(self, unilateral_report):
        assert len(unilateral_report.tested) >= 60

    def test_covers_every_deviation_kind(self, unilateral_report):
        kinds = {t.deviations[0].kind for t in unilateral_report.tested}
        assert kinds == {
            "seller_withhold",
            "seller_price",
            "buyer_sell_less_right",
            "buyer_buy_less_right",
            "buyer_price",
        }

    def test_withholding_then_selling_loses(self):
        report = audit_unilateral(
            make_benchmark(horizon=AUDIT_HORIZON),
            deviation_grid=[Deviation("seller_withhold", 0, 3, 0.25)],
        )
        (trial,) = report.tested
        assert trial.max_gain <= 1e-9

    def test_poor_buyer_selling_less_right_loses(self):
        report = audit_unilateral(
            make_benchmark(horizon=AUDIT_HORIZON),
            deviation_grid=[Deviation("buyer_sell_less_right", 0, 2, 0.5)],
        )
        (trial,) = report.tested
        assert trial.max_gain <= 1e-9

    def test_overpricing_seller_sells_nothing_and_loses(self):
        # two sellers so the deviator prices itself above the buyers' mean
        cfg = make_benchmark(horizon=AUDIT_HORIZON, num_sellers=2)
        report = audit_unilateral(
            cfg, deviation_grid=[Deviation("seller_price", 0, 1, +0.10)]
        )
        (trial,) = report.tested
        assert trial.gains[0] < -1e-6

    def test_infeasible_deviations_skipped_with_note(self):
        # the rich buyer never offers right, so repricing a sale is a no-op
        report = audit_unilateral(
            make_benchmark(horizon=AUDIT_HORIZON),
            deviation_grid=[Deviation("buyer_price", 2, 1, +0.1)],
        )
        assert not report.tested
        assert report.trials[0].skipped and "no right offer" in report.trials[0].reason

    def test_negative_control_finds_undercutting(self):
        report = audit_unilateral(make_benchmark(horizon=AUDIT_HORIZON, price_factor=1.1))
        assert not report.passed
        assert report.max_gain > 1e-3
        best = max(report.tested, key=lambda t: t.max_gain)
        assert best.deviations[0].kind == "seller_price"
        assert best.deviations[0].magnitude < 0

    def test_requires_normalized_regime(self):
        from rightsmarket.core import BuyerSpec, MarketConfig, SellerSpec
        from rightsmarket.engine import SupplySchedule

        cfg = generate_dirichlet_scenario(3, float("inf"), 0)
        audit_unilateral(cfg, horizon=6)  # normalized: fine
        bad = MarketConfig(
            sellers=(SellerSpec(SupplySchedule.constant(1.0)),),
            buyers=(BuyerSpec(income=SupplySchedule.constant(0.5), claim=1.0),),
            mechanism=DistributionMechanism.proportional(),
            horizon=6,
        )
        with pytest.raises(ConfigError):
            audit_unilateral(bad, horizon=6)


class TestAuditScope:
    """What the audit plays: its default menus and the regime it covers."""

    @pytest.mark.parametrize(("horizon", "trials"), [(1, 40), (2, 80), (3, 80)])
    def test_samples_each_round_once(self, horizon, trials):
        # rounds 1, T/2 and T coincide below T = 4: each report used to list
        # 120 trials, and at T = 3 count each of its 4 witnesses twice
        config = load_scenario("scenario-a-proportional").config
        for report in audit(config, horizon, default_coalitions(config)):
            deviations = [t.deviations for t in report.trials]
            assert len(set(deviations)) == len(deviations)
        assert len(audit_unilateral(config, horizon).trials) == trials

    @pytest.mark.parametrize(("call", "horizon"), [(audit_unilateral, 6.5), (audit, 0)])
    def test_a_bad_horizon_is_the_config_error_naming_it(self, call, horizon):
        # 6.5 used to fail with a raw TypeError in the skip check
        config = load_scenario("scenario-a-proportional").config
        message = f"^horizon must be a positive integer, got {horizon}$"
        with pytest.raises(ConfigError, match=message):
            call(config, horizon)

    @pytest.mark.parametrize(
        ("kind", "trader", "round_index"),
        [
            ("buyer_price", 5, 2),
            ("seller_price", 3, 2),
            ("seller_price", 0, 2.5),
            ("buyer_price", -1, 2),
        ],
        ids=["buyer-5", "seller-3", "round-2.5", "buyer-minus-1"],
    )
    def test_refuses_a_deviation_the_config_lacks(self, monkeypatch, kind, trader, round_index):
        # the first three raised a raw IndexError or TypeError, and buyer -1
        # read the last buyer's record, then played no deviation and
        # reported a tested gain of 0; each is refused before the baseline
        config = make_benchmark(horizon=6)  # 1 seller, 3 buyers
        monkeypatch.setattr(analysis, "run_with_checkpoints", None)
        named = re.escape(f"Deviation(kind={kind!r}, trader={trader!r}, round_index={round_index}")
        with pytest.raises(ConfigError, match=named):
            audit_unilateral(config, deviation_grid=[Deviation(kind, trader, round_index, 0.1)])
        with pytest.raises(ConfigError, match=named):
            seller = Deviation("seller_price", 0, 2, 0.1)
            joint = [(seller, Deviation(kind, trader, round_index, 0.1))]
            audit_coalition(config, coalition=[("seller", 0), ("buyer", 0)], joint_grid=joint)

    def test_refuses_a_grid_item_of_the_wrong_shape(self, monkeypatch):
        # a flat joint grid raised "'Deviation' object is not iterable" and a
        # unilateral grid of tuples "'tuple' object has no attribute
        # 'trader_key'"; each is refused before the baseline
        config = make_benchmark(horizon=6)  # 1 seller, 3 buyers
        monkeypatch.setattr(analysis, "run_with_checkpoints", None)
        seller, buyer = Deviation("seller_price", 0, 2, 0.1), Deviation("buyer_price", 0, 2, 0.1)
        named = re.escape(f"grid item {seller!r} is not an iterable of Deviations")
        with pytest.raises(ConfigError, match=f"^{named}$"):
            audit_coalition(
                config, coalition=[("seller", 0), ("buyer", 0)], joint_grid=[seller, buyer]
            )
        with pytest.raises(ConfigError, match=re.escape("grid item ('seller', 0) is not an")):
            audit_coalition(
                config, coalition=[("seller", 0), ("buyer", 0)], joint_grid=[("seller", 0)]
            )
        item = ("seller_price", 0, 2, 0.1)
        with pytest.raises(ConfigError, match=re.escape(f"grid item {item!r} is not a Deviation")):
            audit_unilateral(config, deviation_grid=[item])
        with pytest.raises(ConfigError, match="is not a Deviation$"):
            audit_unilateral(config, deviation_grid=[(seller,)])

    @pytest.mark.parametrize("magnitude", [float("nan"), float("inf"), float("-inf")])
    def test_refuses_a_non_finite_magnitude(self, monkeypatch, magnitude):
        # NaN used to reach the baseline and fail there with "price_factor
        # must be finite, got nan", a message that names no deviation
        monkeypatch.setattr(analysis, "run_with_checkpoints", None)
        named = re.escape("Deviation(kind='seller_price', trader=0, round_index=20, magnitude=")
        with pytest.raises(ConfigError, match=f"^{named}{magnitude}\\)"):
            audit_unilateral(
                make_benchmark(horizon=40),
                deviation_grid=[Deviation("seller_price", 0, 20, magnitude)],
            )

    def test_default_menus_are_pinned(self):
        # recorded when the unilateral grid and the coalition menus were
        # still listed separately, as (kind, trader, round, magnitude)
        pins = json.loads((Path(__file__).parent / "audit_menus.json").read_text())
        config = load_scenario(pins["scenario"]).config
        T = pins["horizon"]
        baseline = run(dataclasses.replace(config, horizon=T))

        def rows(devs):
            return [[d.kind, d.trader, d.round_index, d.magnitude] for d in devs]

        assert rows(default_deviation_grid(config, baseline)) == pins["grid"]
        for coalition in default_coalitions(config):
            for side, idx in coalition:
                menu = default_coalition_menu((side, idx), T // 2, baseline)
                assert rows(menu) == pins["coalition_menus"][f"{side} {idx}"]

    def test_free_market_is_refused(self):
        # the free-market round ignores deviations, so every gain would be 0
        config = make_benchmark(variant="free_market", horizon=6)
        with pytest.raises(ConfigError, match="'free_market'"):
            audit_unilateral(config)
        with pytest.raises(ConfigError, match="'free_market'"):
            audit_coalition(config, coalition=[("buyer", 0), ("buyer", 1)])

    @pytest.mark.parametrize(("excess", "normalized"), [(5e-10, True), (2e-9, False)])
    def test_normalized_up_to_conservation_tol(self, excess, normalized):
        config = dataclasses.replace(
            make_benchmark(horizon=6),
            sellers=(SellerSpec(SupplySchedule.constant(1.0 + excess)),),
        )
        assert config.is_normalized() is normalized
        if normalized:
            assert audit_unilateral(config).tested
        else:
            with pytest.raises(ConfigError, match="sum g = sum m = 1"):
                audit_unilateral(config)


class TestCoalitionAudit:
    @pytest.mark.parametrize(
        "coalition",
        [
            (("buyer", 0), ("buyer", 1)),
            (("seller", 0), ("buyer", 0)),
            (("seller", 0), ("buyer", 2)),
        ],
        ids=("poor-buyers", "seller-poor-buyer", "seller-rich-buyer"),
    )
    def test_no_winning_coalition(self, coalition):
        report = audit_coalition(
            make_benchmark(horizon=AUDIT_HORIZON), coalition=list(coalition)
        )
        assert report.passed
        assert report.coalition == coalition

    def test_all_sellers_coalition(self):
        cfg = make_benchmark(horizon=AUDIT_HORIZON, num_sellers=2)
        report = audit_coalition(cfg, coalition=[("seller", 0), ("seller", 1)])
        assert report.passed

    def test_coalition_needs_two_members(self):
        with pytest.raises(ConfigError):
            audit_coalition(make_benchmark(horizon=AUDIT_HORIZON), coalition=[("buyer", 0)])

    def test_coalition_members_must_be_distinct(self):
        # a repeated member would let one trader's combos pass as a coalition's
        with pytest.raises(ConfigError, match="must be distinct"):
            audit_coalition(
                make_benchmark(horizon=AUDIT_HORIZON), coalition=[("buyer", 0), ("buyer", 0)]
            )

    @pytest.mark.parametrize(
        "member",
        [("buyer", 5), ("sellr", 0), ("buyer", True), ("buyer", -1), ("buyer", 0, 1), "buyer"],
    )
    def test_refuses_a_member_outside_the_rule_or_the_config(self, monkeypatch, member):
        # buyer 5 raised a raw IndexError, and a misspelt side got a buyer's
        # menu, skipped every combo and passed with 0 trials tested
        config = load_scenario("scenario-a-proportional").config  # 1 seller, 3 buyers
        monkeypatch.setattr(analysis, "run_with_checkpoints", None)
        coalition = [("buyer", 0), member]
        named = f"^{re.escape(repr(member))}"
        with pytest.raises(ConfigError, match=named):
            audit_coalition(config, coalition=coalition)
        with pytest.raises(ConfigError, match=named):
            audit(config, coalitions=[coalition])

    def test_reads_a_list_member_as_its_pair(self):
        # as JSON gives a member
        config = make_benchmark(horizon=6)
        report = audit_coalition(config, coalition=[["buyer", 0], ["buyer", 1]])
        assert report == audit_coalition(config, coalition=[("buyer", 0), ("buyer", 1)])
        assert report.coalition == (("buyer", 0), ("buyer", 1))

    def test_skips_a_combo_for_its_first_deviation_that_cannot_be_played(self):
        # buyer 0 demands no Right in round 20, so buying less of it changes
        # no bid: the combo used to be played and counted as a winner, gains
        # +9.9e-09 and +1.2e-01, while the unilateral audit skips the same
        # buyer deviation
        config = load_scenario("scenario-a-contested-garment").config
        cut = Deviation("seller_price", 0, 20, -0.5)
        joint = [
            (cut, Deviation("buyer_buy_less_right", 0, 20, 0.5)),
            (cut, Deviation("buyer_sell_less_right", 0, 20, 0.5)),
        ]
        report = audit_coalition(
            config, 40, coalition=[("seller", 0), ("buyer", 0)], joint_grid=joint
        )
        skipped, played = report.trials
        assert skipped.describe() == (
            "SKIP seller_price(-0.5) by seller 0 at round 20; "
            "buyer_buy_less_right(+0.5) by buyer 0 at round 20: buyer demanded no right"
        )
        assert not played.skipped and len(played.gains) == 2
        unilateral = audit_unilateral(config, 40, deviation_grid=[joint[0][1]])
        assert [t.reason for t in unilateral.trials] == [skipped.reason]

    def test_plays_every_combo_of_a_long_joint_grid(self):
        # a caller's grid is played whole, with no cap on its length
        grid = [
            (Deviation("seller_price", 0, 1 + k % 4, k / 1000), Deviation("buyer_price", 0, 1, 0.1))
            for k in range(501)
        ]
        config, coalition = make_benchmark(horizon=4), [("seller", 0), ("buyer", 0)]
        report = audit_coalition(config, coalition=coalition, joint_grid=grid)
        assert len(report.tested) == len(report.trials) == 501
        # an iterator too: the gate used to exhaust it, and no trial was left
        assert audit_coalition(config, coalition=coalition, joint_grid=iter(grid)) == report

    def test_a_report_with_no_trials_says_it_had_nothing_to_test(self):
        # it passes, as before, but must not read as tested and passed
        report = audit_coalition(
            make_benchmark(horizon=4), coalition=[("seller", 0), ("buyer", 0)], joint_grid=[]
        )
        assert report.trials == () and report.passed
        assert report.summary() == "coalition audit: 0 trials, nothing to test"

    def test_skips_a_combo_played_by_outsiders(self):
        # two traders, as in the coalition, but not its members
        outsiders = (Deviation("buyer_price", 1, 1, 0.1), Deviation("buyer_price", 2, 1, 0.1))
        report = audit_coalition(
            load_scenario("scenario-a-proportional").config,
            6,
            coalition=[("seller", 0), ("buyer", 0)],
            joint_grid=[outsiders],
        )
        assert report.tested == ()
        assert [t.reason for t in report.trials] == ["menu/member mismatch"]
        # every deviation is named, and no max gain is made up
        assert report.trials[0].describe() == (
            "SKIP buyer_price(+0.1) by buyer 1 at round 1; "
            "buyer_price(+0.1) by buyer 2 at round 1: menu/member mismatch"
        )
        assert report.summary() == "coalition audit: 0 trials (1 skipped), nothing to test"

    @pytest.mark.parametrize("round_index", [25, 0])
    def test_skips_a_combo_outside_the_horizon(self, round_index):
        # it used to be played, and reported with gains of exactly 0.0
        config = load_scenario("scenario-a-proportional").config
        joint = (
            Deviation("seller_price", 0, round_index, 0.1),
            Deviation("buyer_price", 0, 10, 0.1),
        )
        report = audit_coalition(
            config, 20, coalition=[("seller", 0), ("buyer", 0)], joint_grid=[joint]
        )
        assert report.tested == ()
        assert [t.reason for t in report.trials] == ["round outside horizon"]
        unilateral = audit_unilateral(config, 20, deviation_grid=[joint[0]])
        assert [t.reason for t in unilateral.trials] == ["round outside horizon"]


# -- every trial of the benchmark's audits, pinned -----------------------------

# SHA-256 of the ``repr`` of every trial's (deviations, gains, reason), the
# unilateral audit's and then each ``cli.default_coalitions`` audit's, of the
# configs the benchmark's ``audit`` workload plays, taken before audits
# replayed trials in batches: ``repr`` tells every bit of every gain
TRIAL_DIGESTS = {
    (20, "scenario-a-proportional"):
        "4a03a2f8cba887b38f4d3a36ff5cc685d4ac715c84bba0d88f5f4c9869c30480",
    (20, "scenario-a-contested-garment"):
        "131df55b3c616e8a64f613a84d4646b8974dab9c5b7f989afafca60a4185f589",
    (20, "canonical-rank3-a"):
        "cb3339b56219c2e3f8e8b7a704d95a8d22f3eeebb391323c8468a31be9fce872",
    (20, "scenario-a-proportional@price-factor-1.2"):
        "be61e6e3967388ca1761eabbd54dd6a8003950d0e5970b0687965a0f30fa6b9d",
    (40, "scenario-a-proportional"):
        "269d8e956eff11b866ebe80cc84a85588e7dd0cb249fe8617ea9a0ebe6999c3f",
    (40, "scenario-a-contested-garment"):
        "4d3c203620d54edfab964dae34916defaa703082b35c5c92b8b1d63eefcb81fd",
    (40, "canonical-rank3-a"):
        "28d9b9aa9ebe996a576fcff05ac2ed3aa6d62cd1818a2966abee2eeb2c34b67f",
    (40, "scenario-a-proportional@price-factor-1.2"):
        "4e86e4ba7a9f4ca4c77656295583cf798cc216b851532a208a87da6f9cac62b4",
}


def separate_reports(config, horizon):
    """The unilateral report, then one call per default coalition."""
    reports = [audit_unilateral(config, horizon)]
    return reports + [audit_coalition(config, horizon, c) for c in default_coalitions(config)]


def joint_reports(config, horizon):
    """The same reports from one ``audit`` call."""
    return audit(config, horizon, default_coalitions(config))


@pytest.mark.parametrize(
    "horizon, name, reports",
    [
        pytest.param(horizon, name, reports, id=f"{horizon}-{name}{suffix}")
        for horizon, name in TRIAL_DIGESTS
        for reports, suffix in ((separate_reports, ""), (joint_reports, "-audit"))
    ],
)
def test_every_audit_trial_is_pinned(horizon, name, reports):
    preset, _, factor = name.partition("@price-factor-")
    config = load_scenario(preset).config
    if factor:
        config = dataclasses.replace(config, greedy_price_factor=float(factor))
    config = dataclasses.replace(config, horizon=horizon)
    trials = [(t.deviations, t.gains, t.reason) for r in reports(config, horizon) for t in r.trials]
    digest = hashlib.sha256(repr(trials).encode()).hexdigest()
    assert digest == TRIAL_DIGESTS[horizon, name]


# -- incremental replay against full replays ---------------------------------

DIFF_HORIZON = 7
DIFF_CONFIGS = {
    name: dataclasses.replace(load_scenario(name).config, horizon=DIFF_HORIZON)
    for name in ("scenario-a-proportional", "scenario-a-contested-garment")
}


@st.composite
def deviations(draw, buyer=None):
    kind = draw(st.sampled_from(DEVIATION_KINDS))
    if kind.startswith("seller"):
        trader = 0
    else:
        trader = buyer if buyer is not None else draw(st.integers(0, 2))
    magnitude = draw(st.sampled_from(DEFAULT_MAGNITUDES))
    if kind.endswith("price") and draw(st.booleans()):
        magnitude = -magnitude
    return Deviation(kind, trader, draw(st.integers(1, DIFF_HORIZON)), magnitude)


def full_replay_gains(config, devs):
    """Gains from re-simulating every round with the deviations applied."""
    adjustments = [a for d in devs for a in d.to_adjustments(config)]
    baseline = run(config)
    trace = run(config, adjustments=adjustments)

    def utility(tr, d):
        side, idx = d.trader_key()
        return tr.seller_utilities[idx] if side == "seller" else tr.buyer_utilities[idx]

    return tuple(utility(trace, d) - utility(baseline, d) for d in devs)


def assert_baseline_matches(report, config):
    full = run(config)
    assert report.baseline_seller_utilities == full.seller_utilities
    assert report.baseline_buyer_utilities == full.buyer_utilities


class TestIncrementalReplayIsExact:
    """Audit replays resume at the first deviating round; their gains must
    equal those of a full replay bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(name=st.sampled_from(sorted(DIFF_CONFIGS)), dev=deviations())
    @example(name="scenario-a-proportional", dev=Deviation("buyer_sell_less_right", 0, 1, 0.5))
    @example(
        name="scenario-a-contested-garment",
        dev=Deviation("seller_price", 0, DIFF_HORIZON, -0.5),
    )
    @example(  # the release round falls beyond the horizon
        name="scenario-a-proportional",
        dev=Deviation("seller_withhold", 0, DIFF_HORIZON, 0.25),
    )
    def test_unilateral_gains_equal_full_replay(self, name, dev):
        config = DIFF_CONFIGS[name]
        report = audit_unilateral(config, deviation_grid=[dev])
        assert_baseline_matches(report, config)
        for trial in report.tested:
            assert trial.gains == full_replay_gains(config, trial.deviations)

    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(sorted(DIFF_CONFIGS)),
        first=deviations(buyer=0),
        second=deviations(buyer=1),
    )
    @example(  # members deviating in the first and in the last round
        name="scenario-a-contested-garment",
        first=Deviation("seller_withhold", 0, DIFF_HORIZON, 0.5),
        second=Deviation("buyer_buy_less_right", 1, 1, 0.5),
    )
    @example(  # buyer 1 offers no Right to reprice in round 1: skipped
        name="scenario-a-contested-garment",
        first=Deviation("seller_withhold", 0, DIFF_HORIZON, 0.5),
        second=Deviation("buyer_price", 1, 1, 0.1),
    )
    def test_joint_gains_equal_full_replay(self, name, first, second):
        assume(first.trader_key() != second.trader_key())
        config = DIFF_CONFIGS[name]
        coalition = [first.trader_key(), second.trader_key()]
        report = audit_coalition(
            config, coalition=coalition, joint_grid=[(first, second)]
        )
        assert_baseline_matches(report, config)
        # skipped for the first deviation the unilateral audit skips
        first_reason, second_reason = (
            audit_unilateral(config, deviation_grid=[d]).trials[0].reason for d in (first, second)
        )
        (trial,) = report.trials
        assert trial.reason == (first_reason or second_reason)
        if not trial.skipped:
            assert trial.gains == full_replay_gains(config, trial.deviations)

    def test_every_default_trial_equals_full_replay(self):
        config = DIFF_CONFIGS["scenario-a-proportional"]
        report = audit_unilateral(config)
        assert len(report.tested) > 30
        for trial in report.tested:
            assert trial.gains == full_replay_gains(config, trial.deviations)


class TestNonexpansive:
    def test_benchmark_trace_passes(self):
        trace = run(make_benchmark(horizon=60))
        report = check_nonexpansive(trace)
        assert report.passed
        gaps = [abs(p - 1) for p in trace.price_path()[:2]]
        assert gaps[0] == pytest.approx(0.3534, abs=1e-4)
        assert gaps[1] == pytest.approx(0.0122, abs=1e-4)

    def test_fixed_point_stays_fixed(self):
        # income matching the rights share (m_b = R_b) puts the price at one
        # from the first round, and it must stay there
        from rightsmarket.core import BuyerSpec, MarketConfig, SellerSpec
        from rightsmarket.engine import SupplySchedule

        cfg = MarketConfig(
            sellers=(SellerSpec(SupplySchedule.constant(1.0)),),
            buyers=tuple(
                BuyerSpec(income=SupplySchedule.constant(1 / 3), claim=0.9) for _ in range(3)
            ),
            mechanism=DistributionMechanism.proportional(),
            horizon=30,
        )
        trace = run(cfg)
        assert all(p == pytest.approx(1.0, abs=1e-9) for p in trace.price_path())

    def test_random_normalized_scenarios_pass(self):
        for seed in range(100):
            cfg = generate_dirichlet_scenario(2 + seed % 6, 15.0, rng_seed=seed, horizon=40)
            trace = run(cfg)
            report = check_nonexpansive(trace)
            assert report.passed, f"seed {seed}: {report.detail}"

    def test_detects_violations(self):
        trace = run(make_benchmark(variant="free_market", price_factor=2.0, horizon=5))
        # constant price 2.0: |p-1| never shrinks but never grows; perturb
        # via a fabricated trace is overkill, assert the guard on oscillation
        report = check_nonexpansive(trace)
        assert not report.passed


class TestSolverCrossValidation:
    def test_thousand_seeded_instances(self):
        report = cross_validate_price_solver(1000, rng_seed=0)
        assert report.passed
        assert report.max_discrepancy < 1e-10

    def test_single_buyer_closed_form(self):
        # with one buyer the equation is m - max(0, pr - m) = pr
        for m, r in ((0.6, 1.0), (2.0, 0.5), (0.0, 1.0)):
            p = bisection_price([m], [r])
            assert abs((m - max(0.0, p * r - m)) - p * r) < 1e-10

    def test_degenerate_zero_money(self):
        assert bisection_price([0.0, 0.0], [1.0, 1.0]) == 0.0


class TestPriceLowerBound:
    def test_holds_on_canonical_trace(self):
        cfg = make_benchmark(mechanism=DistributionMechanism.canonical(3), horizon=20)
        trace = run(cfg)
        weights = mechanism_rank_weights(cfg.mechanism, cfg.claims)
        report = check_price_lower_bound(trace, weights)
        assert report.holds

    def test_holds_on_proportional_benchmark(self):
        cfg = make_benchmark(horizon=20)
        trace = run(cfg)
        weights = mechanism_rank_weights(cfg.mechanism, cfg.claims)
        report = check_price_lower_bound(trace, weights)
        assert report.holds

    def test_rank_order_handles_unsorted_buyers(self):
        from rightsmarket.core import BuyerSpec, MarketConfig, SellerSpec
        from rightsmarket.engine import SupplySchedule
        from rightsmarket.rights import claim_rank_order

        claims = (0.125, 1.0, 0.75)  # deliberately not in rank order
        incomes = (0.75, 0.0, 0.25)
        cfg = MarketConfig(
            sellers=(SellerSpec(SupplySchedule.constant(1.0)),),
            buyers=tuple(
                BuyerSpec(income=SupplySchedule.constant(m), claim=d)
                for m, d in zip(incomes, claims)
            ),
            mechanism=DistributionMechanism.proportional(),
            horizon=20,
        )
        trace = run(cfg)
        weights = mechanism_rank_weights(cfg.mechanism, cfg.claims)
        report = check_price_lower_bound(
            trace, weights, rank_order=claim_rank_order(cfg.claims)
        )
        assert report.holds
