"""The numpy kernels against the scalar round, bit for bit.

Once a ``rights`` market has ``engine.WIDE_MIN_BUYERS`` buyers,
``engine`` plays an all-greedy run of it on numpy columns (``wide``);
below that, for runs with adjustments or checkpoints and for the other
variants, it plays the scalar round. Every replay plays on ``batch``,
whatever its size. These tests play the same runs both ways, whatever
their size, by moving that constant for the duration of a call, and
compare each replay with the scalar ``run`` of its adjustments. A run that
stays on the scalar round, as every ``myopic_rights`` run does, plays the
second way with the scalar round's settled-round reuse off
(``engine.SETTLED_ROUNDS`` 0), so that it computes every round, as the
kernels do. The tests require the same ``repr`` of every trace and
utility total, and the same ``SimulationError`` round and message when a
run or a replay fails. The kernel's pieces are compared with the scalar
ones here on single columns, and row by row in ``tests/test_batch.py``.
"""

import re
import sys
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rightsmarket import batch, cli, engine, wide
from rightsmarket.core import BuyerSpec, MarketConfig, SellerSpec
from rightsmarket.engine import (
    BidAdjustment,
    SupplySchedule,
    generate_dirichlet_scenario,
    replay_batch,
    run,
    run_with_checkpoints,
)
from rightsmarket.errors import SimulationError
from rightsmarket.rights import DistributionMechanism

from conftest import make_benchmark

PATHS = ("scalar", "wide")


@contextmanager
def playing(path: str):
    """Play every all-greedy ``rights`` run on ``path``, and on "wide" every
    run left to the scalar round without its settled-round reuse; replays
    play on ``batch`` either way."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "WIDE_MIN_BUYERS", 1 if path == "wide" else sys.maxsize)
        if path == "wide":
            mp.setattr(engine, "SETTLED_ROUNDS", 0)
        yield


def outcome(call):
    """``repr`` of what ``call`` returns, or the round and message of the
    ``SimulationError`` it raises."""
    try:
        return repr(call())
    except SimulationError as exc:
        return ("SimulationError", exc.round_index, str(exc))


def both(call):
    """The outcome of ``call`` on the scalar rounds and on the numpy
    kernels, or the scalar round without reuse where they do not play, in
    that order."""
    out = []
    for path in PATHS:
        with playing(path):
            out.append(outcome(call))
    return out


def scalar_totals(config, adjustments=()):
    """The outcome of ``run(config, adjustments=adjustments)`` on the
    scalar round, as its seller and buyer utility totals. A replay of
    ``adjustments``, from the checkpoints of the all-greedy baseline of the
    config set to any horizon, must have this outcome bit for bit."""

    def totals():
        trace = run(config, adjustments=adjustments)
        return trace.seller_utilities, trace.buyer_utilities

    with playing("scalar"):
        return outcome(totals)


def test_each_path_runs_where_the_constant_says(monkeypatch):
    calls = []
    real = wide.play_rounds

    def spy(config, *args):
        calls.append(config.num_buyers)
        return real(config, *args)

    monkeypatch.setattr(wide, "play_rounds", spy)
    small = make_benchmark(horizon=3)
    run(small)
    assert calls == []
    with playing("wide"):
        run(small)
        # only all-greedy ``rights`` runs: these stay scalar
        run(small, adjustments=[BidAdjustment(2, ("seller", 0), price_factor=0.9)])
        run_with_checkpoints(small)
        run(make_benchmark(variant="myopic_rights", horizon=3))
        run(make_benchmark(variant="free_market", horizon=3))
    assert calls == [3]


# -- random markets ----------------------------------------------------------


def mechanisms(num_buyers: int):
    ranks = st.integers(1, num_buyers)
    weighted = st.lists(st.tuples(st.integers(1, 4), ranks), min_size=1, max_size=3).map(
        lambda parts: DistributionMechanism.weighted(
            [(n / sum(n for n, _ in parts), r) for n, r in parts]
        )
    )
    return st.one_of(
        st.just(DistributionMechanism.proportional()),
        st.just(DistributionMechanism.contested_garment()),
        ranks.map(DistributionMechanism.canonical),
        weighted,
    )


# volume, price, right-offer and right-demand deviations; an offer factor
# above one puts more Right on sale than a poor buyer holds, and a negative
# seller price gets the offer rejected, which fails the Good balance
deviations = st.fixed_dictionaries(
    {},
    optional={
        "volume_delta": st.sampled_from([-0.05, -0.02, 0.01]),
        "price_factor": st.sampled_from([0.5, 0.9, 1.1, 1.3, 2.0, -1.0]),
        "right_offer_factor": st.sampled_from([0.0, 0.25, 0.5, 1.5, 3.0]),
        "right_demand_factor": st.sampled_from([0.0, 0.5, 2.0]),
    },
)


WIDE_FROM = engine.WIDE_MIN_BUYERS
BUYER_COUNTS = (2, 3, 7, WIDE_FROM - 1, WIDE_FROM, WIDE_FROM + 7)


@st.composite
def markets(draw, buyer_counts=BUYER_COUNTS):
    """A random config of one of ``buyer_counts`` buyers, with up to eight
    bid adjustments."""
    num_buyers = draw(st.sampled_from(buyer_counts))
    num_sellers = draw(st.integers(1, 12))
    horizon = draw(st.integers(1, 8))
    positive = st.floats(0.01, 1.0)
    claims = draw(
        st.lists(st.one_of(st.just(0.0), positive), min_size=num_buyers, max_size=num_buyers)
    )
    incomes = draw(
        st.lists(st.one_of(st.just(0.0), positive), min_size=num_buyers, max_size=num_buyers)
    )
    resupply = draw(st.lists(positive, min_size=num_sellers, max_size=num_sellers))
    config = MarketConfig(
        sellers=tuple(
            SellerSpec(SupplySchedule.constant(g / num_sellers)) for g in resupply
        ),
        buyers=tuple(
            BuyerSpec(income=SupplySchedule.constant(m), claim=d) for d, m in zip(claims, incomes)
        ),
        mechanism=draw(mechanisms(num_buyers)),
        variant=draw(st.sampled_from(["rights", "myopic_rights"])),
        horizon=horizon,
        greedy_price_factor=draw(st.sampled_from([1.0, 1.0, 0.8, 1.25])),
    )
    return config, draw(adjustment_lists(config))


def adjustment_lists(config, rounds=None):
    """Up to eight random bid adjustments of ``config``'s traders, or of
    indexes up to two past the last seller or buyer, which change nothing,
    in ``rounds``, by default 1 to the horizon."""
    traders = st.one_of(
        st.tuples(st.just("seller"), st.integers(0, config.num_sellers + 1)),
        st.tuples(st.just("buyer"), st.integers(0, config.num_buyers + 1)),
    )
    return st.lists(
        st.builds(
            lambda r, t, kw: BidAdjustment(r, t, **kw),
            st.integers(1, config.horizon) if rounds is None else rounds,
            traders,
            deviations,
        ),
        max_size=8,
    )


@settings(deadline=None)
@given(markets())
def test_both_paths_give_the_same_results(market):
    # an all-greedy rights run plays on ``wide`` and a myopic one on the
    # scalar round without reuse, a replay as a batch of one on ``batch``;
    # runs with adjustments or checkpoints are scalar either way
    config, adjustments = market
    scalar, wide_ = both(lambda: run(config))
    assert scalar == wide_

    try:
        _, checkpoints = run_with_checkpoints(config)
    except SimulationError:
        checkpoints = ()
    expected = scalar_totals(config, adjustments)
    for n in {1, len(checkpoints)} if checkpoints else ():
        # the first n checkpoints: the replay resumes at round n at the latest
        replay = outcome(lambda: replay_batch(config, checkpoints[:n], [adjustments])[0])
        assert replay == expected


def test_many_good_and_right_levels():
    # every seller posts its own price and poor buyers put their Right on
    # sale at four prices, some of it beyond what they hold
    config = replace(
        engine.generate_dirichlet_scenario(engine.WIDE_MIN_BUYERS, 5.0, rng_seed=3, horizon=6),
        sellers=tuple(SellerSpec(SupplySchedule.constant(0.2)) for _ in range(5)),
    )
    adjustments = [
        BidAdjustment(t, ("seller", s), price_factor=0.8 + 0.1 * s)
        for t in (2, 4) for s in range(5)
    ] + [
        BidAdjustment(t, ("buyer", b), price_factor=1.0 + 0.1 * (b % 4),
                      right_offer_factor=1.5 if b % 9 == 0 else 0.75)
        for t in (2, 3) for b in range(engine.WIDE_MIN_BUYERS)
    ]
    # the adjusted run is scalar; its replay from round 2 plays on ``batch``
    trace = run(config, adjustments=adjustments)
    assert "Rejection(side='buyer'" in repr(trace)
    _, checkpoints = run_with_checkpoints(config)
    replay = outcome(lambda: replay_batch(config, checkpoints, [adjustments])[0])
    assert replay == repr((trace.seller_utilities, trace.buyer_utilities))


@pytest.mark.parametrize("variant", ["rights", "myopic_rights"])
def test_nan_rights_agree(variant):
    # an infinite claim gives its holder a NaN right under the proportional
    # rule: the allocation's finiteness check stops both variants at round
    # 1 on every path, where the myopic run used to return the NaN silently;
    # a myopic run plays the scalar round, with and without reuse
    config = replace(
        make_benchmark(variant=variant, horizon=5),
        buyers=(
            BuyerSpec(income=SupplySchedule.constant(0.3), claim=float("inf")),
            *make_benchmark().buyers[1:],
        ),
    )
    assert both(lambda: run(config)) == [
        ("SimulationError", 1, "round 1: Right assigned is not finite")
    ] * 2


@pytest.mark.parametrize(("variant", "fails_at"), [("rights", 4), ("myopic_rights", 3)])
def test_overflowing_money_fails_both_paths_alike(variant, fails_at):
    # buyer 1's money reaches inf, and the round after, the last one played,
    # its NaN residual must fail the conservation check on every path; a
    # myopic run plays the scalar round, with and without reuse, and its
    # replay on ``batch``
    benchmark = make_benchmark(variant=variant, horizon=fails_at)
    config = replace(
        benchmark,
        buyers=(
            benchmark.buyers[0],
            replace(benchmark.buyers[1], income=SupplySchedule.constant(1e308)),
            benchmark.buyers[2],
        ),
    )
    runs = both(lambda: run(config))
    assert runs[0] == runs[1]
    assert runs[0][:2] == ("SimulationError", fails_at)
    assert "accounting residual money=nan" in runs[0][2]
    # a list with nothing to adjust resumes at the short baseline's last
    # checkpoint, round 2
    _, checkpoints = run_with_checkpoints(replace(config, horizon=1))
    assert outcome(lambda: replay_batch(config, checkpoints, [[]])[0]) == runs[0]


@pytest.mark.parametrize(
    ("variant", "resupply"), [("rights", 1e-310), ("myopic_rights", 5e-324)]
)
def test_a_posted_price_that_overflows_fails_every_path_alike(variant, resupply):
    # 60 buyers, enough for ``wide`` to play the rights run as shipped; a
    # myopic run plays the scalar round, with and without reuse. The
    # resupply drops to a subnormal in round 3, where the price, the buyers'
    # money over their subnormal rights or, in the myopic variant, over the
    # Good on sale, overflows to inf while the residuals stay 0
    config = replace(
        generate_dirichlet_scenario(60, float("inf"), 0, variant=variant, horizon=6),
        sellers=(SellerSpec(SupplySchedule.step(1.0, resupply, 3)),),
    )
    assert config.num_buyers >= engine.WIDE_MIN_BUYERS
    runs = both(lambda: run(config))
    assert runs == [("SimulationError", 3, "round 3: posted price is not finite")] * 2
    # a list with nothing to adjust resumes at the short baseline's last
    # checkpoint, round 2
    _, checkpoints = run_with_checkpoints(replace(config, horizon=1))
    assert outcome(lambda: replay_batch(config, checkpoints, [[]])[0]) == runs[0]
    # the batch kernel fails on its own, before any replay one at a time
    with pytest.raises(SimulationError, match="^round 3: "):
        batch.play_batch(config, checkpoints, [[]])


@pytest.mark.parametrize("num_buyers", [3, 60])
def test_a_right_price_that_overflows_fails_every_path_alike(num_buyers):
    # 60 buyers are enough for ``wide`` as shipped. From round 3 the Good on
    # sale and every income are 1e300 times larger, so the buyers hold
    # Right near 1e298 each and, with money worth so little at a price
    # factor of 1e20, offer nearly all of it at P near 1e20: the Right
    # price, a mean weighted by the Right on sale, overflows to inf while
    # every other check passes. It used to be returned in the trace.
    base = generate_dirichlet_scenario(num_buyers, float("inf"), 0, horizon=5)
    config = replace(
        base,
        sellers=(SellerSpec(SupplySchedule.step(1.0, 1e300, 3)),),
        buyers=tuple(
            replace(b, income=SupplySchedule.step(b.income.args[0], b.income.args[0] * 1e300, 3))
            for b in base.buyers
        ),
        greedy_price_factor=1e20,
    )
    failure = ("SimulationError", 3, "round 3: Right price is not finite")
    assert both(lambda: run(config)) == [failure] * 2
    if num_buyers >= engine.WIDE_MIN_BUYERS:
        assert outcome(lambda: run(config)) == failure
    # a list with nothing to adjust resumes at the short baseline's last
    # checkpoint, round 2
    _, checkpoints = run_with_checkpoints(replace(config, horizon=1))
    assert outcome(lambda: replay_batch(config, checkpoints, [[]])[0]) == failure
    # the batch kernel fails on its own, before any replay one at a time
    with pytest.raises(SimulationError, match="^round 3: Right price is not finite$"):
        batch.play_batch(config, checkpoints, [[], []])


# -- failing runs --------------------------------------------------------------


FAULT_ROUND = 5
FLOW_FIELDS = (
    "good_bought", "right_bought", "money_spent_good", "seller_revenue", "seller_sold",
)


def break_money(flows, money, right):
    flows["seller_revenue"][0] += 0.01


def break_good(flows, money, right):
    flows["seller_sold"][0] -= 0.01


def overspend(*buyers):
    def fault(flows, money, right):
        for b in buyers:
            flows["money_spent_good"][b] = money[b] + 0.5

    return fault


def overbuy(*buyers):
    def fault(flows, money, right):
        for b in buyers:
            flows["good_bought"][b] = right[b] + flows["right_bought"][b] + 0.5

    return fault


def both_faults(*faults):
    def fault(flows, money, right):
        for f in faults:
            f(flows, money, right)

    return fault


def scalar_clear(fault):
    real = engine.clear

    def faulty(offers, bids, state, variant):
        result = real(offers, bids, state, variant)
        if state.round_index != FAULT_ROUND:
            return result
        flows = {name: list(getattr(result, name)) for name in FLOW_FIELDS}
        fault(flows, [b.money for b in state.buyers], [b.right for b in state.buyers])
        return result._replace(**{name: tuple(v) for name, v in flows.items()})

    return faulty


def batch_clear(fault):
    real = batch.clear

    def faulty(volumes, prices, bids, markets, variant):
        result = real(volumes, prices, bids, markets, variant)
        if markets.round_index != FAULT_ROUND:
            return result
        flows = {name: getattr(result, name).copy() for name in FLOW_FIELDS}
        for m in range(len(markets.money)):
            # each row a view, so the fault writes through to ``flows``
            row = {name: v[m] for name, v in flows.items()}
            fault(row, markets.money[m].tolist(), markets.right[m].tolist())
        return result._replace(**flows)

    return faulty


def wide_clear(fault):
    real = wide.clear

    def faulty(offers, bids, market):
        result = real(offers, bids, market)
        if market.round_index != FAULT_ROUND:
            return result
        flows = {name: getattr(result, name).copy() for name in FLOW_FIELDS}
        fault(flows, market.money.tolist(), market.right.tolist())
        return result._replace(**flows)

    return faulty


FAULTS = {
    "money": (break_money, "accounting residual money=0.01 good="),
    "good": (break_good, " good=0.01 exceeds tolerance"),
    "negative": (overspend(2), "buyer 2 money went negative"),
    "over-cap": (overbuy(1), "buyer 1 bought good beyond their rights"),
    "two-over-cap": (overbuy(2, 0), "buyer 0 bought good beyond their rights"),
    "negative-and-over-cap": (
        both_faults(overspend(2), overbuy(0, 1)), "buyer 2 money went negative"
    ),
}


@pytest.mark.parametrize("num_buyers", [3, engine.WIDE_MIN_BUYERS])
@pytest.mark.parametrize("fault", FAULTS)
def test_a_faulty_clearing_fails_both_paths_alike(monkeypatch, fault, num_buyers):
    # a greedy run on ``wide`` and replays on ``batch`` fail as the scalar
    # round does
    breaks, message = FAULTS[fault]
    horizon = 8
    config = make_benchmark(horizon=horizon)
    if num_buyers > 3:
        config = engine.generate_dirichlet_scenario(num_buyers, 20.0, rng_seed=1, horizon=horizon)
    _, checkpoints = run_with_checkpoints(config)
    adjustments = [BidAdjustment(3, ("seller", 0), price_factor=0.9)]
    monkeypatch.setattr(engine, "clear", scalar_clear(breaks))
    monkeypatch.setattr(wide, "clear", wide_clear(breaks))
    monkeypatch.setattr(batch, "clear", batch_clear(breaks))
    for adjusted in ((), adjustments):
        runs = both(lambda: run(config, adjustments=adjusted))
        assert runs[0] == runs[1]
        assert runs[0][:2] == ("SimulationError", FAULT_ROUND)
        assert message in runs[0][2]
        for n in (1, 2, 3):  # resume at rounds 1 to 3, before the deviation
            replay = outcome(lambda: replay_batch(config, checkpoints[:n], [adjusted])[0])
            assert replay == runs[0]


@pytest.mark.parametrize("num_buyers", [3, engine.WIDE_MIN_BUYERS])
def test_a_round_with_no_good_offered_fails_both_paths_alike(num_buyers):
    config = replace(
        engine.generate_dirichlet_scenario(num_buyers, 20.0, rng_seed=2, horizon=10),
        sellers=(SellerSpec(SupplySchedule.step(1.0, 0.0, 3)),),
    )
    runs = both(lambda: run(config))
    assert runs[0] == runs[1] == ("SimulationError", 3, "round 3: no good offered for sale")
    with playing("scalar"):
        _, checkpoints = run_with_checkpoints(replace(config, horizon=2))
    # a list with nothing to adjust resumes at the last checkpoint, round 3
    assert outcome(lambda: replay_batch(config, checkpoints, [()])[0]) == runs[0]


# -- settled rounds ------------------------------------------------------------
#
# The scalar round reuses the price, bids and clearing of one of the last
# ``engine.SETTLED_ROUNDS`` unadjusted rounds that started with the same
# offered volumes and buyer money; ``wide`` and ``batch`` compute every round,
# so they are the oracle, and for a run left to the scalar round, a
# ``myopic_rights`` one included, so is that round with reuse off.

RIGHTS_PRESETS = [
    p for p in cli.list_presets() if cli.load_scenario(p).config.variant != "free_market"
]


@pytest.mark.parametrize("preset", RIGHTS_PRESETS)
def test_a_preset_gives_the_same_trace_on_both_paths(preset):
    config = cli.load_scenario(preset).config
    scalar, wide_ = both(lambda: run(config))
    assert scalar == wide_


def test_a_sweep_writes_the_same_csv_on_both_paths(tmp_path):
    # the sweep's free-market runs are scalar on both paths
    written = []
    for path in PATHS:
        target = tmp_path / f"{path}.csv"
        with playing(path):
            assert cli.main(["sweep", "--sizes", "3:6", "--seeds", "2", "--out", str(target)]) == 0
        written.append(target.read_bytes())
    assert written[0] == written[1]


@st.composite
def settling_markets(draw):
    """A constant-schedule market of 2 to 7 buyers and 1 to 3 sellers, with
    incomes and resupply that each add up to 1, over 30 to 80 rounds, and up
    to eight bid adjustments in its last ten rounds. Greedy play on many of
    them settles into rounds that start as one a few before did."""
    num_buyers = draw(st.integers(2, 7))
    num_sellers = draw(st.integers(1, 3))
    horizon = draw(st.integers(30, 80))
    positive = st.floats(0.01, 1.0)
    claims = draw(st.lists(positive, min_size=num_buyers, max_size=num_buyers))
    incomes = draw(st.lists(positive, min_size=num_buyers, max_size=num_buyers))
    config = MarketConfig(
        sellers=tuple(
            SellerSpec(SupplySchedule.constant(1.0 / num_sellers)) for _ in range(num_sellers)
        ),
        buyers=tuple(
            BuyerSpec(income=SupplySchedule.constant(m / sum(incomes)), claim=d)
            for d, m in zip(claims, incomes)
        ),
        mechanism=draw(mechanisms(num_buyers)),
        variant=draw(st.sampled_from(["rights", "myopic_rights"])),
        horizon=horizon,
    )
    return config, draw(adjustment_lists(config, st.integers(horizon - 9, horizon)))


@settings(deadline=None)
@given(settling_markets())
# round 40's deviation leaves the state as it was, so rounds 41 and 42
# reuse rounds 1 and 2, from before it
@example((
    cli.load_scenario("canonical-rank3-a").config,
    [BidAdjustment(40, ("buyer", 1), right_demand_factor=0.5)],
))
def test_settled_rounds_give_the_same_results(market):
    config, adjustments = market
    scalar, wide_ = both(lambda: run(config))
    assert scalar == wide_
    try:
        _, checkpoints = run_with_checkpoints(config)
    except SimulationError:
        return
    # the replay resumes at its first deviation and plays every round after
    # it on ``batch``
    replay = outcome(lambda: replay_batch(config, checkpoints, [adjustments])[0])
    assert replay == scalar_totals(config, adjustments)


# -- the kernel's pieces (row by row in tests/test_batch.py) ------------------


@settings(deadline=None)
@given(
    st.lists(st.tuples(st.floats(0.0, 2.0), st.one_of(st.just(0.0), st.floats(0.0, 1.0))),
             min_size=1, max_size=60)
)
def test_implicit_price_matches_the_scan(pairs):
    from rightsmarket.errors import PricingError
    from rightsmarket.pricing import solve_implicit_price

    money = [m for m, _ in pairs]
    rights = [r for _, r in pairs]
    try:
        want = solve_implicit_price(money, rights)
    except PricingError as exc:
        with pytest.raises(PricingError, match=re.escape(str(exc))), np.errstate(all="ignore"):
            wide.implicit_price(np.array(money), np.array(rights))
        return
    with np.errstate(all="ignore"):
        got = wide.implicit_price(np.array(money), np.array(rights))
    assert repr(got) == repr(want)


@settings(deadline=None)
@given(st.lists(st.floats(0.0, 5.0), min_size=1, max_size=40), st.floats(0.0, 1.0))
# one holder, with the total below, at and above what it holds, and a NaN
# holding
@example([2.0], 0.25)
@example([2.0], 1.0)
@example([2.0], 1.5)
@example([float("nan")], 0.5)
def test_equal_rate_fill_matches_the_scalar_fill(amounts, share):
    from rightsmarket.core import equal_rate_fill

    total = share * sum(amounts)
    want = equal_rate_fill(amounts, total)
    got = wide._equal_rate_fill(np.array(amounts), total)
    assert repr(got.tolist()) == repr(want)


@given(st.lists(st.floats(-1e8, 1e8), max_size=300))
def test_sum_adds_left_to_right_from_zero(values):
    assert repr(wide._sum(np.array(values, dtype=float))) == repr(float(sum(values)))


def test_sum_of_negative_zeros_is_zero():
    # sum() starts from the integer 0, np.add.accumulate from the first entry
    assert repr(wide._sum(np.array([-0.0, -0.0]))) == repr(sum([-0.0, -0.0])) == "0.0"
