"""Random scenario files through ``simulate`` and ``audit``: bad input
exits 2, a run that fails exits 4, and nothing escapes as a traceback.

Each example draws a scenario dict, with numbers at the edges of the float
range (zero, the smallest subnormal, 1e-300, 1e300, 1e308) as well as
ordinary ones, every schedule kind, variant and mechanism kind, one to four
sellers, one to five buyers and a horizon of at most 8. It writes the dict
as JSON, calls ``cli.main`` in this process and requires exit code 0, 2 or
4 of ``simulate``, and on 0 a CSV whose every field is a finite number,
and exit code 0, 2, 3 or 4 of ``audit``.

    PYTHONPATH=src python -m pytest tests/test_scenario_fuzz.py --hypothesis-profile=ci
"""

import contextlib
import io
import json
import math
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from rightsmarket import batch, cli, engine, wide
from rightsmarket.core import VARIANTS, BuyerSpec, MarketConfig, SellerSpec
from rightsmarket.engine import (
    SCHEDULE_PARAMS,
    WIDE_MIN_BUYERS,
    BidAdjustment,
    SupplySchedule,
    replay_batch,
    run,
    run_with_checkpoints,
)
from rightsmarket.errors import RightsMarketError, SimulationError
from rightsmarket.rights import DistributionMechanism

EDGES = (0.0, 5e-324, 1e-300, 1.0, 1e300, 1e308)

# claims, weights and factors are not negative, and no period or width is
# zero: those exit 2 at parse time, which other tests pin, and here they
# would end most scenarios before any round is played
magnitudes = st.one_of(st.sampled_from(EDGES), st.floats(0.0, 2.0))
numbers = st.one_of(magnitudes, magnitudes.map(lambda x: -x))


def schedules():
    def param(name):
        return numbers.filter(bool) if name in ("period", "width") else numbers

    return st.sampled_from(sorted(SCHEDULE_PARAMS)).flatmap(
        lambda kind: st.fixed_dictionaries(
            {"kind": st.just(kind), **{p: param(p) for p in SCHEDULE_PARAMS[kind]}}
        )
    )


def mechanisms(num_buyers):
    # ranks one past the buyers and weights that do not sum to 1 too, which
    # must exit 2
    ranks = st.integers(1, num_buyers + 1)
    shares = st.lists(st.tuples(st.integers(1, 4), ranks), min_size=1, max_size=3).map(
        lambda parts: [[n / sum(n for n, _ in parts), r] for n, r in parts]
    )
    return st.one_of(
        st.sampled_from([{"kind": "proportional"}, {"kind": "contested_garment"}]),
        st.builds(lambda r: {"kind": "canonical", "rank": r}, ranks),
        st.builds(
            lambda parts: {"kind": "weighted", "components": parts},
            st.one_of(shares, st.lists(st.tuples(magnitudes, ranks).map(list), max_size=3)),
        ),
    )


@st.composite
def scenarios(draw):
    num_buyers = draw(st.integers(1, 5))
    scenario = {
        "name": "fuzz",
        "variant": draw(st.sampled_from(VARIANTS)),
        "horizon": draw(st.integers(1, 8)),
        "mechanism": draw(mechanisms(num_buyers)),
        "sellers": draw(
            st.lists(st.fixed_dictionaries({"resupply": schedules()}), min_size=1, max_size=4)
        ),
        "buyers": draw(
            st.lists(
                st.fixed_dictionaries({"claim": magnitudes, "income": schedules()}),
                min_size=num_buyers,
                max_size=num_buyers,
            )
        ),
    }
    for key in ("seller_storage_cost", "greedy_price_factor"):
        if draw(st.booleans()):
            scenario[key] = draw(magnitudes)
    return scenario


def command(name, scenario):
    """Exit code, stderr and output text of command ``name`` on
    ``scenario``."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "scenario.json", Path(tmp) / "out"
        path.write_text(json.dumps(scenario))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main([name, "--scenario", str(path), "--out", str(out)])
        return code, err.getvalue(), out.read_text() if out.exists() else None


def constant(level):
    return {"kind": "constant", "level": level}


def logistic(high):
    return {"kind": "logistic", "high": high, "rate": 1e-300, "midpoint": 1.0}


RIGHT_PRICE_OVERFLOW = {
    "name": "fuzz",
    "variant": "rights",
    "horizon": 5,
    "mechanism": {"kind": "canonical", "rank": 2},
    "sellers": [{"resupply": logistic(1e300)}, {"resupply": logistic(1e300)}],
    "buyers": [
        {
            "claim": 2.6931805709437023e-70,
            "income": {"kind": "step", "before": 5e-324, "after": -1.0, "switch_round": 1e-300},
        },
        {"claim": 1e-300, "income": logistic(1e300)},
    ],
    "greedy_price_factor": 1e300,
}


def test_an_overflowing_right_price_stops_the_run():
    # the round checks it, so a library caller gets the error ``simulate``
    # reports, not a trace holding inf
    config = cli.parse_scenario(RIGHT_PRICE_OVERFLOW).config
    with pytest.raises(SimulationError, match="^round 1: Right price is not finite$"):
        run(config)
    code, err, csv = command("simulate", RIGHT_PRICE_OVERFLOW)
    assert (code, err, csv) == (
        cli.EXIT_RUNTIME, "simulation failed: round 1: Right price is not finite\n", None
    )


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scenarios())
# the free market's hypothetical Right, 1e308 * 1e308 / 1e308, overflows:
# it used to be written to the CSV as inf with exit 0, and now stops the
# run at round 1 ("Right assigned is not finite")
@example(
    {
        "name": "fuzz",
        "variant": "free_market",
        "horizon": 1,
        "mechanism": {"kind": "proportional"},
        "sellers": [{"resupply": constant(1e308)}],
        "buyers": [{"claim": 1e308, "income": constant(1.0)}],
    }
)
# the Right price, a mean weighted by Right volumes near 1e300, overflows:
# it used to be written as inf with exit 0, and now stops the run
@example(RIGHT_PRICE_OVERFLOW)
# the phase 2 pi t / period of a subnormal period is infinite, and its
# cosine a ``math`` domain error: ``audit`` used to exit 1 with a traceback
@example(
    {
        "name": "fuzz",
        "variant": "rights",
        "horizon": 2,
        "mechanism": {"kind": "proportional"},
        "sellers": [
            {
                "resupply": {
                    "kind": "bullwhip", "base": 1.0, "amplitude": 1.0, "period": 5e-324,
                    "decay": 0.0,
                }
            }
        ],
        "buyers": [{"claim": 1.0, "income": constant(1.0)}],
    }
)
def test_a_scenario_exits_cleanly(scenario):
    code, err, _ = command("audit", scenario)
    assert code in (cli.EXIT_OK, cli.EXIT_PARSE, cli.EXIT_DEVIATION, cli.EXIT_RUNTIME), err
    assert "Traceback" not in err
    code, err, csv = command("simulate", scenario)
    assert code in (cli.EXIT_OK, cli.EXIT_PARSE, cli.EXIT_RUNTIME), err
    assert "Traceback" not in err
    if code == cli.EXIT_OK:
        header, *rows = csv.splitlines()
        assert len(rows) == scenario["horizon"]
        for row in rows:
            fields = row.split(",")
            assert len(fields) == len(header.split(","))
            assert all(math.isfinite(float(x)) for x in fields), row


@pytest.mark.parametrize("wide", [False, True], ids=("scalar", "wide"))
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scenario=scenarios())
def test_a_greedy_trace_rejects_nothing(wide, scenario):
    # ``simulate`` plays every trader greedy, and greedy offers and bids are
    # never rejected: on the scalar round, and on ``wide``, whose ``clear``
    # clears bids as given, once the drawn buyers of a ``rights`` scenario
    # are repeated up to ``WIDE_MIN_BUYERS`` or more (the other variants
    # play the scalar round at any size)
    if wide:
        buyers = scenario["buyers"]
        repeats = -(-WIDE_MIN_BUYERS // len(buyers))
        scenario = {**scenario, "buyers": buyers * repeats}
    try:
        config = cli.parse_scenario(scenario).config
        trace = run(config)
    except RightsMarketError:
        return  # exit 2 or 4
    assert (config.num_buyers >= WIDE_MIN_BUYERS) == wide
    for record in trace.records:
        assert record.rejections == (), record.round_index


def test_a_greedy_trace_rejects_nothing_after_a_seller_sells_out_in_three_fills():
    # drawn by ``test_a_greedy_trace_rejects_nothing`` under the ci profile: a
    # seller's fills over several steps can add up to one ulp more than its
    # offer (round 5: 2.149611899470544 offered, 2.1496118994705444 sold in
    # three fills). The stock update used to leave -4.4e-16, and round 6
    # rejected that seller's greedy offer of its whole stock; settlement now
    # reads the dust as 0.0
    scenario = {
        "name": "fuzz",
        "variant": "myopic_rights",
        "horizon": 6,
        "mechanism": {"kind": "contested_garment"},
        "sellers": [
            {"resupply": {"kind": "logistic", "high": 0.09143945236516916, "rate": 0.0,
                          "midpoint": 0.0}},
            {"resupply": {"kind": "bullwhip", "base": 1.0, "amplitude": 1.25,
                          "period": 1.703125, "decay": 0.0}},
        ],
        "buyers": [
            {"claim": 0.0, "income": {"kind": "constant", "level": 0.0}},
            {"claim": 0.0, "income": {"kind": "constant", "level": 0.0}},
            {"claim": 1e300, "income": {"kind": "constant", "level": 0.0}},
            {"claim": 0.25, "income": {"kind": "linear", "slope": 0.0, "intercept": 1e-300}},
        ],
    }
    trace = run(cli.parse_scenario(scenario).config)
    assert [record.rejections for record in trace.records] == [()] * 6


amounts = st.one_of(st.just(0.0), st.floats(1e-3, 2.0))


@st.composite
def stock_markets(draw, variants):
    """A market of two to five sellers and two to six buyers, with constant
    resupplies and incomes, a variant from ``variants``, a horizon of at
    most 6, and up to six seller price deviations, which part the sellers
    into price levels."""
    ns, nb = draw(st.integers(2, 5)), draw(st.integers(2, 6))
    horizon = draw(st.integers(1, 6))
    mechanism = draw(
        st.one_of(
            st.sampled_from(
                [DistributionMechanism.proportional(), DistributionMechanism.contested_garment()]
            ),
            st.integers(1, nb).map(DistributionMechanism.canonical),
        )
    )
    config = MarketConfig(
        sellers=tuple(SellerSpec(SupplySchedule.constant(draw(amounts))) for _ in range(ns)),
        buyers=tuple(
            BuyerSpec(income=SupplySchedule.constant(draw(amounts)), claim=draw(amounts))
            for _ in range(nb)
        ),
        mechanism=mechanism,
        variant=draw(st.sampled_from(variants)),
        horizon=horizon,
    )
    moves = st.builds(
        lambda tau, s, factor: BidAdjustment(tau, ("seller", s), price_factor=factor),
        st.integers(1, horizon), st.integers(0, ns - 1), st.floats(0.5, 1.5),
    )
    return config, draw(st.lists(moves, max_size=6))


# the variants each kernel plays: ``wide`` plays greedy ``rights`` markets
# without deviations, ``batch`` replays both rights variants
KERNEL_VARIANTS = {"scalar": VARIANTS, "wide": ("rights",), "batch": ("rights", "myopic_rights")}


@pytest.mark.parametrize("kernel", sorted(KERNEL_VARIANTS))
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_no_seller_stock_goes_below_zero(kernel, data):
    # a seller's fills can add up to an ulp more than its offer; settlement
    # reads the dust as 0.0 on every kernel, so no round leaves a seller
    # below 0.0
    config, moves = data.draw(stock_markets(KERNEL_VARIANTS[kernel]))
    lowest = []
    with pytest.MonkeyPatch.context() as mp:
        if kernel == "scalar":
            # the scalar rounds hand the settled state to ``consumed_utility``
            utility = engine.consumed_utility

            def spy(state, config):
                lowest.append(min(s.good for s in state.sellers))
                return utility(state, config)

            mp.setattr(engine, "consumed_utility", spy)
        else:
            module = wide if kernel == "wide" else batch
            settle = module.settle

            def spy(market, *args):
                paid = settle(market, *args)
                lowest.append(float(market.seller_good.min()))
                return paid

            mp.setattr(module, "settle", spy)
        try:
            if kernel == "scalar":
                run(config, adjustments=moves)
            elif kernel == "wide":
                repeats = -(-WIDE_MIN_BUYERS // config.num_buyers)
                run(replace(config, buyers=config.buyers * repeats))
            else:
                _, checkpoints = run_with_checkpoints(config)
                lowest.clear()
                replay_batch(config, checkpoints, [moves])
        except RightsMarketError:
            pass
    assert not any(x < 0.0 for x in lowest), lowest
