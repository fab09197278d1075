"""Batches of replays against replays one at a time, bit for bit.

``engine.replay_batch`` plays the replays that resume at one checkpoint as
the rows of ``batch.play_batch``'s arrays once replays x buyers reaches
``engine.WIDE_MIN_BUYERS``. These tests lower that constant to 1, so that
every batch of two or more replays of a small market goes to the batch
kernel, and require the ``repr`` of every total to equal that of the
replays one at a time on the scalar round; when one of them fails, the
batch must raise the first failure of the replays one at a time. The
kernel's pieces are compared with their scalar counterparts as well.

    PYTHONPATH=src python -m pytest tests/test_batch.py --hypothesis-profile=ci
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rightsmarket import batch, mechanism
from rightsmarket.analysis import Deviation, audit_coalition
from rightsmarket.cli import load_scenario
from rightsmarket.core import equal_rate_fill
from rightsmarket.engine import replay_batch, replay_from, run_with_checkpoints
from rightsmarket.errors import PricingError, SimulationError
from rightsmarket.pricing import solve_implicit_price

from test_clear_oracle import clear_batch, market
from test_wide import adjustment_lists, markets, outcome, playing


@st.composite
def batches(draw):
    """A config, a checkpoint index and two to six adjustment lists."""
    config, first = draw(markets(buyer_counts=(2, 3, 7)))
    lists = [first] + draw(st.lists(adjustment_lists(config), min_size=1, max_size=5))
    return config, draw(st.integers(0, config.horizon - 1)), lists


@settings(deadline=None)
@given(batches())
def test_a_batch_equals_its_replays_one_at_a_time(case):
    config, k, lists = case
    with playing("scalar"):
        try:
            _, checkpoints = run_with_checkpoints(config)
        except SimulationError:
            return
        checkpoint = checkpoints[k]
        # a replay from checkpoint k plays rounds k + 1 on
        lists = [[a for a in adjustments if a.round_index > k] for adjustments in lists]
        alone = outcome(lambda: [replay_from(config, checkpoint, config.horizon, a) for a in lists])

    failed = []
    real = batch.play_batch

    def spy(*args):
        try:
            return real(*args)
        except SimulationError:
            failed.append(True)
            raise

    with playing("wide"), pytest.MonkeyPatch.context() as mp:
        mp.setattr(batch, "play_batch", spy)
        together = outcome(lambda: replay_batch(config, checkpoint, config.horizon, lists))
    assert together == alone
    # the batch kernel played them all, unless one of them fails
    assert failed == [] or alone[0] == "SimulationError"


def test_the_first_failing_trial_fails_the_audit():
    # both trials reprice buyer 0's Right in round 2 and then withhold all
    # of seller 0's Good, so nothing is offered: trial B in round 4, trial
    # A, first in trial order, in round 6; one replay at a time fails on A
    config = replace(load_scenario("scenario-a-proportional").config, horizon=8)
    joint = [
        (Deviation("buyer_price", 0, 2, 0.1), Deviation("seller_withhold", 0, r, 1.0))
        for r in (6, 4)
    ]
    with playing("wide"):
        with pytest.raises(SimulationError, match="^round 6: no good offered for sale$"):
            audit_coalition(config, coalition=[("buyer", 0), ("seller", 0)], joint_grid=joint)


# -- the kernel's pieces -------------------------------------------------------


@settings(deadline=None)
@given(st.lists(market(), min_size=1, max_size=4), st.sampled_from(["rights", "myopic_rights"]))
def test_a_batch_clears_each_market_as_clear_does(markets, variant):
    for m, row in enumerate(clear_batch(markets, variant)):
        # ``repr`` tells -0.0 from 0.0, and lists every rejection reason
        assert repr(row) == repr(mechanism.clear(*markets[m], variant))


@settings(deadline=None)
@given(
    st.lists(
        st.lists(
            st.tuples(st.floats(0.0, 2.0), st.one_of(st.just(0.0), st.floats(0.0, 1.0))),
            min_size=4, max_size=4,
        ),
        min_size=1, max_size=5,
    )
)
def test_implicit_price_matches_the_scan_row_by_row(rows):
    money = np.array([[m for m, _ in row] for row in rows])
    rights = np.array([[r for _, r in row] for row in rows])
    want = []
    for m, r in zip(money.tolist(), rights.tolist()):
        try:
            want.append(solve_implicit_price(m, r))
        except PricingError:
            # a row that fails the scan fails the batch
            with pytest.raises(PricingError), np.errstate(all="ignore"):
                batch.implicit_price(money, rights)
            return
    with np.errstate(all="ignore"):
        got = batch.implicit_price(money, rights)
    assert repr(got.tolist()) == repr(want)


@settings(deadline=None)
@given(
    st.lists(
        st.tuples(
            st.lists(st.tuples(st.floats(0.0, 5.0), st.booleans()), min_size=6, max_size=6),
            st.floats(0.0, 1.0),
        ),
        min_size=1, max_size=5,
    )
)
def test_equal_rate_fill_matches_the_scalar_fill_row_by_row(rows):
    held = np.array([[a for a, _ in row] for row, _ in rows])
    members = np.array([[member for _, member in row] for row, _ in rows])
    # a share of the members' holdings, as a clearing step takes
    total = np.array([share * sum(h[chosen].tolist()) for h, chosen, (_, share) in zip(
        held, members, rows)])
    with np.errstate(all="ignore"):
        got = batch._equal_rate_fill(held, members, total)
    for m in range(len(rows)):
        want = [0.0] * held.shape[1]
        chosen = members[m].nonzero()[0].tolist()
        if chosen:
            for b, v in zip(chosen, equal_rate_fill(held[m, chosen].tolist(), float(total[m]))):
                want[b] = v
        assert repr(got[m].tolist()) == repr(want)


@given(st.lists(st.lists(st.floats(-1e8, 1e8), min_size=3, max_size=3), min_size=1, max_size=4))
def test_sum_adds_each_row_left_to_right_from_zero(rows):
    assert repr(batch._sum(np.array(rows)).tolist()) == repr([float(sum(row)) for row in rows])


def test_sum_of_negative_zeros_is_zero():
    # sum() starts from the integer 0, np.add.accumulate from the first entry
    assert repr(batch._sum(np.array([[-0.0, -0.0]])).tolist()) == "[0.0]"
