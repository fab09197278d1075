"""Batches of replays against replays one at a time, bit for bit.

``engine.replay_batch`` plays the replays that resume at one checkpoint as
the rows of ``batch.play_batch``'s arrays once replays x buyers reaches
``engine.WIDE_MIN_BUYERS``. These tests lower that constant to 1, so that
every batch of replays of a small market, a batch of one included, goes to
the batch kernel, and require the ``repr`` of every total to equal that of the
replays one at a time on the scalar round; when one of them fails, the
batch must raise the first failure of the replays one at a time. The
kernel's pieces, and the column layer it shares with ``wide``, are
compared with their scalar counterparts row by row, and with ``wide``'s
one-market forms, on batches of one to five rows.

    PYTHONPATH=src python -m pytest tests/test_batch.py --hypothesis-profile=ci
"""

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rightsmarket import batch, mechanism, wide
from rightsmarket.analysis import Deviation, audit_coalition
from rightsmarket.cli import load_scenario
from rightsmarket.core import equal_rate_fill
from rightsmarket.engine import replay_batch, replay_from, run_with_checkpoints
from rightsmarket.errors import PricingError, SimulationError
from rightsmarket.mechanism import SellerOffer
from rightsmarket.pricing import greedy_buyer_bids, mean_posted_price, solve_implicit_price

from test_clear_oracle import clear_batch, market
from test_wide import adjustment_lists, markets, outcome, playing


@st.composite
def batches(draw):
    """A config, a checkpoint index and one to six adjustment lists."""
    config, first = draw(markets(buyer_counts=(2, 3, 7)))
    lists = [first] + draw(st.lists(adjustment_lists(config), max_size=5))
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


def rows(cell, min_width, max_width):
    """One to five rows of one width, from ``min_width`` to ``max_width``
    cells drawn from ``cell``: a batch of M markets, M = 1 among them."""
    return st.integers(min_width, max_width).flatmap(
        lambda n: st.lists(st.lists(cell, min_size=n, max_size=n), min_size=1, max_size=5)
    )


@settings(deadline=None)
@given(rows(st.tuples(st.floats(0.0, 2.0), st.one_of(st.just(0.0), st.floats(0.0, 1.0))), 1, 60))
def test_implicit_price_matches_the_scan_row_by_row(cells):
    # each row on wide's one-market form too, which raises the scan's error
    money = np.array([[m for m, _ in row] for row in cells])
    rights = np.array([[r for _, r in row] for row in cells])
    want = []
    for m, r in zip(money, rights):
        try:
            want.append(solve_implicit_price(m.tolist(), r.tolist()))
        except PricingError as exc:
            with pytest.raises(PricingError, match=re.escape(str(exc))), np.errstate(all="ignore"):
                wide.implicit_price(m, r)
            # a row that fails the scan fails the batch
            with pytest.raises(PricingError), np.errstate(all="ignore"):
                batch.implicit_price(money, rights)
            return
        with np.errstate(all="ignore"):
            assert repr(wide.implicit_price(m, r)) == repr(want[-1])
    with np.errstate(all="ignore"):
        got = batch.implicit_price(money, rights)
    assert repr(got.tolist()) == repr(want)


@settings(deadline=None)
@given(
    rows(st.tuples(st.floats(0.0, 5.0), st.booleans()), 1, 40),
    st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5),
)
def test_equal_rate_fill_matches_the_scalar_fill_row_by_row(cells, shares):
    # each row's members on wide's one-market form too
    held = np.array([[a for a, _ in row] for row in cells])
    members = np.array([[member for _, member in row] for row in cells])
    # a share of the members' holdings, as a clearing step takes
    total = np.array([share * sum(h[chosen].tolist()) for h, chosen, share in zip(
        held, members, shares)])
    with np.errstate(all="ignore"):
        got = batch._equal_rate_fill(held, members, total)
    for m in range(len(cells)):
        want = [0.0] * held.shape[1]
        chosen = members[m].nonzero()[0].tolist()
        if chosen:
            fill = equal_rate_fill(held[m, chosen].tolist(), float(total[m]))
            assert repr(wide._equal_rate_fill(held[m, chosen], float(total[m])).tolist()) == repr(
                fill
            )
            for b, v in zip(chosen, fill):
                want[b] = v
        assert repr(got[m].tolist()) == repr(want)


@given(rows(st.floats(-1e8, 1e8), 0, 300))
def test_sum_adds_each_row_left_to_right_from_zero(cells):
    # an empty row sums to 0.0; one column sums to a float, as records need
    a = np.array(cells, dtype=float).reshape(len(cells), -1)
    want = [float(sum(row)) for row in cells]
    assert repr(batch._sum(a).tolist()) == repr(want)
    for row, total in zip(a, want):
        got = wide._sum(row)
        assert type(got) is float and repr(got) == repr(total)


def test_sum_of_negative_zeros_is_zero():
    # sum() starts from the integer 0, np.add.accumulate from the first entry
    assert repr(batch._sum(np.array([[-0.0, -0.0]])).tolist()) == "[0.0]"


@given(rows(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(0.0, 10.0)), 1, 30))
def test_mean_price_is_the_mean_posted_price(cells):
    prices = np.array(cells)
    want = [mean_posted_price([SellerOffer(1.0, p) for p in row]) for row in cells]
    assert repr(wide.mean_price(prices).tolist()) == repr(want)
    assert repr([wide.mean_price(row) for row in prices]) == repr(want)


def test_mean_price_of_equal_prices_is_the_mean_posted_price():
    # ten offers whose float mean rounds one ulp below their price
    # (``tests/test_pricing.py``): a fix to either P must land in both
    prices = np.full(10, 1.0001748401014516)
    want = mean_posted_price([SellerOffer(0.1, p) for p in prices.tolist()])
    assert repr(wide.mean_price(prices)) == repr(want)
    assert repr(wide.mean_price(prices[None]).tolist()) == repr([want])


@settings(deadline=None)
@given(
    rows(st.tuples(st.one_of(st.just(0.0), st.floats(0.0, 2.0)), st.floats(0.0, 1.0)), 1, 8),
    st.lists(st.sampled_from([0.0, -0.0, 0.5, 1.0, 1.3, float("nan")]), min_size=5, max_size=5),
    st.floats(0.01, 2.0),
    st.sampled_from(["rights", "myopic_rights"]),
)
def test_greedy_bids_match_the_scalar_bids_row_by_row(cells, prices, offered, variant):
    # P not positive, NaN included, takes the free-Good branch in any row
    money = np.array([[m for m, _ in row] for row in cells])
    rights = np.array([[r for _, r in row] for row in cells])
    price = np.array(prices[: len(cells)])[:, None]
    with np.errstate(all="ignore"):
        got = wide.greedy_bids(price, np.full(price.shape, offered), money, rights, variant)
        for m, (p, mm, r) in enumerate(zip(prices, money, rights)):
            want = greedy_buyer_bids(p, offered, mm.tolist(), r.tolist(), variant)
            assert repr(got[:, m].T.tolist()) == repr([list(bid) for bid in want])
            one = wide.greedy_bids(p, offered, mm, r, variant)
            assert repr(one.tolist()) == repr(got[:, m].tolist())


@pytest.mark.parametrize(
    "name",
    ["_sum", "_positive", "OFFER", "OFFER_PRICE", "GOOD_CAP", "GOOD_PRICE", "RIGHT_CAP",
     "RIGHT_PRICE", "greedy_bids", "mean_price", "rights_row", "settle"],
)
def test_the_column_layer_is_shared_with_wide(name):
    # one definition each: a rule fixed in one kernel is fixed in both
    assert getattr(batch, name) is getattr(wide, name)
