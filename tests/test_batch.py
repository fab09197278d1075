"""Batches of replays against the scalar round, bit for bit.

``engine.replay_batch`` plays every list of adjustments as a row of one
lockstep pass of ``batch.play_batch``, whatever the number of lists, each
row joining the pass at its first adjusted round, from the all-greedy
baseline's checkpoint there. These tests require the ``repr`` of every
list's totals to equal that of the scalar ``run`` of its adjustments, from
baselines of the config set to any horizon; when one of them fails, the
batch must raise
the first failure, in list order, of those runs, having played the lists
again one at a time up to it. The kernel's pieces, and the column layer
it shares with ``wide``, are compared with their scalar counterparts row
by row, and with ``wide``'s one-market forms, on batches of one to five
rows.

    PYTHONPATH=src python -m pytest tests/test_batch.py --hypothesis-profile=ci
"""

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rightsmarket import batch, mechanism, wide
from rightsmarket.analysis import Deviation, audit_coalition
from rightsmarket.cli import load_scenario
from rightsmarket.core import equal_rate_fill
from rightsmarket.engine import BidAdjustment, replay_batch, run_with_checkpoints
from rightsmarket.errors import ConfigError, PricingError, SimulationError
from rightsmarket.mechanism import SellerOffer
from rightsmarket.pricing import greedy_buyer_bids, mean_posted_price, solve_implicit_price

from test_clear_oracle import clear_batch, market
from test_wide import adjustment_lists, markets, outcome, playing, scalar_totals


@st.composite
def batches(draw):
    """A config, the number of its baseline's checkpoints to pass, one to
    all of them, and one to six adjustment lists."""
    config, first = draw(markets(buyer_counts=(2, 3, 7)))
    lists = [first] + draw(st.lists(adjustment_lists(config), max_size=5))
    return config, draw(st.integers(1, config.horizon + 1)), lists


def scalar_replays(config, lists):
    """What ``replay_batch`` of ``lists`` to the horizon must return, from
    the baseline's checkpoints, and the ``play_batch`` calls it must make:
    the totals of each list's scalar ``run`` in one call, or else the first
    of those runs' errors, after one more call per list up to the failing
    one."""
    runs = [scalar_totals(config, a) for a in lists]
    for i, run_ in enumerate(runs):
        if run_[0] == "SimulationError":
            return run_, 2 + i
    # ``repr`` of the list of totals
    return "[" + ", ".join(runs) + "]", 1


def counting_play_batch(mp):
    """Count the calls of ``batch.play_batch`` in a list."""
    calls = []
    real = batch.play_batch

    def spy(*args):
        calls.append(True)
        return real(*args)

    mp.setattr(batch, "play_batch", spy)
    return calls


@settings(deadline=None)
@given(batches())
def test_a_batch_equals_its_replays_one_at_a_time(case):
    config, n, lists = case
    with playing("scalar"):
        try:
            _, checkpoints = run_with_checkpoints(config)
        except SimulationError:
            return
    # the first n checkpoints: each list resumes at round n at the latest
    checkpoints = checkpoints[:n]
    alone, played = scalar_replays(config, lists)

    def one_at_a_time():
        return [replay_batch(config, checkpoints, [a])[0] for a in lists]

    assert outcome(one_at_a_time) == alone

    with playing("wide"), pytest.MonkeyPatch.context() as mp:
        calls = counting_play_batch(mp)
        together = outcome(lambda: replay_batch(config, checkpoints, lists))
    assert together == alone
    assert len(calls) == played


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


@st.composite
def staggered_batches(draw):
    """A config and two to six adjustment lists with rounds from 0 to one
    past the horizon, so that the lists resume at different rounds, the one
    past the horizon included."""
    config, _ = draw(markets(buyer_counts=(2, 3, 7)))
    rounds = st.integers(0, config.horizon + 1)
    return config, draw(st.lists(adjustment_lists(config, rounds), min_size=2, max_size=6))


@settings(deadline=None)
@given(staggered_batches())
def test_lists_that_resume_at_different_rounds_play_in_one_pass(case):
    config, lists = case
    with playing("scalar"):
        try:
            _, checkpoints = run_with_checkpoints(config)
        except SimulationError:
            return
    alone, played = scalar_replays(config, lists)

    with playing("wide"), pytest.MonkeyPatch.context() as mp:
        calls = counting_play_batch(mp)
        together = outcome(lambda: replay_batch(config, checkpoints, lists))
    assert together == alone
    # one pass, unless a list fails
    assert len(calls) == played


@st.composite
def replays(draw):
    """A config, a baseline horizon from 1 to twice the config's, and one
    to six adjustment lists with rounds from 0 to one past the config's
    horizon, the last of them with no round inside it."""
    config, _ = draw(markets(buyer_counts=(2, 3, 7)))
    T = config.horizon
    lists = draw(st.lists(adjustment_lists(config, st.integers(0, T + 1)), max_size=5))
    outside = draw(adjustment_lists(config, st.sampled_from([0, T + 1])))
    return config, draw(st.integers(1, 2 * T)), lists + [outside]


# a config of 8 rounds and two lists: one deviates in round 6, and one only
# in round 9, outside the horizon, so it plays no round
EIGHT_ROUNDS = (
    replace(load_scenario("scenario-a-proportional").config, horizon=8),
    [[BidAdjustment(6, ("seller", 0), price_factor=0.9)],
     [BidAdjustment(9, ("buyer", 1), price_factor=1.1)]],
)


@settings(deadline=None)
@given(replays())
# from baselines of 3 and 12 rounds: the first list resumes at the short
# one's last checkpoint, round 4, and at round 6 of the long one
@example((EIGHT_ROUNDS[0], 3, EIGHT_ROUNDS[1]))
@example((EIGHT_ROUNDS[0], 12, EIGHT_ROUNDS[1]))
def test_a_replay_from_a_baseline_of_any_horizon_equals_its_run(case):
    # result k is what ``run(config, adjustments=lists[k])`` gives, whether
    # the baseline, the config set to another horizon, is shorter than its
    # T, as long or longer
    config, base_horizon, lists = case
    T = config.horizon
    with playing("scalar"):
        try:
            _, checkpoints = run_with_checkpoints(replace(config, horizon=base_horizon))
        except SimulationError:
            return
    alone, _ = scalar_replays(config, lists)
    assert outcome(lambda: replay_batch(config, checkpoints, lists)) == alone
    for adjustments in lists:
        replay = outcome(lambda: replay_batch(config, checkpoints, [adjustments])[0])
        assert replay == scalar_totals(config, adjustments)
    if base_horizon >= T:
        # the list with nothing to adjust in rounds 1 to T plays no round:
        # it returns the baseline's totals after round T, checkpoint T's
        base = checkpoints[T]
        [totals] = replay_batch(config, checkpoints, lists[-1:])
        assert totals == (base.seller_utilities, base.buyer_utilities)


@pytest.mark.parametrize("early_fails_at", [4, None])
def test_a_failing_list_that_joins_late_raises_its_own_error(early_fails_at):
    # the first list withholds all of seller 0's Good in round 6, where it
    # resumes, so nothing is offered; the second resumes at round 2 and
    # fails the same way in round 4, or does not fail. One replay at a time
    # fails on the first list, and so must the one pass.
    config = replace(load_scenario("scenario-a-proportional").config, horizon=8)
    _, checkpoints = run_with_checkpoints(config)
    withhold = -max(config.resupply_at(r)[0] for r in range(1, 9))
    late = [BidAdjustment(6, ("seller", 0), volume_delta=withhold)]
    early = [BidAdjustment(2, ("buyer", 0), price_factor=1.1)]
    if early_fails_at:
        early.append(BidAdjustment(early_fails_at, ("seller", 0), volume_delta=withhold))
    failure = ("SimulationError", 6, "round 6: no good offered for sale")
    assert scalar_totals(config, late) == failure
    with playing("wide"), pytest.MonkeyPatch.context() as mp:
        calls = counting_play_batch(mp)
        with pytest.raises(SimulationError, match="^round 6: no good offered for sale$"):
            replay_batch(config, checkpoints, [late, early])
    # the pass, then the first list on its own
    assert calls == [True, True]


def test_a_call_with_no_lists_plays_nothing():
    config = replace(load_scenario("scenario-a-proportional").config, horizon=4)
    with pytest.MonkeyPatch.context() as mp:
        calls = counting_play_batch(mp)
        assert replay_batch(config, [], []) == []
    assert calls == []


def test_a_replay_without_checkpoints_is_a_config_error():
    # it used to raise an IndexError from ``play_batch``
    config = replace(load_scenario("scenario-a-proportional").config, horizon=4)
    with pytest.raises(ConfigError, match="^a replay needs at least one checkpoint"):
        replay_batch(config, (), [[]])


def test_a_free_market_replay_is_a_config_error():
    # its round ignores deviations, and ``batch`` plays only rights variants
    config = replace(load_scenario("scenario-a-proportional").config, horizon=4)
    _, checkpoints = run_with_checkpoints(config)
    free = replace(config, variant="free_market")
    with pytest.raises(ConfigError, match="^variant 'free_market' cannot be replayed"):
        replay_batch(free, checkpoints, [[]])


def test_a_coalition_audit_of_three_trials_plays_on_batch():
    # as shipped: no constant moved; one pass plays all three trials
    config = load_scenario("scenario-a-proportional").config
    coalition = [("seller", 0), ("buyer", 2)]
    with pytest.MonkeyPatch.context() as mp:
        calls = counting_play_batch(mp)
        report = audit_coalition(config, 40, coalition)
    assert len(report.tested) == 3
    assert calls == [True]


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


def sell_row_by_row(prices, held, steps, credited):
    """Sell ``steps[k][m]`` from row m's cheapest level at step k, in the
    ``Columns`` of the rows and in each row's ``Levels``, a volume of 0.0
    selling nothing, and require every row to hold what its book holds after
    each step: the cheapest level, its price and supply, and each holder's
    remaining, sold, revenue and, when ``credited``, credit."""
    columns = batch.Columns(prices, held.copy())
    books = [mechanism.Levels(p.tolist(), h.tolist()) for p, h in zip(prices, held)]
    credit = np.ones(held.shape) if credited else None
    credits = [[1.0] * held.shape[1] if credited else None for _ in books]
    for k in range(len(steps) + 1):
        supply = columns.supply()
        for m, book in enumerate(books):
            assert columns.has_level[m] == bool(book.levels)
            if book.levels:
                price, held_m = book.cheapest()
                assert columns.level[m].nonzero()[0].tolist() == book.levels[-1]
                assert repr(float(columns.price_level[m])) == repr(price)
                assert repr(float(supply[m])) == repr(held_m)
            for name in ("remaining", "sold", "revenue"):
                assert repr(getattr(columns, name)[m].tolist()) == repr(getattr(book, name))
            if credited:
                assert repr(credit[m].tolist()) == repr(credits[m])
        if k == len(steps):
            return
        volume = np.array(steps[k])
        go = columns.has_level & (volume > 0.0)
        for m, book in enumerate(books):
            if go[m]:
                book.sell(book.cheapest()[0], float(volume[m]), credits[m])
        columns.sell(go, volume, credit)


# each book's prices and holdings, padded to five holders with empty ones,
# and the volume it sells at each step
BOOK_SCRIPTS = (
    # levels in holder order, cheapest last; 2**-40 is at most EQ_TOL
    ([0.5, 0.25, 0.5, 0.25, 0.75], [1.0, 0.5, 0.25, 2**-40, 0.5], [0.5, 0.75, 0.5]),
    # a level of -0.0 and 0.0 trades at its first live holder's price
    ([0.0, -0.0, 0.5, 0.0, 0.0], [0.25, 0.5, 1.0, 0.0, 0.0], [0.5, 0.25, 0.5]),
    ([-0.0, 0.0, 0.5, 0.0, 0.0], [0.25, 0.5, 1.0, 0.0, 0.0], [0.5, 0.25, 0.5]),
    # a one-holder level left with 2**-40 is popped, with 2**-39 it is not
    ([0.5, 0.25, 0.0, 0.0, 0.0], [1.0, 0.5 + 2**-40, 0.0, 0.0, 0.0], [0.5, 0.5]),
    ([0.5, 0.25, 0.0, 0.0, 0.0], [1.0, 0.5 + 2**-39, 0.0, 0.0, 0.0], [0.5, 2**-39, 0.5]),
)


@pytest.mark.parametrize("credited", [False, True], ids=("rights", "myopic-credit"))
def test_columns_hold_the_hand_built_books_row_by_row(credited):
    prices = np.array([script[0] for script in BOOK_SCRIPTS])
    held = np.array([script[1] for script in BOOK_SCRIPTS])
    steps = [[script[2][k] if k < len(script[2]) else 0.0 for script in BOOK_SCRIPTS]
             for k in range(3)]
    with np.errstate(all="ignore"):
        sell_row_by_row(prices, held, steps, credited)


@settings(deadline=None)
@given(
    rows(st.tuples(st.sampled_from([0.0, -0.0, 0.25, 0.5]),
                   st.sampled_from([0.0, 0.25, 0.5, 1.0, 2**-40, 2**-39, 0.5 + 2**-40])), 1, 6),
    st.lists(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=5, max_size=5),
             max_size=8),
    st.booleans(),
)
def test_columns_sell_as_levels_do_row_by_row(cells, shares, credited):
    # each step sells a share of every row's cheapest level, all of it or none
    prices = np.array([[p for p, _ in row] for row in cells])
    held = np.array([[h for _, h in row] for row in cells])
    steps = []
    with np.errstate(all="ignore"):
        columns = batch.Columns(prices, held.copy())
        for share in shares:
            volume = np.array(share[:len(cells)]) * columns.supply()
            columns.sell(columns.has_level & (volume > 0.0), volume)
            steps.append(volume.tolist())
        sell_row_by_row(prices, held, steps, credited)


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
     "RIGHT_PRICE", "greedy_bids", "mean_price", "rights_row", "settle", "WideState",
     "offer_volumes", "transition"],
)
def test_the_column_layer_is_shared_with_wide(name):
    # one definition each: a rule fixed in one kernel is fixed in both
    assert getattr(batch, name) is getattr(wide, name)
