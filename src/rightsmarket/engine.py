"""The repeated-market loop: distribution, trading, transition.

Each round, sellers post offers, the distribution mechanism turns the
offered volume into per-buyer rights, buyers bid, the two-stage mechanism
clears, metrics are recorded and the transition carries state to the next
round. Three variants share the loop: "rights" (the hybrid system),
"free_market" (no rights, price = total money / offered volume) and
"myopic_rights" (right-sale proceeds spendable in the same round).

The scalar round here is the reference. Two numpy kernels play the same
rounds bit for bit, each for one job: ``wide`` plays all-greedy
``rights`` runs of ``WIDE_MIN_BUYERS`` buyers or more, and ``batch``
plays every replay of ``replay_batch`` of either rights variant, whatever
its size, one market per row, each from the baseline's checkpoint at its
first deviating round. Smaller runs, runs with adjustments or
checkpoints, ``myopic_rights`` runs and ``free_market`` stay here.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

from .core import (
    CONSERVATION_TOL,
    EQ_TOL,
    BuyerSpec,
    MarketConfig,
    MarketState,
    SellerSpec,
    SellerState,
    apply_transition,
    consumed_utility,
    initial_state,
)
from .errors import ConfigError, ConservationError, SimulationError
from .mechanism import Rejection, SellerOffer, clear, useful_useless_split
from .pricing import (
    free_market_clearing_price,
    greedy_buyer_bid,  # noqa: F401  kept importable: perfbench's tracer patches ``engine.greedy_buyer_bid``
    greedy_buyer_bids,
    mean_posted_price,
    mechanism_rights,
    posted_greedy_price,
)
# ``allocate`` kept importable: perfbench's tracer patches ``engine.allocate``
from .rights import DistributionMechanism, allocate  # noqa: F401

SCHEDULE_PARAMS: dict[str, tuple[str, ...]] = {
    "constant": ("level",),
    "cosine": ("amplitude", "period", "offset"),
    "linear": ("slope", "intercept"),
    "step": ("before", "after", "switch_round"),
    "logistic": ("high", "rate", "midpoint"),
    "bullwhip": ("base", "amplitude", "period", "decay"),
    "hubbert": ("peak", "width", "center"),
}


@dataclass(frozen=True)
class SupplySchedule:
    """Deterministic per-round amount for seller resupply or buyer income.

    Emitted values are clamped at zero. Parameter meaning per kind is listed
    in ``SCHEDULE_PARAMS``; use the classmethod constructors. Parameters must
    be finite, and a period or width non-zero. A logistic or hubbert value
    whose exponential overflows is below 1e-150 of its height and reads as
    zero. Any other value that is not finite, such as a ``linear`` slope
    times the round that overflows to infinity or a bullwhip whose
    exponential overflows, is a ``ConfigError`` naming the round.
    """

    kind: str
    args: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.kind not in SCHEDULE_PARAMS:
            raise ConfigError(f"unknown schedule kind {self.kind!r}")
        params = SCHEDULE_PARAMS[self.kind]
        if len(self.args) != len(params):
            raise ConfigError(
                f"schedule {self.kind!r} takes {len(params)} parameters, got {len(self.args)}"
            )
        named = dict(zip(params, self.args))
        for name, value in named.items():
            if not math.isfinite(value):
                raise ConfigError(f"schedule {self.kind!r}: {name} must be finite, got {value!r}")
        # value_at divides by these
        for name in ("period", "width"):
            if named.get(name) == 0.0:
                raise ConfigError(f"schedule {self.kind!r}: {name} must be non-zero")

    @classmethod
    def constant(cls, level: float) -> "SupplySchedule":
        return cls("constant", (float(level),))

    @classmethod
    def cosine(cls, amplitude: float, period: float, offset: float) -> "SupplySchedule":
        return cls("cosine", (float(amplitude), float(period), float(offset)))

    @classmethod
    def linear(cls, slope: float, intercept: float) -> "SupplySchedule":
        return cls("linear", (float(slope), float(intercept)))

    @classmethod
    def step(cls, before: float, after: float, switch_round: int) -> "SupplySchedule":
        return cls("step", (float(before), float(after), float(switch_round)))

    @classmethod
    def logistic(cls, high: float, rate: float, midpoint: float) -> "SupplySchedule":
        return cls("logistic", (float(high), float(rate), float(midpoint)))

    @classmethod
    def bullwhip(
        cls, base: float, amplitude: float, period: float, decay: float
    ) -> "SupplySchedule":
        return cls("bullwhip", (float(base), float(amplitude), float(period), float(decay)))

    @classmethod
    def hubbert(cls, peak: float, width: float, center: float) -> "SupplySchedule":
        return cls("hubbert", (float(peak), float(width), float(center)))

    def value_at(self, round_index: int) -> float:
        if round_index < 1:
            raise ConfigError("round index starts at 1")
        t = float(round_index)
        k = self.kind
        a = self.args
        if k == "constant":
            v = a[0]
        elif k == "cosine":
            amplitude, period, offset = a
            try:
                v = amplitude * math.cos(2.0 * math.pi * t / period) + offset
            except ValueError:  # an infinite phase
                v = math.inf
        elif k == "linear":
            slope, intercept = a
            v = slope * t + intercept
        elif k == "step":
            before, after, switch_round = a
            v = before if t < switch_round else after
        elif k == "logistic":
            high, rate, midpoint = a
            try:
                v = high / (1.0 + math.exp(-rate * (t - midpoint)))
            except OverflowError:
                v = 0.0
        elif k == "bullwhip":
            base, amplitude, period, decay = a
            try:
                v = base + amplitude * math.cos(2.0 * math.pi * t / period) * math.exp(-decay * t)
            except (OverflowError, ValueError):  # ValueError: an infinite phase
                v = math.inf
        else:  # hubbert: logistic pulse peaking at `peak` for t == center
            peak, width, center = a
            try:
                z = math.exp(-(t - center) / width)
                v = peak * 4.0 * z / (1.0 + z) ** 2
            except OverflowError:
                v = 0.0
        # a float ``*`` or ``+`` overflows to infinity without raising
        if not math.isfinite(v):
            raise ConfigError(f"{k} schedule overflows at round {round_index}")
        return v if v > 0.0 else 0.0  # max(0.0, v), without the builtin's call cost


def frustration(right_assigned: float, good_end: float) -> float:
    """Normalized shortfall of a buyer's Good against their assigned Right;
    zero when no Right was assigned."""
    if right_assigned <= 0.0:
        return 0.0
    f = (right_assigned - good_end) / right_assigned
    return f if f > 0.0 else 0.0  # max(0.0, f), without the builtin's call cost


class RoundRecord(NamedTuple):
    """Everything observable about one cleared round.

    A named tuple, as ``BuyerBid`` is: every round builds one, by position
    in 0.4 us against 2.1 us for a frozen dataclass (1.0 against 2.9 us by
    keyword; 2-core host). It is immutable and hashable, has the
    dataclass's repr, and ``record._replace(...)`` returns a modified copy
    where ``dataclasses.replace`` did."""

    round_index: int
    price_good: float
    price_right: float
    money_start: tuple[float, ...]
    good_end: tuple[float, ...]
    right_assigned: tuple[float, ...]
    frustration: tuple[float, ...]
    right_offered: tuple[float, ...]
    right_demanded: tuple[float, ...]
    useful_money: float
    useless_money: float
    volume_offered: float
    volume_sold: float
    rejections: tuple[Rejection, ...] = ()


@dataclass(frozen=True)
class Trace:
    """Ordered round records plus aggregate metrics for one simulation."""

    records: tuple[RoundRecord, ...]
    expected_frustration_path: tuple[float, ...]
    seller_utilities: tuple[float, ...]
    buyer_utilities: tuple[float, ...]
    max_money_residual: float
    max_good_residual: float

    @property
    def horizon(self) -> int:
        return len(self.records)

    @property
    def num_buyers(self) -> int:
        return len(self.records[0].frustration) if self.records else 0

    def price_path(self) -> list[float]:
        return [r.price_good for r in self.records]

    def expected_frustration(self) -> float:
        return self.expected_frustration_path[-1] if self.records else 0.0

    def _trailing(self, window: int | None) -> tuple[RoundRecord, ...]:
        """The last ``window`` records (all of them if fewer), by default the
        last 100."""
        if window is None:
            return self.records[-100:]
        if window < 1:
            # records[-0:] would be the whole trace
            raise ValueError(f"window must be at least 1, got {window!r}")
        return self.records[-window:]

    def per_round_mean_frustration(self, window: int | None = None) -> float:
        """Mean per-buyer frustration over the trailing ``window`` rounds.

        The greedy money recursion settles into a two-round cycle, so use an
        even window (the default is) to average it out.
        """
        recs = self._trailing(window)
        if not recs:
            return 0.0
        return sum(sum(r.frustration) for r in recs) / (len(recs) * self.num_buyers)

    def per_buyer_mean_frustration(self, window: int | None = None) -> list[float]:
        """Each buyer's mean frustration over the trailing ``window`` rounds."""
        recs = self._trailing(window)
        nb = self.num_buyers
        return [sum(r.frustration[b] for r in recs) / len(recs) for b in range(nb)]

    def first_all_zero_frustration_round(self) -> int | None:
        """First round index from which every buyer's frustration stays zero
        (at most ``EQ_TOL``) through the end of the trace, or None."""
        start = None
        for r in self.records:
            if all(f <= EQ_TOL for f in r.frustration):
                if start is None:
                    start = r.round_index
            else:
                start = None
        return start


def check_reference(owner: object, trader: object, round_index: object = 1) -> None:
    """The reference rule for what a deviation may name: ``trader`` is a
    tuple pair of a side, "seller" or "buyer", and an index, an integer of
    at least 0, and ``round_index`` is an integer; a bool is neither.
    Anything else is a ``ConfigError`` that names ``owner``. The rule
    knows no config: an index past its last trader passes it."""
    if not (isinstance(trader, tuple) and len(trader) == 2):
        raise ConfigError(f"{owner!r}: a trader is a pair (side, index), got {trader!r}")
    side, index = trader
    if side not in ("seller", "buyer"):
        raise ConfigError(f"{owner!r}: trader side must be 'seller' or 'buyer', got {side!r}")
    integers = all(isinstance(v, int) and not isinstance(v, bool) for v in (index, round_index))
    if not (integers and index >= 0):
        raise ConfigError(f"{owner!r}: a trader index is an integer >= 0, a round an integer")


@dataclass(frozen=True)
class BidAdjustment:
    """A one-round modification of one trader's greedy bid.

    ``trader`` and ``round_index`` must pass ``check_reference``: a trader
    that is not a pair, a side other than "seller" or "buyer", an index
    that is not an integer of at least 0 and a round that is not an integer
    are each a ``ConfigError``, while an index with no such trader, or a
    round outside the horizon, changes nothing. A delta or factor that is
    NaN or infinite is a ``ConfigError`` too. Volume deltas apply to the
    seller's offered volume; factors multiply the posted price, the buyer's
    right-sale volume, or the buyer's right-purchase cap.
    """

    round_index: int
    trader: tuple[str, int]
    volume_delta: float = 0.0
    price_factor: float = 1.0
    right_offer_factor: float = 1.0
    right_demand_factor: float = 1.0

    def __post_init__(self) -> None:
        check_reference(self, self.trader, self.round_index)
        for name in ("volume_delta", "price_factor", "right_offer_factor", "right_demand_factor"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)!r}")


@dataclass(frozen=True)
class Checkpoint:
    """The start of one round of a run: the state before the round is played
    and every trader's utility summed over the rounds before it.

    ``state`` is never played; a replay resuming here works on a copy.
    """

    state: MarketState
    seller_utilities: tuple[float, ...]
    buyer_utilities: tuple[float, ...]


AdjustmentIndex = dict[int, dict[tuple[str, int], list[BidAdjustment]]]


def _index_adjustments(adjustments: Sequence[BidAdjustment]) -> AdjustmentIndex:
    """Adjustments keyed by round, then by (side, trader index), in their
    given order."""
    index: AdjustmentIndex = {}
    for a in adjustments:
        index.setdefault(a.round_index, {}).setdefault(a.trader, []).append(a)
    return index


def run(config: MarketConfig, *, adjustments: Sequence[BidAdjustment] = ()) -> Trace:
    """Simulate the repeated market over ``config.horizon`` rounds and
    return its trace.

    Every trader plays greedy except where ``adjustments`` modify a bid
    (used by the equilibrium audit). Money, Good and the rights cap are
    checked every round against ``CONSERVATION_TOL``, scaled by the money or
    Good in play where that exceeds 1; a violation aborts the trace with the
    failing round index. Adjustments to a ``free_market`` config are a
    ``ConfigError``, as in ``replay_batch``: its round ignores them.
    """
    if adjustments:
        _refuse_free_market(config)
    return _run(config, adjustments)


def run_with_checkpoints(config: MarketConfig) -> tuple[Trace, tuple[Checkpoint, ...]]:
    """The all-greedy ``run`` plus a checkpoint at the start of every round.

    Checkpoint ``k`` is the start of round ``k + 1``; the last one, past the
    horizon, holds the final state and the trace's utility totals.
    """
    checkpoints: list[Checkpoint] = []
    trace = _run(config, (), checkpoints)
    return trace, tuple(checkpoints)


def replay_batch(
    config: MarketConfig,
    checkpoints: Sequence[Checkpoint],
    adjustment_lists: Sequence[Sequence[BidAdjustment]],
) -> list[tuple[tuple[float, ...], tuple[float, ...]]]:
    """Seller and buyer utility totals over ``config.horizon`` rounds of
    each list of ``adjustment_lists``, in input order, replayed from the
    all-greedy baseline's ``checkpoints`` as ``run_with_checkpoints``
    returns them for ``config`` at any horizon.

    Each list resumes at its first deviating round, from the baseline's
    checkpoint there, or from its last one if the baseline ends sooner
    (``batch.play_batch`` states the rule), and utilities
    accumulate in the same order as in ``run``, so result k equals the
    totals of ``run(config, adjustments=adjustment_lists[k])`` bit for bit.
    The lists play in one lockstep pass, one market per list, as the rows
    of ``play_batch``'s arrays. It builds no ``RoundRecord``, but makes
    every check a run makes, so a failure raises what ``run`` raises: if
    any list fails in the pass, the lists are played again one at a time,
    in order, so that the first failing list raises its own error. A call
    with no lists returns ``[]``. A ``free_market`` config is a
    ``ConfigError``: its round ignores deviations, and ``batch`` plays only
    the rights variants. So is, with any list, an empty ``checkpoints``,
    from which no list can resume.
    """
    _refuse_free_market(config)
    if not adjustment_lists:
        return []
    if not checkpoints:
        raise ConfigError("a replay needs at least one checkpoint of the baseline")
    # imported here: the kernel reads this module's helpers
    from .batch import play_batch

    try:
        sellers, buyers = play_batch(config, checkpoints, adjustment_lists)
    except SimulationError:
        for adjustments in adjustment_lists:
            play_batch(config, checkpoints, [adjustments])
        raise
    return [(tuple(s), tuple(b)) for s, b in zip(sellers.tolist(), buyers.tolist())]


def _refuse_free_market(config: MarketConfig) -> None:
    """Raise ``ConfigError`` for a ``free_market`` config, whose round
    ignores every deviation."""
    if config.variant == "free_market":
        raise ConfigError(
            f"variant {config.variant!r} cannot be replayed: its round ignores deviations"
        )


def _run(
    config: MarketConfig,
    adjustments: Sequence[BidAdjustment],
    checkpoints: list[Checkpoint] | None = None,
) -> Trace:
    nb = config.num_buyers
    seller_total = [0.0] * config.num_sellers
    buyer_total = [0.0] * nb
    try:
        state = initial_state(config)
    except Exception as exc:
        raise SimulationError(1, str(exc)) from exc
    records: list[RoundRecord] = []
    greedy = not adjustments and checkpoints is None
    if greedy and config.num_buyers >= WIDE_MIN_BUYERS and config.variant == "rights":
        # imported here: the kernel builds this module's records
        from .wide import play_rounds

        max_money_res, max_good_res = play_rounds(config, state, seller_total, buyer_total, records)
    else:
        max_money_res, max_good_res = _play_rounds(
            config,
            state,
            _index_adjustments(adjustments),
            seller_total,
            buyer_total,
            records,
            checkpoints,
        )
    ef_path: list[float] = []
    frustration_sum = 0.0
    for record in records:
        frustration_sum += sum(record.frustration)
        ef_path.append(frustration_sum / (record.round_index * nb))
    return Trace(
        records=tuple(records),
        expected_frustration_path=tuple(ef_path),
        seller_utilities=tuple(seller_total),
        buyer_utilities=tuple(buyer_total),
        max_money_residual=max_money_res,
        max_good_residual=max_good_res,
    )


# The number of buyers from which an all-greedy ``rights`` run is played
# on ``wide``'s numpy columns. Below it the fixed cost of each numpy call
# outweighs the per-buyer loops it replaces. Measured on 20-round greedy
# runs of one market, the two paths break even between 50 buyers (10
# sellers) and 60 (one seller); at 3 buyers the kernel is about 3x slower,
# at 300 about 3x faster. A run with adjustments or checkpoints stays
# scalar whatever its size: no workload or command plays one of this size
# but an audit's one baseline (about 40 ms scalar against 18 ms on ``wide``
# at 300 buyers). A ``myopic_rights`` run stays scalar too: at the default
# horizon of 10 rounds a buyer, the scalar round's settled-round reuse
# beats the kernel, which computes every round. A run of
# ``generate_dirichlet_scenario(n, 20.0, 0, variant="myopic_rights")``
# took 44 ms scalar against 158 ms on ``wide`` at 60 buyers, 110 against
# 305 at 100 and 929 against 1,339 at 300. Short runs lose: over 20
# rounds with 10 sellers, 17.5 ms against 13.2 at 300 buyers and 37 against
# 19 at 1,000 (2-core host, raw, one run per process, medians of 7
# alternating processes). No workload, preset or script plays one.
# Replays take no part: ``replay_batch`` plays every one of them on
# ``batch``, whatever its size.
WIDE_MIN_BUYERS = 60

# The number of settled rounds ``_play_rounds`` keeps for reuse, the
# oldest evicted first: greedy play settles into cycles of a few rounds,
# and a longer cycle needs more entries. Counted in ``engine.clear`` calls,
# one per round not reused, with 2, 4, 8 and 16 entries: ``sweep 3:10``
# with 10 seeds makes 3,922, 3,681, 3,517 and 3,505; the 590 rounds of
# ``generate_dirichlet_scenario(59, 20.0, 0)`` make 590, then 55 from 4
# entries on (about 80 ms a run against 250 ms with 2, 2-core host, raw);
# the 14 presets make 669 up to 8. 8 is the knee. A run that never
# repeats, ``(59, 20.0, 1)``, keeps its peak RSS (40.1 MB with 2 or 8),
# and ``(10, 20.0, 0)``, which repeats 22 rounds back, stays uncaught.
SETTLED_ROUNDS = 8


def _play_rounds(
    config: MarketConfig,
    state: MarketState,
    adjustments: AdjustmentIndex,
    seller_total: list[float],
    buyer_total: list[float],
    records: list[RoundRecord],
    checkpoints: list[Checkpoint] | None = None,
) -> tuple[float, float]:
    """Play rounds ``state.round_index`` through ``config.horizon``,
    adding each round's utilities to ``seller_total`` and ``buyer_total``
    in place and its record to ``records``.

    This is the scalar round, the reference ``wide`` and ``batch`` are
    tested against. ``state`` is used up: the rounds mutate it. When
    ``checkpoints`` is a list, a checkpoint is appended at the start of
    every round and once more after the last. Returns the largest money and
    Good residuals. A failure, including one in the transition into round
    t, aborts with round index t.

    Greedy play settles: the price goes to 1 and the buyers' money cycles
    through a few values, so a settled rights round starts as a round a
    few back did (one or two back in the presets, four back in
    ``generate_dirichlet_scenario(59, 20.0, 0)``). The run keeps its last
    ``SETTLED_ROUNDS`` unadjusted rights rounds in ``recent``, a dict from
    a key, the bits of the offered volumes and the buyers' start money, to
    the posted price, rights, offers, P and clearing computed from it,
    with the record fields that follow from the bids and the clearing
    alone: the Right price, the Right offered and demanded, the useful and
    useless money and the volume sold. ``_run_rights_round`` reuses them;
    each is a pure function of the entry's bids and clearing, so a reused
    field is the one the round would compute. A lookup is one hash; the
    oldest entry is evicted first, so a run that never repeats holds no
    more than ``SETTLED_ROUNDS`` entries. Entries kept on the config would
    outlive the run.
    """
    max_money_res = 0.0
    max_good_res = 0.0
    recent: dict[bytes, tuple] = {}
    pack = struct.Struct(f"{config.num_sellers + config.num_buyers}d").pack

    tau = state.round_index
    try:
        while True:
            if checkpoints is not None:
                checkpoints.append(
                    Checkpoint(state.copy(), tuple(seller_total), tuple(buyer_total))
                )
            if tau > config.horizon:
                break
            if config.variant == "free_market":
                util, money_res, good_res = _run_free_round(state, config, tau, records)
            else:
                util, money_res, good_res = _run_rights_round(
                    state, config, tau, adjustments, records, recent, pack
                )
            if money_res > max_money_res:
                max_money_res = money_res
            if good_res > max_good_res:
                max_good_res = good_res
            su, bu = util
            seller_total[:] = [total + u for total, u in zip(seller_total, su)]
            buyer_total[:] = [total + u for total, u in zip(buyer_total, bu)]
            tau += 1
            state = apply_transition(state, config)
    except SimulationError:
        raise
    except Exception as exc:
        raise SimulationError(tau, str(exc)) from exc
    return max_money_res, max_good_res


def _check_residuals(
    money_res: float, good_res: float, money_total: float, offered: float
) -> None:
    """Raise ``ConservationError`` when a round's money or Good residual
    exceeds ``CONSERVATION_TOL``; above 1 the tolerance scales with the
    money or Good in play (``money_total``, the buyers' money at the start
    of the round, and ``offered``), since rounding grows with the amounts
    traded. A NaN residual, left by money or Good that overflowed, fails
    too: ``not x <= tol`` catches it where ``x > tol`` would not."""
    if not (money_res <= CONSERVATION_TOL and good_res <= CONSERVATION_TOL):
        money_tol = CONSERVATION_TOL * max(1.0, money_total)
        good_tol = CONSERVATION_TOL * max(1.0, offered)
        if not (money_res <= money_tol and good_res <= good_tol):
            raise ConservationError(
                f"accounting residual money={money_res:g} good={good_res:g} "
                f"exceeds tolerance money={money_tol:g} good={good_tol:g}"
            )


def _check_finite(
    tau: int,
    posted: float,
    price_avg: float,
    buyer_good: float,
    seller_good: float,
    price_right: float,
) -> None:
    """Raise ``SimulationError`` naming round ``tau`` and the first of its
    posted price, P, total buyer Good, total seller Good and Right price
    that is not finite, as an overflow or a NaN leaves it. Money needs no
    test here: money that is not finite leaves a money residual that fails
    ``_check_residuals``, which runs first. Five numbers that add up to a
    finite number are each finite, so a round pays one test; a sum that
    overflows while each term is finite raises nothing."""
    if not math.isfinite(posted + price_avg + buyer_good + seller_good + price_right):
        for name, value in (
            ("posted price", posted),
            ("P", price_avg),
            ("total buyer Good", buyer_good),
            ("total seller Good", seller_good),
            ("Right price", price_right),
        ):
            if not math.isfinite(value):
                raise SimulationError(tau, f"{name} is not finite")


def _offer_volumes(
    config: MarketConfig,
    tau: int,
    round_adjustments: dict[tuple[str, int], list[BidAdjustment]],
    sellers: Sequence[SellerState],
) -> tuple[list[float], float]:
    """Each seller's offered volume in round ``tau`` and their total: the
    resupply moved by any volume deviation, clamped to [0, stock]. Raises
    when nothing is offered."""
    volumes = list(config.resupply_at(tau))
    if round_adjustments:
        for s in range(len(volumes)):
            for adj in round_adjustments.get(("seller", s), ()):
                volumes[s] += adj.volume_delta
    volumes = [min(max(0.0, v), seller.good) for v, seller in zip(volumes, sellers)]
    offered = sum(volumes)
    if offered <= 0.0:
        raise SimulationError(tau, "no good offered for sale")
    return volumes, offered


def _seller_offers(
    posted: float,
    volumes: Sequence[float],
    round_adjustments: dict[tuple[str, int], list[BidAdjustment]],
) -> list[SellerOffer]:
    """The sellers' offers: their volumes at the posted price, scaled by any
    price deviation."""
    offers = []
    for s, volume in enumerate(volumes):
        price = posted
        for adj in round_adjustments.get(("seller", s), ()):
            price *= adj.price_factor
        offers.append(SellerOffer(volume, price))
    return offers


def _run_rights_round(
    state: MarketState,
    config: MarketConfig,
    tau: int,
    adjustments: AdjustmentIndex,
    records: list[RoundRecord],
    recent: dict[bytes, tuple],
    pack: Callable[..., bytes],
):
    """Play round ``tau`` of a rights variant on ``state``, in place, and
    check it. Appends the round's record to ``records``; returns the round's
    utilities and its money and Good residuals.

    A round without adjustments whose key, ``pack`` of its offered volumes
    and the buyers' start money, matches the key of an entry of ``recent``
    bit for bit takes that entry's posted price, rights, offers, P and
    clearing, and the record fields derived from its bids and clearing,
    instead of computing them; otherwise it computes them and adds them as
    the newest entry, evicting the oldest past ``SETTLED_ROUNDS``. Either
    way the buyers then hold the round's rights, which ``clear`` reads.
    Bits, not floats, are compared, since -0.0 == 0.0. The reuse is exact:
    those values read only the config, the offered volumes and the start
    money, and the rights follow from the offered volume. Seller stock
    enters ``clear`` only through its check ``volume > stock +
    CONSERVATION_TOL``, which cannot trigger, as ``_offer_volumes`` clamps
    every volume to the stock. The derived fields read nothing but the bids
    and the clearing. Settlement, the money, Good and rights-cap checks,
    ``_check_residuals``, ``_check_finite``, the rest of the record and the
    utilities run every round.
    """
    nb = config.num_buyers
    buyers = state.buyers
    money_start = tuple([b.money for b in buyers])
    round_adjustments = adjustments.get(tau, {})

    # offered volumes first: a volume deviation changes the rights everyone
    # sees, and with public state the posted price accounts for the true
    # offered volume
    volumes, offered = _offer_volumes(config, tau, round_adjustments, state.sellers)
    key = None if round_adjustments else pack(*volumes, *money_start)
    entry = recent.get(key)
    if entry is None:
        posted, rights = posted_greedy_price(state, config, offered)
    else:
        posted, rights, offers, price_avg, result, fields = entry
    for buyer, right in zip(buyers, rights):
        buyer.right = right
    if entry is None:
        offers = _seller_offers(posted, volumes, round_adjustments)
        price_avg = mean_posted_price(offers)
        bids = greedy_buyer_bids(price_avg, offered, money_start, rights, config.variant)
        if round_adjustments:
            for b in range(nb):
                for adj in round_adjustments.get(("buyer", b), ()):
                    bid = bids[b]
                    bids[b] = bid._replace(
                        right_offer_volume=bid.right_offer_volume * adj.right_offer_factor,
                        right_offer_price=bid.right_offer_price * adj.price_factor,
                        max_right_volume=bid.max_right_volume * adj.right_demand_factor,
                    )

        result = clear(offers, bids, state, config.variant)
        useful, useless = useful_useless_split(result)
        right_offered, right_prices, _, _, right_demanded, _ = zip(*bids)
        offered_right = sum(right_offered)
        price_right = (
            sum(w * q for w, q in zip(right_offered, right_prices)) / offered_right
            if offered_right > 0.0
            else 0.0
        )
        fields = (
            price_right, right_offered, right_demanded, useful, useless, result.volume_sold
        )
        if key is not None:
            recent[key] = (posted, rights, offers, price_avg, result, fields)
            if len(recent) > SETTLED_ROUNDS:
                del recent[next(iter(recent))]  # the oldest entry
    price_right, right_offered, right_demanded, useful, useless, volume_sold = fields

    sellers = state.sellers
    for seller, sold, revenue in zip(sellers, result.seller_sold, result.seller_revenue):
        seller.good -= sold
        seller.money += revenue
    # one pass over the buyers folds the clearing into their state and
    # checks it; deferred proceeds join the balance only now, after the
    # trading window closed
    good_tol = CONSERVATION_TOL * (offered if offered > 1.0 else 1.0)
    over_cap = -1
    money_end: list[float] = []
    good_end: list[float] = []
    for b, (buyer, m0, right, bought, bought_right, spent_good, spent_right, earned) in enumerate(
        zip(
            buyers, money_start, rights, result.good_bought, result.right_bought,
            result.money_spent_good, result.money_spent_right, result.money_earned_right,
        )
    ):
        buyer.good += bought
        good_end.append(buyer.good)
        money = m0 - spent_good - spent_right + earned
        if money < 0.0:
            # rounding dust scales with the buyer's money in play
            if money < -CONSERVATION_TOL * max(1.0, m0 + earned):
                raise SimulationError(tau, f"buyer {b} money went negative")
            money = 0.0
        buyer.money = money
        # rights cap: purchases in the round never exceed licence held +
        # bought; a negative balance of any buyer is reported first
        if over_cap < 0 and bought > right + bought_right + good_tol:
            over_cap = b
        money_end.append(money)
    if over_cap >= 0:
        raise SimulationError(tau, f"buyer {over_cap} bought good beyond their rights")

    # money only changes hands; good shipped must equal good received
    money_total = sum(money_start)
    money_res = abs(sum([s.money for s in sellers]) + sum(money_end) - money_total)
    good_res = abs(sum(result.good_bought) - sum(result.seller_sold))
    for sold, unsold, offer in zip(result.seller_sold, result.unsold_good, offers):
        res = abs(sold + unsold - offer.volume)
        good_res = res if res > good_res else good_res  # max(good_res, res)
    _check_residuals(money_res, good_res, money_total, offered)
    _check_finite(
        tau, posted, price_avg, sum(good_end), sum([s.good for s in sellers]), price_right
    )

    records.append(
        RoundRecord(
            tau, price_avg, price_right, money_start, tuple(good_end), rights,
            tuple(map(frustration, rights, good_end)), right_offered, right_demanded,
            useful, useless, offered, volume_sold, result.rejected,
        )
    )
    return consumed_utility(state, config), money_res, good_res


def _run_free_round(
    state: MarketState, config: MarketConfig, tau: int, records: list[RoundRecord]
):
    """Free-market baseline: no rights, everyone spends all money at the
    market-clearing price, frustration is still measured against the
    mechanism's hypothetical allocation. Records, checks and returns as
    ``_run_rights_round`` does."""
    nb, ns = config.num_buyers, config.num_sellers
    money_start = tuple(b.money for b in state.buyers)
    volumes = list(config.resupply_at(tau))
    offered = sum(volumes)
    if offered <= 0.0:
        raise SimulationError(tau, "no good offered for sale")
    rights_hyp = mechanism_rights(config, offered)
    price = free_market_clearing_price(money_start, offered) * config.greedy_price_factor

    bought = [0.0] * nb
    if price > 0.0:
        bought = [money_start[b] / price for b in range(nb)]
    demand = sum(bought)
    # at the exact clearing price demand matches supply; an off-path price
    # factor below one makes demand outstrip the offer and gets rationed
    if demand > offered:
        bought = [x * offered / demand for x in bought]
    sold_total = min(offered, demand)
    share = [v / offered for v in volumes]
    for s in range(ns):
        state.sellers[s].good -= sold_total * share[s]
        state.sellers[s].money += price * sold_total * share[s]
    good_end: list[float] = []
    for b in range(nb):
        buyer = state.buyers[b]
        buyer.good += bought[b]
        good_end.append(buyer.good)
        # buyers spend their whole balance at the clearing price; keep real
        # leftovers from off-path rationing, snap away rounding dust
        leftover = money_start[b] - bought[b] * price
        buyer.money = leftover if leftover > CONSERVATION_TOL else 0.0

    money_total = sum(money_start)
    money_res = abs(
        money_total
        - sum(s.money for s in state.sellers)
        - sum(b.money for b in state.buyers)
    )
    good_res = abs(sum(bought) - sold_total)
    _check_residuals(money_res, good_res, money_total, offered)
    # the posted price is P, as every seller posts it; no Right is traded,
    # so its price is 0.0
    _check_finite(tau, price, price, sum(good_end), sum(s.good for s in state.sellers), 0.0)

    no_right = (0.0,) * nb
    records.append(
        RoundRecord(
            tau, price, 0.0, money_start, tuple(good_end), rights_hyp,
            tuple(map(frustration, rights_hyp, good_end)), no_right, no_right,
            price * sold_total, 0.0, offered, sold_total,
        )
    )
    return consumed_utility(state, config), money_res, good_res


def generate_dirichlet_scenario(
    num_buyers: int,
    concentration: float,
    rng_seed: int,
    claim_scale: float = 1.0,
    mechanism: DistributionMechanism | None = None,
    variant: str = "rights",
    horizon: int | None = None,
) -> MarketConfig:
    """Random normalized scenario with ordered claim and income profiles.

    Mean claims fall with the buyer's position (proportional to 1/i) while
    mean incomes rise (the reverse ordering); actual shares are Dirichlet
    draws around those means, or the exact means when ``concentration`` is
    infinite. Total claim is 2 * ``claim_scale`` against a unit resupply, so
    the default regime is twice-over-demanded; incomes sum to 1.

    ``num_buyers`` must be an integer (not a bool) of at least 2,
    ``concentration`` positive and ``claim_scale`` finite and non-negative;
    anything else, NaN included, is a ``ConfigError`` naming the argument.
    """
    import numpy as np

    if isinstance(num_buyers, bool) or not isinstance(num_buyers, int) or num_buyers < 2:
        raise ConfigError(f"num_buyers must be an integer of at least 2, got {num_buyers!r}")
    if not concentration > 0.0:
        raise ConfigError(f"concentration must be positive, got {concentration!r}")
    if not 0.0 <= claim_scale < math.inf:
        raise ConfigError(f"claim_scale must be finite and non-negative, got {claim_scale!r}")
    rng = np.random.default_rng(rng_seed)
    pos = np.arange(1, num_buyers + 1, dtype=float)
    claim_means = (1.0 / pos) / np.sum(1.0 / pos)
    income_means = claim_means[::-1].copy()
    if math.isinf(concentration):
        claim_shares, income_shares = claim_means, income_means
    else:
        claim_shares = rng.dirichlet(concentration * claim_means)
        income_shares = rng.dirichlet(concentration * income_means)
    claims = 2.0 * claim_scale * claim_shares
    buyers = tuple(
        BuyerSpec(income=SupplySchedule.constant(float(income_shares[j])), claim=float(claims[j]))
        for j in range(num_buyers)
    )
    return MarketConfig(
        sellers=(SellerSpec(resupply=SupplySchedule.constant(1.0)),),
        buyers=buyers,
        mechanism=mechanism if mechanism is not None else DistributionMechanism.proportional(),
        variant=variant,
        horizon=horizon if horizon is not None else 10 * num_buyers,
    )
