"""Empirical audit of the equilibrium and dynamics claims.

The audit replays the market with exactly one trader (or a small coalition)
deviating from greedy in one round and reverting afterwards, and compares
total utilities against the all-greedy baseline. Rounds before the first
deviating round are the baseline's, so ``engine.replay_batch``, given the
baseline's checkpoints, resumes each replay at that round instead of
re-simulating from round 1; its gains equal those of a full replay bit for
bit. Each report replays all its trials in one such call, and ``audit``
replays the unilateral report and every coalition report of one config in
one call, from one baseline. The call plays them in one lockstep pass on
numpy arrays (``batch``), however few they are, each trial joining the
pass at its resume round; reports keep trial order, and a failing trial
raises what replaying the trials one at a time would. A finite grid
cannot certify the equilibrium; it is a falsification harness.
The module also checks the price map's non-expansiveness along traces and
cross-validates the interval-scan price solver against bisection.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable
from dataclasses import dataclass, replace
from typing import Sequence

from .core import CONSERVATION_TOL, EQ_TOL, MarketConfig
from .engine import (
    BidAdjustment,
    Trace,
    check_reference,
    replay_batch,
    run,  # noqa: F401  kept importable: perfbench's tracer patches ``analysis.run``
    run_with_checkpoints,
)
from .errors import ConfigError
from .pricing import canonical_lower_bound, solve_implicit_price

DEVIATION_KINDS = (
    "seller_withhold",
    "seller_price",
    "buyer_sell_less_right",
    "buyer_buy_less_right",
    "buyer_price",
)

DEFAULT_MAGNITUDES = (0.05, 0.10, 0.25, 0.50)


@dataclass(frozen=True)
class Deviation:
    """One trader's single-round departure from greedy.

    ``magnitude`` is the multiplicative size: the withheld fraction of the
    round's resupply, the fraction of right not sold / not bought, or the
    signed relative price change. A withholding seller sells the stored
    amount in the following round. The side the kind names, ``trader`` and
    ``round_index`` must pass ``engine.check_reference`` and ``magnitude``
    must be finite, or the ``Deviation`` is a ``ConfigError`` that names
    it; the audit skips a round outside the horizon and refuses a trader
    the config lacks.
    """

    kind: str
    trader: int
    round_index: int
    magnitude: float

    def __post_init__(self) -> None:
        if self.kind not in DEVIATION_KINDS:
            raise ConfigError(f"unknown deviation kind {self.kind!r}")
        check_reference(self, self.trader_key(), self.round_index)
        if not math.isfinite(self.magnitude):
            raise ConfigError(f"{self!r} needs a finite magnitude")

    def trader_key(self) -> tuple[str, int]:
        side = "seller" if self.kind.startswith("seller") else "buyer"
        return (side, self.trader)

    def to_adjustments(self, config: MarketConfig) -> tuple[BidAdjustment, ...]:
        side, idx = self.trader_key()
        r = self.round_index
        if self.kind == "seller_withhold":
            amount = self.magnitude * config.resupply_at(r)[idx]
            hold = BidAdjustment(r, (side, idx), volume_delta=-amount)
            release = BidAdjustment(r + 1, (side, idx), volume_delta=amount)
            return (hold, release)
        if self.kind == "buyer_sell_less_right":
            return (BidAdjustment(r, (side, idx), right_offer_factor=1.0 - self.magnitude),)
        if self.kind == "buyer_buy_less_right":
            return (BidAdjustment(r, (side, idx), right_demand_factor=1.0 - self.magnitude),)
        # seller_price scales the posted Good price, buyer_price the Right offer's
        return (BidAdjustment(r, (side, idx), price_factor=1.0 + self.magnitude),)

    def describe(self) -> str:
        side, idx = self.trader_key()
        return f"{self.kind}({self.magnitude:+g}) by {side} {idx} at round {self.round_index}"


@dataclass(frozen=True)
class DeviationTrial:
    deviations: tuple[Deviation, ...]
    gains: tuple[float, ...]  # one per deviating trader, vs. baseline utility
    reason: str = ""  # why the trial was skipped; empty when it was played

    @property
    def skipped(self) -> bool:
        return bool(self.reason)

    @property
    def max_gain(self) -> float:
        return max(self.gains) if self.gains else float("-inf")

    def describe(self) -> str:
        parts = "; ".join(d.describe() for d in self.deviations)
        if self.skipped:
            return f"SKIP {parts}: {self.reason}"
        gains = ", ".join(f"{g:+.3e}" for g in self.gains)
        return f"{parts} -> gain {gains}"


@dataclass(frozen=True)
class AuditReport:
    baseline_seller_utilities: tuple[float, ...]
    baseline_buyer_utilities: tuple[float, ...]
    trials: tuple[DeviationTrial, ...]
    coalition: tuple[tuple[str, int], ...] = ()

    @property
    def tested(self) -> tuple[DeviationTrial, ...]:
        return tuple(t for t in self.trials if not t.skipped)

    @property
    def max_gain(self) -> float:
        gains = [t.max_gain for t in self.tested]
        return max(gains) if gains else 0.0

    @property
    def witnesses(self) -> tuple[DeviationTrial, ...]:
        """The tested trials in which every deviator gains more than
        ``CONSERVATION_TOL``."""
        return tuple(t for t in self.tested if all(g > CONSERVATION_TOL for g in t.gains))

    @property
    def passed(self) -> bool:
        return not self.witnesses

    def summary(self) -> str:
        kind = "coalition" if self.coalition else "unilateral"
        counted = f"{kind} audit: {len(self.tested)} trials"
        if self.trials:
            counted += f" ({len(self.trials) - len(self.tested)} skipped)"
        if not self.tested:  # not to be read as tested and passed
            return f"{counted}, nothing to test"
        return (
            f"{counted}, max gain {self.max_gain:+.3e}, "
            f"{len(self.witnesses)} profitable deviation(s)"
        )


def _utility(
    sellers: Sequence[float], buyers: Sequence[float], key: tuple[str, int]
) -> float:
    side, idx = key
    return sellers[idx] if side == "seller" else buyers[idx]


def _rounds(horizon: int) -> list[int]:
    """The rounds the audit samples, each once and in order: 1, T/2 and T."""
    return sorted({1, max(1, horizon // 2), horizon})


def _skip_reason(dev: Deviation, baseline: Trace) -> str:
    """Why ``dev`` cannot be played against ``baseline``, or "" if it can.

    Selling less Right and repricing the Right offer need a buyer who
    offered some that round (poor); buying less needs one who demanded some.
    """
    if not 1 <= dev.round_index <= baseline.horizon:
        return "round outside horizon"
    if dev.kind.startswith("seller"):
        return ""
    rec = baseline.records[dev.round_index - 1]
    offered = rec.right_offered[dev.trader] > EQ_TOL
    if dev.kind == "buyer_sell_less_right" and not offered:
        return "buyer offered no right"
    if dev.kind == "buyer_buy_less_right" and not rec.right_demanded[dev.trader] > EQ_TOL:
        return "buyer demanded no right"
    if dev.kind == "buyer_price" and not offered:
        return "no right offer to reprice"
    return ""


def _menu(
    member: tuple[str, int], round_index: int, amount: float, step: float, baseline: Trace
) -> list[Deviation]:
    """One trader's deviations in a round, less those ``_skip_reason`` rules
    out: a seller withholds ``amount`` of its resupply or moves its price by
    ``step`` either way; a buyer sells ``amount`` less Right, moves its Right
    price by ``step`` either way, or buys ``amount`` less Right."""
    side, idx = member
    if side == "seller":
        moves = (("seller_withhold", amount), ("seller_price", +step), ("seller_price", -step))
    else:
        moves = (
            ("buyer_sell_less_right", amount),
            ("buyer_price", +step),
            ("buyer_price", -step),
            ("buyer_buy_less_right", amount),
        )
    menu = (Deviation(kind, idx, round_index, m) for kind, m in moves)
    return [d for d in menu if not _skip_reason(d, baseline)]


def default_deviation_grid(config: MarketConfig, baseline: Trace) -> list[Deviation]:
    """Every trader's menu at each ``DEFAULT_MAGNITUDES`` size in rounds 1,
    T/2 and T of ``baseline``, sellers first."""
    members = [("seller", s) for s in range(config.num_sellers)]
    members += [("buyer", b) for b in range(config.num_buyers)]
    return [
        d
        for member in members
        for r in _rounds(baseline.horizon)
        for m in DEFAULT_MAGNITUDES
        for d in _menu(member, r, m, m, baseline)
    ]


def default_coalition_menu(
    member: tuple[str, int], round_index: int, baseline: Trace
) -> list[Deviation]:
    """A member's menu in one round: withhold 0.25 or sell or buy 0.50 less
    Right, and prices moved by 0.10."""
    amount = 0.25 if member[0] == "seller" else 0.50
    return _menu(member, round_index, amount, 0.10, baseline)


# a report to play: its coalition as given, None for the unilateral report,
# and its grid, None for the default one
_Plan = tuple[Sequence | None, Sequence | None]


def _audit(config: MarketConfig, horizon: int | None, plans: Sequence[_Plan]) -> list[AuditReport]:
    """One report per plan, each a list of combos played against one
    all-greedy baseline of T = ``config.horizon`` rounds, or of ``horizon``
    rounds when given, which replaces the config's and is checked as it is.

    The audit covers the regime the equilibrium claim is stated for: total
    resupply and total income 1 in rounds 1, T/2 and T, and a variant whose
    round applies deviations, which ``free_market``'s does not. Before
    anything is played, one gate refuses a coalition that is not two or
    more distinct members, each read as ``tuple(member)`` when it is a list,
    passing ``engine.check_reference`` and naming a trader the config has,
    and a given grid with an item that is not a ``Deviation`` (unilateral)
    or an iterable of them (joint), or with a deviation that names a trader
    the config lacks.
    The unilateral report plays each deviation of its grid, by default
    ``default_deviation_grid``, as a combo of one, and a coalition report
    each combo of its grid, by default the product of the members'
    ``default_coalition_menu`` at mid-horizon. A combo whose traders are not
    the coalition's is skipped as a menu/member mismatch, and any other for
    the first of its deviations that ``_skip_reason`` rules out. Every
    played combo of every report goes to one ``replay_batch`` call, in
    report and trial order, so a failing trial raises what the reports made
    one after another would raise.
    """
    if horizon is not None:
        config = replace(config, horizon=horizon)
    T = config.horizon
    if config.variant == "free_market":
        raise ConfigError(
            f"variant {config.variant!r} cannot be audited: its round ignores deviations"
        )
    if not all(config.is_normalized(r) for r in _rounds(T)):
        raise ConfigError("audit needs sum g = sum m = 1 in rounds 1, T/2 and T")
    sizes = {"seller": config.num_sellers, "buyer": config.num_buyers}
    reports = []
    for members, grid in plans:
        if grid is not None:  # read once, as it is walked twice
            grid = [_combo(item, members is None) for item in grid]
        coalition = tuple(tuple(m) if isinstance(m, list) else m for m in members or ())
        for member in coalition:
            check_reference(member, member)
        if members is not None and len(set(coalition)) < max(2, len(coalition)):
            raise ConfigError(f"coalition members must be distinct, two or more: {members!r}")
        named = [(d, d.trader_key()) for combo in grid or () for d in combo]
        for owner, (side, idx) in named + [(m, m) for m in coalition]:
            if idx >= sizes[side]:
                raise ConfigError(f"{owner!r} names a {side} the config lacks")
        reports.append((coalition, grid))
    baseline, checkpoints = run_with_checkpoints(config)
    base_sellers, base_buyers = baseline.seller_utilities, baseline.buyer_utilities
    played = []
    for coalition, grid in reports:
        if grid is None and coalition:
            menus = (default_coalition_menu(m, max(1, T // 2), baseline) for m in coalition)
            grid = itertools.product(*menus)
        elif grid is None:
            grid = [(d,) for d in default_deviation_grid(config, baseline)]
        played.append([(combo, _skip(combo, coalition, baseline)) for combo in grid])
    lists = [
        [a for d in devs for a in d.to_adjustments(config)]
        for devs, reason in itertools.chain.from_iterable(played)
        if not reason
    ]
    totals = iter(replay_batch(config, checkpoints, lists))
    out = []
    for (coalition, _), pairs in zip(reports, played):
        trials: list[DeviationTrial] = []
        for devs, reason in pairs:
            gains: tuple[float, ...] = ()
            if not reason:
                sellers, buyers = next(totals)
                gains = tuple(
                    _utility(sellers, buyers, d.trader_key())
                    - _utility(base_sellers, base_buyers, d.trader_key())
                    for d in devs
                )
            trials.append(DeviationTrial(tuple(devs), gains, reason))
        out.append(AuditReport(base_sellers, base_buyers, tuple(trials), coalition))
    return out


def _combo(item, unilateral: bool) -> tuple[Deviation, ...]:
    """The combo a grid item stands for: a deviation of the unilateral grid
    is a combo of one, and an item of a joint grid the tuple of its
    deviations. Anything else is a ``ConfigError`` that names the item."""
    combo = (item,) if unilateral else tuple(item) if isinstance(item, Iterable) else None
    if combo is None or not all(isinstance(d, Deviation) for d in combo):
        want = "a Deviation" if unilateral else "an iterable of Deviations"
        raise ConfigError(f"grid item {item!r} is not {want}")
    return combo


def _skip(combo: Sequence[Deviation], coalition: tuple, baseline: Trace) -> str:
    """Why ``combo`` is not played in the report of ``coalition``, () for
    the unilateral one, or "" if it is."""
    if coalition and {d.trader_key() for d in combo} != set(coalition):
        return "menu/member mismatch"
    return next(filter(None, (_skip_reason(d, baseline) for d in combo)), "")


def audit_unilateral(
    config: MarketConfig,
    horizon: int | None = None,
    deviation_grid: Sequence[Deviation] | None = None,
) -> AuditReport:
    """Replay the market once per deviation and report utility gains.

    The deviating trader plays greedy in every other round. Any gain above
    ``CONSERVATION_TOL`` is a witness against the equilibrium claim. This
    is ``audit``'s unilateral report, on its own and on any grid. A
    ``horizon`` given stands for ``config``'s, as in every audit, and a bad
    one is the ``ConfigError`` the config would raise.
    """
    return _audit(config, horizon, [(None, deviation_grid)])[0]


def audit_coalition(
    config: MarketConfig,
    horizon: int | None = None,
    coalition: Sequence[tuple[str, int]] = (),
    joint_grid: Sequence[Sequence[Deviation]] | None = None,
) -> AuditReport:
    """Joint-deviation scan for one coalition.

    ``coalition`` must be two or more distinct members, each a trader the
    config has that passes ``engine.check_reference``; a list member, as
    JSON gives one, is read as its tuple. Anything else is a
    ``ConfigError`` raised before anything is played. A joint deviation
    wins only if every member gains more than ``CONSERVATION_TOL``. Every
    combo of ``joint_grid`` whose traders are exactly the coalition's
    members is played unless one of its deviations is one the unilateral
    audit skips, for the first such reason; any other is skipped as a
    menu/member mismatch. The default grid is the cartesian product of
    small per-member menus at mid-horizon. This is one of ``audit``'s
    coalition reports, on its own and on any grid.
    """
    return _audit(config, horizon, [(coalition, joint_grid)])[0]


def audit(
    config: MarketConfig,
    horizon: int | None = None,
    coalitions: Sequence[Sequence[tuple[str, int]]] = (),
) -> list[AuditReport]:
    """The unilateral report on the default grid, then one coalition report
    per member of ``coalitions`` on its default grid, as ``audit_unilateral``
    and ``audit_coalition`` give them, bit for bit.

    The reports share one baseline, and all their trials are replayed in
    one ``replay_batch`` call; a failing trial raises what those calls,
    made one after another, would raise. A malformed coalition raises
    ``ConfigError`` before anything is played.
    """
    return _audit(config, horizon, [(None, None)] + [(c, None) for c in coalitions])


@dataclass(frozen=True)
class NonexpansiveReport:
    passed: bool
    first_violation_round: int | None
    detail: str

    def summary(self) -> str:
        return "non-expansive: pass" if self.passed else f"FAIL: {self.detail}"


def check_nonexpansive(trace: Trace) -> NonexpansiveReport:
    """Check |p(t+1) - 1| <= |p(t) - 1| + ``EQ_TOL`` and the oscillation
    direction along a greedy constant-supply trace.

    The strict oscillation claim (below 1 the price rises, above 1 it falls)
    is only tested while the price is farther than ``CONSERVATION_TOL``
    from the fixed point, where float comparisons are meaningful.
    """
    prices = trace.price_path()
    for t in range(len(prices) - 1):
        p, q = prices[t], prices[t + 1]
        if abs(q - 1.0) > abs(p - 1.0) + EQ_TOL:
            return NonexpansiveReport(
                False, t + 1, f"|p-1| grew from {abs(p - 1.0):g} to {abs(q - 1.0):g}"
            )
        if p < 1.0 - CONSERVATION_TOL and not q > p:
            return NonexpansiveReport(False, t + 1, f"p={p!r} < 1 but next price {q!r} <= p")
        if p > 1.0 + CONSERVATION_TOL and not q < p:
            return NonexpansiveReport(False, t + 1, f"p={p!r} > 1 but next price {q!r} >= p")
    return NonexpansiveReport(True, None, "")


def bisection_price(money: Sequence[float], rights: Sequence[float]) -> float:
    """Independent root finder for the implicit price equation.

    Bisects the monotone residual sum(M - max(0, pR - M)) - p sum(R) on
    [0, sum(M)/sum(R)] 200 times; used only as an oracle against the
    interval scan.
    """
    m = [float(x) for x in money]
    r = [float(x) for x in rights]
    total_r = sum(r)
    if total_r <= 0.0:
        raise ConfigError("bisection oracle needs positive total rights")
    total_m = sum(m)
    if total_m == 0.0:
        return 0.0

    def residual(p: float) -> float:
        return sum(mb - max(0.0, p * rb - mb) for mb, rb in zip(m, r)) - p * total_r

    lo, hi = 0.0, total_m / total_r
    if residual(hi) > 0.0:  # guard against rounding at the upper bracket
        hi *= 1.0 + EQ_TOL
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if residual(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class SolverCrossCheck:
    instances: int
    max_discrepancy: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_discrepancy <= self.tolerance

    def summary(self) -> str:
        return (
            f"solver vs bisection on {self.instances} instances: "
            f"max |dp| = {self.max_discrepancy:.3e} "
            f"({'pass' if self.passed else 'FAIL'} at {self.tolerance:g})"
        )


def cross_validate_price_solver(instances: int = 1000, rng_seed: int = 0) -> SolverCrossCheck:
    """Compare the interval-scan solver against bisection on random cases;
    they agree when no price differs by more than 1e-10.

    Instances draw 1..8 buyers, money in [0, 2] with occasional exact zeros,
    and rights scaled to a random total in (0, 10].
    """
    import numpy as np

    if instances < 1:
        raise ConfigError("instances must be >= 1")
    rng = np.random.default_rng(rng_seed)
    worst = 0.0
    for _ in range(instances):
        nb = int(rng.integers(1, 9))
        money = rng.uniform(0.0, 2.0, nb)
        money[rng.uniform(0.0, 1.0, nb) < 0.15] = 0.0
        if rng.uniform() < 0.05:
            money[:] = 0.0  # degenerate zero-money instance, both must give 0
        rights = rng.uniform(0.0, 1.0, nb)
        rights[rng.uniform(0.0, 1.0, nb) < 0.15] = 0.0
        if rights.sum() <= 0.0:
            rights[int(rng.integers(0, nb))] = 1.0
        rights *= float(rng.uniform(0.05, 10.0)) / rights.sum()
        p_scan = solve_implicit_price(money, rights)
        p_bis = bisection_price(money, rights)
        worst = max(worst, abs(p_scan - p_bis))
    return SolverCrossCheck(instances, worst, 1e-10)


@dataclass(frozen=True)
class LowerBoundReport:
    rounds_checked: int
    violations: tuple[tuple[int, float, float], ...]  # (round, bound, price)

    @property
    def holds(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        if self.holds:
            return f"price lower bound holds on all {self.rounds_checked} rounds"
        r, bound, price = self.violations[0]
        return (
            f"price lower bound flagged on {len(self.violations)} rounds "
            f"(first: round {r}, bound {bound:g} > price {price:g})"
        )


def check_price_lower_bound(
    trace: Trace, weights: Sequence[float], rank_order: Sequence[int] | None = None
) -> LowerBoundReport:
    """Compare each round's price against the canonical-decomposition bound.

    ``weights`` are decomposition weights in claim-rank order (see
    ``pricing.mechanism_rank_weights``); ``rank_order`` maps ranks to buyer
    indices (``rights.claim_rank_order``) and defaults to the identity,
    which is correct for configs listing buyers by descending claim.
    Violations are reported, not raised: outside canonical mechanisms the
    bound is a diagnostic.
    """
    violations = []
    for rec in trace.records:
        money = rec.money_start
        if rank_order is not None:
            money = [rec.money_start[b] for b in rank_order]
        bound = canonical_lower_bound(weights, money)
        if bound > rec.price_good + CONSERVATION_TOL:
            violations.append((rec.round_index, bound, rec.price_good))
    return LowerBoundReport(len(trace.records), tuple(violations))
