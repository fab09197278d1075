"""Empirical audit of the equilibrium and dynamics claims.

The audit replays the market with exactly one trader (or a small coalition)
deviating from greedy in one round and reverting afterwards, and compares
total utilities against the all-greedy baseline. Rounds before the first
deviating round are the baseline's, so each replay resumes from the
baseline's checkpoint at that round instead of re-simulating from round 1;
its gains equal those of a full replay bit for bit. Each report replays
all its trials in one call of ``engine.replay_batch``, and ``audit``
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
from dataclasses import dataclass
from typing import Sequence

from .core import CONSERVATION_TOL, EQ_TOL, MarketConfig
from .engine import (
    BidAdjustment,
    Trace,
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
    amount in the following round.
    """

    kind: str
    trader: int
    round_index: int
    magnitude: float

    def __post_init__(self) -> None:
        if self.kind not in DEVIATION_KINDS:
            raise ConfigError(f"unknown deviation kind {self.kind!r}")

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
        if self.skipped:
            return f"SKIP {self.deviations[0].describe()}: {self.reason}"
        parts = "; ".join(d.describe() for d in self.deviations)
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
        if not self.trials:  # not to be read as tested and passed
            return f"{kind} audit: 0 trials, nothing to test"
        return (
            f"{kind} audit: {len(self.tested)} trials "
            f"({len(self.trials) - len(self.tested)} skipped), "
            f"max gain {self.max_gain:+.3e}, "
            f"{len(self.witnesses)} profitable deviation(s)"
        )


def _utility(
    sellers: Sequence[float], buyers: Sequence[float], key: tuple[str, int]
) -> float:
    side, idx = key
    return sellers[idx] if side == "seller" else buyers[idx]


def _rounds(horizon: int) -> tuple[int, int, int]:
    """The rounds the audit samples: 1, T/2 and T."""
    return (1, max(1, horizon // 2), horizon)


OUTSIDE_HORIZON = "round outside horizon"


def _skip_reason(dev: Deviation, baseline: Trace) -> str:
    """Why ``dev`` cannot be played against ``baseline``, or "" if it can.

    Selling less Right and repricing the Right offer need a buyer who
    offered some that round (poor); buying less needs one who demanded some.
    """
    if not 1 <= dev.round_index <= baseline.horizon:
        return OUTSIDE_HORIZON
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


def default_deviation_grid(config: MarketConfig, horizon: int, baseline: Trace) -> list[Deviation]:
    """Every trader's menu at each ``DEFAULT_MAGNITUDES`` size in rounds 1,
    T/2 and T, sellers first."""
    members = [("seller", s) for s in range(config.num_sellers)]
    members += [("buyer", b) for b in range(config.num_buyers)]
    return [
        d
        for member in members
        for r in _rounds(horizon)
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


# a report to play: its coalition, () for the unilateral report, and its
# grid, None for the default one
_Plan = tuple[tuple[tuple[str, int], ...], Sequence | None]


def _audit(config: MarketConfig, horizon: int | None, plans: Sequence[_Plan]) -> list[AuditReport]:
    """One report per plan: the ``_combos`` of each played against one
    all-greedy baseline.

    The audit covers the regime the equilibrium claim is stated for: total
    resupply and total income 1 in rounds 1, T/2 and T, and a variant whose
    round applies deviations, which ``free_market``'s does not. A played
    combo resumes at the baseline checkpoint of its first deviating round.
    Every played combo of every report goes to one ``replay_batch`` call,
    in report and trial order, so a failing trial raises what the reports
    made one after another would raise.
    """
    T = horizon if horizon is not None else config.horizon
    if config.variant == "free_market":
        raise ConfigError(
            f"variant {config.variant!r} cannot be audited: its round ignores deviations"
        )
    if not all(config.is_normalized(r) for r in _rounds(T)):
        raise ConfigError("audit needs sum g = sum m = 1 in rounds 1, T/2 and T")
    baseline, checkpoints = run_with_checkpoints(config, T)
    base_sellers, base_buyers = baseline.seller_utilities, baseline.buyer_utilities
    played = [_combos(config, T, baseline, coalition, grid) for coalition, grid in plans]
    starts, lists = [], []
    for devs, reason in itertools.chain.from_iterable(played):
        if not reason:
            adjustments = [a for d in devs for a in d.to_adjustments(config)]
            starts.append(checkpoints[min(a.round_index for a in adjustments) - 1])
            lists.append(adjustments)
    totals = iter(replay_batch(config, starts, T, lists))
    out = []
    for (coalition, _), pairs in zip(plans, played):
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


def _combos(
    config: MarketConfig,
    T: int,
    baseline: Trace,
    coalition: tuple[tuple[str, int], ...],
    grid: Sequence | None,
) -> list[tuple[Sequence[Deviation], str]]:
    """The (deviations, skip reason) pairs of one report. The unilateral
    report, ``coalition`` (), plays each deviation of ``grid``, by default
    ``default_deviation_grid``, on its own. A coalition report plays each
    combo of ``grid``, by default the product of the members'
    ``default_coalition_menu`` at mid-horizon, skipped as
    ``audit_coalition`` says."""
    if not coalition:
        if grid is None:
            grid = default_deviation_grid(config, T, baseline)
        return [((d,), _skip_reason(d, baseline)) for d in grid]
    if grid is None:
        mid = _rounds(T)[1]
        grid = itertools.product(*(default_coalition_menu(m, mid, baseline) for m in coalition))
    members = set(coalition)

    def reason(combo: Sequence[Deviation]) -> str:
        if {d.trader_key() for d in combo} != members:
            return "menu/member mismatch"
        if not all(1 <= d.round_index <= T for d in combo):
            return OUTSIDE_HORIZON
        return ""

    return [(combo, reason(combo)) for combo in grid]


def _coalition(members: Sequence[tuple[str, int]]) -> tuple[tuple[str, int], ...]:
    """``members`` as a tuple, or a ``ConfigError`` unless they are two or
    more distinct traders."""
    coalition = tuple(members)
    if len(coalition) < 2:
        raise ConfigError("a coalition needs at least two members")
    if len(set(coalition)) != len(coalition):
        raise ConfigError(f"coalition members must be distinct, got {list(coalition)!r}")
    return coalition


def audit_unilateral(
    config: MarketConfig,
    horizon: int | None = None,
    deviation_grid: Sequence[Deviation] | None = None,
) -> AuditReport:
    """Replay the market once per deviation and report utility gains.

    The deviating trader plays greedy in every other round. Any gain above
    ``CONSERVATION_TOL`` is a witness against the equilibrium claim. This
    is ``audit``'s unilateral report, on its own and on any grid.
    """
    return _audit(config, horizon, [((), deviation_grid)])[0]


def audit_coalition(
    config: MarketConfig,
    horizon: int | None = None,
    coalition: Sequence[tuple[str, int]] = (),
    joint_grid: Sequence[Sequence[Deviation]] | None = None,
) -> AuditReport:
    """Joint-deviation scan for one coalition.

    A joint deviation wins only if every member gains more than
    ``CONSERVATION_TOL``. Every combo of ``joint_grid`` whose traders are
    exactly the coalition's members is played, and any other is skipped as
    a menu/member mismatch; so is a combo with a deviation outside rounds
    1 to T, as the unilateral audit skips one. The default grid is the
    cartesian product of small per-member menus at mid-horizon. This is
    one of ``audit``'s coalition reports, on its own and on any grid.
    """
    return _audit(config, horizon, [(_coalition(coalition), joint_grid)])[0]


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
    plans = [((), None)] + [(_coalition(c), None) for c in coalitions]
    return _audit(config, horizon, plans)


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
