"""Workloads of the rightsmarket benchmark.

Each workload turns a seed into a fixed cycle of ops. ``build_inputs`` is the
part the set-up time measures: importing this module imports the package,
and the inputs are built through its public functions only. ``make_ops``
wraps each input in an ``Op``: the timed call, the number of logical market
rounds it simulated, its invariant checks, and the summary that is compared
against the golden references in ``refs/`` (see ``make_refs.py``).

Ops call the package through module attributes (``engine.run``,
``cli.load_scenario``, ...) so the traced run can swap in its wrappers.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import math
import random
from pathlib import Path
from typing import Any, Callable

import numpy as np

from rightsmarket import analysis, cli, core, engine, mechanism
from rightsmarket.core import SellerSpec
from rightsmarket.engine import SupplySchedule
from rightsmarket.rights import DistributionMechanism

REFS = Path(__file__).resolve().parent / "refs"
DEFAULT_SEED = 0
TOL = 1e-9

AUDIT_HORIZON = 40
AUDIT_PRESETS = ("scenario-a-proportional", "scenario-a-contested-garment", "canonical-rank3-a")
# negative control: sellers posting 20% above the greedy price is not an
# equilibrium, so the audit must keep finding profitable deviations
AUDIT_CONTROL = ("scenario-a-proportional", 1.2)

CROWD_BUYERS = 300
CROWD_SELLERS = 10
CROWD_ROUNDS = 20
CROWD_CONCENTRATION = 20.0
CROWD_POOL = 8

HETERO_SIZES = ((5, 20), (20, 50), (40, 100))  # (sellers, buyers)
# clearing cost varies by +-12% between random profiles of one size, so each
# size gets enough profiles that their median hardly moves with the seed
HETERO_POOL = 96


class CheckFailed(Exception):
    """An op's output breaks an invariant or differs from its reference."""


@dataclasses.dataclass(frozen=True)
class Op:
    label: str
    call: Callable[[], Any]
    rounds: Callable[[Any], int]
    invariants: Callable[[Any], None]
    summarize: Callable[[Any], Any]
    digest: Callable[[Any], str] | None = None


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def same(got: Any, want: Any) -> bool:
    """Structural equality with floats compared to within ``TOL``."""
    if isinstance(want, float) or isinstance(got, float):
        return abs(got - want) <= TOL
    if isinstance(want, (list, tuple)):
        return (
            isinstance(got, (list, tuple))
            and len(got) == len(want)
            and all(same(g, w) for g, w in zip(got, want))
        )
    if isinstance(want, dict):
        return (
            isinstance(got, dict)
            and got.keys() == want.keys()
            and all(same(got[k], want[k]) for k in want)
        )
    return got == want


# -- presets: simulate every shipped preset and emit its CSV ------------------


def presets_inputs(seed: int) -> list[str]:
    names = cli.list_presets()
    random.Random(seed).shuffle(names)
    return names


def parse_csv(text: str) -> list:
    rows = list(csv.reader(io.StringIO(text)))
    return [rows[0], [[float(v) for v in row] for row in rows[1:]]]


def presets_ops(names: list[str]) -> list[Op]:
    def op(name: str) -> Op:
        def call():
            scn = cli.load_scenario(name)
            trace = engine.run(scn.config)
            buf = io.StringIO()
            cli.write_trace_csv(trace, buf, scn.output.columns)
            return trace.horizon, buf.getvalue()

        return Op(
            label=name,
            call=call,
            rounds=lambda out: out[0],
            invariants=lambda out: None,
            summarize=lambda out: parse_csv(out[1]),
            digest=lambda out: csv_digest(out[1]),
        )

    return [op(name) for name in names]


def csv_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# -- audit: the equilibrium audit at horizon 40 -------------------------------


def audit_inputs(seed: int) -> list[tuple[str, Any, list]]:
    cases = []
    for name in AUDIT_PRESETS:
        config = dataclasses.replace(cli.load_scenario(name).config, horizon=AUDIT_HORIZON)
        cases.append((name, config))
    name, factor = AUDIT_CONTROL
    control = dataclasses.replace(cases[0][1], greedy_price_factor=factor)
    cases.append((f"{name}@price-factor-{factor}", control))
    random.Random(seed).shuffle(cases)
    return [(name, config, cli.default_coalitions(config)) for name, config in cases]


def verdict(report) -> dict:
    """What the audit concluded: trial counts and the witnesses by name."""
    return {
        "kind": "coalition" if report.coalition else "unilateral",
        "tested": len(report.tested),
        "skipped": len(report.trials) - len(report.tested),
        "witnesses": ["; ".join(d.describe() for d in w.deviations) for w in report.witnesses],
    }


def audit_ops(cases) -> list[Op]:
    def op(name: str, config, coalitions: list) -> Op:
        def call():
            reports = [analysis.audit_unilateral(config, AUDIT_HORIZON)]
            for coalition in coalitions:
                reports.append(analysis.audit_coalition(config, AUDIT_HORIZON, coalition))
            return reports

        return Op(
            label=name,
            call=call,
            # every tested trial replays the whole horizon, as does each baseline
            rounds=lambda reports: sum(AUDIT_HORIZON * (1 + len(r.tested)) for r in reports),
            invariants=lambda reports: None,
            summarize=lambda reports: [verdict(r) for r in reports],
        )

    return [op(*case) for case in cases]


# -- crowd: 300 greedy buyers, 10 sellers, 20 rounds ---------------------------


def crowd_inputs(seed: int) -> list[tuple[str, Any]]:
    sellers = tuple(
        SellerSpec(SupplySchedule.constant(1.0 / CROWD_SELLERS)) for _ in range(CROWD_SELLERS)
    )
    configs = []
    for i in range(CROWD_POOL):
        mech = (
            DistributionMechanism.proportional()
            if i % 2 == 0
            else DistributionMechanism.contested_garment()
        )
        config = engine.generate_dirichlet_scenario(
            CROWD_BUYERS, CROWD_CONCENTRATION, rng_seed=seed + i, mechanism=mech,
            horizon=CROWD_ROUNDS,
        )
        configs.append((f"op{i}-{mech.kind}", dataclasses.replace(config, sellers=sellers)))
    return configs


def crowd_invariants(trace) -> None:
    # run() itself aborts on a money, good or rights-cap violation
    _expect(trace.horizon == CROWD_ROUNDS, f"{trace.horizon} rounds, want {CROWD_ROUNDS}")
    for rec in trace.records:
        _expect(
            math.isfinite(rec.price_good) and rec.price_good > 0.0,
            f"round {rec.round_index}: price {rec.price_good!r}",
        )
        _expect(
            rec.volume_sold <= rec.volume_offered + TOL,
            f"round {rec.round_index}: sold {rec.volume_sold!r} > offered {rec.volume_offered!r}",
        )
    ef = trace.expected_frustration()
    _expect(0.0 <= ef <= 1.0, f"expected frustration {ef!r} outside [0, 1]")


def crowd_ops(configs) -> list[Op]:
    def op(label: str, config) -> Op:
        return Op(
            label=label,
            call=lambda: engine.run(config),
            rounds=lambda trace: trace.horizon,
            invariants=crowd_invariants,
            summarize=lambda trace: {
                "price_path": trace.price_path(),
                "expected_frustration": trace.expected_frustration(),
            },
        )

    return [op(*c) for c in configs]


# -- hetero-clear: one clearing over many price levels ------------------------


def hetero_profile(num_sellers: int, num_buyers: int, rng: np.random.Generator,
                   core=core, mech=mechanism):
    """Sellers at distinct prices; the first half of the buyers are poor and
    offer all their Right at distinct prices, the rest are rich and buy it.
    ``core`` and ``mech`` supply the types, so the calibration kernel can
    build the same profile for its own copy of the package."""
    volumes = rng.uniform(0.5, 1.5, num_sellers)
    prices = 0.5 + rng.permutation(num_sellers) / num_sellers
    offers = [mech.SellerOffer(float(v), float(p)) for v, p in zip(volumes, prices)]
    sellers = [core.SellerState(good=float(v)) for v in volumes]
    num_poor = num_buyers // 2
    right_prices = 0.1 + 0.8 * rng.permutation(num_poor) / num_poor
    buyers, bids = [], []
    for b in range(num_buyers):
        if b < num_poor:
            right = float(rng.uniform(0.5, 1.5))
            money = float(rng.uniform(0.0, 0.2))
            bids.append(mech.BuyerBid(right, float(right_prices[b]), right, 2.0, 0.0, 0.0))
        else:
            right = float(rng.uniform(0.1, 0.5))
            money = float(rng.uniform(2.0, 5.0))
            extra = float(rng.uniform(1.0, 3.0))
            bids.append(mech.BuyerBid(0.0, 0.0, right + extra, 2.0, extra, 1.0))
        buyers.append(core.BuyerState(good=0.0, money=money, right=right))
    return offers, bids, core.MarketState(1, sellers, buyers)


def hetero_inputs(seed: int) -> list[tuple[str, Any]]:
    profiles = []
    for k in range(HETERO_POOL):
        ns, nb = HETERO_SIZES[k % len(HETERO_SIZES)]
        profiles.append((f"op{k}-{ns}x{nb}", hetero_profile(ns, nb, np.random.default_rng([seed, k]))))
    return profiles


def hetero_invariants(offers, state):
    def check(result) -> None:
        for b, buyer in enumerate(state.buyers):
            _expect(
                result.good_bought[b] <= buyer.right + result.right_bought[b] + TOL,
                f"buyer {b} bought good beyond their rights",
            )
        _expect(
            abs(sum(result.money_spent_good) - sum(result.seller_revenue)) <= TOL,
            "money spent on good differs from seller revenue",
        )
        _expect(
            abs(sum(result.right_sold) - sum(result.right_bought)) <= TOL,
            "right sold differs from right bought",
        )
        for s, offer in enumerate(offers):
            _expect(result.seller_sold[s] <= offer.volume + TOL, f"seller {s} oversold")

    return check


def fingerprint(values) -> list[float]:
    """Sum and position-weighted mean of a result vector: two numbers that
    move when any entry moves, instead of storing every entry."""
    n = len(values)
    return [sum(values), sum((i + 1) * v for i, v in enumerate(values)) / n]


def hetero_ops(profiles) -> list[Op]:
    def op(label: str, profile) -> Op:
        offers, bids, state = profile
        return Op(
            label=label,
            call=lambda: mechanism.clear(offers, bids, state),
            rounds=lambda result: 1,
            invariants=hetero_invariants(offers, state),
            summarize=lambda r: {
                name: fingerprint(getattr(r, name))
                for name in ("good_bought", "right_bought", "right_sold", "seller_sold",
                             "seller_revenue")
            },
        )

    return [op(*p) for p in profiles]


WORKLOADS = {
    "presets": (presets_inputs, presets_ops),
    "audit": (audit_inputs, audit_ops),
    "crowd": (crowd_inputs, crowd_ops),
    "hetero-clear": (hetero_inputs, hetero_ops),
}


def build_inputs(name: str, seed: int):
    return WORKLOADS[name][0](seed)


def make_ops(name: str, inputs) -> list[Op]:
    return WORKLOADS[name][1](inputs)


def check(op: Op, out: Any, ref: dict | None) -> bool | None:
    """Raise ``CheckFailed`` unless ``out`` keeps the op's invariants and
    matches its reference, if it has one. Returns whether the output is
    byte-identical to the reference, where the reference has a digest."""
    op.invariants(out)
    if ref is None:
        return None
    _expect(same(op.summarize(out), ref["summary"]), f"{op.label}: output differs from reference")
    if "sha256" in ref and op.digest is not None:
        return op.digest(out) == ref["sha256"]
    return None


# -- golden references --------------------------------------------------------


def load_refs(name: str, seed: int) -> dict[str, Any]:
    """Reference summary per op label; empty where the seed has none."""
    if name == "presets":
        out = {}
        digests = json.loads((REFS / "presets.json").read_text())["sha256"]
        for label, digest in digests.items():
            text = (REFS / "presets" / f"{label}.csv").read_text()
            out[label] = {"summary": parse_csv(text), "sha256": digest}
        return out
    data = json.loads((REFS / f"{name}.json").read_text())
    if data["seed"] is not None and data["seed"] != seed:
        return {}
    return {label: {"summary": summary} for label, summary in data["ops"].items()}
