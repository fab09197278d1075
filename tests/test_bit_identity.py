"""Byte-for-byte pins of 300-buyer traces.

Each case runs a 300-buyer x 10-seller market and hashes the CSV that
``write_trace_csv`` writes for it. The digests were taken before the greedy
round was rewritten for speed, so any change to a trace value, in the last
bit of any float, fails here. The golden preset CSVs cover only 3-buyer
markets, and the benchmark's 300-buyer references are compared to within
1e-9 and only under the rights variant. The markets are drawn with
``random.Random``, whose stream is fixed across Python versions, so the
digests do not depend on the installed numpy.

Every all-greedy case but the free market runs on the wide kernel
(``wide``), since 300 buyers is above ``engine.WIDE_MIN_BUYERS``; the
digests predate it, so they also pin the kernel to the scalar round. The
adjusted case runs on the scalar round, and its replay from round 1 runs
on the batch kernel (``batch``) as a batch of one, which pins that kernel
to the same totals.
"""

import hashlib
import io
import random

import pytest

from rightsmarket import batch, wide
from rightsmarket.cli import write_trace_csv
from rightsmarket.core import BuyerSpec, MarketConfig, SellerSpec
from rightsmarket.engine import (
    BidAdjustment,
    SupplySchedule,
    replay_batch,
    run,
    run_with_checkpoints,
)
from rightsmarket.rights import DistributionMechanism

NUM_BUYERS = 300
NUM_SELLERS = 10
HORIZON = 20

# seller 3 posts 10% below the greedy price in round 4; in round 7, which
# trades, two poor buyers put less of their Right on sale, the second one at
# a higher price, so that stage 2 sees two Right levels
ADJUSTMENTS = (
    BidAdjustment(4, ("seller", 3), price_factor=0.9),
    BidAdjustment(7, ("buyer", 0), right_offer_factor=0.5),
    BidAdjustment(7, ("buyer", 7), right_offer_factor=0.25, price_factor=1.3),
)

CASES = {
    "rights-proportional": (
        "proportional", "rights", (),
        "6ec0e5591a7b736bfa930da1bffce1e9cd630ca315a1880aca5c530b904af0d8",
    ),
    "rights-contested-garment": (
        "contested_garment", "rights", (),
        "52ceedd70e779dd1514a01061e4bc5a75b890b86a4ecb64dcd5db2ab6ba57211",
    ),
    "myopic-rights": (
        "proportional", "myopic_rights", (),
        "816513cb15b086dc5cee1febd58fdd52f1a53a6457b7c9f295ae2fc18b90d3cb",
    ),
    "free-market": (
        "proportional", "free_market", (),
        "740e7530716e6d84ff2740769a2f86a32e0ab5db265f6e871f9fc76afba1a2d4",
    ),
    "rights-adjusted": (
        "contested_garment", "rights", ADJUSTMENTS,
        "f062da3adff77278b2942d222444446dbf788454b85b553c6d77c1f90aff6208",
    ),
}


def crowd_config(mechanism: str, variant: str) -> MarketConfig:
    """Claims fall and incomes rise with the buyer index, as in
    ``generate_dirichlet_scenario``, each with seeded noise: total claim 2
    against a unit resupply shared by the sellers, total income 1."""
    rng = random.Random(11)
    claim_w = [rng.uniform(0.5, 1.5) / (j + 1) for j in range(NUM_BUYERS)]
    income_w = [rng.uniform(0.5, 1.5) / (NUM_BUYERS - j) for j in range(NUM_BUYERS)]
    claim_total, income_total = sum(claim_w), sum(income_w)
    return MarketConfig(
        sellers=tuple(
            SellerSpec(SupplySchedule.constant(1.0 / NUM_SELLERS)) for _ in range(NUM_SELLERS)
        ),
        buyers=tuple(
            BuyerSpec(income=SupplySchedule.constant(m / income_total), claim=2.0 * d / claim_total)
            for d, m in zip(claim_w, income_w)
        ),
        mechanism=DistributionMechanism(mechanism),
        variant=variant,
        horizon=HORIZON,
    )


def trace_digest(mechanism: str, variant: str, adjustments=()) -> str:
    buf = io.StringIO()
    write_trace_csv(run(crowd_config(mechanism, variant), adjustments=adjustments), buf)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("case", CASES)
def test_trace_csv_is_byte_identical(case):
    mechanism, variant, adjustments, digest = CASES[case]
    assert trace_digest(mechanism, variant, adjustments) == digest


def test_adjustments_change_the_trace():
    mechanism, variant, adjustments, _ = CASES["rights-adjusted"]
    assert trace_digest(mechanism, variant, adjustments) != trace_digest(mechanism, variant)


def test_the_greedy_rights_runs_play_on_the_wide_kernel(monkeypatch):
    played = []
    real = wide.play_rounds

    def spy(config, *args):
        played.append(config.variant)
        return real(config, *args)

    monkeypatch.setattr(wide, "play_rounds", spy)
    on_wide = []
    for case, (mechanism, variant, adjustments, _) in CASES.items():
        before = len(played)
        trace_digest(mechanism, variant, adjustments)
        if len(played) > before:
            on_wide.append(case)
    assert on_wide == ["rights-proportional", "rights-contested-garment", "myopic-rights"]


def test_a_replay_of_one_list_plays_on_the_batch_kernel(monkeypatch):
    # two Right levels in round 7 keep stage 2's multi-level walk on a numpy
    # kernel; the replay from round 1 must total what the adjusted run does
    played = []
    real = batch.play_batch

    def spy(config, checkpoints, horizon, adjustments):
        played.append(len(adjustments))
        return real(config, checkpoints, horizon, adjustments)

    config = crowd_config("contested_garment", "rights")
    _, checkpoints = run_with_checkpoints(config)
    monkeypatch.setattr(batch, "play_batch", spy)
    [(sellers, buyers)] = replay_batch(config, [checkpoints[0]], HORIZON, [ADJUSTMENTS])
    assert played == [1]
    trace = run(config, adjustments=ADJUSTMENTS)
    assert repr((sellers, buyers)) == repr((trace.seller_utilities, trace.buyer_utilities))
