"""Shared scenario builders for the test suite."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

from rightsmarket.core import BuyerSpec, MarketConfig, SellerSpec
from rightsmarket.engine import SupplySchedule
from rightsmarket.rights import DistributionMechanism

# ``--hypothesis-profile=ci`` runs the property tests that leave
# ``max_examples`` unset ten times longer than the default
settings.register_profile("ci", max_examples=1000)

# the constant-supply benchmark: one unit of good per round against claims
# (1, 3/4, 1/8) and incomes (0, 1/4, 3/4); "scenario B" shrinks every claim
# five-fold so the system is no longer over-demanded
A_CLAIMS = (1.0, 0.75, 0.125)
A_INCOMES = (0.0, 0.25, 0.75)


def make_benchmark(
    mechanism=None,
    variant="rights",
    claim_scale=1.0,
    horizon=60,
    num_sellers=1,
    price_factor=1.0,
    storage_cost=1.0,
):
    mech = mechanism if mechanism is not None else DistributionMechanism.proportional()
    return MarketConfig(
        sellers=tuple(
            SellerSpec(SupplySchedule.constant(1.0 / num_sellers)) for _ in range(num_sellers)
        ),
        buyers=tuple(
            BuyerSpec(income=SupplySchedule.constant(m), claim=d * claim_scale)
            for m, d in zip(A_INCOMES, A_CLAIMS)
        ),
        mechanism=mech,
        variant=variant,
        horizon=horizon,
        greedy_price_factor=price_factor,
        seller_storage_cost=storage_cost,
    )


@pytest.fixture
def scenario_a():
    return make_benchmark


@pytest.fixture
def scenario_b():
    def make(**kwargs):
        kwargs.setdefault("claim_scale", 0.2)
        kwargs.setdefault("horizon", 200)
        return make_benchmark(**kwargs)

    return make


SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_python(*args: str, timeout: float = 60.0) -> subprocess.CompletedProcess:
    """Run ``python *args`` on this checkout's package, so that a call that
    never returns fails the test at ``timeout`` seconds instead of hanging
    the suite."""
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=timeout, env=env
    )
