"""Machine-speed calibration for the benchmark's timings.

On a shared host the same op can take 1.8x longer from one minute to the
next, far more than the regressions the benchmark must catch. So every run
also times a calibration kernel, interleaved with its ops, and reports each
op's time scaled to a fixed reference speed:

    calibrated = raw * REF_MS[kernel] / (kernel time measured next to the op)

The kernels run ``rightsmarket_seed``, a verbatim copy of the package's
simulation modules as of the commit that introduced the benchmark. They do
the same kind of work as the ops, on inputs of the same size, so a slower
machine slows kernel and op alike, while a change to the package moves the
op and not the kernel. ``REF_MS`` is each kernel's time on the machine the
benchmark was set up on, so calibrated times read close to real ones there.
Set-up times have a kernel of their own (``SETUP_REF_S``, see
``run.setup_samples``).
"""

from __future__ import annotations

import bisect
import dataclasses
import statistics
import time

import numpy as np
import rightsmarket_seed as seed
from rightsmarket_seed import mechanism as seed_mechanism
from rightsmarket_seed.core import BuyerSpec, MarketConfig, SellerSpec
from rightsmarket_seed.engine import SupplySchedule
from rightsmarket_seed.rights import DistributionMechanism

# which kernel calibrates which workload: the same layers at the same size
KERNEL_OF = {
    "presets": "engine3",
    "audit": "engine3",
    "crowd": "engine300",
    "hetero-clear": "clear50",
}
REF_MS = {"engine3": 1.3, "engine300": 6.5, "clear50": 3.5}
# seconds to import rightsmarket_seed in a fresh interpreter: set-up's kernel
SETUP_REF_S = 0.12
SAMPLE_EVERY = 0.05  # seconds between kernel samples while ops run


def _engine3():
    """Ten rounds of the 3-buyer benchmark market (scenario A)."""
    config = MarketConfig(
        sellers=(SellerSpec(SupplySchedule.constant(1.0)),),
        buyers=tuple(
            BuyerSpec(income=SupplySchedule.constant(m), claim=c)
            for c, m in ((1.0, 0.0), (0.75, 0.25), (0.125, 0.75))
        ),
        mechanism=DistributionMechanism.proportional(),
        horizon=10,
    )
    return lambda: seed.run(config)


def _engine300():
    """Two rounds of a 300-buyer, 10-seller market like ``crowd``'s."""
    config = seed.generate_dirichlet_scenario(300, 20.0, rng_seed=0, horizon=2)
    sellers = tuple(SellerSpec(SupplySchedule.constant(0.1)) for _ in range(10))
    config = dataclasses.replace(config, sellers=sellers)
    return lambda: seed.run(config)


def _clear50():
    """One multi-level clearing of a 20-seller, 50-buyer profile."""
    import workloads

    offers, bids, state = workloads.hetero_profile(
        20, 50, np.random.default_rng(0), seed.core, seed_mechanism
    )
    return lambda: seed_mechanism.clear(offers, bids, state)


KERNELS = {"engine3": _engine3, "engine300": _engine300, "clear50": _clear50}


class Calibrator:
    """Times one kernel between ops, at most every ``SAMPLE_EVERY`` seconds."""

    def __init__(self, workload: str) -> None:
        self.name = KERNEL_OF[workload]
        self.ref = REF_MS[self.name] / 1e3
        self._kernel = KERNELS[self.name]()
        self._kernel()  # warm-up
        self.times: list[float] = []  # when each sample ended
        self.samples: list[float] = []  # kernel seconds

    def sample(self, force: bool = False) -> None:
        t0 = time.perf_counter()
        if not force and self.times and t0 - self.times[-1] < SAMPLE_EVERY:
            return
        self._kernel()
        t1 = time.perf_counter()
        self.times.append(t1)
        self.samples.append(t1 - t0)

    def factor(self, start: float, end: float) -> float:
        """Scale for an op run in [start, end]: reference over the mean of
        the last kernel sample before it and the first one after it."""
        i = bisect.bisect_right(self.times, start)
        j = bisect.bisect_left(self.times, end)
        return self.ref / statistics.fmean(self.samples[max(0, i - 1):i] + self.samples[j:j + 1])
