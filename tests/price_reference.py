"""``rightsmarket.pricing.solve_implicit_price`` as it was while each
interval's candidate had to pass a floor test as well as its ceiling, kept
as a differential oracle.

``tests/test_pricing.py`` requires all three solvers, the scalar scan,
``wide.implicit_price`` and ``batch.implicit_price``, to return this scan's
price by ``repr``, or to raise its ``PricingError``. A candidate here must
lie at or below its interval's ceiling and above its floor, less the slack,
or at least 0.0 on interval 0. It is not part of the package.

One input changed since: the solvers refuse an infinite Right. This scan
takes one, and on an infinite Right with infinite money it never ends, so
the oracle is fed finite Right only.
"""

from __future__ import annotations

import math
from typing import Sequence

from rightsmarket.core import EQ_TOL
from rightsmarket.errors import PricingError


def solve_implicit_price(money: Sequence[float], rights: Sequence[float]) -> float:
    """Solve the implicit price equation by an ascending breakpoint scan.

    Candidate poor sets only change at the breakpoints M_b/R_b. On the
    interval between two breakpoints the equation is linear with solution

        p = (sum(M) + sum_poor(M)) / (sum(R) + sum_poor(R)),

    and uniqueness means exactly one candidate lands inside its own
    interval. Returns that price. A buyer is poor when p * R_b > M_b, so a
    buyer exactly on a breakpoint counts as rich.
    """
    m = [float(x) for x in money]
    r = [float(x) for x in rights]
    if len(m) != len(r):
        raise PricingError("money and rights vectors differ in length")
    for x, y in zip(m, r):
        # ``not x >= 0.0`` also catches NaN, on which the scan never ends
        if not (x >= 0.0 and y >= 0.0):
            raise PricingError("money and rights must be non-negative")
    total_rights = sum(r)
    if total_rights <= 0.0:
        raise PricingError("no rights in circulation")
    total_money = sum(m)
    if total_money == 0.0:
        # LHS == RHS == 0 at p = 0; every buyer sits on the rich boundary
        return 0.0

    n = len(m)
    # sweep intervals in ascending breakpoint order, growing the poor set
    # incrementally: membership is decided on the exact float ratios, so a
    # buyer sitting on a breakpoint lands in a well-defined interval
    holders = sorted([(m[b] / r[b], b) for b in range(n) if r[b] > 0.0])
    num_holders = len(holders)
    slack = EQ_TOL  # admit candidates within one rounding step of an edge
    poor_money = 0.0
    poor_rights = 0.0
    k = 0
    lo = 0.0
    first = True
    while True:
        # absorb every holder whose breakpoint is at or below the interval floor
        while k < num_holders and holders[k][0] <= lo:
            b = holders[k][1]
            poor_money += m[b]
            poor_rights += r[b]
            k += 1
        hi = holders[k][0] if k < num_holders else math.inf
        p = (total_money + poor_money) / (total_rights + poor_rights)
        # the roots of the intervals below the solution lie above their
        # ceilings, so test the ceiling first; ``x if x > 1.0 else 1.0`` is
        # max(1.0, x), as the builtin compares
        if hi == math.inf or p <= hi + slack * (p if p > 1.0 else 1.0):
            if p >= 0.0 if first else p > lo - slack * (lo if lo > 1.0 else 1.0):
                return p
        if hi == math.inf:
            raise PricingError("interval scan found no admissible price")
        lo = hi
        first = False
