"""Acceptance suite: one test per shipped claim, each printing a verdict.

Every criterion is asserted at its stated tolerance; the printed line makes
the outcome readable in captured output (`pytest -v -s tests/test_acceptance.py`).
"""

import pytest

from rightsmarket.analysis import (
    audit_coalition,
    audit_unilateral,
    check_nonexpansive,
    cross_validate_price_solver,
)
from rightsmarket.core import MarketConfig, SellerSpec
from rightsmarket.engine import SupplySchedule, generate_dirichlet_scenario, run
from rightsmarket.rights import (
    DistributionMechanism,
    contested_garment_rule,
    proportional_rule,
    verify_axioms,
)

from conftest import make_benchmark

BENCH_CLAIMS = [1.0, 0.75, 0.125]


def verdict(number: int, ok: bool, detail: str) -> bool:
    print(f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_01_exact_rights_values():
    prop = proportional_rule(1.0, BENCH_CLAIMS)
    cg = contested_garment_rule(1.0, BENCH_CLAIMS)
    prop_ok = all(
        abs(a - b) <= 1e-12 for a, b in zip(prop, (8 / 15, 6 / 15, 1 / 15))
    )
    cg_ok = all(abs(a - b) <= 1e-12 for a, b in zip(cg, (9 / 16, 6 / 16, 1 / 16)))
    assert verdict(
        1,
        prop_ok and cg_ok,
        f"proportional={tuple(round(x, 10) for x in prop)}, "
        f"contested_garment={tuple(round(x, 10) for x in cg)} at 1e-12",
    )


def test_criterion_02_canonical_closed_forms():
    # the rank-3 buyer of the benchmark claims holds income 3/4
    trace = run(make_benchmark(mechanism=DistributionMechanism.canonical(3), horizon=30))
    prices = trace.price_path()
    first_ok = abs(prices[0] - 7 / 8) <= 1e-12
    rest_ok = all(abs(p - 1.0) <= 1e-12 for p in prices[1:])
    assert verdict(
        2,
        first_ok and rest_ok,
        f"p1={prices[0]!r} (target 0.875), max |p-1| afterwards "
        f"{max(abs(p - 1.0) for p in prices[1:]):.2e} at 1e-12",
    )


def test_criterion_03_price_convergence():
    trace = run(make_benchmark(horizon=50))
    gaps = [abs(p - 1.0) for p in trace.price_path()]
    monotone = all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
    converged = gaps[49] < 1e-6
    assert verdict(
        3,
        monotone and converged,
        f"|p-1| non-expanding: {monotone}, |p50 - 1| = {gaps[49]:.2e} < 1e-6",
    )


def test_criterion_04_frustration_halving():
    rights_trace = run(make_benchmark(horizon=1000))
    free_trace = run(make_benchmark(variant="free_market", horizon=1000))
    ratio = rights_trace.per_round_mean_frustration(100) / free_trace.per_round_mean_frustration(100)
    ratio_ok = abs(ratio - 0.5) <= 1e-3
    rights = (8 / 15, 6 / 15, 1 / 15)
    incomes = (0.0, 0.25, 0.75)
    mean_r = rights_trace.per_buyer_mean_frustration(100)
    mean_f = free_trace.per_buyer_mean_frustration(100)
    comp_ok = True
    for b in (0, 1):  # the poor buyers of the benchmark
        target = 1.0 - incomes[b] / rights[b]
        comp_ok = comp_ok and abs(mean_r[b] - target / 2) <= 1e-4
        comp_ok = comp_ok and abs(mean_f[b] - target) <= 1e-4
    assert verdict(
        4,
        ratio_ok and comp_ok,
        f"rights/free ratio = {ratio:.6f} (0.5 +- 1e-3), poor-buyer means "
        f"match (1 - m/R)/2 vs (1 - m/R) within 1e-4: {comp_ok}",
    )


def test_criterion_05_zero_frustration_round_indices():
    prop_trace = run(make_benchmark(claim_scale=0.2, horizon=200))
    cg_trace = run(
        make_benchmark(
            mechanism=DistributionMechanism.contested_garment(), claim_scale=0.2, horizon=200
        )
    )
    prop_start = prop_trace.first_all_zero_frustration_round()
    cg_start = cg_trace.first_all_zero_frustration_round()
    # round 6 is the README's headline index, confirmed by the exact-arithmetic
    # reference TestScenarioBExact in test_engine.py (which gives 48 for
    # contested garment)
    prop_ok = prop_start == 6
    cg_ok = cg_start is not None and 44 <= cg_start <= 50
    assert verdict(
        5,
        prop_ok and cg_ok,
        f"proportional first stable all-zero round = {prop_start} (target: exactly 6), "
        f"contested garment = {cg_start} (target: 47 +- 3)",
    )


def test_criterion_06_free_market_baseline():
    trace = run(make_benchmark(variant="free_market", claim_scale=0.2, horizon=200))
    err = abs(trace.expected_frustration() - 1 / 3)
    assert verdict(6, err <= 1e-3, f"|E_f(200) - 1/3| = {err:.2e} <= 1e-3")


def test_criterion_07_solver_oracle_equivalence():
    report = cross_validate_price_solver(1000, rng_seed=0)
    assert verdict(7, report.passed, report.summary())


def test_criterion_08_equilibrium_audit():
    config = make_benchmark(horizon=20)
    unilateral = audit_unilateral(config)
    coalitions = [
        audit_coalition(config, coalition=[("buyer", 0), ("buyer", 1)]),
        audit_coalition(config, coalition=[("seller", 0), ("buyer", 0)]),
        audit_coalition(config, coalition=[("seller", 0), ("buyer", 2)]),
    ]
    enough = len(unilateral.tested) >= 60 and len(coalitions) >= 3
    clean = unilateral.max_gain <= 1e-9 and all(c.passed for c in coalitions)
    control = audit_unilateral(make_benchmark(horizon=20, price_factor=1.1))
    best = max(control.tested, key=lambda t: t.max_gain)
    control_ok = (
        control.max_gain > 1e-9
        and best.deviations[0].kind == "seller_price"
        and best.deviations[0].magnitude < 0
    )
    assert verdict(
        8,
        enough and clean and control_ok,
        f"{len(unilateral.tested)} unilateral trials (max gain {unilateral.max_gain:+.2e} "
        f"<= 1e-9), {len(coalitions)} coalition scans clean, undercutting the +10% "
        f"control gains {control.max_gain:+.3f}",
    )


def test_criterion_09_myopic_frustration_bound():
    worst = 0.0
    for seed in range(100):
        nb = 2 + seed % 7
        cfg = generate_dirichlet_scenario(
            nb, 15.0, rng_seed=seed, variant="myopic_rights", horizon=5
        )
        trace = run(cfg)
        for rec in trace.records:
            worst = max(worst, max(rec.frustration))
    assert verdict(
        9, worst <= 0.5 + 1e-12, f"max per-buyer per-round frustration {worst!r} <= 0.5 + 1e-12"
    )


def test_criterion_10_mechanism_axioms():
    mechanisms = [
        DistributionMechanism.proportional(),
        DistributionMechanism.contested_garment(),
        DistributionMechanism.canonical(1),
        DistributionMechanism.weighted([(8 / 15, 1), (6 / 15, 2), (1 / 15, 3)]),
    ]
    reports = [verify_axioms(m, samples=1000, rng_seed=i) for i, m in enumerate(mechanisms)]
    axioms_ok = all(r.passed for r in reports)
    weighted = mechanisms[3].allocate(1.0, BENCH_CLAIMS)
    decomposed = [0.0, 0.0, 0.0]
    for alpha, rank in mechanisms[3].components:
        part = DistributionMechanism.canonical(rank).allocate(1.0, BENCH_CLAIMS)
        decomposed = [d + alpha * p for d, p in zip(decomposed, part)]
    decomp_ok = all(abs(a - b) <= 1e-12 for a, b in zip(weighted, decomposed))
    assert verdict(
        10,
        axioms_ok and decomp_ok,
        "axioms pass on "
        + ", ".join(r.mechanism for r in reports)
        + f" (1000 samples each); weighted == canonical decomposition at 1e-12: {decomp_ok}",
    )


def test_criterion_11_conservation_suite():
    traces = [
        run(make_benchmark(mechanism=DistributionMechanism.canonical(3), horizon=30)),
        run(make_benchmark(horizon=50)),
        run(make_benchmark(horizon=1000)),
        run(make_benchmark(variant="free_market", horizon=1000)),
        run(make_benchmark(claim_scale=0.2, horizon=200)),
        run(
            make_benchmark(
                mechanism=DistributionMechanism.contested_garment(),
                claim_scale=0.2,
                horizon=200,
            )
        ),
        run(make_benchmark(variant="free_market", claim_scale=0.2, horizon=200)),
    ]
    for seed in range(0, 100, 10):
        cfg = generate_dirichlet_scenario(
            2 + seed % 7, 15.0, rng_seed=seed, variant="myopic_rights", horizon=5
        )
        traces.append(run(cfg))
    worst_money = max(t.max_money_residual for t in traces)
    worst_good = max(t.max_good_residual for t in traces)
    ok = worst_money <= 1e-9 and worst_good <= 1e-9
    assert verdict(
        11,
        ok,
        f"{len(traces)} traces re-run with in-loop checks; worst residuals "
        f"money {worst_money:.2e}, good {worst_good:.2e} (rights cap enforced per round)",
    )


def test_criterion_12_time_dependent_sweep():
    schedules = {
        "cosine": SupplySchedule.cosine(0.25, 10, 0.75),
        "step": SupplySchedule.step(1.0, 0.5, 50),
        "logistic": SupplySchedule.logistic(1.0, 0.15, 50.0),
        "bullwhip": SupplySchedule.bullwhip(0.75, 0.5, 10.0, 0.05),
        "hubbert": SupplySchedule.hubbert(1.5, 8.0, 50.0),
    }
    results = {}
    base = make_benchmark()
    for name, sched in schedules.items():
        traces = {}
        for variant in ("rights", "free_market"):
            cfg = MarketConfig(
                sellers=(SellerSpec(resupply=sched),),
                buyers=base.buyers,
                mechanism=base.mechanism,
                variant=variant,
                horizon=100,
            )
            traces[variant] = run(cfg)
        results[name] = (
            traces["rights"].expected_frustration(),
            traces["free_market"].expected_frustration(),
        )
    ok = all(r < f for r, f in results.values())
    assert verdict(
        12,
        ok,
        "final E_f rights < free on every schedule: "
        + ", ".join(f"{k} {r:.3f}<{f:.3f}" for k, (r, f) in results.items()),
    )
