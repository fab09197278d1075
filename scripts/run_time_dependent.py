"""Time-dependent resupply: rights trading vs the free market per schedule.

For each shipped supply schedule (cosine, step, logistic, bullwhip, Hubbert
peak) and the cosine income variant, runs both variants to horizon 100 and
writes paired CSVs.

    python scripts/run_time_dependent.py [outdir]
"""

import sys
from dataclasses import replace
from pathlib import Path

from rightsmarket.cli import load_scenario, write_trace_csv
from rightsmarket.engine import run

PRESETS = [
    "supply-cosine",
    "supply-step",
    "supply-logistic",
    "supply-bullwhip",
    "supply-hubbert",
    "income-cosine",
]


def main() -> None:
    outdir = Path(sys.argv[1] if len(sys.argv) > 1 else "results")
    outdir.mkdir(parents=True, exist_ok=True)
    for name in PRESETS:
        scenario = load_scenario(name)
        ef = {}
        for variant in ("rights", "free_market"):
            trace = run(replace(scenario.config, variant=variant))
            target = outdir / f"{name}-{variant}.csv"
            with open(target, "w", newline="") as fh:
                write_trace_csv(trace, fh)
            ef[variant] = trace.expected_frustration()
        print(f"{name}: E_f rights {ef['rights']:.4f} vs free market {ef['free_market']:.4f}")


if __name__ == "__main__":
    main()
