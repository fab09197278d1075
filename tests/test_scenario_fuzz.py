"""Random scenario files through ``simulate``: bad input exits 2, a run that
fails exits 4, and nothing escapes as a traceback.

Each example draws a scenario dict, with numbers at the edges of the float
range (zero, the smallest subnormal, 1e-300, 1e300, 1e308) as well as
ordinary ones, every schedule kind, variant and mechanism kind, one to four
sellers, one to five buyers and a horizon of at most 8. It writes the dict
as JSON, calls ``cli.main`` in this process and requires exit code 0, 2 or
4; on 0, every field of the CSV must be a finite number.

    PYTHONPATH=src python -m pytest tests/test_scenario_fuzz.py --hypothesis-profile=ci
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings, strategies as st

from rightsmarket import cli
from rightsmarket.core import VARIANTS
from rightsmarket.engine import SCHEDULE_PARAMS

EDGES = (0.0, 5e-324, 1e-300, 1.0, 1e300, 1e308)

# claims, weights and factors are not negative, and no period or width is
# zero: those exit 2 at parse time, which other tests pin, and here they
# would end most scenarios before any round is played
magnitudes = st.one_of(st.sampled_from(EDGES), st.floats(0.0, 2.0))
numbers = st.one_of(magnitudes, magnitudes.map(lambda x: -x))


def schedules():
    def param(name):
        return numbers.filter(bool) if name in ("period", "width") else numbers

    return st.sampled_from(sorted(SCHEDULE_PARAMS)).flatmap(
        lambda kind: st.fixed_dictionaries(
            {"kind": st.just(kind), **{p: param(p) for p in SCHEDULE_PARAMS[kind]}}
        )
    )


def mechanisms(num_buyers):
    # ranks one past the buyers and weights that do not sum to 1 too, which
    # must exit 2
    ranks = st.integers(1, num_buyers + 1)
    shares = st.lists(st.tuples(st.integers(1, 4), ranks), min_size=1, max_size=3).map(
        lambda parts: [[n / sum(n for n, _ in parts), r] for n, r in parts]
    )
    return st.one_of(
        st.sampled_from([{"kind": "proportional"}, {"kind": "contested_garment"}]),
        st.builds(lambda r: {"kind": "canonical", "rank": r}, ranks),
        st.builds(
            lambda parts: {"kind": "weighted", "components": parts},
            st.one_of(shares, st.lists(st.tuples(magnitudes, ranks).map(list), max_size=3)),
        ),
    )


@st.composite
def scenarios(draw):
    num_buyers = draw(st.integers(1, 5))
    scenario = {
        "name": "fuzz",
        "variant": draw(st.sampled_from(VARIANTS)),
        "horizon": draw(st.integers(1, 8)),
        "mechanism": draw(mechanisms(num_buyers)),
        "sellers": draw(
            st.lists(st.fixed_dictionaries({"resupply": schedules()}), min_size=1, max_size=4)
        ),
        "buyers": draw(
            st.lists(
                st.fixed_dictionaries({"claim": magnitudes, "income": schedules()}),
                min_size=num_buyers,
                max_size=num_buyers,
            )
        ),
    }
    for key in ("seller_storage_cost", "greedy_price_factor"):
        if draw(st.booleans()):
            scenario[key] = draw(magnitudes)
    return scenario


def simulate(scenario):
    """Exit code, stderr and CSV text of ``simulate`` on ``scenario``."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "scenario.json", Path(tmp) / "trace.csv"
        path.write_text(json.dumps(scenario))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["simulate", "--scenario", str(path), "--out", str(out)])
        return code, err.getvalue(), out.read_text() if out.exists() else None


def constant(level):
    return {"kind": "constant", "level": level}


def logistic(high):
    return {"kind": "logistic", "high": high, "rate": 1e-300, "midpoint": 1.0}


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scenarios())
# the free market's hypothetical Right, 1e308 * 1e308 / 1e308, overflows:
# it used to be written to the CSV as inf with exit 0
@example(
    {
        "name": "fuzz",
        "variant": "free_market",
        "horizon": 1,
        "mechanism": {"kind": "proportional"},
        "sellers": [{"resupply": constant(1e308)}],
        "buyers": [{"claim": 1e308, "income": constant(1.0)}],
    }
)
# the Right price, a mean weighted by Right volumes near 1e300, overflows
# while every round check passes: it used to be written as inf with exit 0
@example(
    {
        "name": "fuzz",
        "variant": "rights",
        "horizon": 5,
        "mechanism": {"kind": "canonical", "rank": 2},
        "sellers": [{"resupply": logistic(1e300)}, {"resupply": logistic(1e300)}],
        "buyers": [
            {
                "claim": 2.6931805709437023e-70,
                "income": {"kind": "step", "before": 5e-324, "after": -1.0, "switch_round": 1e-300},
            },
            {"claim": 1e-300, "income": logistic(1e300)},
        ],
        "greedy_price_factor": 1e300,
    }
)
def test_a_scenario_exits_cleanly(scenario):
    code, err, csv = simulate(scenario)
    assert code in (cli.EXIT_OK, cli.EXIT_PARSE, cli.EXIT_RUNTIME), err
    assert "Traceback" not in err
    if code == cli.EXIT_OK:
        header, *rows = csv.splitlines()
        assert len(rows) == scenario["horizon"]
        for row in rows:
            fields = row.split(",")
            assert len(fields) == len(header.split(","))
            assert all(math.isfinite(float(x)) for x in fields), row
