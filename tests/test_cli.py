"""Scenario files, CSV emission, exit codes and presets."""

import io
import json
import math
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from rightsmarket import cli
from rightsmarket.cli import (
    BASE_COLUMNS,
    EXIT_DEVIATION,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_RUNTIME,
    list_presets,
    load_scenario,
    main,
    parse_scenario,
    scenario_to_dict,
    write_trace_csv,
)
from rightsmarket.engine import RoundRecord, Trace, run
from rightsmarket.errors import ScenarioError, SimulationError

from conftest import run_python

AUDIT_TEXT = Path(__file__).parent / "audit_text"
# every preset's audit, one audit without its coalitions and one at horizon
# 3, where rounds 1 and T/2 coincide, by golden name
AUDIT_CASES = {p: ["--scenario", p] for p in list_presets()}
AUDIT_CASES["scenario-a-contested-garment.unilateral-only"] = [
    "--scenario", "scenario-a-contested-garment", "--unilateral-only"
]
AUDIT_CASES["scenario-a-proportional.horizon-3"] = [
    "--scenario", "scenario-a-proportional", "--horizon", "3"
]


def minimal_scenario(**overrides):
    data = {
        "name": "unit",
        "variant": "rights",
        "horizon": 5,
        "mechanism": {"kind": "proportional"},
        "sellers": [{"resupply": {"kind": "constant", "level": 1.0}}],
        "buyers": [
            {"claim": 1.0, "income": {"kind": "constant", "level": 0.0}},
            {"claim": 0.75, "income": {"kind": "constant", "level": 0.25}},
            {"claim": 0.125, "income": {"kind": "constant", "level": 0.75}},
        ],
    }
    data.update(overrides)
    return data


class TestScenarioParsing:
    def test_parse_serialize_parse_is_identity(self):
        scn = parse_scenario(minimal_scenario())
        again = parse_scenario(scenario_to_dict(scn))
        assert again.config == scn.config
        assert again.output == scn.output
        assert scenario_to_dict(again) == scenario_to_dict(scn)

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ScenarioError, match="unknown key"):
            parse_scenario(minimal_scenario(frobnicate=1))

    def test_unknown_schedule_key_rejected(self):
        bad = minimal_scenario(
            sellers=[{"resupply": {"kind": "constant", "level": 1.0, "phase": 2}}]
        )
        with pytest.raises(ScenarioError, match="phase"):
            parse_scenario(bad)

    def test_missing_schedule_parameter(self):
        bad = minimal_scenario(sellers=[{"resupply": {"kind": "cosine", "period": 10}}])
        with pytest.raises(ScenarioError, match="cosine"):
            parse_scenario(bad)

    def test_unknown_mechanism(self):
        with pytest.raises(ScenarioError, match="mechanism"):
            parse_scenario(minimal_scenario(mechanism={"kind": "lottery"}))

    @pytest.mark.parametrize("key", ["sellers", "buyers"])
    def test_traders_must_be_a_list(self, key):
        with pytest.raises(ScenarioError, match=key):
            parse_scenario(minimal_scenario(**{key: 5}))

    def test_weighted_mechanism_round_trips(self):
        data = minimal_scenario(
            mechanism={"kind": "weighted", "components": [[0.6, 1], [0.4, 2]]}
        )
        scn = parse_scenario(data)
        assert scenario_to_dict(scn)["mechanism"] == data["mechanism"]

    def test_bad_columns_rejected(self):
        bad = minimal_scenario(output={"columns": ["price_good", "volume"]})
        with pytest.raises(ScenarioError, match="volume"):
            parse_scenario(bad)

    def test_all_presets_parse_and_round_trip(self):
        names = list_presets()
        assert "scenario-a-proportional" in names
        assert "free-market-a" in names
        for name in names:
            scn = load_scenario(name)
            again = parse_scenario(scenario_to_dict(scn))
            assert again.config == scn.config


class TestCsvOutput:
    def test_header_layout(self):
        scn = load_scenario("scenario-a-proportional")
        trace = run(replace(scn.config, horizon=2))
        buf = io.StringIO()
        write_trace_csv(trace, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == (
            "tau,price_good,price_right,expected_frustration,useful_money,"
            "useless_money,volume_offered,volume_sold,"
            "b0_money,b0_good,b0_right,b0_frustration,"
            "b1_money,b1_good,b1_right,b1_frustration,"
            "b2_money,b2_good,b2_right,b2_frustration"
        )
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[1]) == pytest.approx(0.646552, abs=1e-6)

    def test_deterministic_bytes(self):
        scn = load_scenario("scenario-a-proportional")
        outputs = []
        for _ in range(2):
            buf = io.StringIO()
            write_trace_csv(run(replace(scn.config, horizon=30)), buf)
            outputs.append(buf.getvalue())
        assert outputs[0] == outputs[1]
        assert "\r" not in outputs[0]

    def test_column_selection(self):
        scn = load_scenario("scenario-a-proportional")
        trace = run(replace(scn.config, horizon=1))
        buf = io.StringIO()
        write_trace_csv(trace, buf, columns=("price_good",))
        lines = buf.getvalue().splitlines()
        assert lines[0] == "tau,price_good"
        assert len(lines) == 2


BUYER_FIELDS = ("money_start", "good_end", "right_assigned", "frustration")


def reference_csv(trace, columns="all"):
    """What ``write_trace_csv`` writes, with each number formatted on its
    own as ``repr(float(x))``."""
    base = BASE_COLUMNS if columns == "all" else tuple(c for c in BASE_COLUMNS if c in columns)
    with_buyers = columns == "all" or "buyers" in columns
    header = ["tau", *base]
    if with_buyers:
        for j in range(trace.num_buyers):
            header += [f"b{j}_money", f"b{j}_good", f"b{j}_right", f"b{j}_frustration"]
    lines = [",".join(header)]
    for rec, ef in zip(trace.records, trace.expected_frustration_path):
        named = rec._asdict()
        named["expected_frustration"] = ef
        row = [str(rec.round_index)] + [repr(float(named[c])) for c in base]
        if with_buyers:
            for j in range(trace.num_buyers):
                row += [repr(float(named[f][j])) for f in BUYER_FIELDS]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def make_trace(rows, num_buyers):
    """A trace whose record fields take the numbers of ``rows``, one list
    per round: the seven base columns in ``BASE_COLUMNS``' order, then each
    buyer's money, Good, Right and frustration."""
    records, ef = [], []
    for t, row in enumerate(rows, 1):
        pg, pr, e, useful, useless, offered, sold, *per_buyer = row
        money, good, right, frus = (tuple(per_buyer[k::4]) for k in range(4))
        records.append(
            RoundRecord(
                t, pg, pr, money, good, right, frus, (0.0,) * num_buyers, (0.0,) * num_buyers,
                useful, useless, offered, sold,
            )
        )
        ef.append(e)
    return Trace(tuple(records), tuple(ef), (), (), 0.0, 0.0)


def written(trace, columns="all"):
    buf = io.StringIO()
    write_trace_csv(trace, buf, columns)
    return buf.getvalue()


@st.composite
def traces(draw):
    """Traces of zero to three buyers whose numbers repeat often, as a
    settled trace's do: a few drawn floats, zeros of both signs and ints."""
    num_buyers = draw(st.integers(0, 3))
    pool = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=4))
    numbers = st.one_of(
        st.sampled_from(pool),
        st.sampled_from([0.0, -0.0]),
        st.integers(-(2**70), 2**70),
        st.floats(allow_nan=False, allow_infinity=False),
    )
    width = 7 + 4 * num_buyers
    rows = draw(st.lists(st.lists(numbers, min_size=width, max_size=width), min_size=1, max_size=6))
    return make_trace(rows, num_buyers)


column_choices = st.one_of(
    st.just("all"),
    st.lists(st.sampled_from(BASE_COLUMNS + ("buyers",)), unique=True).map(tuple),
)


class TestCsvNumbers:
    """``write_trace_csv`` keeps a memo of the texts of the numbers it has
    written; every byte must still be ``repr(float(x))`` of its number."""

    @given(traces(), column_choices)
    def test_every_number_is_its_repr(self, trace, columns):
        want = reference_csv(trace, columns)
        assert written(trace, columns) == want
        # a memo that fills after three numbers starts again every few
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "CSV_MEMO_SIZE", 3)
            assert written(trace, columns) == want

    @pytest.mark.parametrize("zeros", [(0.0, -0.0), (-0.0, 0.0)])
    def test_zeros_of_both_signs_keep_their_sign(self, zeros):
        first, second = zeros
        rows = [[first, 1.5, second, 0, 2, first, second, first, second, 1.5, 0]] * 2
        rows.append([second] * 7 + [first] * 4)
        trace = make_trace(rows, 1)
        text = written(trace)
        assert text == reference_csv(trace)
        assert text.splitlines()[1].split(",")[1:4] == [repr(first), "1.5", repr(second)]
        assert {repr(first), repr(second)} == {"0.0", "-0.0"}

    def test_the_memo_keeps_at_most_its_bound_and_no_zero(self, monkeypatch):
        monkeypatch.setattr(cli, "CSV_MEMO_SIZE", 3)
        memo = cli._NumberText()
        for x in (1.5, 2.5, 1.5, 0.0, 3.5, -0.0, 4.5, 5, 2.5, 0):
            assert memo[x] == repr(float(x))
            assert len(memo) <= 3
            assert 0.0 not in memo

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        ("position", "column"),
        [(0, "price_good"), (2, "expected_frustration"), (6, "volume_sold"),
         (8, "b0_good"), (13, "b1_right")],
    )
    def test_a_number_that_is_not_finite_names_its_column(self, bad, position, column):
        rows = [[1.0] * 15 for _ in range(3)]
        rows[1][position] = bad
        trace = make_trace(rows, 2)
        buf = io.StringIO()
        with pytest.raises(SimulationError, match=f"^round 2: {column} is not finite$"):
            write_trace_csv(trace, buf)
        # the rows before it are written, its own is not
        assert buf.getvalue() == reference_csv(make_trace(rows[:1], 2))

    def test_a_column_left_out_is_not_checked(self):
        rows = [[1.0] * 11, [math.inf] + [1.0] * 10]
        trace = make_trace(rows, 1)
        assert written(trace, ("volume_sold",)) == reference_csv(trace, ("volume_sold",))
        assert written(trace, ("buyers",)) == reference_csv(trace, ("buyers",))


class TestCommands:
    def test_simulate_writes_csv(self, tmp_path):
        out = tmp_path / "trace.csv"
        code = main(
            [
                "simulate",
                "--scenario",
                "scenario-a-proportional",
                "--out",
                str(out),
                "--horizon",
                "3",
            ]
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert len(lines) == 4
        assert lines[1].split(",")[1] == repr(75 / 116)

    def test_free_market_preset_prices(self, tmp_path):
        out = tmp_path / "fm.csv"
        assert main(
            ["simulate", "--scenario", "free-market-a", "--out", str(out), "--horizon", "5"]
        ) == EXIT_OK
        rows = out.read_text().splitlines()[1:]
        assert all(float(r.split(",")[1]) == pytest.approx(1.0, abs=1e-12) for r in rows)

    def test_scenario_b_zero_frustration_rows(self, tmp_path):
        out = tmp_path / "b.csv"
        assert main(
            [
                "simulate",
                "--scenario",
                "scenario-b-proportional",
                "--out",
                str(out),
                "--horizon",
                "30",
            ]
        ) == EXIT_OK
        header, *rows = out.read_text().splitlines()
        cols = header.split(",")
        f_idx = [i for i, c in enumerate(cols) if c.startswith("b") and c.endswith("_frustration")]
        for row in rows[5:]:  # per-buyer frustration all-zero from round 6 on
            vals = row.split(",")
            assert all(float(vals[i]) == 0.0 for i in f_idx)

    def test_simulate_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(minimal_scenario(frobnicate=1)))
        assert main(["simulate", "--scenario", str(bad)]) == EXIT_PARSE

    # the tolerances are package constants, not scenario settings
    @pytest.mark.parametrize("key", ["frobnicate", "tolerance"])
    @pytest.mark.parametrize("command", ["simulate", "audit"])
    def test_unknown_top_level_key_exit_code(self, tmp_path, capsys, key, command):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(minimal_scenario(**{key: 1e-9})))
        assert main([command, "--scenario", str(bad)]) == EXIT_PARSE
        assert f"unknown key(s) ['{key}']" in capsys.readouterr().err

    # runs are deterministic: no scenario setting seeds anything
    @pytest.mark.parametrize("command", ["simulate", "audit"])
    def test_output_seed_exit_code(self, tmp_path, capsys, command):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(minimal_scenario(output={"seed": 0, "columns": "all"})))
        assert main([command, "--scenario", str(bad)]) == EXIT_PARSE
        assert "json.output: unknown key(s) ['seed']" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "buyer",
        [
            {"claim": 1.0, "income": {"kind": "constant", "level": float("nan")}},
            {
                "claim": 1.0,
                "income": {"kind": "cosine", "amplitude": 0.1, "period": 0, "offset": 0.5},
            },
            {
                "claim": 1.0,
                "income": {"kind": "hubbert", "peak": 1.0, "width": 0, "center": 5},
            },
            {"claim": "lots", "income": {"kind": "constant", "level": 0.0}},
            {"claim": -1.0, "income": {"kind": "constant", "level": 0.0}},
            {"claim": float("inf"), "income": {"kind": "constant", "level": 0.0}},
        ],
        ids=(
            "nan-income",
            "cosine-period-0",
            "hubbert-width-0",
            "string-claim",
            "negative-claim",
            "infinite-claim",
        ),
    )
    @pytest.mark.parametrize("command", ["simulate", "audit"])
    def test_bad_buyer_is_a_parse_error(self, tmp_path, capsys, buyer, command):
        scn = minimal_scenario()
        scn["buyers"] = [buyer, *scn["buyers"][1:]]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(scn))
        assert main([command, "--scenario", str(bad)]) == EXIT_PARSE
        assert "buyers[0]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "mechanism",
        [
            {"kind": "canonical", "rank": 2.7},
            {"kind": "canonical", "rank": "3"},
            {"kind": "weighted", "components": [[0.5, 1.9], [0.5, 2.2]]},
            {"kind": "weighted", "components": [["0.5", 1], [0.5, 2]]},
            {"kind": "weighted", "components": [[float("nan"), 1], [1.0, 2]]},
        ],
        ids=("float-rank", "string-rank", "float-component-ranks", "string-weight", "nan-weight"),
    )
    @pytest.mark.parametrize("command", ["simulate", "audit"])
    def test_bad_mechanism_number_is_a_parse_error(self, tmp_path, capsys, mechanism, command):
        # int() and float() would run these as ranks 2, 3, 1 and 2 and weight 0.5
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(minimal_scenario(mechanism=mechanism)))
        assert main([command, "--scenario", str(bad)]) == EXIT_PARSE
        assert "mechanism" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "mechanism, where",
        [
            ({"kind": "canonical", "rank": 5}, "mechanism.rank: rank 5"),
            ({"kind": "canonical", "rank": 4}, "mechanism.rank: rank 4"),
            (
                {"kind": "weighted", "components": [[0.5, 1], [0.5, 4]]},
                "mechanism.components[1][1]: rank 4",
            ),
            (
                {"kind": "weighted", "components": [[0.5, 0], [0.5, 2]]},
                "mechanism.components[0][1]: rank 0",
            ),
        ],
        ids=("canonical-5", "canonical-4", "weighted-4", "weighted-0"),
    )
    @pytest.mark.parametrize("command", ["simulate", "audit"])
    def test_out_of_range_rank_is_a_parse_error(
        self, tmp_path, capsys, mechanism, where, command
    ):
        # the scenario has 3 buyers; the round would fail only once played
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(minimal_scenario(mechanism=mechanism)))
        assert main([command, "--scenario", str(bad)]) == EXIT_PARSE
        assert f"{where} out of range for 3 buyers" in capsys.readouterr().err

    @pytest.mark.parametrize("csv", [7, 1, True, ["out.csv"]])
    def test_output_csv_must_be_a_path(self, tmp_path, capsys, csv):
        # open() takes an integer as a file descriptor: 7 is a bad one, and 1
        # would write into stdout and then close it
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(minimal_scenario(output={"csv": csv})))
        assert main(["simulate", "--scenario", str(bad)]) == EXIT_PARSE
        assert "output.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["simulate", "scenario-csv", "audit", "sweep"])
    def test_an_unwritable_output_is_bad_input(self, tmp_path, capsys, case):
        # a directory, or a file in a directory that does not exist
        target = str(tmp_path / "missing" / "x.txt") if case == "audit" else str(tmp_path)
        scenario = tmp_path / "unit.json"
        scenario.write_text(json.dumps(minimal_scenario(horizon=4, output={"csv": target})))
        argv = {
            "simulate": ["simulate", "--scenario", "scenario-a-proportional", "--out", target],
            "scenario-csv": ["simulate", "--scenario", str(scenario)],
            "audit": ["audit", "--scenario", str(scenario), "--unilateral-only", "--out", target],
            "sweep": ["sweep", "--sizes", "3:3", "--seeds", "1", "--out", target],
        }[case]
        assert main(argv) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith(f"cannot write {target}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("reason", ["No such file or directory", "Is a directory"])
    @pytest.mark.parametrize("command", ["audit", "sweep"])
    def test_an_unwritable_output_fails_before_any_trial(
        self, tmp_path, capsys, monkeypatch, command, reason
    ):
        def ran(*args, **kwargs):
            raise AssertionError(f"{command} played before it checked --out")

        monkeypatch.setattr(cli, "audit", ran)
        monkeypatch.setattr(cli, "generate_dirichlet_scenario", ran)
        target = str(tmp_path / "missing" / "x.txt") if reason.startswith("No") else str(tmp_path)
        argv = {
            "audit": ["audit", "--scenario", "scenario-a-proportional", "--out", target],
            "sweep": ["sweep", "--sizes", "3:4", "--out", target],
        }[command]
        assert main(argv) == EXIT_PARSE
        assert capsys.readouterr().err == f"cannot write {target}: {reason}\n"

    @pytest.mark.parametrize(
        ("income", "code"),
        [
            ({"kind": "hubbert", "peak": 1.0, "width": 0.01, "center": 60}, EXIT_OK),
            ({"kind": "logistic", "high": 1.0, "rate": 100, "midpoint": 50}, EXIT_OK),
            ({"kind": "logistic", "high": 1.0, "rate": -100, "midpoint": 50}, EXIT_OK),
            (
                {"kind": "bullwhip", "base": 0.0, "amplitude": 0.0, "period": 10, "decay": -20},
                EXIT_RUNTIME,
            ),
        ],
        ids=("hubbert", "logistic", "logistic-falling", "bullwhip"),
    )
    def test_overflowing_schedule_exit_code(self, tmp_path, capsys, income, code):
        scn = scenario_to_dict(load_scenario("scenario-a-proportional"))
        scn["buyers"][0]["income"] = income
        path = tmp_path / "steep.json"
        path.write_text(json.dumps(scn))
        out = tmp_path / "steep.csv"
        assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == code
        if code == EXIT_RUNTIME:
            assert "round 36" in capsys.readouterr().err
        else:
            assert len(out.read_text().splitlines()) == 61

    @pytest.mark.parametrize(
        ("incomes", "variant", "error"),
        [
            # money overflows to inf, and the round after its residual is NaN
            ([{"kind": "constant", "level": 1e308}], "rights", "round 4: accounting residual"),
            (
                [{"kind": "cosine", "amplitude": 1e308, "period": 10, "offset": 1e308}],
                "rights",
                "round 1: cosine schedule overflows at round 1",
            ),
            (
                [{"kind": "linear", "slope": 1e308, "intercept": 0.0}],
                "rights",
                "round 2: linear schedule overflows at round 2",
            ),
            (
                [{"kind": "linear", "slope": 1e308, "intercept": 0.0}],
                "free_market",
                "round 2: linear schedule overflows at round 2",
            ),
            # two buyers' money sums to inf in round 1
            ([{"kind": "constant", "level": 1e308}] * 2, "free_market", "round 1: accounting residual"),
        ],
        ids=("constant", "cosine", "linear", "linear-free-market", "constant-free-market"),
    )
    def test_overflowing_income_exits_4_naming_its_round(self, tmp_path, incomes, variant, error):
        # in a subprocess: a round whose money overflowed once passed its
        # conservation check, and the next price scan never ended
        scn = scenario_to_dict(load_scenario("scenario-a-proportional"))
        scn.update(variant=variant, horizon=6)
        for buyer, income in zip(scn["buyers"][1:], incomes):
            buyer["income"] = income
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(scn))
        out = tmp_path / "overflow.csv"
        done = run_python("-m", "rightsmarket", "simulate", "--scenario", str(path), "--out", str(out))
        assert done.returncode == EXIT_RUNTIME
        assert done.stderr.startswith(f"simulation failed: {error}")
        assert not out.exists()

    @pytest.mark.parametrize(
        "resupply",
        [
            {"kind": "cosine", "amplitude": 1.0, "period": 1e-308, "offset": 1.0},
            {"kind": "bullwhip", "base": 1.0, "amplitude": 1.0, "period": 5e-324, "decay": 0.0},
        ],
        ids=("cosine", "bullwhip"),
    )
    def test_an_infinite_schedule_phase_is_an_overflow(self, tmp_path, capsys, resupply):
        # 2 pi t / period is infinite, and its cosine a ``math`` domain error
        scn = scenario_to_dict(load_scenario("scenario-a-proportional"))
        scn["sellers"][0]["resupply"] = resupply
        path = tmp_path / "phase.json"
        path.write_text(json.dumps(scn))
        overflow = f"{resupply['kind']} schedule overflows at round 1\n"
        assert main(["audit", "--scenario", str(path)]) == EXIT_PARSE
        assert capsys.readouterr().err == f"audit error: {overflow}"
        out = tmp_path / "phase.csv"
        assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == EXIT_RUNTIME
        assert capsys.readouterr().err == f"simulation failed: round 1: {overflow}"
        assert not out.exists()

    @pytest.mark.parametrize(
        ("variant", "level", "error"),
        [
            # money over a subnormal Good on sale: the posted price is inf
            ("rights", 5e-324, "round 1: posted price is not finite"),
            ("myopic_rights", 5e-324, "round 1: posted price is not finite"),
            # a buyer's Good, bought at 1e308 a round, overflows in round 2
            ("free_market", 1e308, "round 2: total buyer Good is not finite"),
        ],
    )
    def test_a_round_that_is_not_finite_exits_4(self, tmp_path, capsys, variant, level, error):
        scn = scenario_to_dict(load_scenario("scenario-a-proportional"))
        scn["variant"] = variant
        for seller in scn["sellers"]:
            seller["resupply"] = {"kind": "constant", "level": level}
        path = tmp_path / "extreme.json"
        path.write_text(json.dumps(scn))
        out = tmp_path / "extreme.csv"
        assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == EXIT_RUNTIME
        assert capsys.readouterr().err == f"simulation failed: {error}\n"
        assert not out.exists()

    def test_simulate_unknown_preset_exit_code(self):
        assert main(["simulate", "--scenario", "no-such-preset"]) == EXIT_PARSE

    def test_audit_clean_scenario_exits_zero(self, tmp_path):
        scn = tmp_path / "a.json"
        scn.write_text(json.dumps(minimal_scenario(horizon=16)))
        assert main(["audit", "--scenario", str(scn), "--unilateral-only"]) == EXIT_OK

    def test_audit_detects_inflated_price(self, tmp_path):
        scn = tmp_path / "adв.json"
        scn.write_text(json.dumps(minimal_scenario(horizon=16, greedy_price_factor=1.1)))
        code = main(
            ["audit", "--scenario", str(scn), "--unilateral-only", "--out", str(tmp_path / "r.txt")]
        )
        assert code == EXIT_DEVIATION
        assert "witness" in (tmp_path / "r.txt").read_text()

    @pytest.mark.parametrize(
        "argv",
        [
            ["--scenario", "free-market-a"],
            ["--scenario", "scenario-a-proportional", "--variant", "free_market"],
        ],
        ids=("preset", "override"),
    )
    def test_audit_refuses_free_market(self, capsys, argv):
        assert main(["audit", *argv, "--horizon", "10"]) == EXIT_PARSE
        assert "'free_market'" in capsys.readouterr().err

    def test_audit_of_unnormalized_scenario_exits_2(self, capsys):
        assert main(["audit", "--scenario", "supply-cosine", "--horizon", "10"]) == EXIT_PARSE
        assert "sum g = sum m = 1" in capsys.readouterr().err

    def test_audit_failure_inside_a_round_exits_4(self, monkeypatch, capsys):
        def fail(config, coalitions):
            raise SimulationError(3, "no good offered for sale")

        monkeypatch.setattr(cli, "audit", fail)
        assert main(["audit", "--scenario", "scenario-a-proportional"]) == EXIT_RUNTIME
        assert "round 3" in capsys.readouterr().err

    @pytest.mark.parametrize("name", AUDIT_CASES)
    def test_audit_text_is_pinned(self, capsys, name):
        # stdout, stderr and the exit code of ``audit --horizon 40``, where a
        # later ``--horizon`` wins, as ``tests/audit_text/<name>.txt`` holds
        # them; the CI step makes the same comparison through the shell
        code = main(["audit", "--horizon", "40", *AUDIT_CASES[name]])
        captured = capsys.readouterr()
        want = (AUDIT_TEXT / f"{name}.txt").read_text()
        assert captured.out + captured.err + f"exit {code}\n" == want

    def test_importing_the_cli_leaves_numpy_unloaded(self):
        # a small market plays on the scalar round, so a CLI process pays
        # numpy's import time only where a numpy kernel or sampler runs
        done = run_python("-c", "import sys, rightsmarket.cli; print('numpy' in sys.modules)")
        assert done.returncode == 0, done.stderr
        assert done.stdout == "False\n"

    def test_verify_mechanisms(self, capsys):
        assert main(["verify-mechanisms", "--samples", "200"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "proportional" in out and "contested_garment" in out

    def test_sweep_deterministic(self, tmp_path):
        args = [
            "sweep",
            "--sizes",
            "3:4",
            "--seeds",
            "3",
            "--claim-scale",
            "1.0",
        ]
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        assert main(args + ["--out", str(out1)]) == EXIT_OK
        assert main(args + ["--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()
        header, *rows = out1.read_text().splitlines()
        assert header.startswith("num_buyers,claim_scale,seeds,rights_frustration_mean")
        assert len(rows) == 2

    def test_sweep_rights_beat_free_market(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(
            ["sweep", "--sizes", "3:5", "--seeds", "4", "--out", str(out)]
        ) == EXIT_OK
        for row in out.read_text().splitlines()[1:]:
            vals = row.split(",")
            rights_f, free_f = float(vals[3]), float(vals[5])
            assert rights_f < free_f
            assert rights_f == pytest.approx(0.5 * free_f, rel=0.25)

    def test_sweep_scaled_claims_frustration_shrinks_with_size(self, tmp_path):
        out = tmp_path / "sweep-inv.csv"
        assert main(
            ["sweep", "--sizes", "3:6", "--seeds", "4", "--claim-scale", "inv", "--out", str(out)]
        ) == EXIT_OK
        rights = [float(r.split(",")[3]) for r in out.read_text().splitlines()[1:]]
        assert all(b <= a + 1e-9 for a, b in zip(rights, rights[1:]))
        assert rights[-1] < rights[0]


class TestFlagValidation:
    """Bad flag values stop argparse with exit code 2, before anything runs."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--scenario", "scenario-a-proportional", "--horizon", "0"],
            ["audit", "--scenario", "scenario-a-proportional", "--horizon", "-5"],
            ["simulate", "--scenario", "scenario-a-proportional", "--horizon", "2.5"],
            ["sweep", "--sizes", "3:3", "--seeds", "0"],
            ["sweep", "--sizes", "3:3", "--seeds", "-2"],
            ["sweep", "--sizes", "3:3", "--seed", "-1"],
            ["sweep", "--sizes", "3:3", "--claim-scale", "abc"],
            ["sweep", "--sizes", "3:3", "--claim-scale", "-1"],
            ["sweep", "--sizes", "3:3", "--claim-scale", "nan"],
            ["sweep", "--sizes", "3:3", "--claim-scale", "inf"],
            ["sweep", "--sizes", "3:3", "--concentration", "-1"],
            ["sweep", "--sizes", "3:3", "--concentration", "0"],
            ["sweep", "--sizes", "3:3", "--concentration", "nan"],
            ["verify-mechanisms", "--samples", "-3"],
            ["verify-mechanisms", "--samples", "0"],
            ["verify-mechanisms", "--seed", "-1"],
        ],
        ids=lambda argv: " ".join(argv[:1] + argv[-2:]),
    )
    def test_bad_flag_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_PARSE
        assert f"argument {argv[-2]}" in capsys.readouterr().err

    def test_edge_values_are_accepted(self, tmp_path):
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--sizes", "3:3", "--seeds", "1", "--claim-scale", "0",
                "--concentration", "inf", "--out", str(out)]
        assert main(argv) == EXIT_OK
        assert out.read_text().splitlines()[1].startswith("3,0.0,1,")
