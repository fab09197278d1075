"""Command-line surface: scenario files, presets, CSV emission, audits.

Scenario files are strict JSON: unknown keys are rejected and parsing a
serialized scenario reproduces the same configuration. Presets named after
the experiments ship with the package (``list_presets``) and can be passed
to ``--scenario`` by name instead of a path.

Exit codes: 0 success, 2 scenario parse error, invalid flag or a scenario
the audit does not cover, 3 audit found a profitable deviation, 4 runtime
failure.
"""

from __future__ import annotations

import argparse
import errno
import io
import json
import math
import os
import sys
from dataclasses import dataclass, field, replace
from importlib import resources
from itertools import chain, compress
from pathlib import Path
from typing import IO, Sequence

from .analysis import audit
from .core import VARIANTS, BuyerSpec, MarketConfig, SellerSpec
from .engine import SCHEDULE_PARAMS, SupplySchedule, Trace, generate_dirichlet_scenario, run
from .errors import (
    ConfigError,
    NegativeQuantityError,
    RightsMarketError,
    ScenarioError,
    SimulationError,
)
from .rights import DistributionMechanism, verify_axioms

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DEVIATION = 3
EXIT_RUNTIME = 4

BASE_COLUMNS = (
    "price_good",
    "price_right",
    "expected_frustration",
    "useful_money",
    "useless_money",
    "volume_offered",
    "volume_sold",
)

_TOP_KEYS = {
    "name",
    "variant",
    "horizon",
    "mechanism",
    "sellers",
    "buyers",
    "seller_storage_cost",
    "greedy_price_factor",
    "output",
}
_OUTPUT_KEYS = {"columns", "csv"}


@dataclass(frozen=True)
class OutputOptions:
    columns: str | tuple[str, ...] = "all"
    csv: str | None = None


@dataclass(frozen=True)
class Scenario:
    name: str
    config: MarketConfig
    output: OutputOptions = field(default_factory=OutputOptions)


def _expect_mapping(obj, where: str) -> dict:
    if not isinstance(obj, dict):
        raise ScenarioError(f"{where}: expected an object, got {type(obj).__name__}")
    return obj


def _reject_unknown(obj: dict, allowed: set, where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ScenarioError(f"{where}: unknown key(s) {sorted(unknown)}")


def _number(value, where: str) -> float:
    """A finite JSON number; strings, booleans, NaN and infinities are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{where}: expected a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise ScenarioError(f"{where}: expected a finite number, got {value!r}")
    return x


def _integer(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{where}: expected an integer, got {value!r}")
    return value


def parse_schedule(data: dict, where: str) -> SupplySchedule:
    data = _expect_mapping(data, where)
    kind = data.get("kind")
    if kind not in SCHEDULE_PARAMS:
        raise ScenarioError(f"{where}: unknown schedule kind {kind!r}")
    params = SCHEDULE_PARAMS[kind]
    _reject_unknown(data, {"kind", *params}, where)
    missing = [p for p in params if p not in data]
    if missing:
        raise ScenarioError(f"{where}: schedule {kind!r} is missing {missing}")
    args = tuple(_number(data[p], f"{where}.{p}") for p in params)
    try:
        return SupplySchedule(kind, args)
    except ConfigError as exc:
        raise ScenarioError(f"{where}: {exc}") from None


def schedule_to_dict(sched: SupplySchedule) -> dict:
    out = {"kind": sched.kind}
    for name, value in zip(SCHEDULE_PARAMS[sched.kind], sched.args):
        out[name] = value
    return out


def _rank(value, where: str, num_buyers: int) -> int:
    """A 1-based claim rank that one of ``num_buyers`` buyers holds."""
    rank = _integer(value, where)
    if not 1 <= rank <= num_buyers:
        raise ScenarioError(f"{where}: rank {rank} out of range for {num_buyers} buyers")
    return rank


def parse_mechanism(data: dict, where: str, num_buyers: int) -> DistributionMechanism:
    data = _expect_mapping(data, where)
    kind = data.get("kind")
    try:
        if kind == "proportional" or kind == "contested_garment":
            _reject_unknown(data, {"kind"}, where)
            return DistributionMechanism(kind)
        if kind == "canonical":
            _reject_unknown(data, {"kind", "rank"}, where)
            return DistributionMechanism.canonical(
                _rank(data["rank"], f"{where}.rank", num_buyers)
            )
        if kind == "weighted":
            _reject_unknown(data, {"kind", "components"}, where)
            comps = []
            for i, (weight, rank) in enumerate(data["components"]):
                at = f"{where}.components[{i}]"
                comps.append((_number(weight, f"{at}[0]"), _rank(rank, f"{at}[1]", num_buyers)))
            return DistributionMechanism.weighted(comps)
    except ScenarioError:
        raise
    except Exception as exc:
        raise ScenarioError(f"{where}: invalid mechanism ({exc})") from None
    raise ScenarioError(f"{where}: unknown mechanism kind {kind!r}")


def mechanism_to_dict(mech: DistributionMechanism) -> dict:
    if mech.kind == "canonical":
        return {"kind": "canonical", "rank": mech.rank}
    if mech.kind == "weighted":
        return {"kind": "weighted", "components": [[a, n] for a, n in mech.components]}
    return {"kind": mech.kind}


def parse_scenario(data: dict, source: str = "scenario") -> Scenario:
    data = _expect_mapping(data, source)
    _reject_unknown(data, _TOP_KEYS, source)
    for key in ("mechanism", "sellers", "buyers", "horizon", "variant"):
        if key not in data:
            raise ScenarioError(f"{source}: missing required key {key!r}")
    for key in ("sellers", "buyers"):
        if not isinstance(data[key], list):
            raise ScenarioError(f"{source}.{key}: expected a list")

    sellers = []
    for i, entry in enumerate(data["sellers"]):
        entry = _expect_mapping(entry, f"{source}.sellers[{i}]")
        _reject_unknown(entry, {"resupply"}, f"{source}.sellers[{i}]")
        if "resupply" not in entry:
            raise ScenarioError(f"{source}.sellers[{i}]: missing 'resupply'")
        sellers.append(SellerSpec(parse_schedule(entry["resupply"], f"{source}.sellers[{i}].resupply")))

    buyers = []
    for j, entry in enumerate(data["buyers"]):
        where = f"{source}.buyers[{j}]"
        entry = _expect_mapping(entry, where)
        _reject_unknown(entry, {"claim", "income"}, where)
        if "claim" not in entry or "income" not in entry:
            raise ScenarioError(f"{where}: needs 'claim' and 'income'")
        income = parse_schedule(entry["income"], f"{where}.income")
        claim = _number(entry["claim"], f"{where}.claim")
        try:
            buyers.append(BuyerSpec(income=income, claim=claim))
        except NegativeQuantityError as exc:
            raise ScenarioError(f"{where}.claim: {exc}") from None

    output = OutputOptions()
    if "output" in data:
        out = _expect_mapping(data["output"], f"{source}.output")
        _reject_unknown(out, _OUTPUT_KEYS, f"{source}.output")
        columns = out.get("columns", "all")
        if columns != "all":
            if not isinstance(columns, list) or not all(isinstance(c, str) for c in columns):
                raise ScenarioError(f"{source}.output.columns: 'all' or a list of names")
            bad = [c for c in columns if c not in BASE_COLUMNS and c != "buyers"]
            if bad:
                raise ScenarioError(f"{source}.output.columns: unknown column(s) {bad}")
            columns = tuple(columns)
        csv = out.get("csv")
        # ``open`` would take an integer as a file descriptor
        if csv is not None and not isinstance(csv, str):
            raise ScenarioError(f"{source}.output.csv: expected a path string, got {csv!r}")
        output = OutputOptions(columns=columns, csv=csv)

    try:
        config = MarketConfig(
            sellers=tuple(sellers),
            buyers=tuple(buyers),
            mechanism=parse_mechanism(data["mechanism"], f"{source}.mechanism", len(buyers)),
            variant=data["variant"],
            horizon=_integer(data["horizon"], f"{source}.horizon"),
            seller_storage_cost=_number(
                data.get("seller_storage_cost", 1.0), f"{source}.seller_storage_cost"
            ),
            greedy_price_factor=_number(
                data.get("greedy_price_factor", 1.0), f"{source}.greedy_price_factor"
            ),
        )
    except ScenarioError:
        raise
    except RightsMarketError as exc:
        raise ScenarioError(f"{source}: {exc}") from None
    return Scenario(name=data.get("name", "unnamed"), config=config, output=output)


def scenario_to_dict(scn: Scenario) -> dict:
    cfg = scn.config
    data = {
        "name": scn.name,
        "variant": cfg.variant,
        "horizon": cfg.horizon,
        "mechanism": mechanism_to_dict(cfg.mechanism),
        "sellers": [{"resupply": schedule_to_dict(s.resupply)} for s in cfg.sellers],
        "buyers": [
            {"claim": b.claim, "income": schedule_to_dict(b.income)} for b in cfg.buyers
        ],
        "seller_storage_cost": cfg.seller_storage_cost,
        "greedy_price_factor": cfg.greedy_price_factor,
        "output": {
            "columns": "all" if scn.output.columns == "all" else list(scn.output.columns),
            **({"csv": scn.output.csv} if scn.output.csv else {}),
        },
    }
    return data


def list_presets() -> list[str]:
    pkg = resources.files("rightsmarket") / "presets"
    return sorted(p.name[: -len(".json")] for p in pkg.iterdir() if p.name.endswith(".json"))


def load_scenario(path_or_preset: str) -> Scenario:
    path = Path(path_or_preset)
    if path.exists():
        try:
            text = path.read_text()
        except OSError as exc:
            raise ScenarioError(f"{path}: {exc}") from None
        source = str(path)
    else:
        candidate = resources.files("rightsmarket") / "presets" / f"{path_or_preset}.json"
        if not candidate.is_file():
            raise ScenarioError(
                f"{path_or_preset!r} is neither a file nor a preset "
                f"(presets: {', '.join(list_presets())})"
            )
        text = candidate.read_text()
        source = f"preset {path_or_preset}"
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{source}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    return parse_scenario(data, source)


def _fmt(x: float) -> str:
    return repr(float(x))


# The most numbers one ``write_trace_csv`` call keeps formatted; its memo
# starts again empty when full. A preset trace writes at most 1,229
# distinct numbers, so each keeps all of its repeats. Writing a 200-round
# ``generate_dirichlet_scenario`` trace peaked, without the memo, with an
# unbounded one and with this bound, at 91.0, 108.5 and 92.6 MB for 1,000
# buyers (in a median 824, 428 and 621 ms) and at 53.4, 57.2 and 54.0 MB
# for 300. A bound of 16,384 peaked at 55.8 MB for 300 buyers. Measured on
# a 2-core host, in fresh processes.
CSV_MEMO_SIZE = 8192


class _NumberText(dict):
    """``_fmt`` of each number looked up, kept for the numbers seen again.

    A hit is a dict lookup in C, where ``repr`` of a float costs about half
    a microsecond. Zeros are formatted every time and never kept, since
    -0.0 == 0.0 (so they share a key) while their texts differ. Equal
    numbers of other types have equal floats, so they may share a text."""

    __slots__ = ()

    def __missing__(self, x: float) -> str:
        text = repr(float(x))
        if x:
            if len(self) >= CSV_MEMO_SIZE:
                self.clear()
            self[x] = text
        return text


def write_trace_csv(trace: Trace, out: IO[str], columns: str | tuple[str, ...] = "all") -> None:
    """Emit one row per round; dot decimals, LF newlines, no trailing comma.

    Every number is written as ``repr(float(x))``. The call keeps the text
    of each distinct number in a memo, ``_NumberText``, since a settled
    trace repeats most of its numbers: the memo holds at most
    ``CSV_MEMO_SIZE`` of them and starts again empty when full, and zeros
    bypass it, because -0.0 == 0.0 while ``repr`` tells them apart.

    A number that is not finite is a ``SimulationError`` naming its round
    and column, raised before its row is written: the round checks stop a
    run that would leave one, but the writer checks every trace it is
    given."""
    base = BASE_COLUMNS if columns == "all" else tuple(c for c in BASE_COLUMNS if c in columns)
    keep = [c in base for c in BASE_COLUMNS]
    with_buyers = columns == "all" or "buyers" in columns
    nb = trace.num_buyers
    header = ["tau", *base]
    if with_buyers:
        for j in range(nb):
            header += [f"b{j}_money", f"b{j}_good", f"b{j}_right", f"b{j}_frustration"]
    out.write(",".join(header) + "\n")
    text = _NumberText().__getitem__
    for rec, ef in zip(trace.records, trace.expected_frustration_path):
        (
            tau, price_good, price_right, money, good, right, frus, _, _,
            useful, useless, volume_offered, volume_sold, _,
        ) = rec
        # in ``BASE_COLUMNS``'s order
        values = (price_good, price_right, ef, useful, useless, volume_offered, volume_sold)
        row = [str(tau), *map(text, compress(values, keep))]
        if with_buyers:
            row += map(text, chain.from_iterable(zip(money, good, right, frus)))
        line = ",".join(row)
        # a finite float's repr has no "n"; "inf" and "nan" do
        if "n" in line:
            column = next(name for name, x in zip(header, row) if "n" in x)
            raise SimulationError(rec.round_index, f"{column} is not finite")
        out.write(line + "\n")


def cmd_simulate(args: argparse.Namespace) -> int:
    try:
        scn = load_scenario(args.scenario)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    config = _apply_overrides(scn.config, args)
    csv = io.StringIO()
    try:
        trace = run(config)
        write_trace_csv(trace, csv, scn.output.columns)
    except RightsMarketError as exc:
        print(f"simulation failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return _write_out(args.out or scn.output.csv, csv.getvalue(), f"{trace.horizon} rounds")


def _write_out(path: str | None, text: str, what: str, code: int = EXIT_OK) -> int:
    """Write a command's output ``text`` to ``path``, or to stdout when
    there is none, and return ``code``; a path that cannot be written is bad
    input, reported in one line."""
    if not path:
        sys.stdout.write(text)
        return code
    try:
        Path(path).write_text(text, newline="")
    except OSError as exc:
        print(f"cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_PARSE
    print(f"wrote {what} to {path}")
    return code


def _unwritable(path: str | None) -> bool:
    """Report ``cannot write <path>: <reason>`` and return True when
    ``path``, a command's ``--out``, visibly cannot be written: its directory
    is missing or it is a directory. Checked before a long command's work;
    ``_write_out`` still catches every other unwritable path."""
    if not path:
        return False
    target = Path(path)
    if target.is_dir():
        reason = errno.EISDIR
    elif not target.parent.is_dir():
        reason = errno.ENOTDIR if target.parent.exists() else errno.ENOENT
    else:
        return False
    print(f"cannot write {path}: {os.strerror(reason)}", file=sys.stderr)
    return True


def default_coalitions(config: MarketConfig) -> list[list[tuple[str, int]]]:
    """Up to three two-member coalitions spanning the proof's case split:
    buyers only, sellers only (when possible), and mixed."""
    out: list[list[tuple[str, int]]] = []
    if config.num_buyers >= 2:
        out.append([("buyer", 0), ("buyer", 1)])
    if config.num_sellers >= 2:
        out.append([("seller", 0), ("seller", 1)])
    out.append([("seller", 0), ("buyer", 0)])
    if config.num_buyers >= 2 and len(out) < 3:
        out.append([("seller", 0), ("buyer", config.num_buyers - 1)])
    return out[:3]


def cmd_audit(args: argparse.Namespace) -> int:
    try:
        scn = load_scenario(args.scenario)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    config = _apply_overrides(scn.config, args)
    if _unwritable(args.out):
        return EXIT_PARSE
    coalitions = [] if args.unilateral_only else default_coalitions(config)
    try:
        rep, *creps = audit(config, coalitions=coalitions)
    except ConfigError as exc:  # a scenario outside the audited regime
        print(f"audit error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except RightsMarketError as exc:
        print(f"audit failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    lines = [f"equilibrium audit of {scn.name} (horizon {config.horizon})", rep.summary()]
    lines += ["  witness: " + w.describe() for w in rep.witnesses]
    for coalition, crep in zip(coalitions, creps):
        label = "+".join(f"{s}{i}" for s, i in coalition)
        lines.append(f"[{label}] " + crep.summary())
        lines += ["  winner: " + w.describe() for w in crep.witnesses]
    found = not all(r.passed for r in (rep, *creps))
    report = "\n".join(lines) + "\n"
    return _write_out(args.out, report, "audit report", EXIT_DEVIATION if found else EXIT_OK)


def _asymptotic_window(horizon: int) -> int:
    w = max(2, horizon // 5)
    return w if w % 2 == 0 else w + 1


def cmd_sweep(args: argparse.Namespace) -> int:
    import numpy as np

    try:
        lo, hi = (int(x) for x in args.sizes.split(":"))
    except ValueError:
        print("sweep error: --sizes must look like 3:10", file=sys.stderr)
        return EXIT_PARSE
    if lo < 2 or hi < lo:
        print("sweep error: need 2 <= lo <= hi", file=sys.stderr)
        return EXIT_PARSE
    if _unwritable(args.out):
        return EXIT_PARSE

    rows = []
    try:
        for nb in range(lo, hi + 1):
            scale = 1.0 / nb if args.claim_scale == "inv" else args.claim_scale
            stats = {"rf": [], "ff": [], "rp": [], "fp": []}
            for k in range(args.seeds):
                cfg = generate_dirichlet_scenario(
                    nb, args.concentration, rng_seed=args.seed + k, claim_scale=scale
                )
                window = _asymptotic_window(cfg.horizon)
                tr_rights = run(cfg)
                tr_free = run(replace(cfg, variant="free_market"))
                stats["rf"].append(tr_rights.per_round_mean_frustration(window))
                stats["ff"].append(tr_free.per_round_mean_frustration(window))
                stats["rp"].append(float(np.mean(tr_rights.price_path()[-window:])))
                stats["fp"].append(float(np.mean(tr_free.price_path()[-window:])))

            def mean_se(xs: list[float]) -> tuple[float, float]:
                arr = np.asarray(xs)
                se = float(arr.std(ddof=1) / np.sqrt(len(arr))) if len(arr) > 1 else 0.0
                return float(arr.mean()), se

            rf, rf_se = mean_se(stats["rf"])
            ff, ff_se = mean_se(stats["ff"])
            rp, rp_se = mean_se(stats["rp"])
            fp, fp_se = mean_se(stats["fp"])
            rows.append((nb, scale, args.seeds, rf, rf_se, ff, ff_se, rp, rp_se, fp, fp_se))
    except RightsMarketError as exc:
        print(f"sweep failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    header = (
        "num_buyers,claim_scale,seeds,"
        "rights_frustration_mean,rights_frustration_se,"
        "free_frustration_mean,free_frustration_se,"
        "rights_price_mean,rights_price_se,free_price_mean,free_price_se"
    )
    lines = [header]
    for row in rows:
        nb, scale, seeds, *metrics = row
        lines.append(",".join([str(nb), _fmt(scale), str(seeds)] + [_fmt(x) for x in metrics]))
    return _write_out(args.out, "\n".join(lines) + "\n", "sweep")


def cmd_verify_mechanisms(args: argparse.Namespace) -> int:
    mechanisms = [
        DistributionMechanism.proportional(),
        DistributionMechanism.contested_garment(),
        DistributionMechanism.canonical(1),
        DistributionMechanism.weighted([(0.5, 1), (0.3, 2), (0.2, 3)]),
    ]
    all_ok = True
    for mech in mechanisms:
        report = verify_axioms(mech, samples=args.samples, rng_seed=args.seed)
        print(report.summary())
        for fail in report.failures[:3]:
            print(f"  axiom {fail.axiom}: V={fail.volume!r} D={fail.claims!r}: {fail.detail}")
        all_ok = all_ok and report.passed
    return EXIT_OK if all_ok else EXIT_RUNTIME


def _integer_flag(least: int):
    """An argparse ``type`` that accepts integers of at least ``least``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value

    return parse


def _float_flag(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None


def _concentration_flag(text: str) -> float:
    """A positive Dirichlet concentration; ``inf`` means the exact means."""
    value = _float_flag(text)
    if not value > 0.0:  # also rejects NaN
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


def _claim_scale_flag(text: str) -> float | str:
    """A finite non-negative claim scale, or ``inv`` for 1/|B|."""
    if text == "inv":
        return text
    value = _float_flag(text)
    if not 0.0 <= value < math.inf:  # also rejects NaN
        raise argparse.ArgumentTypeError(f"must be finite and non-negative, got {text!r}")
    return value


def _apply_overrides(config: MarketConfig, args: argparse.Namespace) -> MarketConfig:
    kwargs = {}
    if getattr(args, "horizon", None) is not None:
        kwargs["horizon"] = args.horizon
    if getattr(args, "variant", None) is not None:
        kwargs["variant"] = args.variant
    return replace(config, **kwargs) if kwargs else config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rightsmarket",
        description="Simulate repeated markets with tradable buying rights.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one scenario and emit a CSV trace")
    sim.add_argument("--scenario", required=True, help="scenario file or preset name")
    sim.add_argument("--out", help="output CSV path (default: scenario setting or stdout)")
    sim.add_argument("--horizon", type=_integer_flag(1), default=None)
    sim.add_argument("--variant", choices=VARIANTS)
    sim.set_defaults(func=cmd_simulate)

    aud = sub.add_parser("audit", help="search for profitable deviations from greedy")
    aud.add_argument("--scenario", required=True)
    aud.add_argument("--out", help="report file (default stdout)")
    aud.add_argument("--horizon", type=_integer_flag(1), default=None)
    aud.add_argument("--variant", choices=VARIANTS)
    aud.add_argument("--unilateral-only", action="store_true")
    aud.set_defaults(func=cmd_audit)

    sw = sub.add_parser("sweep", help="asymptotic frustration vs number of buyers")
    sw.add_argument("--sizes", default="3:10", help="buyer-count range lo:hi")
    sw.add_argument("--seeds", type=_integer_flag(1), default=10, help="scenarios per size")
    sw.add_argument("--seed", type=_integer_flag(0), default=0, help="base rng seed")
    sw.add_argument(
        "--claim-scale",
        type=_claim_scale_flag,
        default="1.0",
        help="claim scale, a float or 'inv' for 1/|B|",
    )
    sw.add_argument("--concentration", type=_concentration_flag, default=20.0)
    sw.add_argument("--out", help="output CSV path (default stdout)")
    sw.set_defaults(func=cmd_sweep)

    ver = sub.add_parser("verify-mechanisms", help="check the distribution-mechanism axioms")
    ver.add_argument("--samples", type=_integer_flag(1), default=1000)
    ver.add_argument("--seed", type=_integer_flag(0), default=0)
    ver.set_defaults(func=cmd_verify_mechanisms)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except RightsMarketError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
