"""Benchmark of the rightsmarket simulator.

    python3 perfbench/run.py --workload presets --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its ``src/``.
One process, one thread, closed loop: each op starts when the previous one
has finished and its output has been checked. Every workload first runs one
untimed warm-up op, then whole cycles of ops until ``--seconds`` have passed.

``--trace 0`` reports the end-to-end metrics, with times calibrated to a
reference machine speed (see calibrate.py). ``--trace 1`` runs every op
twice, once plain and once with every layer wrapped, and reports the
per-layer metrics; its spans go to ``perfbench/out/``. Both print a
readable report first and, as the last line, one JSON object: ``correct``,
``attempted``, ``failed``, ``metrics``.
``--workload all`` runs every workload in turn, each in its own process.

See NOTES.md for what each workload is for and how to read the metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
NAMES = ("presets", "audit", "crowd", "hetero-clear")
SETUP_REPEATS = 11

# (module, attribute, layer): each layer is wrapped where its caller looks it
# up, so a call made inside the package is traced as well
PATCHES = (
    ("engine", "run", "engine.run"),
    ("analysis", "run", "engine.run"),
    ("engine", "posted_greedy_price", "pricing.posted_greedy_price"),
    ("engine", "greedy_buyer_bid", "pricing.greedy_buyer_bid"),
    ("pricing", "solve_implicit_price", "pricing.solve_implicit_price"),
    ("pricing", "allocate", "rights.allocate"),
    ("engine", "allocate", "rights.allocate"),
    ("engine", "clear", "mechanism.clear"),
    ("mechanism", "clear", "mechanism.clear"),
    ("engine", "apply_transition", "core.apply_transition"),
    ("engine", "consumed_utility", "core.consumed_utility"),
    ("mechanism", "equal_rate_fill", "core.equal_rate_fill"),
    ("analysis", "audit_unilateral", "analysis.audit_unilateral"),
    ("analysis", "audit_coalition", "analysis.audit_coalition"),
    ("cli", "load_scenario", "cli.load_scenario"),
    ("cli", "write_trace_csv", "cli.write_trace_csv"),
)
LAYERS = tuple(dict.fromkeys(layer for _, _, layer in PATCHES))
# layers that run on every workload, so their self time is never zero
ALWAYS_RUN = ("mechanism.clear", "core.equal_rate_fill")
COUNTERS = (
    "mechanism.clear.price_levels",
    "mechanism.clear.rejected",
    "analysis.trials",
    "analysis.trials_skipped",
    "cli.csv_bytes",
)


def count_clear(counts: Counter, args: tuple, result) -> None:
    offers, bids = args[0], args[1]
    # stage 2 prices every pair of a live good price and a live Right price
    good_prices = {o.price for o in offers if o.volume > 0.0}
    right_prices = {b.right_offer_price for b in bids if b.right_offer_volume > 0.0}
    counts["mechanism.clear.price_levels"] += len(good_prices) * len(right_prices)
    counts["mechanism.clear.rejected"] += len(result.rejected)


def count_audit(counts: Counter, args: tuple, report) -> None:
    counts["analysis.trials"] += len(report.trials)
    counts["analysis.trials_skipped"] += len(report.trials) - len(report.tested)


def count_csv(counts: Counter, args: tuple, result) -> None:
    # ops write each trace into a fresh buffer of ASCII text
    counts["cli.csv_bytes"] += args[1].tell()


COUNT_HOOKS = {
    "mechanism.clear": count_clear,
    "analysis.audit_unilateral": count_audit,
    "analysis.audit_coalition": count_audit,
    "cli.write_trace_csv": count_csv,
}


def import_package():
    """Put the checkout's ``src/`` first on the path and import from there,
    never from an installed copy."""
    if not (SRC / "rightsmarket" / "__init__.py").is_file():
        raise SystemExit(f"no rightsmarket package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import rightsmarket

    if Path(rightsmarket.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"imported rightsmarket from {rightsmarket.__file__}, not {SRC}")
    return rightsmarket


def setup_once(workload: str, seed: int) -> float:
    """Import the package and build the workload's inputs; return the time."""
    t0 = time.perf_counter()
    import_package()
    import workloads

    workloads.build_inputs(workload, seed)
    return time.perf_counter() - t0


def reference_setup() -> float:
    """Import the calibration copy of the package, the set-up time's kernel."""
    t0 = time.perf_counter()
    import rightsmarket_seed  # noqa: F401

    return time.perf_counter() - t0


def setup_samples(workload: str, seed: int) -> list[tuple[float, float]]:
    """Set up in fresh interpreters, so every sample pays for the import.

    Returns (seconds, scale) per sample. Most of a set-up is loading numpy,
    which the op kernels do not resemble, so set-ups alternate with fresh
    imports of ``rightsmarket_seed`` (which loads numpy too), and each is
    scaled by ``SETUP_REF_S`` over the mean of the imports on either side.
    """
    import calibrate

    def child(*args: str) -> float:
        proc = subprocess.run([sys.executable, __file__, *args],
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise SystemExit(f"set-up failed:\n{proc.stderr}")
        return float(proc.stdout.split()[-1])

    kernel = child("--workload", workload, "--setup-only", "reference")
    samples = []
    for _ in range(SETUP_REPEATS):
        seconds = child("--workload", workload, "--seed", str(seed), "--setup-only", "workload")
        before, kernel = kernel, child("--workload", workload, "--setup-only", "reference")
        samples.append((seconds, calibrate.SETUP_REF_S / ((before + kernel) / 2)))
    return samples


@dataclass
class Measurement:
    labels: list[str] = field(default_factory=list)
    spans: list[tuple[float, float]] = field(default_factory=list)  # (start, end) per op
    ok: list[bool] = field(default_factory=list)
    rounds: int = 0
    cycles: int = 0
    identical: int = 0
    compared: int = 0

    def add(self, label: str, result: tuple) -> None:
        """Record one ``run_op`` result."""
        ok, start, end, rounds, identical = result
        self.labels.append(label)
        self.spans.append((start, end))
        self.ok.append(ok)
        self.rounds += rounds
        if identical is not None:
            self.compared += 1
            self.identical += identical

    @property
    def attempted(self) -> int:
        return len(self.ok)

    @property
    def failed(self) -> int:
        return self.ok.count(False)

    @property
    def busy(self) -> float:
        return sum(end - start for start, end in self.spans)


def run_op(op, refs, tracer=None):
    """Time one op and check its output; return (ok, start, end, rounds, identical)."""
    import workloads

    span = tracer.begin("bench.op") if tracer is not None else None
    start = time.perf_counter()
    try:
        out = op.call()
    except Exception:  # a failing op is counted, and the run goes on
        end = time.perf_counter()
        if tracer is not None:
            tracer.finish(span)
        print(f"op {op.label} raised:\n{traceback.format_exc()}", file=sys.stderr)
        return False, start, end, 0, None
    end = time.perf_counter()
    if tracer is not None:
        tracer.finish(span)
    try:
        identical = workloads.check(op, out, refs.get(op.label))
    except workloads.CheckFailed as exc:
        print(f"op {op.label} failed its check: {exc}", file=sys.stderr)
        return False, start, end, 0, None
    return True, start, end, op.rounds(out), identical


def measure(ops, refs, seconds: float, calibrator=None) -> Measurement:
    """Run whole cycles of ``ops`` until ``seconds`` have passed, at least one."""
    m = Measurement()
    deadline = time.perf_counter() + seconds
    while m.cycles == 0 or time.perf_counter() < deadline:
        for op in ops:
            if calibrator is not None:
                calibrator.sample()
            m.add(op.label, run_op(op, refs))
        m.cycles += 1
    if calibrator is not None:
        calibrator.sample(force=True)
    return m


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, so a failed op (inf) is never interpolated."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def typical(labels: list[str], latencies: list[float]) -> float:
    """Median over the cycle's ops of each op's median time.

    A cycle mixes ops of very different cost, each equally often, so the
    plain median of all times falls in the gap between two kinds of op and
    jumps with the outliers of both; this median stays inside a kind.
    """
    by_label: dict[str, list[float]] = {}
    for label, t in zip(labels, latencies):
        by_label.setdefault(label, []).append(t)
    return statistics.median(statistics.median(ts) for ts in by_label.values())


def end_to_end(m: Measurement, calibrator, setup: list[tuple[float, float]]):
    """Calibrated end-to-end metrics, and report lines with the raw ones."""
    raw = [end - start for start, end in m.spans]
    scaled = [t * calibrator.factor(*span) for t, span in zip(raw, m.spans)]
    # a failed op misses every latency target
    raw_lat = [t if ok else math.inf for t, ok in zip(raw, m.ok)]
    lat = [t if ok else math.inf for t, ok in zip(scaled, m.ok)]
    n = len(lat)
    metrics = {
        "setup_s": metric(statistics.median(t * k for t, k in setup), "s"),
        "op_ms_p50": metric(typical(m.labels, lat) * 1e3, "ms"),
        "rounds_per_s": metric(m.rounds / sum(scaled), "1/s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    row = "  {:14}{:>13} {:<5}{:>13}   {}"
    lines = [
        row.format("metric", "calibrated", "", "raw", ""),
        row.format("setup_s", f"{metrics['setup_s']['value']:.4f}", "s",
                   f"{statistics.median(t for t, _ in setup):.4f}",
                   f"median of {len(setup)} set-ups"),
        row.format("op_ms_p50", f"{metrics['op_ms_p50']['value']:.4f}", "ms",
                   f"{typical(m.labels, raw_lat) * 1e3:.4f}",
                   f"{n} ops of {len(set(m.labels))} kinds"),
    ]
    # a percentile is reported only with at least ten samples above it
    if n * 0.1 >= 10:
        lines.append(row.format("op_ms_p90", f"{percentile(lat, 0.9) * 1e3:.4f}", "ms",
                                f"{percentile(raw_lat, 0.9) * 1e3:.4f}", f"{n} ops"))
    else:
        lines.append(row.format("op_ms_p90", "-", "ms", "-", f"{n} ops, too few for a p90"))
    lines += [
        row.format("rounds_per_s", f"{metrics['rounds_per_s']['value']:.1f}", "1/s",
                   f"{m.rounds / m.busy:.1f}", f"{m.rounds} rounds in {n} ops"),
        row.format("peak_rss_mb", f"{metrics['peak_rss_mb']['value']:.2f}", "MB", "", ""),
        f"  calibration: kernel {calibrator.name}, {len(calibrator.samples)} samples, "
        f"median {statistics.median(calibrator.samples) * 1e3:.3f} ms "
        f"against a reference of {calibrator.ref * 1e3:g} ms",
    ]
    if m.compared:
        lines.append(f"  {m.identical} of {m.compared} outputs byte-identical to their reference")
    return metrics, lines


def per_layer(tracer, base: Measurement, traced: Measurement) -> tuple[dict, list[str]]:
    """Per-layer metrics of the traced cycles, each per cycle, so that runs
    of different length compare and counts repeat exactly."""
    cycles = traced.cycles
    totals = tracer.layer_totals()
    op_ns = sum(tracer.end[i] - tracer.start[i] for i, p in enumerate(tracer.parent) if p < 0)
    metrics = {}
    lines = [f"  per cycle of the workload ({cycles} traced cycles):",
             f"  {'layer':32} {'calls':>10} {'self_ms':>12} {'self %':>8}"]
    for layer in ("bench.op", *LAYERS):
        calls, self_ns = totals.get(layer, (0, 0))
        share = 100.0 * self_ns / op_ns
        lines.append(f"  {layer:32} {calls / cycles:10g} {self_ns / 1e6 / cycles:12.3f} {share:8.2f}")
        if layer == "bench.op":
            continue
        metrics[f"{layer}.calls"] = metric(calls / cycles, "count")
        metrics[f"{layer}.self_share"] = metric(share, "%")
        if layer in ALWAYS_RUN:
            metrics[f"{layer}.self_ms"] = metric(self_ns / 1e6 / cycles, "ms")
    for name in COUNTERS:
        metrics[name] = metric(tracer.counts[name] / cycles, "count")
        lines.append(f"  {name:32} {tracer.counts[name] / cycles:10g}")
    ratio = traced.busy / base.busy
    metrics["trace.op_ms"] = metric(op_ns / 1e6 / cycles, "ms")
    metrics["trace.overhead_ratio"] = metric(ratio, "ratio")
    lines.append(f"  trace.op_ms {op_ns / 1e6 / cycles:.3f}; trace.overhead_ratio {ratio:.4f} "
                 f"(traced over untraced op time, {base.cycles} cycles each)")
    return metrics, lines


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 spans_dir: Path = OUT) -> dict:
    """Measure one workload and return the result object printed last."""
    import_package()
    import calibrate
    import spans
    import workloads

    setup = [] if trace else setup_samples(workload, seed)
    ops = workloads.make_ops(workload, workloads.build_inputs(workload, seed))
    refs = workloads.load_refs(workload, seed)
    warm_ok = run_op(ops[0], refs)[0]  # warm-up: checked, not timed

    if not trace:
        calibrator = calibrate.Calibrator(workload)
        m = measure(ops, refs, seconds, calibrator)
        metrics, lines = end_to_end(m, calibrator, setup)
        parts = [m]
    else:
        # run every op untraced and traced back to back, which goes first
        # alternating by cycle, so neither a change in machine speed nor a
        # cache warmed by its twin shows up as tracing overhead
        base, traced, tracer = Measurement(), Measurement(), spans.Tracer()
        patches = [(importlib.import_module(f"rightsmarket.{mod}"), attr, layer,
                    COUNT_HOOKS.get(layer)) for mod, attr, layer in PATCHES]
        deadline = time.perf_counter() + seconds
        while traced.cycles == 0 or time.perf_counter() < deadline:
            for op in ops:
                for with_trace in (False, True) if base.cycles % 2 == 0 else (True, False):
                    if with_trace:
                        with tracer.installed(patches):
                            traced.add(op.label, run_op(op, refs, tracer))
                    else:
                        base.add(op.label, run_op(op, refs))
            base.cycles += 1
            traced.cycles += 1
        metrics, lines = per_layer(tracer, base, traced)
        path = spans_dir / f"spans-{workload}-seed{seed}.tsv.gz"
        tracer.write(path)
        lines.append(f"  {len(tracer.start)} spans written to {path}")
        parts = [base, traced]
    attempted = 1 + sum(p.attempted for p in parts)
    failed = (not warm_ok) + sum(p.failed for p in parts)
    cycles = sum(p.cycles for p in parts)
    print(f"{workload}: seed {seed}, {'traced' if trace else 'untraced'}, "
          f"{cycles} cycles of {len(ops)} ops")
    print("\n".join(lines))
    print(f"  error_rate {failed / attempted:.4f}: {failed} of {attempted} ops failed, "
          f"the warm-up op included")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", choices=("workload", "reference"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_only == "workload":
        print(setup_once(args.workload, args.seed))
        return 0
    if args.setup_only == "reference":
        print(reference_setup())
        return 0
    if args.workload == "all":
        status = 0
        for workload in NAMES:
            cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            status = max(status, subprocess.run(cmd).returncode)
        return status
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
