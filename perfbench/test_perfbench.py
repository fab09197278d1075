"""Tests of the benchmark itself: every workload runs clean at minimal
length, every output check can fail, and the traced run reports every layer.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run

run.import_package()

import calibrate  # noqa: E402
import workloads  # noqa: E402

SEED = workloads.DEFAULT_SEED


def ops_and_refs(name: str, seed: int = SEED):
    ops = workloads.make_ops(name, workloads.build_inputs(name, seed))
    return ops, workloads.load_refs(name, seed)


@pytest.mark.parametrize("name", run.NAMES)
def test_one_cycle_passes_its_checks(name):
    ops, refs = ops_and_refs(name)
    assert set(refs) == {op.label for op in ops}
    calibrator = calibrate.Calibrator(name)
    m = run.measure(ops, refs, 0, calibrator)
    assert (m.attempted, m.failed, m.cycles) == (len(ops), 0, 1)
    assert m.rounds > 0
    metrics, _ = run.end_to_end(m, calibrator, [(0.1, 1.0)])
    assert all(v["value"] > 0 for v in metrics.values())
    if name == "presets":
        assert m.identical == m.compared == len(ops)


def test_other_seeds_check_invariants_only():
    for name in ("crowd", "hetero-clear"):
        ops, refs = ops_and_refs(name, SEED + 1)
        assert refs == {}
        assert run.run_op(ops[0], refs)[0]


def corrupt(summary):
    """Copy of ``summary`` with its first number moved by far more than TOL."""
    done = False

    def walk(x):
        nonlocal done
        if done or isinstance(x, str):
            return x
        if isinstance(x, (int, float)):
            done = True
            return x + 1e-6
        if isinstance(x, dict):
            return {k: walk(v) for k, v in x.items()}
        return [walk(v) for v in x]

    return walk(summary)


@pytest.mark.parametrize("name", run.NAMES)
def test_corrupted_reference_counts_as_failure(name):
    ops, refs = ops_and_refs(name)
    op = min(ops, key=lambda o: o.label)
    refs[op.label] = {**refs[op.label], "summary": corrupt(refs[op.label]["summary"])}
    m = run.measure([op], refs, 0)
    assert (m.attempted, m.failed) == (1, 1)


def test_contested_garment_audit_keeps_its_witness():
    data = json.loads((workloads.REFS / "audit.json").read_text())
    unilateral = data["ops"]["scenario-a-contested-garment"][0]
    assert unilateral["witnesses"] == ["seller_price(-0.5) by seller 0 at round 20"]
    control = data["ops"]["scenario-a-proportional@price-factor-1.2"][0]
    assert control["witnesses"]


def test_traced_run_reports_every_layer(tmp_path):
    result = run.run_workload("hetero-clear", SEED, 0.0, trace=True, spans_dir=tmp_path)
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    for layer in run.LAYERS:
        assert f"{layer}.calls" in metrics and f"{layer}.self_share" in metrics
    assert metrics["mechanism.clear.calls"]["value"] == workloads.HETERO_POOL
    assert metrics["mechanism.clear.self_ms"]["value"] > 0
    assert metrics["core.equal_rate_fill.calls"]["value"] > 0
    assert metrics["engine.run.calls"]["value"] == 0
    assert metrics["mechanism.clear.price_levels"]["value"] > workloads.HETERO_POOL
    assert metrics["trace.overhead_ratio"]["value"] > 0
    assert list(tmp_path.glob("spans-hetero-clear-*.tsv.gz"))
    declared = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    assert set(metrics) == {m["name"] for m in declared["per_layer"]}


def test_command_prints_end_to_end_metrics_last():
    root = run.HERE.parent
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hetero-clear", "--seconds", "0"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = json.loads((root / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in declared["end_to_end"]}


def test_fails_without_the_package(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "presets", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
