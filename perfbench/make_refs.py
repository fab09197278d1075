"""Regenerate the golden references the benchmark checks outputs against.

    python3 perfbench/make_refs.py

Run from the root of a checkout. It runs every op of every workload once
with the default seed and writes what the op's check compares to
``perfbench/refs/``: each preset's trace CSV with its SHA-256 digest, the
audit verdicts, and the ``crowd`` and ``hetero-clear`` summaries. The audit
verdicts hold for any seed (the seed only orders the cases); the ``crowd``
and ``hetero-clear`` references hold for the default seed only.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run.import_package()
    import workloads

    refs = workloads.REFS
    seed = workloads.DEFAULT_SEED
    (refs / "presets").mkdir(parents=True, exist_ok=True)
    for name in workloads.WORKLOADS:
        ops = workloads.make_ops(name, workloads.build_inputs(name, seed))
        outputs = {op.label: op.call() for op in ops}
        for op in ops:
            op.invariants(outputs[op.label])
        if name == "presets":
            digests = {}
            for label in sorted(outputs):
                text = outputs[label][1]
                (refs / "presets" / f"{label}.csv").write_text(text)
                digests[label] = workloads.csv_digest(text)
            data = {"sha256": digests}
        else:
            data = {
                "seed": None if name == "audit" else seed,
                "ops": {op.label: op.summarize(outputs[op.label]) for op in ops},
            }
            if name == "audit":
                # not compared, only recorded: how far each witness clears the tolerance
                data["witness_gains"] = {
                    label: [[list(w.gains) for w in r.witnesses] for r in reports]
                    for label, reports in outputs.items()
                }
        path = refs / ("presets.json" if name == "presets" else f"{name}.json")
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        print(f"{name}: {len(ops)} references written to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
