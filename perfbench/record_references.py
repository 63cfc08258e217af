"""Record the reference outputs that benchmark runs at the reference seed are checked against.

From the repository root, at the commit whose outputs are the reference:

    python3 perfbench/record_references.py

Writes perfbench/references.json: for each count workload the sha256 and
total of every count report, and for the transport workload the loss total
of every stream, all at seed 0. A run at another seed skips these
comparisons and keeps only the invariant checks.
"""

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import harness  # noqa: E402

SEED = 0


def record(workload) -> dict:
    workdir = os.path.join(harness.ROOT, ".perfbench-work", "references", workload.name)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    inputs, _, _ = harness.set_up(workload, SEED, workdir)
    ops = harness.run_pass(workload, inputs, workdir)
    failures = [f for o in ops for f in o.failures]
    if failures:
        raise SystemExit(f"{workload.name}: outputs fail their checks: {failures[:3]}")
    if workload.kind == "count":
        return {"reports": [{"sha256": o.facts["sha256"], "total": o.facts["total"]}
                            for o in ops if o.command == "count"]}
    return {"loss_totals": [o.facts["total"] for o in ops if o.command == "loss"]}


def main() -> int:
    refs = {"seed": SEED, "workloads": {}}
    for name, workload in harness.WORKLOADS.items():
        refs["workloads"][name] = record(workload)
        print(f"recorded {name}", flush=True)
    with open(harness.REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
