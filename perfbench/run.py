"""Run one workload of the vicount benchmark in this process.

From the repository root:

    python3 perfbench/run.py --workload crowd --seed 0 --seconds 30 --trace 0

With --trace 0 the run sets the workload up three times (reporting the
median), then makes whole passes of command line calls until the next one
would end after --seconds (at least one), and reports the end-to-end
metrics, with set-up and call times scaled by a reference kernel timed
during them (see harness.py). With --trace 1 it sets up once, makes one untraced and one traced
pass, and reports the per-layer metrics. The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics; the lines
before it give every figure with its unit and the run's provenance, and
.perfbench-work/<workload>/result.json holds the full record.

Exits with status 2, printing no result, when vicount cannot be imported
from this checkout's src/.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def import_vicount() -> None:
    """Import vicount from this checkout's src/ and nowhere else."""
    sys.path.insert(0, SRC)
    import vicount

    if not os.path.abspath(vicount.__file__).startswith(SRC + os.sep):
        raise ImportError(f"vicount was imported from {vicount.__file__}, not {SRC}")


UNITS = (("_mb_per_s", "MB/s"), ("_ms", "ms"), ("_s", "s"), ("_mb", "MB"), ("_ratio", "ratio"),
         ("_ref", "ref"))


def unit(name: str) -> str:
    return next((u for suffix, u in UNITS if name.endswith(suffix)), "count")


def main(argv=None) -> int:
    try:
        import_vicount()
    except ImportError as exc:
        print(f"perfbench: cannot import vicount from {SRC}: {exc}", file=sys.stderr)
        return 2

    import argparse
    import json
    import shutil

    import harness

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = harness.WORKLOADS[args.workload]
    workdir = os.path.join(ROOT, ".perfbench-work", workload.name)
    shutil.rmtree(workdir, ignore_errors=True)
    result = harness.run(
        workload, args.seed, args.seconds, bool(args.trace), workdir,
        harness.load_references(workload, args.seed),
    )
    with open(os.path.join(workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"passes {result['passes']}  attempted {result['attempted']}  failed {result['failed']}")
    print("provenance " + json.dumps(result["provenance"]))
    for failure in result["failures"]:
        print(f"FAILED {failure}")
    for name, value in {**result["named"], **result["metrics"]}.items():
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"{name:34s} {shown} {unit(name)}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
