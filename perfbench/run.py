"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload fresh --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record of
the run (per-job counts, check messages, the tail percentile) is written
under ``.perfbench/``; a traced run also writes its spans there.  The exit
code is 0 when every output check held, 1 when one failed, and 2 when the
program under test is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("fresh", "degraded", "served")


def _import_program() -> None:
    """Import ``repro`` from this checkout's ``src``, or exit with code 2."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        sys.stderr.write(f"perfbench: no program to measure under {src}\n")
        sys.exit(2)
    sys.path[:0] = [ROOT, src]
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        sys.stderr.write(f"perfbench: repro imported from {repro.__file__}\n")
        sys.exit(2)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="run exactly this many jobs instead of measuring for --seconds",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0 or (args.jobs is not None and args.jobs < 1):
        parser.error("--seconds and --jobs must be positive")
    _import_program()
    import logging

    from perfbench.bench import run_workload

    # The pipeline logs every degraded-capture warning; the benchmark's
    # output is its metrics.
    logging.disable(logging.WARNING)
    result = run_workload(
        ROOT, args.workload, args.seed, args.seconds, bool(args.trace), args.jobs
    )

    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = result.pop("spans")
    if spans is not None:
        with open(os.path.join(out_dir, f"{stem}.spans.jsonl"), "w") as handle:
            for row in spans:
                handle.write(json.dumps(row) + "\n")
    metrics = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in result["metrics"].items()
    }
    record = dict(result, metrics=metrics, workload=args.workload, seed=args.seed)
    with open(os.path.join(out_dir, f"{stem}.json"), "w") as handle:
        json.dump(record, handle, indent=1, default=str)

    for name, entry in metrics.items():
        print(f"# {args.workload:8s} {name:32s} {entry['value']:.6g} {entry['unit']}")
    for name, value in result["notes"].items():
        print(f"# {args.workload:8s} {name:32s} {value}")
    for problem in result["checks"]:
        print(f"# CHECK FAILED: {problem}")
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
