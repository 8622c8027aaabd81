"""Check (or record) the exact per-job counts in ``perfbench/baseline.json``.

Usage, from the repository root::

    python3 perfbench/baseline.py          # exit 1 if any count differs
    python3 perfbench/baseline.py --write  # record the counts of this code

For each workload and for the reference and the held-out seed, runs a fixed
number of jobs untraced, each workload in a fresh process, and compares
every job's map builds, cost evaluations, solves, deconvolutions, rung path
and outcome, plus the served batch's coalesced jobs.  These counts are a
pure function of the code and the seed, so they must repeat exactly; a
change that moves one states so by name.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BASELINE = os.path.join(HERE, "baseline.json")

#: Jobs per baseline run: a few fresh subjects, one whole fault cycle, and
#: a served batch with two resubmissions.
JOBS = {"fresh": 3, "degraded": 7, "served": 10}


def counts_of(workload: str, seed: int) -> dict:
    """The count record of one fixed-size untraced run in a fresh process."""
    subprocess.run(
        [
            sys.executable, os.path.join(HERE, "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", "0", "--jobs", str(JOBS[workload]),
        ],
        cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
    )
    path = os.path.join(ROOT, ".perfbench", f"{workload}-seed{seed}-trace0.json")
    with open(path) as handle:
        record = json.load(handle)
    return {
        "jobs": JOBS[workload],
        "per_job": record["counts"],
        "coalesced_jobs": record["coalesced_jobs"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)
    with open(BASELINE) as handle:
        baseline = json.load(handle)
    seeds = (baseline["seeds"]["reference"], baseline["seeds"]["held_out"])
    measured = {
        workload: {str(seed): counts_of(workload, seed) for seed in seeds}
        for workload in JOBS
    }
    if args.write:
        baseline["counts"] = measured
        with open(BASELINE, "w") as handle:
            json.dump(baseline, handle, indent=1)
            handle.write("\n")
        return 0
    differs = [
        f"{workload} seed {seed}"
        for workload, by_seed in measured.items()
        for seed, counts in by_seed.items()
        if baseline["counts"].get(workload, {}).get(seed) != counts
    ]
    for label in differs:
        print(f"counts differ from baseline.json: {label}")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
