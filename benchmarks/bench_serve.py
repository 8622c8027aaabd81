"""Load-generate the batch service and record BENCH_PR3.json.

Three ways to run the same 32-job workload (8 distinct specs, so request
coalescing has something to do), most expensive first:

- **per-process** (the status-quo workflow this PR replaces): every job
  pays a fresh interpreter, imports, and stone-cold caches, like looping
  ``uniq-personalize`` in a shell script.  Sampled (a few real spawns) and
  extrapolated to the full job count.
- **serial service**: one :class:`repro.serve.BatchServer` with a single
  worker — long-lived process, warm caches, coalescing.
- **batch service**: the same server at 4 workers.

The record keeps both baselines honest and separate: ``speedup_vs_
per_process`` is the headline (the workflow actually being replaced) and
``speedup_vs_serial_service`` shows what worker parallelism adds on this
machine (~1x on a single-core box — the cache and coalescing wins are
already in the serial service number).

Also verifies on every run that the 4-worker batch is bit-identical to the
serial run, that turning the telemetry flight recorder on costs under 5% of
throughput (and changes no deterministic result), that a batch survives
one injected worker crash, and — the cold-start phase — that a fresh
interpreter personalizes a fresh subject within 1.5x (+0.25 s) of the same
work in this warm process, with bit-identical tables on both sides.

The PR 10 adverse phase checks the deconvolution ladder's two serve-side
contracts: ``auto`` costs under 2% over pinned ``inverse`` on a clean
capture (the ladder is free when it does nothing), and a batch of noisy/
reverberant jobs completes with zero failures, each payload carrying the
method/rung it settled on (record it with ``--pr10-output
BENCH_PR10.json``).

    PYTHONPATH=src python benchmarks/bench_serve.py --output BENCH_PR3.json
    PYTHONPATH=src python benchmarks/bench_serve.py --quick   # CI smoke
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

from repro import __version__, obs
from repro.serve import BatchServer, Job

#: The golden-case pipeline configuration (small grid, sparse probes).
SPEC = {"probe_interval_s": 0.6, "angle_step_deg": 15.0}

_PER_PROCESS_SNIPPET = """
import time
from repro.core.pipeline import personalize_capture
from repro.hrtf.io import table_digest
started = time.perf_counter()
_, result = personalize_capture(subject_seed={seed}, probe_interval_s={probe}, \
angle_step_deg={step})
print(time.perf_counter() - started, table_digest(result.table))
"""


def make_jobs(n_jobs: int, n_specs: int) -> list[Job]:
    """``n_jobs`` jobs cycling through ``n_specs`` distinct subject seeds."""
    return [
        Job(job_id=f"user-{i:03d}", subject_seed=1 + (i % n_specs), **SPEC)
        for i in range(n_jobs)
    ]


def run_service(jobs: list[Job], workers: int) -> dict:
    with BatchServer(workers=workers) as server:
        report = server.run_batch(jobs)
    if report.n_ok != len(jobs):
        raise RuntimeError(f"batch had failures: {report.counts}")
    return {
        "workers": workers,
        "n_jobs": len(jobs),
        "wall_s": report.wall_s,
        "jobs_per_s": report.jobs_per_s,
        "coalesced_jobs": sum(1 for r in report.results if r.coalesced),
        "latency": report.latency_summary(),
        "results": [r.deterministic() for r in report.results],
    }


def run_per_process(jobs: list[Job], samples: int) -> dict:
    """Time a few real fresh-interpreter runs; extrapolate to the batch.

    Each sample also reports its in-interpreter personalize time (after
    imports) and table digest, which the cold-start gate compares against
    the same seeds run in this process.
    """
    distinct = []
    seen = set()
    for job in jobs:
        if job.subject_seed not in seen:
            seen.add(job.subject_seed)
            distinct.append(job)
    sampled = distinct[: max(1, samples)]
    walls = []
    compute = []
    digests = []
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    for job in sampled:
        snippet = _PER_PROCESS_SNIPPET.format(
            seed=job.subject_seed,
            probe=job.probe_interval_s,
            step=job.angle_step_deg,
        )
        started = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", snippet], env=env, check=True,
            stdout=subprocess.PIPE, text=True,
        )
        walls.append(time.perf_counter() - started)
        seconds, digest = done.stdout.split()[-2:]
        compute.append(float(seconds))
        digests.append(digest)
    mean_wall = sum(walls) / len(walls)
    return {
        "n_sampled": len(walls),
        "sample_seeds": [job.subject_seed for job in sampled],
        "sample_walls_s": walls,
        "sample_compute_s": compute,
        "sample_digests": digests,
        "mean_job_wall_s": mean_wall,
        # Every job pays the full price: no shared process, no warm cache,
        # no coalescing.
        "extrapolated_wall_s": mean_wall * len(jobs),
        "extrapolated_jobs_per_s": len(jobs) / (mean_wall * len(jobs)),
    }


def run_telemetry_phase(
    jobs: list[Job], workers: int, baseline: dict, budget_frac: float = 0.05
) -> dict:
    """Telemetry-on vs telemetry-off throughput on the same workload.

    The observability bar: flight recorder + worker span capture + SLO
    tracking must cost under ``budget_frac`` of throughput.  Walls are
    noisy on shared CI boxes, so each side keeps its best (minimum) wall
    over up to two rounds before the budget is enforced; the first
    telemetry-off measurement is reused from the main batch phase.
    """
    best_off = baseline["wall_s"]
    best_on = float("inf")
    overhead = float("inf")
    n_events = 0
    on_results: list[dict] = []
    for round_index in range(2):
        with tempfile.TemporaryDirectory() as tmp:
            stream = os.path.join(tmp, "telemetry.jsonl")
            with BatchServer(workers=workers, telemetry=stream) as server:
                report = server.run_batch(jobs)
            if report.n_ok != len(jobs):
                raise RuntimeError(f"telemetry batch failed: {report.counts}")
            from repro.serve import read_events

            n_events = len(read_events(stream))
        best_on = min(best_on, report.wall_s)
        on_results = [r.deterministic() for r in report.results]
        overhead = best_on / best_off - 1.0
        if overhead < budget_frac:
            break
        if round_index == 0:
            # Re-measure the off side too before judging: the baseline may
            # have been the noisy sample.
            best_off = min(best_off, run_service(jobs, workers)["wall_s"])
    if on_results != baseline["results"]:
        raise RuntimeError(
            "telemetry changed the deterministic results of the batch"
        )
    if overhead >= budget_frac:
        raise RuntimeError(
            f"telemetry overhead {overhead:.1%} exceeds the "
            f"{budget_frac:.0%} throughput budget"
        )
    return {
        "wall_off_s": best_off,
        "wall_on_s": best_on,
        "overhead_frac": overhead,
        "budget_frac": budget_frac,
        "n_events": n_events,
        "deterministic_vs_off": True,
    }


def run_cold_start_phase(
    per_process: dict,
    bound_factor: float = 1.5,
    bound_grace_s: float = 0.25,
) -> dict:
    """Cold-process tax on fresh subjects, gated.

    The cold side is :func:`run_per_process`'s samples: each seed
    personalized in a fresh interpreter, timed after imports.  The warm
    side personalizes the same seeds in this process, after one untimed
    priming run, each from an empty DelayMap cache — a fresh subject
    reuses no map, so the cache would only flatter this side.  Enforced
    here, not just recorded:

    - every seed's table digest is equal on both sides;
    - cold p50 <= ``bound_factor`` x warm p50 + ``bound_grace_s``.
    """
    from repro.core.localize import clear_delay_map_cache
    from repro.core.pipeline import personalize_capture
    from repro.hrtf.io import table_digest

    seeds = per_process["sample_seeds"]
    if len(seeds) < 2:
        raise ValueError(
            f"cold-start gate needs >= 2 distinct seeds, got {len(seeds)}"
        )
    personalize_capture(subject_seed=seeds[0], **SPEC)
    warm = []
    digests = []
    for seed in seeds:
        clear_delay_map_cache()
        started = time.perf_counter()
        _, result = personalize_capture(subject_seed=seed, **SPEC)
        warm.append(time.perf_counter() - started)
        digests.append(table_digest(result.table))
    if digests != per_process["sample_digests"]:
        raise RuntimeError(
            "fresh-interpreter tables differ from this process's tables"
        )
    cold_p50 = statistics.median(per_process["sample_compute_s"])
    warm_p50 = statistics.median(warm)
    bound_s = bound_factor * warm_p50 + bound_grace_s
    if cold_p50 > bound_s:
        raise RuntimeError(
            f"cold-process p50 {cold_p50:.2f} s exceeds the bound "
            f"{bound_s:.2f} s ({bound_factor:g} x warm p50 "
            f"{warm_p50:.2f} s + {bound_grace_s:g} s grace)"
        )
    return {
        "seeds": seeds,
        "cold_s": per_process["sample_compute_s"],
        "warm_s": warm,
        "cold_p50_s": cold_p50,
        "warm_p50_s": warm_p50,
        "digests_equal": True,
        "bound": {
            "factor": bound_factor,
            "grace_s": bound_grace_s,
            "bound_s": bound_s,
            "within_bound": True,
        },
    }


def measure_rung0_overhead(pairs: int = 100) -> dict:
    """CPU-time overhead of the ``auto`` ladder over pinned ``inverse``.

    Both sides personalize the same clean capture, rendered once and
    untimed (rendering is not ladder work and would only dilute the
    ratio), with every process-wide cache warm.  Each of ``pairs``
    back-to-back auto/pinned pairs, order alternating so drift cancels,
    gives one cost ratio; the estimate is the median ratio minus one.
    Single calls on a shared box vary by ~10%, so the estimate needs this
    many pairs to resolve a 2% budget.
    """
    from repro.core.pipeline import personalize_capture

    session, _ = personalize_capture(subject_seed=1, deconv="inverse", **SPEC)
    personalize_capture(subject_seed=1, deconv="auto", session=session, **SPEC)
    cpu = {"inverse": [], "auto": []}
    for index in range(pairs):
        for mode in ("inverse", "auto")[:: 1 if index % 2 == 0 else -1]:
            started = time.process_time()
            personalize_capture(
                subject_seed=1, deconv=mode, session=session, **SPEC
            )
            cpu[mode].append(time.process_time() - started)
    ratios = [auto / pinned for auto, pinned in zip(cpu["auto"], cpu["inverse"])]
    return {
        "pairs": pairs,
        "cpu_inverse_s": cpu["inverse"],
        "cpu_auto_s": cpu["auto"],
        "overhead_frac": statistics.median(ratios) - 1.0,
    }


def run_adverse_phase(workers: int, budget_frac: float = 0.02) -> dict:
    """Adverse captures through the serve tier + rung-0 overhead (BENCH_PR10).

    Two contracts, enforced here rather than just recorded:

    - **rung-0 overhead**: on a clean capture, the ``auto`` ladder (with
      its sentinel reads and escalation bookkeeping) must cost under
      ``budget_frac`` of the pinned-``inverse`` CPU time
      (:func:`measure_rung0_overhead`) — the ladder is free when it does
      nothing;
    - **graceful degradation at the serve tier**: a batch mixing clean,
      noisy, reverberant, and noisy+reverberant jobs completes with zero
      failures, every payload carries its method/rung, and at least one
      adverse job actually escalated.
    """
    rung0 = measure_rung0_overhead()
    overhead = rung0["overhead_frac"]
    if overhead >= budget_frac:
        raise RuntimeError(
            f"rung-0 ladder overhead {overhead:.1%} exceeds the "
            f"{budget_frac:.0%} budget"
        )

    adverse_jobs = [
        Job(job_id="adverse-clean", subject_seed=1, **SPEC),
        Job(job_id="adverse-noise", subject_seed=1,
            fault="mic_noise", fault_args={"std": 0.3}, **SPEC),
        Job(job_id="adverse-reverb", subject_seed=1,
            fault="reverberant_room",
            fault_args={"rt60_s": 0.9, "wet_level": 1.6}, **SPEC),
        Job(job_id="adverse-both", subject_seed=1,
            fault="noisy_reverberant",
            fault_args={"rt60_s": 0.9, "std": 0.3}, **SPEC),
    ]
    with BatchServer(workers=workers) as server:
        report = server.run_batch(adverse_jobs)
    if report.n_ok != len(adverse_jobs):
        raise RuntimeError(f"adverse batch had failures: {report.counts}")
    rungs = {
        r.job_id: dict((r.payload or {}).get("deconv") or {})
        for r in report.results
    }
    if rungs["adverse-clean"].get("rung") != 0:
        raise RuntimeError(f"clean job left rung 0: {rungs['adverse-clean']}")
    escalated = sum(1 for d in rungs.values() if d.get("rung", 0) > 0)
    if escalated == 0:
        raise RuntimeError("no adverse job escalated the ladder")
    return {
        "rung0_overhead": {**rung0, "budget_frac": budget_frac},
        "adverse_batch": {
            "n_jobs": len(adverse_jobs),
            "counts": report.counts,
            "wall_s": report.wall_s,
            "escalated_jobs": escalated,
            "deconv_by_job": rungs,
            "confidence_by_job": {
                r.job_id: (r.payload or {}).get("confidence")
                for r in report.results
            },
        },
    }


def run_crash_phase(workers: int) -> dict:
    """A small batch with one injected worker death must still complete."""
    with tempfile.TemporaryDirectory() as tmp:
        marker = os.path.join(tmp, "crash-marker")
        jobs = [
            Job(job_id="victim", subject_seed=1, crash_marker=marker, **SPEC),
            Job(job_id="bystander", subject_seed=2, **SPEC),
        ]
        with BatchServer(workers=workers) as server:
            report = server.run_batch(jobs)
        victim = next(r for r in report.results if r.job_id == "victim")
        crashed = os.path.exists(marker)
    if report.n_ok != len(jobs):
        raise RuntimeError(f"crash phase failed: {report.counts}")
    if not crashed or victim.attempts < 2:
        raise RuntimeError("crash was not actually injected/retried")
    return {
        "counts": report.counts,
        "victim_attempts": victim.attempts,
        "wall_s": report.wall_s,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default=None, metavar="PATH",
                        help="write the benchmark record here")
    parser.add_argument("--jobs", type=int, default=32)
    parser.add_argument("--specs", type=int, default=8,
                        help="distinct subject seeds among the jobs")
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--samples", type=int, default=3,
                        help="fresh-interpreter runs for the per-process baseline "
                        "and the cold-start gate (at least 2)")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke: 8 jobs, 2 specs, 2 baseline samples")
    parser.add_argument("--pr10-output", default=None, metavar="PATH",
                        help="write the adverse-capture phase record "
                        "(BENCH_PR10.json) here")
    args = parser.parse_args(argv)
    if args.quick:
        args.jobs, args.specs, args.samples = 8, 2, 2

    jobs = make_jobs(args.jobs, args.specs)
    print(f"workload       : {len(jobs)} jobs over {args.specs} distinct specs")

    print(f"per-process    : sampling {args.samples} fresh-interpreter runs ...")
    per_process = run_per_process(jobs, args.samples)
    print(f"                 {per_process['mean_job_wall_s']:.2f} s/job -> "
          f"{per_process['extrapolated_wall_s']:.1f} s extrapolated")

    print("serial service : 1 worker ...")
    serial = run_service(jobs, workers=1)
    print(f"                 {serial['wall_s']:.1f} s "
          f"({serial['jobs_per_s']:.2f} jobs/s, "
          f"{serial['coalesced_jobs']} coalesced)")

    print(f"batch service  : {args.workers} workers ...")
    batch = run_service(jobs, workers=args.workers)
    print(f"                 {batch['wall_s']:.1f} s "
          f"({batch['jobs_per_s']:.2f} jobs/s)")

    identical = batch["results"] == serial["results"]
    print(f"determinism    : batch == serial results: {identical}")
    if not identical:
        raise RuntimeError("4-worker batch results differ from serial run")

    print("telemetry      : same workload with the flight recorder on ...")
    telemetry = run_telemetry_phase(jobs, args.workers, batch)
    print(f"                 {telemetry['wall_on_s']:.1f} s on vs "
          f"{telemetry['wall_off_s']:.1f} s off "
          f"({telemetry['overhead_frac']:+.1%} overhead, "
          f"{telemetry['n_events']} events)")

    print("crash phase    : one injected worker death ...")
    crash = run_crash_phase(args.workers)
    print(f"                 recovered in {crash['victim_attempts']} attempts")

    print("cold start     : fresh interpreters vs this process, same seeds ...")
    cold = run_cold_start_phase(per_process)
    print(f"                 cold p50 {cold['cold_p50_s']:.2f} s, warm p50 "
          f"{cold['warm_p50_s']:.2f} s "
          f"(bound {cold['bound']['bound_s']:.2f} s, digests equal)")

    print("adverse phase  : rung-0 overhead + adverse batch ...")
    adverse = run_adverse_phase(args.workers)
    print(f"                 rung-0 overhead "
          f"{adverse['rung0_overhead']['overhead_frac']:+.1%} "
          f"(budget {adverse['rung0_overhead']['budget_frac']:.0%}), "
          f"{adverse['adverse_batch']['escalated_jobs']}/"
          f"{adverse['adverse_batch']['n_jobs']} jobs escalated")

    speedup_pp = per_process["extrapolated_wall_s"] / batch["wall_s"]
    speedup_serial = serial["wall_s"] / batch["wall_s"]
    print(f"speedup        : {speedup_pp:.2f}x vs per-process, "
          f"{speedup_serial:.2f}x vs serial service")

    record = {
        "benchmark": "serve_batch",
        "repro_version": __version__,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "spec": SPEC,
        "n_jobs": len(jobs),
        "n_distinct_specs": args.specs,
        "quick": args.quick,
        "per_process_baseline": per_process,
        "serial_service": {k: v for k, v in serial.items() if k != "results"},
        "batch_service": {k: v for k, v in batch.items() if k != "results"},
        "deterministic_vs_serial": identical,
        "telemetry_overhead": telemetry,
        "crash_recovery": crash,
        "cold_start": cold,
        "adverse": adverse,
        "speedup_vs_per_process": speedup_pp,
        "speedup_vs_serial_service": speedup_serial,
        "metrics": obs.registry().snapshot(),
    }
    if args.output:
        from repro.ioutil import atomic_write

        with atomic_write(args.output, "w") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"record         : {args.output}")
    if args.pr10_output:
        from repro.ioutil import atomic_write

        pr10_record = {
            "benchmark": "adverse_capture",
            "repro_version": __version__,
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "spec": SPEC,
            "quick": args.quick,
            **adverse,
        }
        with atomic_write(args.pr10_output, "w") as handle:
            json.dump(pr10_record, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"record         : {args.pr10_output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
