"""The three workloads, their output checks, and the metrics they report.

``fresh`` and ``degraded`` personalize one capture at a time in this
process (one closed-loop client); ``served`` submits one batch to a
two-worker :class:`repro.serve.BatchServer`.  Every call into the program
goes through its public entry points in the default configuration; the
optional :class:`perfbench.tracer.Tracer` only observes.

``repro`` is imported inside the functions: ``run.py`` puts the checkout's
``src`` on the path only after checking that it is there.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

import numpy as np

from perfbench import gen
from perfbench.tracer import TARGETS, Tracer, layer_totals, span_cost_s

__all__ = ["SERVE_WORKERS", "WorkerConfig", "run_workload", "served_job"]

SERVE_WORKERS = 2

#: Set-ups measured per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Counters the program already keeps, folded into per-job counts.
COUNTERS = (
    "localize.delay_map_builds",
    "localize.invert_cache_hits",
    "fusion.cost_evaluations",
    "fusion.runs",
    "channel.bank_deconvolutions",
    "quality.deconv_escalations",
    "quality.salvage_retries",
    "uniq.gesture_rejections",
)

_SETUP_SNIPPET = """
import sys
sys.path.insert(0, {src!r})
from repro.core.pipeline import personalize_capture
from repro.simulation import MeasurementSession, VirtualSubject
from repro.testing.faults import apply_fault
if {served!r}:
    from repro.serve import BatchServer
    server = BatchServer(workers={workers}, journal={journal!r})
print("ready", flush=True)
sys.stdin.read()
if {served!r}:
    server.close()
"""


# -- helpers --------------------------------------------------------------


def _counters() -> dict[str, float]:
    from repro.obs import metrics

    values = metrics.registry().snapshot()["counters"]
    return {name: float(values.get(name, 0.0)) for name in COUNTERS}


def _delta(before: Mapping[str, float], after: Mapping[str, float]) -> dict[str, float]:
    return {name: after[name] - before[name] for name in COUNTERS}


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail(values: Iterable[float]) -> tuple[float, float, int]:
    """``(value, percentile, n)``: the highest percentile with enough beyond.

    Ten samples must lie beyond the percentile once a run has forty or
    more; smaller runs report the upper quartile.  The value is the
    Harrell-Davis estimate, a weighted mean of every order statistic, which
    moves far less between runs of a few jobs than any single one does.
    """
    from scipy.stats import beta

    ordered = np.sort(np.asarray(list(values), dtype=float))
    n = ordered.shape[0]
    if n < 2:
        return (float(ordered[0]) if n else 0.0), 100.0, n
    percentile = 100 * (n - 10) // n if n >= 40 else 75
    q = percentile / 100.0
    weights = np.diff(beta.cdf(np.arange(n + 1) / n, q * (n + 1), (1 - q) * (n + 1)))
    return float(weights @ ordered), float(percentile), n


def render(spec: gen.JobSpec):
    """The capture a job personalizes: simulated, then degraded if asked."""
    from repro.simulation import MeasurementSession, VirtualSubject
    from repro.testing.faults import apply_fault

    session = MeasurementSession(
        VirtualSubject.random(spec.subject_seed),
        seed=spec.session_seed,
        probe_interval_s=gen.PROBE_INTERVAL_S,
    ).run()
    if spec.fault is not None:
        session = apply_fault(session, spec.fault, **dict(spec.fault_args))
    return session


def evaluate(session, result) -> dict[str, Any]:
    """Checks and quality of one completed table against simulator truth."""
    from repro import ground_truth_table
    from repro.hrtf.metrics import mean_table_correlation

    table = result.table
    finite = bool(np.all(np.isfinite(table.angles_deg))) and all(
        bool(np.all(np.isfinite(ir.left)) and np.all(np.isfinite(ir.right)))
        for ir in (*table.near, *table.far)
    )
    confidence = float(result.confidence)
    truth = ground_truth_table(
        session.truth.subject, table.angles_deg, fs=session.fs
    )
    left, right = mean_table_correlation(table, truth)
    errors = np.abs(
        np.asarray(result.fusion.fused_angles_deg)
        - session.truth.probe_angles_deg()
    )
    salvage = (result.quality.salvage or {}) if result.quality else {}
    return {
        "table_ok": finite and 0.0 <= confidence <= 1.0,
        "confidence": confidence,
        "hrir_corr": 0.5 * (left + right),
        "loc_errors": [float(e) for e in errors],
        "rung_path": "/".join(salvage.get("deconv_path", ["inverse"])),
    }


def _job_counts(counters: Mapping[str, float], rung_path: str | None, outcome: str) -> dict:
    """The exact per-job counts a later change may claim by name."""
    return {
        "outcome": outcome,
        "map_builds": int(counters["localize.delay_map_builds"]),
        "cost_evals": int(counters["fusion.cost_evaluations"]),
        "solves": int(counters["fusion.runs"]),
        "deconvolutions": int(counters["channel.bank_deconvolutions"]),
        "rung_path": rung_path,
    }


# -- set-up -----------------------------------------------------------------


def measure_setup(root: str, workload: str, scratch: str) -> list[float]:
    """Seconds from launching a fresh interpreter until a job could start.

    In-process workloads need the pipeline imported; ``served`` also needs
    its two-worker server up with a journal open.
    """
    samples = []
    for repeat in range(SETUP_REPEATS):
        journal = os.path.join(scratch, f"setup-journal-{repeat}.jsonl")
        code = _SETUP_SNIPPET.format(
            src=os.path.join(root, "src"),
            served=workload == "served",
            workers=SERVE_WORKERS,
            journal=journal,
        )
        started = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, "-c", code],
            cwd=root,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - started
            child.stdin.close()
            child.stdout.read()
        finally:
            child.wait(timeout=60)
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up child failed (exit {child.returncode})")
        samples.append(elapsed)
    return samples


# -- in-process workloads ---------------------------------------------------


def _personalize(spec: gen.JobSpec, session=None):
    """``personalize_capture`` on ``session``, or on the spec's own capture."""
    from repro.core.pipeline import personalize_capture

    return personalize_capture(
        spec.subject_seed,
        session_seed=spec.session_seed,
        probe_interval_s=gen.PROBE_INTERVAL_S,
        angle_step_deg=gen.ANGLE_STEP_DEG,
        session=session,
    )


def _solo_digest(spec: gen.JobSpec) -> str:
    """Table digest of one spec simulated and personalized in this process."""
    from repro.hrtf.io import table_digest

    _, result = _personalize(spec)
    return table_digest(result.table)


def run_inprocess(
    workload: str, seed: int, seconds: float, trace: bool, n_jobs: int | None
) -> dict[str, Any]:
    """One closed-loop client personalizing fresh captures back to back."""
    from repro.errors import CalibrationError

    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    limit = n_jobs if n_jobs is not None else int(seconds * 4) + 8
    specs = gen.jobs(workload, seed, limit)
    records: list[dict[str, Any]] = []
    started = time.perf_counter()
    try:
        for spec in specs:
            if n_jobs is None and records and time.perf_counter() - started >= seconds:
                break
            session = render(spec)
            before = _counters()
            job_started = time.perf_counter()
            result, error = None, None
            with tracer.job(spec.index) if tracer else contextlib.nullcontext():
                try:
                    _, result = _personalize(spec, session)
                except CalibrationError:
                    error = "CalibrationError"
                except Exception as exc:  # noqa: BLE001 - reported as a check
                    error = type(exc).__name__
            wall = time.perf_counter() - job_started
            counters = _delta(before, _counters())
            record: dict[str, Any] = {
                "index": spec.index,
                "fault": spec.fault,
                "wall_s": wall,
                "error": error,
                "counters": counters,
            }
            if result is not None:
                record.update(evaluate(session, result))
            record["counts"] = _job_counts(
                counters, record.get("rung_path"), error or "ok"
            )
            records.append(record)
        peak_rss = _maxrss_mb()
    finally:
        if tracer is not None:
            tracer.uninstall()
    out: dict[str, Any] = {
        "records": records,
        "peak_rss_mb": peak_rss,
        "checks": _inprocess_checks(records),
    }
    if tracer is not None:
        spans = tracer.take()
        out["spans"] = spans
        out["missing_targets"] = tracer.missing
    return out


def _inprocess_checks(records: list[dict[str, Any]]) -> list[str]:
    problems = []
    for record in records:
        error = record["error"]
        if error is not None and error != "CalibrationError":
            problems.append(f"job {record['index']} raised {error}")
        if error is None and not record["table_ok"]:
            problems.append(f"job {record['index']}: non-finite table or confidence")
    return problems


# -- served workload --------------------------------------------------------


@dataclass(frozen=True)
class WorkerConfig:
    """What :func:`served_job` needs in a worker: pickled with each call."""

    trace: bool
    span_dir: str


class _WorkerState:
    """Per-worker-process tap on the job's capture, plus the tracer."""

    def __init__(self, config: WorkerConfig) -> None:
        from repro.serve import worker

        self.pid = os.getpid()
        self.tapped: tuple | None = None
        original = worker.personalize_capture

        @functools.wraps(original)
        def tap(*args, **kwargs):
            self.tapped = original(*args, **kwargs)
            return self.tapped

        worker.personalize_capture = tap
        self.tracer = None
        if config.trace:
            self.tracer = Tracer()
            self.tracer.install(t for t in TARGETS if t[2] != "serve.journal_append")


_STATE: _WorkerState | None = None


def served_job(config: WorkerConfig, spec: Mapping[str, Any]) -> dict[str, Any]:
    """The benchmark's serve runner: the default runner, observed.

    Runs :func:`repro.serve.worker.execute_job` unchanged, then checks and
    scores the table it produced (tapped on its way out of
    ``personalize_capture``) and returns the payload with a ``_bench``
    record.  Underscore keys are outside the serve determinism contract.
    """
    global _STATE
    from repro.serve.worker import execute_job

    started = time.perf_counter()
    if _STATE is None or _STATE.pid != os.getpid():
        _STATE = _WorkerState(config)
    state = _STATE
    state.tapped = None
    before = _counters()
    tracer = state.tracer
    with tracer.job(spec["job_id"]) if tracer else contextlib.nullcontext():
        payload = execute_job(spec)
    executed = time.perf_counter()
    counters = _delta(before, _counters())
    bench: dict[str, Any] = {"counters": counters, "pid": state.pid}
    if state.tapped is None:
        bench["table_ok"] = False
    else:
        bench.update(evaluate(*state.tapped))
    if tracer is not None:
        with open(
            os.path.join(config.span_dir, f"spans-{state.pid}.jsonl"), "a"
        ) as handle:
            handle.write(json.dumps(tracer.take()) + "\n")
    bench["maxrss_mb"] = _maxrss_mb()
    bench["eval_s"] = time.perf_counter() - executed
    bench["runner_s"] = time.perf_counter() - started
    payload = dict(payload)
    payload["_bench"] = bench
    return payload


def run_served(
    seed: int, seconds: float, trace: bool, n_jobs: int | None, scratch: str
) -> dict[str, Any]:
    """One batch, submitted at once, on a two-worker journaled server."""
    from repro.serve import BatchServer, Job

    size = n_jobs if n_jobs is not None else gen.served_batch_size(seconds, SERVE_WORKERS)
    specs = gen.jobs("served", seed, size)
    batch = [
        Job(
            job_id=f"job{spec.index:04d}",
            subject_seed=spec.subject_seed,
            session_seed=spec.session_seed,
            probe_interval_s=gen.PROBE_INTERVAL_S,
            angle_step_deg=gen.ANGLE_STEP_DEG,
        )
        for spec in specs
    ]
    span_dir = os.path.join(scratch, "spans")
    os.makedirs(span_dir, exist_ok=True)
    config = WorkerConfig(trace=trace, span_dir=span_dir)
    server = BatchServer(
        workers=SERVE_WORKERS,
        journal=os.path.join(scratch, "journal.jsonl"),
        runner=functools.partial(served_job, config),
    )
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install(t for t in TARGETS if t[2] == "serve.journal_append")
    try:
        report = server.run_batch(batch)
    finally:
        if tracer is not None:
            tracer.uninstall()
        server.close()
    main_rss = _maxrss_mb()

    results = list(report.results)
    records: list[dict[str, Any]] = []
    problems: list[str] = []
    worker_rss: dict[int, float] = {}
    for spec, result in zip(specs, results):
        payload = result.payload or {}
        bench = payload.get("_bench") or {}
        executed = result.status == "ok" and not result.coalesced and not result.replayed
        record: dict[str, Any] = {
            "index": spec.index,
            "status": result.status,
            "coalesced": result.coalesced,
            "resubmit_of": spec.resubmit_of,
            "digest": payload.get("table_digest"),
            "queue_wait_s": result.queue_wait_s,
            "attempts": result.attempts,
        }
        if result.status != "ok":
            kind = (result.error or "").split(":", 1)[0]
            if not (result.status == "failed" and kind == "CalibrationError"):
                problems.append(f"{result.job_id}: {result.status} {result.error}")
        if executed:
            record.update(
                wall_s=result.run_s - bench.get("eval_s", 0.0),
                run_s=result.run_s,
                dispatch_overhead_s=result.run_s - bench.get("runner_s", 0.0),
                counters=bench.get("counters"),
                loc_errors=bench.get("loc_errors", []),
                hrir_corr=bench.get("hrir_corr"),
                table_ok=bench.get("table_ok", False),
                rung_path=bench.get("rung_path"),
            )
            pid = bench.get("pid")
            if pid is not None:
                worker_rss[pid] = max(worker_rss.get(pid, 0.0), bench.get("maxrss_mb", 0.0))
            if not record["table_ok"]:
                problems.append(f"{result.job_id}: non-finite table or confidence")
            if bench.get("counters") is not None:
                record["counts"] = _job_counts(
                    bench["counters"], record["rung_path"], "ok"
                )
                # Maps a worker built for an earlier job (the optimizer's
                # shared initial simplex) are hits here, so a served job's
                # builds depend on which worker ran it: not an exact count.
                record["counts"]["map_builds"] = None
        records.append(record)

    by_index = {r["index"]: r for r in records}
    for record in records:
        original = record["resubmit_of"]
        if original is None:
            continue
        if not record["coalesced"]:
            problems.append(f"resubmission job{record['index']:04d} was executed again")
        if record["digest"] != by_index[original]["digest"]:
            problems.append(
                f"resubmission job{record['index']:04d} digest differs from its original"
            )
    if records[0]["status"] == "ok" and _solo_digest(specs[0]) != records[0]["digest"]:
        problems.append("served digest of job0000 differs from the in-process digest")

    out: dict[str, Any] = {
        "records": records,
        "wall_s": report.wall_s,
        "peak_rss_mb": main_rss + sum(worker_rss.values()),
        "checks": problems,
    }
    if tracer is not None:
        spans = tracer.take()
        for name in sorted(os.listdir(span_dir)):
            with open(os.path.join(span_dir, name)) as handle:
                for line in handle:
                    offset = len(spans)
                    for row in json.loads(line):
                        if row[3] >= 0:
                            row[3] += offset
                        spans.append(row)
        out["spans"] = spans
        out["missing_targets"] = tracer.missing
    return out


# -- metrics ----------------------------------------------------------------


def _median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def end_to_end(workload: str, run: Mapping[str, Any], setup: list[float]) -> dict[str, Any]:
    """The user-facing figures of one untraced run.

    The localization error is a note here and a per-layer metric: between
    runs of eight subjects it spreads by a fifth, more than any bound.
    """
    records = run["records"]
    timed = [r for r in records if "wall_s" in r]
    ok = [r for r in records if r.get("error") is None and r.get("status", "ok") == "ok"]
    walls = [r["wall_s"] for r in timed if r.get("table_ok")]
    if workload == "served":
        rate = len(ok) / run["wall_s"]
    else:
        rate = len(ok) / sum(r["wall_s"] for r in timed)
    tail_value, tail_pct, tail_n = tail(walls)
    errors = [e for r in timed for e in r.get("loc_errors", [])]
    corr = [r["hrir_corr"] for r in timed if r.get("hrir_corr") is not None]
    return {
        "metrics": {
            "setup_s": (_median(setup), "s"),
            "subjects_per_s": (rate, "1/s"),
            "job_p50_s": (_median(walls), "s"),
            "job_tail_s": (tail_value, "s"),
            "completed_frac": (len(ok) / len(records), "ratio"),
            "peak_rss_mb": (run["peak_rss_mb"], "MB"),
            "hrir_corr_p50": (_median(corr), "ratio"),
        },
        "notes": {
            "loc_error_p50_deg (deg)": _median(errors),
            "job_tail_percentile": tail_pct,
            "job_samples": tail_n,
            "probe_samples": len(errors),
            "setup_samples_s": setup,
        },
    }


#: Per-layer busy time: metric name -> span name (inclusive time).
_LAYER_TIME = {
    "geometry.delays_batch_s": "geometry.delays_batch",
    "localize.map_get_s": "localize.map_get",
    "localize.map_build_s": "localize.map_build",
    "localize.locate_s": "localize.locate",
    "fusion.solve_s": "fusion.run",
    "fusion.extract_delays_s": "fusion.extract_delays",
    "quality.preflight_s": "quality.preflight",
    "simulation.render_s": "simulation.render",
    "near_far.s": "near_far.convert",
    "hrtf.digest_s": "hrtf.digest",
}

#: Shares of job wall time reported for the layers most of it goes to.
_SHARES = {
    "geometry.delays_batch_share": "geometry.delays_batch_s",
    "localize.map_get_share": "localize.map_get_s",
    "localize.map_build_share": "localize.map_build_s",
    "localize.locate_share": "localize.locate_s",
    "fusion.solve_share": "fusion.solve_s",
    "simulation.render_share": "simulation.render_s",
}


def per_layer(workload: str, run: Mapping[str, Any]) -> dict[str, Any]:
    """Per-job layer figures of one traced run, from its spans and counters."""
    spans = run["spans"]
    totals = layer_totals(spans)
    records = [r for r in run["records"] if "wall_s" in r]
    job_ids = (
        [f"job{r['index']:04d}" for r in records]
        if workload == "served"
        else [r["index"] for r in records]
    )
    n = max(1, len(job_ids))

    def total(name: str, key: str = "s") -> float:
        return sum(totals[j][name][key] for j in job_ids if name in totals.get(j, {}))

    def tagged(prefix: str, key: str = "s") -> dict[str, float]:
        out: dict[str, float] = {}
        for j in job_ids:
            for name, entry in totals.get(j, {}).items():
                if name.startswith(prefix):
                    out[name] = out.get(name, 0.0) + entry[key]
        return out

    job_wall = total("job") or 1.0
    counters = {
        name: sum((r.get("counters") or {}).get(name, 0.0) for r in records)
        for name in COUNTERS
    }
    metrics: dict[str, tuple[float, str]] = {}
    for metric, span in _LAYER_TIME.items():
        metrics[metric] = (total(span) / n, "s")
    metrics["interpolation.s"] = (
        (total("interpolation.extract") + total("interpolation.grid")) / n, "s"
    )
    for metric, source in _SHARES.items():
        metrics[metric] = (metrics[source][0] * n / job_wall, "ratio")
    metrics["job.unattributed_share"] = (total("job", "self_s") / job_wall, "ratio")
    metrics["geometry.delays_batch_calls"] = (total("geometry.delays_batch", "calls") / n, "count")
    builds = total("localize.map_build", "calls")
    gets = total("localize.map_get", "calls")
    metrics["localize.map_builds"] = (builds / n, "count")
    metrics["localize.map_cache_hit_ratio"] = (
        (1.0 - builds / gets) if gets else 0.0, "ratio"
    )
    metrics["localize.invert_memo_hits"] = (counters["localize.invert_cache_hits"] / n, "count")
    solves = total("fusion.run", "calls")
    metrics["fusion.solves"] = (solves / n, "count")
    metrics["fusion.cost_evals_per_solve"] = (
        total("fusion.cost", "calls") / solves if solves else 0.0, "count"
    )
    metrics["fusion.nm_self_s"] = (total("fusion.run", "self_s") / n, "s")
    metrics["fusion.cost_self_s"] = (total("fusion.cost", "self_s") / n, "s")
    metrics["pipeline.rung_climbs"] = (counters["quality.deconv_escalations"] / n, "count")
    metrics["pipeline.salvage_retries"] = (counters["quality.salvage_retries"] / n, "count")
    metrics["pipeline.gesture_rejections"] = (counters["uniq.gesture_rejections"] / n, "count")
    channel_s = tagged("signals.channel[")
    channel_calls = tagged("signals.channel[", "calls")
    for method in ("inverse", "wiener", "tdls"):
        metrics[f"signals.deconv_s.{method}"] = (
            channel_s.get(f"signals.channel[{method}:miss]", 0.0) / n, "s"
        )
    misses = sum(v for k, v in channel_calls.items() if k.endswith(":miss]"))
    calls = sum(channel_calls.values())
    metrics["signals.deconvolutions"] = (misses / n, "count")
    metrics["signals.bank_hit_ratio"] = ((1.0 - misses / calls) if calls else 0.0, "ratio")

    served = workload == "served"
    metrics["serve.queue_wait_p50_s"] = (
        _median([r["queue_wait_s"] for r in records]) if served else 0.0, "s"
    )
    metrics["serve.dispatch_overhead_s"] = (
        _median([r["dispatch_overhead_s"] for r in records]) if served else 0.0, "s"
    )
    journal = totals.get(None, {}).get("serve.journal_append", {}).get("s", 0.0)
    metrics["serve.journal_append_s"] = (journal / n if served else 0.0, "s")
    metrics["serve.coalesced_jobs"] = (
        float(sum(1 for r in run["records"] if r.get("coalesced"))), "count"
    )
    metrics["serve.retries"] = (
        float(sum(max(0, r.get("attempts", 1) - 1) for r in run["records"])), "count"
    )
    metrics["fusion.loc_error_p50_deg"] = (
        _median([e for r in records for e in r.get("loc_errors", [])]), "deg"
    )
    # Tracing cost: every span of the measured jobs, at the cost of one
    # wrapped call measured here.  Timing whole jobs traced and untraced
    # cannot resolve it: single jobs differ by several percent run to run.
    measured = set(job_ids)
    n_spans = sum(1 for row in spans if row[4] in measured)
    metrics["trace.overhead_frac"] = (n_spans * span_cost_s() / job_wall, "ratio")
    return {
        "metrics": metrics,
        "notes": {"traced_jobs": len(job_ids), "missing_targets": run["missing_targets"]},
    }


def run_workload(
    root: str, workload: str, seed: int, seconds: float, trace: bool,
    n_jobs: int | None = None,
) -> dict[str, Any]:
    """Set up, run and check one workload; return its metrics and record."""
    scratch = os.path.join(root, ".perfbench", f"run-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        setup = [] if trace else measure_setup(root, workload, scratch)
        if workload == "served":
            run = run_served(seed, seconds, trace, n_jobs, scratch)
        else:
            run = run_inprocess(workload, seed, seconds, trace, n_jobs)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    summary = per_layer(workload, run) if trace else end_to_end(workload, run, setup)
    records = run["records"]
    return {
        "correct": not run["checks"],
        "attempted": len(records),
        "failed": sum(
            1 for r in records
            if r.get("error") is not None or r.get("status", "ok") != "ok"
        ),
        "checks": run["checks"],
        "metrics": summary["metrics"],
        "notes": summary["notes"],
        "counts": [r["counts"] for r in records if "counts" in r],
        "jobs": [
            {
                "index": r["index"],
                "fault": r.get("fault"),
                "wall_s": r.get("wall_s"),
                "hrir_corr": r.get("hrir_corr"),
                "loc_error_p50_deg": _median(r.get("loc_errors", [])),
            }
            for r in records
        ],
        "coalesced_jobs": sum(1 for r in records if r.get("coalesced")),
        "spans": run.get("spans"),
    }

