"""Fleet-scale evaluation: a synthetic population through the serve layer.

The paper validates personalization on a handful of volunteers; the system
this repo grows toward serves millions.  This module is the measurement
layer between those scales: it generates a deterministic 1k–10k
synthetic-subject population (seeded head geometries from
:class:`repro.simulation.person.VirtualSubject`, capture-quality **strata**
expressed as :mod:`repro.testing.faults` specs), pushes every subject
through the batch service as one :class:`repro.serve.job.Job`, and
aggregates per-stratum distributions of localization error, confidence,
salvage/retry rates, and latency into a single :class:`FleetReport`
artifact.

Determinism is the load-bearing property.  Per-subject metrics come from
:func:`subject_metrics` — a pure function of the job spec (seeded geometry
draw + a stratum-keyed ``default_rng`` stream + an analytic fault-severity
model), so the serve layer's determinism contract applies verbatim: any
worker count, any scheduling, bit-identical payloads.  The report separates
that deterministic content (saved JSON) from operational throughput stats
(returned alongside, never saved), so ``fleet run`` twice with one seed
produces **bit-identical report files** — the precondition for pinning
distribution digests under ``tests/golden/`` and failing CI on drift
(:mod:`repro.eval.drift`).

Why a synthetic metric model instead of the real pipeline?  The fleet tier
exists to regression-test the *measurement machinery* — population
generation, serve integration, sketch aggregation, digest pinning, drift
classification — at four orders of magnitude more subjects than the real
pipeline can personalize in a CI budget.  The per-subject model encodes the
qualitative structure the real system exhibits (geometry-dependent error,
fault-severity degradation, confidence anti-correlated with error) and
reacts to population-level regressions (a biased geometry slice shifts the
error distribution) exactly the way the drift detector must catch.  The
real pipeline keeps its own golden tier (:mod:`repro.testing.golden`).
"""

from __future__ import annotations

import os
import time
import zlib
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from repro import constants
from repro.errors import ReproError
from repro.eval.drift import DriftFinding, compare_digests
from repro.eval.sketch import QuantileSketch
from repro.ioutil import atomic_write_json
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.serve.job import Job, JobResult
from repro.simulation.person import VirtualSubject

__all__ = [
    "DEFAULT_STRATA",
    "FleetReport",
    "METRIC_EDGES",
    "OVERALL",
    "Stratum",
    "aggregate",
    "compare_reports",
    "generate_population",
    "run_fleet",
    "subject_metrics",
]

#: Seed-sequence domain separating fleet rng streams from everything else.
_FLEET_DOMAIN = 0x5F1EE7

#: Synthetic stratum name reserved for the cross-stratum merge row.
OVERALL = "__overall__"

#: Report schema version (bumped on any change to the saved JSON shape).
REPORT_VERSION = 1

#: Config knobs that *intentionally* differ between a baseline run and a
#: perturbation run — excluded from the config-match check so a biased
#: population is reported as distribution drift, not as a config mismatch.
_BIAS_KNOBS = frozenset({"bias_fraction", "head_bias_m"})

#: Localization-error sensitivity to a systematic head-half-width bias.
#: ~4 degrees per millimeter: the order of magnitude the planar pipeline
#: shows when the assumed geometry is wrong by that much.
HEAD_BIAS_SENSITIVITY_DEG_PER_M = 4000.0

#: Error contribution of anatomical deviation from the average head.
_GEOMETRY_SENSITIVITY_DEG_PER_M = 60.0

_BASE_ERROR_DEG = 0.9
_MAX_ERROR_DEG = 45.0

#: Fixed bin ladders per metric — identical ladders are what make
#: per-shard sketches exactly mergeable (see :mod:`repro.eval.sketch`).
METRIC_EDGES: dict[str, tuple[float, ...]] = {
    "error_deg": tuple(np.linspace(0.0, _MAX_ERROR_DEG, 181)),
    "confidence": tuple(np.linspace(0.0, 1.0, 201)),
    "latency_ms": tuple(np.linspace(0.0, 400.0, 161)),
}

#: Rate metrics carried per stratum as single-value digests (count + mean).
RATE_METRICS = ("salvage_rate", "retry_rate", "failure_rate")


@dataclass(frozen=True)
class Stratum:
    """One capture-quality slice of the population.

    ``fault``/``fault_args`` are a :mod:`repro.testing.faults` spec — the
    same vocabulary the serve layer already validates on every job — so a
    stratum is exactly "this fraction of the fleet captures under these
    conditions".
    """

    name: str
    fraction: float
    fault: str | None = None
    fault_args: Mapping[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        record: dict[str, Any] = {"name": self.name, "fraction": self.fraction}
        if self.fault is not None:
            record["fault"] = self.fault
        if self.fault_args:
            record["fault_args"] = dict(sorted(self.fault_args.items()))
        return record

    @classmethod
    def from_dict(cls, record: Mapping[str, Any]) -> "Stratum":
        return cls(
            name=str(record["name"]),
            fraction=float(record["fraction"]),
            fault=record.get("fault"),
            fault_args=dict(record.get("fault_args") or {}),
        )


#: The default fleet mix: mostly clean captures, with realistic minorities
#: of noisy rooms, clipped speakers, dropped probes, drifting IMUs, and
#: reverberant (or noisy *and* reverberant) living rooms.
DEFAULT_STRATA: tuple[Stratum, ...] = (
    Stratum("clean", 0.50),
    Stratum("noisy_room", 0.18, "mic_noise", {"std": 0.01}),
    Stratum("clipped_audio", 0.10, "clipped", {"level": 0.02}),
    Stratum("sparse_probes", 0.08, "dropout", {"keep_every": 2}),
    Stratum("imu_drift", 0.07, "gyro_bias_drift", {"drift_dps_per_s": 0.5}),
    Stratum("reverberant", 0.04, "reverberant_room", {"rt60_s": 0.6}),
    Stratum(
        "noisy_reverberant",
        0.03,
        "noisy_reverberant",
        {"rt60_s": 0.5, "std": 0.05},
    ),
)


def _fault_severity(
    fault: str | None, fault_args: Mapping[str, Any]
) -> tuple[float, float, float, float]:
    """Analytic degradation for a fault spec.

    Returns ``(error_deg, confidence_penalty, latency_ms, salvage_p)`` —
    the mean extra localization error, confidence loss, compute latency,
    and probability that the quality layer had to salvage probes, each
    scaled by the fault's primary argument so harsher strata degrade more.
    """
    args = dict(fault_args or {})
    if fault is None:
        return 0.0, 0.0, 0.0, 0.01
    if fault == "mic_noise":
        std = float(args.get("std", 0.01))
        return 30.0 * std, 4.0 * std, 800.0 * std, min(0.5, 35.0 * std)
    if fault == "clipped":
        level = float(args.get("level", 0.02))
        return 12.0 * level, 2.5 * level, 200.0 * level, min(0.5, 10.0 * level)
    if fault == "dropout":
        extra = float(args.get("keep_every", 2)) - 1.0
        return 0.35 * extra, 0.05 * extra, 5.0 * extra, min(0.5, 0.15 * extra)
    if fault == "gyro_bias_drift":
        drift = float(args.get("drift_dps_per_s", 0.5))
        return 0.5 * drift, 0.06 * drift, 3.0 * drift, min(0.5, 0.2 * drift)
    if fault == "reverberant_room":
        # Longer tails smear the early taps; the ladder contains the error
        # but the robust rungs cost extra deconvolutions.
        rt60 = float(args.get("rt60_s", 0.4)) * float(args.get("wet_level", 1.0))
        return 1.2 * rt60, 0.12 * rt60, 25.0 * rt60, min(0.5, 0.3 * rt60)
    if fault == "noisy_reverberant":
        rt60 = float(args.get("rt60_s", 0.5)) * float(args.get("wet_level", 1.0))
        std = float(args.get("std", 0.05))
        return (
            1.2 * rt60 + 30.0 * std,
            0.12 * rt60 + 4.0 * std,
            25.0 * rt60 + 800.0 * std,
            min(0.5, 0.3 * rt60 + 35.0 * std),
        )
    # Unmodeled faults degrade by a generic moderate amount rather than
    # silently behaving like clean captures.
    return 0.25, 0.03, 5.0, 0.1


def subject_metrics(spec: Mapping[str, Any]) -> dict[str, Any]:
    """The per-subject fleet metrics — a pure function of the job spec.

    Draws the subject's head geometry from its seed, derives degradation
    from the stratum's fault spec, adds a stratum-keyed noise stream, and
    applies any systematic head-geometry bias (``params['head_bias_m']``)
    **additively** — outside the rng stream — so a biased sub-population
    shifts the error distribution cleanly instead of reshuffling it.
    """
    params = spec.get("params") or {}
    stratum = str(params.get("stratum", "clean"))
    head_bias_m = float(params.get("head_bias_m", 0.0))
    seed = int(spec["subject_seed"])
    subject = VirtualSubject.random(seed)
    head = subject.head
    geometry_dev_m = (
        abs(head.a - constants.AVERAGE_HEAD_HALF_WIDTH_M)
        + abs(head.b - constants.AVERAGE_HEAD_FRONT_DEPTH_M)
        + abs(head.c - constants.AVERAGE_HEAD_BACK_DEPTH_M)
    )
    fault_err, fault_conf, fault_lat, salvage_p = _fault_severity(
        spec.get("fault"), spec.get("fault_args") or {}
    )
    rng = np.random.default_rng(
        [_FLEET_DOMAIN, seed, zlib.crc32(stratum.encode())]
    )
    noise = abs(float(rng.normal(0.0, 0.55)))
    jitter = 0.7 + 0.6 * float(rng.random())
    error = (
        _BASE_ERROR_DEG
        + _GEOMETRY_SENSITIVITY_DEG_PER_M * geometry_dev_m
        + fault_err * jitter
        + noise
        + HEAD_BIAS_SENSITIVITY_DEG_PER_M * abs(head_bias_m)
    )
    error = min(max(error, 0.0), _MAX_ERROR_DEG)
    confidence = 1.0 - 0.022 * error - fault_conf * jitter
    confidence -= 0.02 * float(rng.random())
    confidence = min(max(confidence, 0.0), 1.0)
    latency_ms = (
        18.0 + 3.5 * error + fault_lat * jitter + float(rng.gamma(2.0, 4.0))
    )
    salvaged = bool(rng.random() < salvage_p)
    retried = bool(rng.random() < 0.01 + 0.2 * salvage_p)
    return {
        "stratum": stratum,
        "error_deg": float(error),
        "confidence": float(confidence),
        "latency_ms": float(latency_ms),
        "salvaged": salvaged,
        "retried": retried,
        "head_half_width_m": float(head.a),
    }


def _validate_strata(strata: Sequence[Stratum]) -> tuple[Stratum, ...]:
    strata = tuple(strata)
    if not strata:
        raise ReproError("fleet needs at least one stratum")
    names = [s.name for s in strata]
    if len(set(names)) != len(names):
        raise ReproError(f"duplicate stratum names in {names}")
    if OVERALL in names:
        raise ReproError(f"stratum name {OVERALL!r} is reserved")
    if any(s.fraction <= 0 for s in strata):
        raise ReproError("stratum fractions must be positive")
    return strata


def generate_population(
    subjects: int,
    seed: int,
    *,
    strata: Sequence[Stratum] | None = None,
    bias_fraction: float = 0.0,
    head_bias_m: float = 0.0,
) -> tuple[Job, ...]:
    """Build the deterministic fleet job list.

    Each subject gets a distinct ``subject_seed`` (so no two jobs coalesce)
    and a stratum drawn from the mix fractions with a population-level rng
    keyed only by ``seed``.  ``bias_fraction``/``head_bias_m`` mark an
    evenly spread sub-population with a systematic head-half-width bias —
    the canonical fleet regression the drift detector must classify as a
    ``shift``.  Bias marks come from an rng stream independent of the
    stratum draw, so a biased population has *identical* stratum
    membership to the clean one.
    """
    if subjects < 1:
        raise ReproError(f"subjects must be >= 1, got {subjects}")
    if not 0.0 <= bias_fraction <= 1.0:
        raise ReproError(f"bias_fraction must be in [0, 1], got {bias_fraction}")
    strata = _validate_strata(strata if strata is not None else DEFAULT_STRATA)
    fractions = np.array([s.fraction for s in strata], dtype=float)
    fractions /= fractions.sum()
    rng_strata = np.random.default_rng([_FLEET_DOMAIN, seed, 0x57A7])
    assignment = rng_strata.choice(len(strata), size=subjects, p=fractions)
    rng_bias = np.random.default_rng([_FLEET_DOMAIN, seed, 0xB1A5])
    biased = rng_bias.random(subjects) < bias_fraction
    jobs = []
    for i in range(subjects):
        stratum = strata[int(assignment[i])]
        params: dict[str, Any] = {"stratum": stratum.name}
        if bias_fraction > 0.0 and bool(biased[i]):
            params["head_bias_m"] = float(head_bias_m)
        jobs.append(
            Job(
                job_id=f"fleet-{seed}-{i:05d}",
                subject_seed=1_000_000 + seed * 100_000 + i,
                fault=stratum.fault,
                fault_args=dict(stratum.fault_args),
                params=params,
            )
        )
    return tuple(jobs)


def _round6(value: float) -> float:
    return round(float(value), 6)


@dataclass
class FleetReport:
    """The deterministic artifact of one fleet run.

    Everything here is a pure function of the run config — sketches are
    filled in job submission order, latency is the *modeled* per-subject
    latency, and wall-clock throughput lives in the separate ops record
    :func:`run_fleet` returns — so saving the same config twice yields
    bit-identical JSON.
    """

    config: dict[str, Any]
    sketches: dict[str, dict[str, QuantileSketch]]
    counters: dict[str, dict[str, int]]
    statuses: dict[str, int]

    @property
    def n_subjects(self) -> int:
        return int(self.config.get("subjects", 0))

    def digest(self) -> dict[str, dict[str, dict[str, float]]]:
        """``stratum -> metric -> pinned statistics`` (the golden payload).

        Includes an :data:`OVERALL` row merged from the per-stratum
        sketches — the same merge path a sharded fleet will use — plus the
        per-stratum salvage/retry/failure rates as single-value digests.
        """
        out: dict[str, dict[str, dict[str, float]]] = {}
        overall: dict[str, QuantileSketch] = {}
        # Union with counters: a stratum where every subject failed has no
        # sketches but its failure rate must still reach the golden gate.
        for stratum in sorted(set(self.sketches) | set(self.counters)):
            metrics: dict[str, dict[str, float]] = {}
            for name in sorted(self.sketches.get(stratum, {})):
                sketch = self.sketches[stratum][name]
                metrics[name] = self._sketch_digest(sketch)
                overall.setdefault(
                    name, QuantileSketch(METRIC_EDGES[name])
                ).merge(sketch)
            counts = self.counters.get(stratum, {})
            total = int(counts.get("count", 0))
            for rate in RATE_METRICS:
                event = rate.replace("_rate", "")
                numerator = int(counts.get(event, 0))
                metrics[rate] = {
                    "count": total,
                    "mean": _round6(numerator / total) if total else 0.0,
                }
            out[stratum] = metrics
        if overall:
            out[OVERALL] = {
                name: self._sketch_digest(sketch)
                for name, sketch in sorted(overall.items())
            }
        return out

    @staticmethod
    def _sketch_digest(sketch: QuantileSketch) -> dict[str, float]:
        return {
            "count": int(sketch.count),
            "mean": _round6(sketch.mean) if sketch.count else 0.0,
            "std": _round6(sketch.std()),
            "p5": _round6(sketch.quantile(0.05)) if sketch.count else 0.0,
            "p25": _round6(sketch.quantile(0.25)) if sketch.count else 0.0,
            "p50": _round6(sketch.quantile(0.50)) if sketch.count else 0.0,
            "p75": _round6(sketch.quantile(0.75)) if sketch.count else 0.0,
            "p95": _round6(sketch.quantile(0.95)) if sketch.count else 0.0,
        }

    def to_dict(self) -> dict[str, Any]:
        return {
            "version": REPORT_VERSION,
            "config": self.config,
            "population": {
                "total": self.n_subjects,
                "per_stratum": {
                    stratum: int(counts.get("count", 0))
                    for stratum, counts in sorted(self.counters.items())
                },
            },
            "statuses": dict(sorted(self.statuses.items())),
            "counters": {
                stratum: dict(sorted(counts.items()))
                for stratum, counts in sorted(self.counters.items())
            },
            "digest": self.digest(),
            "sketches": {
                stratum: {
                    name: sketch.to_dict()
                    for name, sketch in sorted(metrics.items())
                }
                for stratum, metrics in sorted(self.sketches.items())
            },
        }

    def save(self, path: str | os.PathLike) -> None:
        """Write the report as canonical JSON (atomic, sorted keys)."""
        atomic_write_json(self.to_dict(), path)

    @classmethod
    def from_dict(cls, record: Mapping[str, Any]) -> "FleetReport":
        version = int(record.get("version", 0))
        if version != REPORT_VERSION:
            raise ReproError(
                f"fleet report version {version} unsupported "
                f"(expected {REPORT_VERSION}); regenerate it"
            )
        sketches = {
            stratum: {
                name: QuantileSketch.from_dict(payload)
                for name, payload in metrics.items()
            }
            for stratum, metrics in record.get("sketches", {}).items()
        }
        return cls(
            config=dict(record.get("config", {})),
            sketches=sketches,
            counters={
                stratum: dict(counts)
                for stratum, counts in record.get("counters", {}).items()
            },
            statuses=dict(record.get("statuses", {})),
        )


def aggregate(
    config: Mapping[str, Any],
    jobs: Sequence[Job],
    results: Iterable[JobResult],
) -> FleetReport:
    """Fold serve results into a :class:`FleetReport`.

    Results must be in job submission order (what
    :meth:`BatchServer.run_batch` returns) — sketch ``total`` accumulators
    are stream-order floats, so a fixed order is part of the bit-identity
    contract.  Failed subjects contribute to the stratum failure rate and
    nothing else.
    """
    by_id = {job.job_id: job for job in jobs}
    sketches: dict[str, dict[str, QuantileSketch]] = {}
    counters: dict[str, dict[str, int]] = {}
    statuses: dict[str, int] = {}
    for result in results:
        job = by_id.get(result.job_id)
        if job is None:
            raise ReproError(f"result for unknown job {result.job_id!r}")
        stratum = str((job.params or {}).get("stratum", "clean"))
        counts = counters.setdefault(
            stratum, {"count": 0, "salvage": 0, "retry": 0, "failure": 0}
        )
        counts["count"] += 1
        statuses[result.status] = statuses.get(result.status, 0) + 1
        if not result.ok or result.payload is None:
            counts["failure"] += 1
            continue
        payload = result.payload
        metrics = sketches.setdefault(
            stratum,
            {name: QuantileSketch(edges) for name, edges in METRIC_EDGES.items()},
        )
        for name in METRIC_EDGES:
            metrics[name].add(float(payload[name]))
        if payload.get("salvaged"):
            counts["salvage"] += 1
        if payload.get("retried"):
            counts["retry"] += 1
    return FleetReport(
        config=dict(config),
        sketches=sketches,
        counters=counters,
        statuses=statuses,
    )


def run_fleet(
    subjects: int,
    seed: int,
    *,
    workers: int = 2,
    strata: Sequence[Stratum] | None = None,
    bias_fraction: float = 0.0,
    head_bias_m: float = 0.0,
    queue_size: int = 256,
) -> tuple[FleetReport, dict[str, Any]]:
    """Run the population through :class:`~repro.serve.server.BatchServer`.

    Returns ``(report, ops)``: the deterministic :class:`FleetReport` and a
    separate operational record (wall time, subjects/sec, serve latency
    percentiles) that legitimately varies between runs and is therefore
    never part of the saved artifact.
    """
    from repro.serve.server import BatchServer
    from repro.testing.workloads import fleet_runner

    strata = _validate_strata(strata if strata is not None else DEFAULT_STRATA)
    config = {
        "subjects": int(subjects),
        "seed": int(seed),
        "strata": [s.to_dict() for s in strata],
        "bias_fraction": float(bias_fraction),
        "head_bias_m": float(head_bias_m),
    }
    with obs_trace.span("fleet.run", subjects=int(subjects), seed=int(seed)):
        jobs = generate_population(
            subjects,
            seed,
            strata=strata,
            bias_fraction=bias_fraction,
            head_bias_m=head_bias_m,
        )
        started = time.perf_counter()
        with BatchServer(
            workers=workers,
            queue_size=queue_size,
            runner=fleet_runner,
        ) as server:
            batch = server.run_batch(jobs)
        wall = time.perf_counter() - started
        report = aggregate(config, jobs, batch.results)
    obs_metrics.counter("fleet.subjects").inc(len(jobs))
    obs_metrics.counter("fleet.subjects_ok").inc(batch.n_ok)
    obs_metrics.counter("fleet.subjects_failed").inc(
        len(jobs) - batch.n_ok
    )
    obs_metrics.gauge("fleet.subjects_per_s").set(
        len(jobs) / wall if wall > 0 else float("inf")
    )
    ops = {
        "wall_s": wall,
        "subjects_per_s": len(jobs) / wall if wall > 0 else float("inf"),
        "workers": batch.workers,
        "statuses": batch.counts,
        "serve_latency": batch.latency_summary(),
    }
    return report, ops


def compare_reports(
    baseline: Mapping[str, Any],
    report: Mapping[str, Any],
    tolerances: Mapping[str, Any] | None = None,
) -> tuple[list[str], list[DriftFinding]]:
    """Compare a fresh report dict against a pinned baseline dict.

    Config must match except for the bias knobs (:data:`_BIAS_KNOBS`) —
    comparing a deliberately perturbed population against the clean
    baseline is the drift detector's whole job, while comparing different
    subject counts or strata mixes is a config error, reported as such.
    Digest comparison (including missing/unknown strata and metrics) is
    delegated to :func:`repro.eval.drift.compare_digests`.
    """
    violations: list[str] = []
    base_cfg = {
        k: v for k, v in dict(baseline.get("config", {})).items()
        if k not in _BIAS_KNOBS
    }
    run_cfg = {
        k: v for k, v in dict(report.get("config", {})).items()
        if k not in _BIAS_KNOBS
    }
    for key in sorted(set(base_cfg) | set(run_cfg)):
        if base_cfg.get(key) != run_cfg.get(key):
            violations.append(
                f"config/{key}: run has {run_cfg.get(key)!r}, baseline has "
                f"{base_cfg.get(key)!r} — not comparable, regenerate the "
                f"baseline if the change is intentional"
            )
    digest_violations, findings = compare_digests(
        baseline.get("digest", {}), report.get("digest", {}), tolerances
    )
    violations.extend(digest_violations)
    return violations, findings
