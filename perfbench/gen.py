"""Seeded job generation: a pure function of (workload, seed, job index).

Job ``i`` of a workload depends only on the workload seed and ``i``, never
on how many jobs a run reaches, so a longer or faster run measures a
superset of a shorter one's jobs, and the counts of a job prefix can be
compared between runs of any length.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Mapping

__all__ = [
    "ANGLE_STEP_DEG",
    "DEGRADED_FAULTS",
    "PROBE_INTERVAL_S",
    "JobSpec",
    "jobs",
    "served_batch_size",
]

#: The golden spec: 15 deg table step, 0.6 s between probes (34 probes).
ANGLE_STEP_DEG = 15.0
PROBE_INTERVAL_S = 0.6

#: The ``degraded`` fault cycle: job ``i`` gets entry ``i % 7``.  Levels are
#: ones on which every capture still completes (see perfbench/README.md);
#: three of them start on the ``wiener`` deconvolution rung.
DEGRADED_FAULTS: tuple[tuple[str | None, Mapping[str, Any]], ...] = (
    (None, {}),
    ("mic_noise", {"std": 0.2}),
    ("reverberant_room", {"rt60_s": 0.7, "wet_level": 1.2}),
    ("noisy_reverberant", {"rt60_s": 0.7, "std": 0.2}),
    ("dropout", {"keep_every": 2}),
    ("clipped", {"level": 4.5}),
    ("gyro_bias_drift", {"drift_dps_per_s": 0.25}),
)

#: Every fifth ``served`` job resubmits an earlier spec.
RESUBMIT_EVERY = 5

#: Nominal worker-seconds per served job, used only to size the batch: on
#: two workers it holds about the requested run time of work when the host
#: is busy, and less when it is idle.
NOMINAL_JOB_S = 4.5


@dataclass(frozen=True)
class JobSpec:
    """One generated job: a fresh capture, optionally degraded or resubmitted.

    ``resubmit_of`` is the index of the earlier job whose spec this one
    repeats (``served`` only); such a job carries the original's seeds.
    """

    index: int
    subject_seed: int
    session_seed: int
    fault: str | None = None
    fault_args: Mapping[str, Any] = field(default_factory=dict)
    resubmit_of: int | None = None


def _draw(*parts: Any) -> int:
    """A 31-bit integer that is a pure function of ``parts``."""
    blob = ":".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:4], "big") & 0x7FFFFFFF


def _fresh(workload: str, seed: int, index: int, taken: set[int]) -> JobSpec:
    attempt = 0
    subject = _draw(workload, seed, index, "subject", attempt)
    while subject in taken:
        attempt += 1
        subject = _draw(workload, seed, index, "subject", attempt)
    taken.add(subject)
    return JobSpec(
        index=index,
        subject_seed=subject,
        session_seed=_draw(workload, seed, index, "session") % 100_000,
    )


def jobs(workload: str, seed: int, n: int) -> list[JobSpec]:
    """The first ``n`` jobs of ``workload`` under ``seed``.

    ``fresh``: distinct subjects, clean captures.  ``degraded``: distinct
    subjects, each capture with the next fault of :data:`DEGRADED_FAULTS`.
    ``served``: distinct subjects, except that every fifth job resubmits
    the spec of a job at least three places earlier.
    """
    if workload not in ("fresh", "degraded", "served"):
        raise ValueError(f"unknown workload {workload!r}")
    taken: set[int] = set()
    out: list[JobSpec] = []
    for index in range(n):
        if workload == "served" and index % RESUBMIT_EVERY == RESUBMIT_EVERY - 1:
            # Originals are the non-resubmitted jobs up to index - 3.
            earlier = [j for j in out[: index - 2] if j.resubmit_of is None]
            original = earlier[_draw(workload, seed, index, "pick") % len(earlier)]
            out.append(
                JobSpec(
                    index=index,
                    subject_seed=original.subject_seed,
                    session_seed=original.session_seed,
                    resubmit_of=original.index,
                )
            )
            continue
        spec = _fresh(workload, seed, index, taken)
        if workload == "degraded":
            fault, args = DEGRADED_FAULTS[index % len(DEGRADED_FAULTS)]
            spec = JobSpec(
                index=index,
                subject_seed=spec.subject_seed,
                session_seed=spec.session_seed,
                fault=fault,
                fault_args=dict(args),
            )
        out.append(spec)
    return out


def served_batch_size(seconds: float, workers: int) -> int:
    """Jobs in the ``served`` batch: about ``seconds`` of work on ``workers``.

    Counts the resubmissions on top of the fresh jobs, so one in five jobs
    of the batch is a resubmission; at least one always is.
    """
    fresh = max(2, round(seconds * workers / NOMINAL_JOB_S))
    total = fresh + fresh // (RESUBMIT_EVERY - 1)
    return max(total, RESUBMIT_EVERY)
