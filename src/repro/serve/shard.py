"""The sharded serve tier: partitioned BatchServers behind one front.

A single :class:`~repro.serve.server.BatchServer` is one failure domain:
a poison workload that wedges its pool, or a watchdog storm, stalls every
tenant at once.  :class:`ShardedServer` splits the service into ``shards``
independent :class:`BatchServer` instances — each with its own
:class:`~repro.serve.pool.WorkerPool`, heartbeat watchdog, bounded queue,
and write-ahead journal — and routes jobs by hash of their
:meth:`~repro.serve.job.Job.spec_key`:

- **deterministic routing** — ``crc32(spec_key) % shards``, walking the
  ring to the first healthy shard.  Spec-key routing (not job-id) keeps
  request coalescing intact: duplicate specs land on the same shard and
  share one execution, even across tenants;
- **per-shard durability** — shard ``k`` journals to ``<base>.shard<k>``;
  :func:`repro.serve.journal.merge_journals` folds the set back into one
  compacted journal at ``<base>`` after the batch, so a plain
  single-server ``--resume`` replays a sharded run bit-identically.  With
  ``resume=True`` the sharded tier itself replays the merged journal
  *and* every shard journal, so done work is never re-executed no matter
  which shard (or reroute) produced it;
- **circuit breaker / brownout** — ``breaker_threshold`` consecutive
  transient outcomes (worker crashes, watchdog kills, timeouts) on one
  shard eject it: the shard drains gracefully, its queued jobs are
  rerouted to healthy shards (their journal records make the handoff
  safe), and the ring routes around it.  After an exponentially growing
  backoff the shard is probed: rebuilt from its journal (``resume=True``)
  and trialed half-open — one success closes the breaker, one transient
  re-ejects with doubled backoff.  With every shard down, jobs resolve
  as typed ``shard_down`` rejections rather than queueing forever;
- **decorrelated retries** — each shard's
  :class:`~repro.serve.retry.RetryPolicy` is namespaced by shard id
  (``namespace="shard3"``), so shards retrying the same hot spec key
  back off at different instants instead of synchronizing their load.

**Zero-overhead default**: ``shards=1`` journals at the plain ``<base>``
path, keeps the retry namespace empty, and disables the breaker — every
output is bit-identical to a bare :class:`BatchServer`.

The tier exposes the same ``submit`` / ``drain`` / ``results`` /
``run_batch`` surface as :class:`BatchServer`, so it slots under a
:class:`repro.serve.frontdoor.FrontDoor` unchanged.
"""

from __future__ import annotations

import dataclasses
import os
import queue
import threading
import time
import zlib
from typing import Any, Callable, Iterable, Mapping

from repro.errors import ReproError
from repro.obs import metrics as obs_metrics
from repro.obs.logging import get_logger, kv
from repro.serve.job import Job, JobResult
from repro.serve.journal import merge_journals, replay_journal
from repro.serve.retry import RetryPolicy
from repro.serve.server import DEFAULT_QUEUE_SIZE, BatchReport, BatchServer
from repro.serve.telemetry import ServeTelemetry, SloPolicy

__all__ = ["ShardedServer", "shard_journal_path", "shard_of"]

_log = get_logger("serve.shard")

#: Statuses that count against a shard's circuit breaker: the execution
#: failed for operational reasons, the spec was never judged.
_BREAKER_STATUSES = ("crashed", "timeout")


def shard_of(spec_key: str, shards: int) -> int:
    """The home shard for a spec key: ``crc32(key) % shards``.

    CRC-32 rather than :func:`hash` because routing must be stable across
    processes and Python versions — a resumed run must route every spec
    to the journal that knows about it.
    """
    return zlib.crc32(spec_key.encode()) % shards


def shard_journal_path(base: str | os.PathLike, shard: int, shards: int) -> str:
    """Journal path for one shard: ``<base>.shard<k>``, or ``<base>``
    itself when ``shards == 1`` (the zero-overhead single-shard case)."""
    base = os.fspath(base)
    return base if shards == 1 else f"{base}.shard{shard}"


def _namespaced_policy(policy: RetryPolicy | None, shard: int, shards: int):
    """Per-shard retry policy: same schedule, shard-scoped jitter.

    ``shards == 1`` passes the caller's policy through untouched so the
    jitter sequence stays byte-identical to a bare server's (S1 contract).
    """
    if policy is None or shards == 1:
        return policy
    return dataclasses.replace(policy, namespace=f"shard{shard}")


class _Breaker:
    """Per-shard circuit-breaker state (guarded by the owner's lock)."""

    __slots__ = ("state", "consecutive", "probe_at", "backoff_s", "ejections")

    def __init__(self) -> None:
        self.state = "closed"  # closed | open | probing | half_open
        self.consecutive = 0
        self.probe_at = 0.0
        self.backoff_s = 0.0
        self.ejections = 0


class _Reroute:
    """A queued job handed back by an ejected shard, awaiting a new home."""

    __slots__ = ("job",)

    def __init__(self, job: Job) -> None:
        self.job = job


class _Stop:
    """Reroute-queue terminator."""


class ShardedServer:
    """Hash-partitioned batch serving with brownout (see module docstring).

    Parameters mirror :class:`BatchServer` where they share meaning; the
    shard-specific ones:

    Parameters
    ----------
    shards:
        Independent :class:`BatchServer` partitions.  ``1`` (default) is
        the bit-identical zero-overhead configuration.
    workers:
        Worker processes **per shard**.
    journal:
        Base journal path.  Shard ``k`` journals at ``<base>.shard<k>``
        (``<base>`` itself for one shard); :meth:`run_batch` merges the
        set back into ``<base>``.
    resume:
        Replay ``<base>`` (a merged journal from a previous run, if any)
        plus every shard journal; specs with terminal records resolve
        ``replayed`` without re-executing, wherever they originally ran.
    breaker_threshold:
        Consecutive transient outcomes that eject a shard (``None``
        disables the breaker; it is always off with one shard).
    probe_backoff_s:
        First eject-to-probe delay; doubles per consecutive re-eject, up
        to ``max_probe_backoff_s``.
    clock:
        Time source for probe deadlines (tests inject virtual time).
    """

    def __init__(
        self,
        workers: int | None = None,
        *,
        shards: int = 1,
        queue_size: int = DEFAULT_QUEUE_SIZE,
        default_timeout_s: float | None = None,
        runner: Callable[[Mapping[str, Any]], Mapping[str, Any]] | None = None,
        coalesce: bool = True,
        retry_policy: RetryPolicy | None = None,
        journal: str | os.PathLike | None = None,
        resume: bool = False,
        heartbeat_deadline_s: float | None = None,
        heartbeat_interval_s: float = 0.2,
        mp_context=None,
        telemetry: ServeTelemetry | str | os.PathLike | None = None,
        slo: SloPolicy | Mapping[str, float] | None = None,
        on_result: Callable[[JobResult], None] | None = None,
        breaker_threshold: int | None = 3,
        probe_backoff_s: float = 0.5,
        max_probe_backoff_s: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if shards < 1:
            raise ReproError(f"shards must be >= 1, got {shards}")
        if resume and journal is None:
            raise ReproError("resume=True requires a journal")
        if probe_backoff_s <= 0:
            raise ReproError(f"probe_backoff_s must be > 0, got {probe_backoff_s}")
        self.shards = int(shards)
        self.resume = bool(resume)
        self.journal_base = os.fspath(journal) if journal is not None else None
        self._clock = clock
        self._on_result = on_result
        self._owns_telemetry = not isinstance(telemetry, ServeTelemetry)
        if telemetry is not None and not isinstance(telemetry, ServeTelemetry):
            telemetry = ServeTelemetry(telemetry, slo=slo)
        elif telemetry is None and slo is not None:
            telemetry = ServeTelemetry(None, slo=slo)
        self._telemetry: ServeTelemetry | None = telemetry
        self._breaker_threshold = (
            breaker_threshold if self.shards > 1 else None
        )
        self.probe_backoff_s = float(probe_backoff_s)
        self.max_probe_backoff_s = float(max_probe_backoff_s)
        self._state = threading.Condition()
        self._order: list[str] = []
        self._results: dict[str, JobResult] = {}
        self._jobs: dict[str, Job] = {}
        self._outstanding = 0
        self._closed = False
        self._draining = False
        self._breakers = [_Breaker() for _ in range(self.shards)]
        # Sharded-level replay map: terminal records from the merged base
        # journal and every shard journal, so resumed work resolves no
        # matter which shard (or brownout reroute) originally finished it.
        self._replay_done: dict[str, dict[str, Any]] = {}
        if self.resume and self.shards > 1 and self.journal_base is not None:
            sources = [self.journal_base] + [
                shard_journal_path(self.journal_base, k, self.shards)
                for k in range(self.shards)
            ]
            for source in sources:
                state = replay_journal(source)
                for key, record in state.done.items():
                    current = self._replay_done.get(key)
                    if current is None or (
                        current.get("status") != "ok"
                        and record.get("status") == "ok"
                    ):
                        self._replay_done[key] = dict(record)

        def build(k: int, resume_shard: bool | None = None) -> BatchServer:
            path = (
                shard_journal_path(self.journal_base, k, self.shards)
                if self.journal_base is not None
                else None
            )
            if resume_shard is None:
                resume_shard = self.resume
            # A probe rebuild (resume_shard=True) replays whatever the
            # ejected shard journaled; a journal-less shard, or a fresh
            # one, opens plain.
            resume_shard = (
                resume_shard and path is not None and os.path.exists(path)
                and os.path.getsize(path) > 0
            )
            return BatchServer(
                workers,
                queue_size=queue_size,
                default_timeout_s=default_timeout_s,
                runner=runner,
                coalesce=coalesce,
                retry_policy=_namespaced_policy(retry_policy, k, self.shards),
                journal=path,
                resume=resume_shard,
                heartbeat_deadline_s=heartbeat_deadline_s,
                heartbeat_interval_s=heartbeat_interval_s,
                mp_context=mp_context,
                telemetry=self._telemetry,
                on_result=lambda result, shard=k: self._shard_result(
                    shard, result
                ),
            )

        self._build = build
        self._servers = [build(k) for k in range(self.shards)]
        self.workers = sum(s._pool.workers for s in self._servers)
        self.queue_size = int(queue_size)
        self.coalesce = bool(coalesce)
        obs_metrics.gauge("serve.shards").set(float(self.shards))
        # Reroute handoffs happen on a dedicated thread: an ejected
        # shard's scheduler resolves its queued jobs as interrupted, and
        # blocking-resubmitting them inline from that callback could
        # deadlock two draining shards against each other's full queues.
        self._reroute_q: queue.SimpleQueue = queue.SimpleQueue()
        self._rerouter = threading.Thread(
            target=self._run_rerouter, name="repro-serve-rerouter", daemon=True
        )
        self._rerouter.start()

    # -- routing ------------------------------------------------------------

    def _record(self, event: str, **fields: Any) -> None:
        if self._telemetry is not None:
            self._telemetry.record(event, **fields)

    def _routable_locked(self, k: int) -> bool:
        state = self._breakers[k].state
        if state in ("closed", "half_open"):
            return True
        if state == "open" and self._clock() >= self._breakers[k].probe_at:
            # This thread claims the probe; others keep routing around
            # the shard until the rebuild lands and it turns half-open.
            self._breakers[k].state = "probing"
            return True
        return False

    def _route(self, spec_key: str) -> int | None:
        """First healthy shard on the ring from the spec's home position.

        May rebuild an open shard whose probe backoff has elapsed (the
        half-open trial).  Returns ``None`` when every shard is down.
        """
        start = shard_of(spec_key, self.shards)
        for step in range(self.shards):
            k = (start + step) % self.shards
            with self._state:
                routable = self._routable_locked(k)
                probing = self._breakers[k].state == "probing"
            if not routable:
                continue
            if probing:
                self._probe(k)
                with self._state:
                    if self._breakers[k].state != "half_open":
                        continue  # probe rebuild failed; keep walking
            return k
        return None

    def _probe(self, k: int) -> None:
        """Rebuild an ejected shard from its journal and trial it half-open."""
        obs_metrics.counter("serve.shard.probes").inc()
        self._record("shard_probe", shard=k, backoff_s=self._breakers[k].backoff_s)
        _log.info(kv("serve.shard.probe", shard=k))
        old = self._servers[k]
        try:
            old.close()
        except Exception:  # noqa: BLE001 - a wedged shard must not block recovery
            pass
        try:
            # The rebuilt shard resumes its own journal: work it already
            # finished replays instead of re-executing.
            self._servers[k] = self._build(k, resume_shard=True)
        except Exception as error:  # noqa: BLE001 - failed probe re-opens
            with self._state:
                breaker = self._breakers[k]
                breaker.ejections += 1
                breaker.backoff_s = min(
                    self.probe_backoff_s * 2 ** (breaker.ejections - 1),
                    self.max_probe_backoff_s,
                )
                breaker.probe_at = self._clock() + breaker.backoff_s
                breaker.state = "open"
            _log.warning(
                kv("serve.shard.probe_failed", shard=k, error=str(error))
            )
            return
        with self._state:
            breaker = self._breakers[k]
            breaker.state = "half_open"
            breaker.consecutive = 0

    def _eject(self, k: int, *, forced: bool = False) -> None:
        """Open shard ``k``'s breaker and drain it; queued work reroutes."""
        with self._state:
            breaker = self._breakers[k]
            if breaker.state in ("open", "probing"):
                return
            breaker.state = "open"
            breaker.ejections += 1
            breaker.backoff_s = min(
                self.probe_backoff_s * 2 ** (breaker.ejections - 1),
                self.max_probe_backoff_s,
            )
            breaker.probe_at = self._clock() + breaker.backoff_s
            consecutive = breaker.consecutive
        obs_metrics.counter("serve.shard.ejections").inc()
        self._record(
            "shard_eject", shard=k, consecutive=consecutive,
            backoff_s=self._breakers[k].backoff_s, forced=forced,
        )
        _log.warning(
            kv(
                "serve.shard.ejected",
                shard=k,
                consecutive=consecutive,
                backoff_s=round(self._breakers[k].backoff_s, 3),
                forced=forced,
            )
        )
        # Graceful drain: in-flight work finishes and journals; queued
        # jobs resolve interrupted and come back through _shard_result,
        # which reroutes them because the breaker is now open.
        self._servers[k].interrupt()

    def inject_shard_failure(self, k: int) -> None:
        """Test/chaos hook: forcibly eject shard ``k`` right now."""
        if not 0 <= k < self.shards:
            raise ReproError(f"no shard {k} (shards={self.shards})")
        if self.shards == 1:
            raise ReproError("cannot eject the only shard")
        self._eject(k, forced=True)

    def shard_states(self) -> list[dict[str, Any]]:
        """Breaker snapshot per shard (CLI/report surface)."""
        with self._state:
            return [
                {
                    "shard": k,
                    "state": b.state,
                    "ejections": b.ejections,
                    "consecutive_transients": b.consecutive,
                }
                for k, b in enumerate(self._breakers)
            ]

    # -- results ------------------------------------------------------------

    def _resolve(self, result: JobResult) -> None:
        with self._state:
            self._results[result.job_id] = result
            self._outstanding -= 1
            self._jobs.pop(result.job_id, None)
            self._state.notify_all()
        if self._on_result is not None:
            try:
                self._on_result(result)
            except Exception:  # noqa: BLE001 - observers must not kill serving
                pass

    def _shard_result(self, k: int, result: JobResult) -> None:
        """Fold one shard-level resolution into the tier.

        Runs the breaker bookkeeping, reroutes jobs an ejected shard
        handed back, and resolves everything else at the sharded level.
        """
        with self._state:
            breaker = self._breakers[k]
            if result.status in _BREAKER_STATUSES:
                breaker.consecutive += 1
                trip = (
                    self._breaker_threshold is not None
                    and (
                        breaker.consecutive >= self._breaker_threshold
                        or breaker.state == "half_open"
                    )
                    and breaker.state in ("closed", "half_open")
                )
            else:
                trip = False
                if result.status != "interrupted":
                    breaker.consecutive = 0
                    if breaker.state == "half_open" and result.status == "ok":
                        breaker.state = "closed"
                        breaker.ejections = 0
                        breaker.backoff_s = 0.0
                        _log.info(kv("serve.shard.recovered", shard=k))
            ejected = breaker.state in ("open", "probing")
            draining = self._draining
        if trip:
            self._eject(k)
            ejected = True
        if result.status == "interrupted" and ejected and not draining:
            job = self._jobs.get(result.job_id)
            if job is not None:
                obs_metrics.counter("serve.shard.reroutes").inc()
                self._record("reroute", job_id=result.job_id, from_shard=k)
                self._reroute_q.put(_Reroute(job))
                return
        self._resolve(result)

    def _run_rerouter(self) -> None:
        while True:
            item = self._reroute_q.get()
            if isinstance(item, _Stop):
                return
            job = item.job
            with self._state:
                draining = self._draining
            if draining:
                self._resolve(
                    JobResult(
                        job_id=job.job_id,
                        status="interrupted",
                        error=(
                            "batch interrupted before this job was rerouted; "
                            "resume from the journal"
                        ),
                        attempts=0,
                    )
                )
                continue
            self._dispatch(job, block=True)

    def _reject_shard_down(self, job: Job) -> None:
        obs_metrics.counter("serve.rejected").inc()
        obs_metrics.counter("serve.shard.shard_down").inc()
        self._record(
            "rejected", job_id=job.job_id, reason="shard_down",
            tenant=job.tenant,
        )
        self._resolve(
            JobResult(
                job_id=job.job_id,
                status="rejected",
                error="no healthy shard to route to",
                attempts=0,
                reason="shard_down",
            )
        )

    def _dispatch(self, job: Job, block: bool) -> bool:
        """Route ``job`` to a healthy shard and hand it over."""
        k = self._route(job.spec_key())
        if k is None:
            self._reject_shard_down(job)
            return False
        try:
            return self._servers[k].submit(job, block=block)
        except ReproError as error:
            # The shard refused the handoff outright (e.g. it closed
            # between routing and submit) — surface as a shard failure
            # rather than crashing the tier.
            obs_metrics.counter("serve.rejected").inc()
            obs_metrics.counter("serve.shard.shard_down").inc()
            self._record(
                "rejected", job_id=job.job_id, reason="shard_down",
                tenant=job.tenant, error=str(error),
            )
            self._resolve(
                JobResult(
                    job_id=job.job_id,
                    status="rejected",
                    error=f"shard {k} refused the job: {error}",
                    attempts=0,
                    reason="shard_down",
                )
            )
            return False

    # -- public API ---------------------------------------------------------

    def submit(self, job: Job, block: bool = True) -> bool:
        """Route one job to its shard.  Returns ``True`` if accepted.

        Mirrors :meth:`BatchServer.submit` semantics: a full shard queue
        blocks (``block=True``) or rejects with a typed ``queue_full``
        result (``block=False``); with no healthy shard the job resolves
        as a typed ``shard_down`` rejection.
        """
        with self._state:
            if self._closed:
                raise ReproError("ShardedServer is closed")
            if job.job_id in self._results or job.job_id in self._jobs:
                raise ReproError(f"duplicate job_id {job.job_id!r}")
            draining = self._draining
            self._order.append(job.job_id)
            self._jobs[job.job_id] = job
            self._outstanding += 1
        if draining:
            obs_metrics.counter("serve.jobs_interrupted").inc()
            self._resolve(
                JobResult(
                    job_id=job.job_id,
                    status="interrupted",
                    error=(
                        "batch interrupted before this job ran; "
                        "resume from the journal"
                    ),
                    attempts=0,
                )
            )
            return False
        if self._replay_done:
            record = self._replay_done.get(job.spec_key())
            if record is not None:
                status = record.get("status", "failed")
                if status == "ok":
                    obs_metrics.counter("serve.journal.replayed_done").inc()
                else:
                    obs_metrics.counter(
                        "serve.journal.replayed_dead_letters"
                    ).inc()
                self._record("replay", job_id=job.job_id, status=status)
                self._resolve(
                    JobResult(
                        job_id=job.job_id,
                        status=status,
                        payload=record.get("payload"),
                        error=record.get("error"),
                        attempts=0,
                        replayed=True,
                    )
                )
                return True
        return self._dispatch(job, block=block)

    def drain(self) -> None:
        """Block until every accepted job has a sharded-level result."""
        with self._state:
            self._state.wait_for(lambda: self._outstanding == 0)

    def interrupt(self) -> None:
        """Graceful drain across every shard (the SIGINT/SIGTERM path)."""
        with self._state:
            if self._draining:
                return
            self._draining = True
        obs_metrics.counter("serve.interrupts").inc()
        self._record("drain", shards=self.shards)
        _log.warning(kv("serve.shard.interrupted", journal=self.journal_base))
        for server in self._servers:
            try:
                server.interrupt()
            except Exception:  # noqa: BLE001 - drain every shard regardless
                pass

    @property
    def interrupted(self) -> bool:
        with self._state:
            return self._draining

    @property
    def telemetry(self) -> ServeTelemetry | None:
        """The shared telemetry hub (hand this to a :class:`FrontDoor` so
        admission events land in the same flight-recorder stream)."""
        return self._telemetry

    def results(self) -> tuple[JobResult, ...]:
        """All results so far, in submission order."""
        with self._state:
            return tuple(
                self._results[job_id]
                for job_id in self._order
                if job_id in self._results
            )

    def checkpoint(self) -> None:
        """Checkpoint every shard journal, then refresh the merged base.

        With more than one shard and a journal configured, the shard
        journals are folded into a compacted journal at the base path —
        the artifact a plain single-server ``--resume`` (or the next
        sharded run) replays.
        """
        for server in self._servers:
            try:
                server.checkpoint()
            except Exception:  # noqa: BLE001 - one shard must not block the rest
                pass
        if self.journal_base is not None and self.shards > 1:
            merge_journals(
                [
                    shard_journal_path(self.journal_base, k, self.shards)
                    for k in range(self.shards)
                ],
                self.journal_base,
            )
            self._record("checkpoint", journal=self.journal_base)

    def run_batch(self, jobs: Iterable[Job]) -> BatchReport:
        """Submit ``jobs`` (backpressured), wait, checkpoint+merge, report."""
        jobs = list(jobs)
        started = time.perf_counter()
        self._record(
            "batch_start", n_jobs=len(jobs), workers=self.workers,
            shards=self.shards,
        )
        for job in jobs:
            self.submit(job, block=True)
        self.drain()
        self.checkpoint()
        wall = time.perf_counter() - started
        with self._state:
            results = tuple(self._results[job.job_id] for job in jobs)
            interrupted = self._draining
        slo_report = (
            self._telemetry.slo_report() if self._telemetry is not None else None
        )
        self._record(
            "batch_done", n_jobs=len(jobs), wall_s=wall,
            interrupted=interrupted,
        )
        _log.info(
            kv(
                "serve.shard.batch_done",
                n_jobs=len(jobs),
                wall_s=round(wall, 3),
                shards=self.shards,
                workers=self.workers,
                interrupted=interrupted,
            )
        )
        return BatchReport(
            results=results,
            wall_s=wall,
            workers=self.workers,
            queue_size=self.queue_size,
            coalesce=self.coalesce,
            resumed=self.resume,
            journal_path=self.journal_base,
            interrupted=interrupted,
            slo=slo_report,
        )

    def close(self) -> None:
        """Shut every shard down, stop the rerouter, release telemetry."""
        with self._state:
            if self._closed:
                return
            self._closed = True
        self._reroute_q.put(_Stop())
        self._rerouter.join()
        for server in self._servers:
            try:
                server.close()
            except Exception:  # noqa: BLE001 - close every shard regardless
                pass
        if self._telemetry is not None and self._owns_telemetry:
            self._telemetry.close()

    def __enter__(self) -> "ShardedServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
