"""The :class:`SweepService`: single-flight serving over the store.

The serving layer the ROADMAP's "millions of users" direction calls
for: a long-lived ``asyncio`` front-end over the store-backed
:class:`~repro.api.Session`.  Admission computes the content-addressed
fingerprint, answers store hits immediately, and **single-flights**
misses -- concurrent submissions of one fingerprint coalesce onto one
in-flight :class:`~repro.service.jobs.Job` whose result fans out to
every waiter and is written back exactly once.

Architecture (SRMCA-style decoupling: accept / dispatch / compute are
separate parties, so one failing component degrades instead of
killing the service):

* **Admission** (:meth:`SweepService.submit`) runs on the event loop:
  fingerprint, store lookup, single-flight dedup, bounded-queue
  back-pressure (:class:`ServiceOverload` when full -- retries of
  already-admitted jobs bypass the bound).
* **Dispatch**: a priority queue (higher ``priority`` first, FIFO
  within a level) feeds ``workers`` asyncio worker tasks.
* **Compute**: each worker runs jobs through a thread-local sibling
  :class:`~repro.api.Session` (one per executor thread: shared store
  instance and, for ``jobs > 1``, the shared refcounted persistent
  pool) via ``loop.run_in_executor``, under an
  optional per-job timeout.
* **Recovery**: crash-class failures (a SIGKILLed pool child surfacing
  as ``BrokenProcessPool``, broken pipes, timeouts) re-queue the job
  with exponential backoff up to ``max_retries``; the broken pool is
  force-closed so the next attempt boots a fresh one lazily.  Compute
  errors (``ValueError``, :class:`~repro.api.SpecError`...) fail
  permanently -- retrying a deterministic error burns workers for
  nothing.  A worker *task* that dies mid-job has its job re-queued by
  the supervisor and a replacement worker spawned.
* **Grid checkpointing**: grid jobs run per-scenario (each scenario
  seeded by :func:`repro.parallel.derive_seed` from its global index,
  exactly like :meth:`Session.grid <repro.api.Session.grid>`, so the
  assembled payload is bit-identical) and record every finished
  scenario in ``job.checkpoint`` -- a re-queued grid resumes from the
  last completed scenario instead of restarting.

A cancelled ``run_in_executor`` thread keeps running to completion
(stdlib executor semantics); a timed-out attempt's late store write is
harmless -- last-writer-wins under a content-addressed key.
"""

from __future__ import annotations

import asyncio
import itertools
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import PurePath
from typing import Mapping

from ..api.result import network_result_payload, RunResult
from ..api.session import resolve_store, Session
from ..api.spec import build_grid, RunSpec, RuntimeProfile, SpecError
from ..backends.pooled import PooledBackend
from ..campaign.campaign import VERBS
from ..parallel.executor import _network_one
from .jobs import (
    DONE,
    FAILED,
    Job,
    JobFailed,
    QUEUED,
    RUNNING,
    ServiceClosed,
    ServiceError,
    ServiceOverload,
)

__all__ = ["SweepService"]

#: Failure classes worth retrying: the *runtime* broke (a killed pool
#: child, a torn pipe, a timeout), not the computation.  ``OSError``
#: subsumes ``ConnectionError``/``BrokenPipeError``; ``TimeoutError``
#: is what ``asyncio.wait_for`` raises on the per-job deadline.
RETRYABLE = (BrokenProcessPool, EOFError, OSError, TimeoutError)

#: How many finished jobs stay addressable for status/result lookups.
JOB_HISTORY = 1024

#: Budget-derived attempt deadline: wall-clock slack over the spec's
#: ``budget_ms`` (planner prices are estimates, not guarantees) plus a
#: floor covering session/pool warm-up.  See ``_attempt_timeout``.
BUDGET_TIMEOUT_SLACK = 4.0
BUDGET_TIMEOUT_FLOOR = 1.0


class SweepService:
    """Async serving daemon over a store-backed session (module docs).

    Parameters
    ----------
    profile:
        The :class:`~repro.api.RuntimeProfile` every worker session
        runs under (mapping / path forms accepted, like ``Session``).
    store:
        The shared :class:`~repro.store.ResultStore` (or directory
        path).  ``None`` disables caching -- every submission computes,
        and single-flight dedup is off (no fingerprints).
    workers:
        Concurrent compute slots: one thread (with its own sibling
        session) per worker, fed by that many asyncio worker tasks.
    queue_limit:
        Bounded-admission depth; a full queue raises
        :class:`ServiceOverload`.  Retries/re-queues bypass the bound
        (an admitted job must never be lost to back-pressure).
    job_timeout:
        Per-attempt wall-clock deadline in seconds (``None`` = none).
    max_retries:
        Crash-class attempts beyond the first (so a job runs at most
        ``max_retries + 1`` times).
    retry_backoff:
        Base of the exponential backoff between attempts (seconds).
    """

    def __init__(
        self,
        profile: RuntimeProfile | Mapping | str | None = None,
        store=None,
        *,
        workers: int = 2,
        queue_limit: int = 64,
        job_timeout: float | None = None,
        max_retries: int = 2,
        retry_backoff: float = 0.05,
    ) -> None:
        if profile is None:
            profile = RuntimeProfile.default()
        elif isinstance(profile, Mapping):
            profile = RuntimeProfile.from_dict(profile)
        elif isinstance(profile, (str, PurePath)):
            profile = RuntimeProfile.load(profile)
        self.profile = profile
        self.store = resolve_store(store, profile)
        self.workers = int(workers)
        self.queue_limit = int(queue_limit)
        self.job_timeout = job_timeout
        self.max_retries = int(max_retries)
        self.retry_backoff = float(retry_backoff)

        self._queue: asyncio.PriorityQueue = asyncio.PriorityQueue()
        self._seq = itertools.count()
        self._job_ids = itertools.count(1)
        #: fingerprint -> the one in-flight Job (the single-flight map).
        self._inflight: dict[str, Job] = {}
        #: id -> Job for every job still addressable (bounded history).
        self._jobs: dict[str, Job] = {}
        self._loop: asyncio.AbstractEventLoop | None = None
        self._pool: ThreadPoolExecutor | None = None
        self._worker_tasks: dict[int, asyncio.Task] = {}
        self._supervisor: asyncio.Task | None = None
        self._aux_tasks: set[asyncio.Task] = set()
        self._current: dict[int, Job] = {}
        self._worker_seq = itertools.count(1)
        self._closing = False
        self._started = False

        self._local = threading.local()
        self._sessions: list[Session] = []
        self._sessions_lock = threading.Lock()
        self._counter_lock = threading.Lock()
        #: Job ids in the order compute actually started (test hook for
        #: priority ordering; append is atomic under the GIL).
        self.execution_order: list[str] = []
        self._stats = {
            "submitted": 0,
            "hits": 0,
            "coalesced": 0,
            "computed": 0,
            "completed": 0,
            "failed": 0,
            "retries": 0,
            "timeouts": 0,
            "requeued": 0,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "SweepService":
        """Boot the worker group and supervisor (idempotent)."""
        if self._started:
            return self
        self._started = True
        self._loop = asyncio.get_running_loop()
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-svc"
        )
        for _ in range(self.workers):
            self._spawn_worker()
        self._supervisor = asyncio.create_task(
            self._supervise(), name="repro-svc-supervisor"
        )
        return self

    async def stop(self) -> None:
        """Drain nothing, stop everything: cancel workers, fail still
        pending jobs with :class:`ServiceClosed`, close every thread
        session (idempotent)."""
        if self._closing:
            return
        self._closing = True
        if self._supervisor is not None:
            self._supervisor.cancel()
        for task in list(self._worker_tasks.values()):
            task.cancel()
        for task in list(self._aux_tasks):
            task.cancel()
        pending = [
            task for task in (
                *self._worker_tasks.values(),
                *( (self._supervisor,) if self._supervisor else () ),
                *self._aux_tasks,
            )
        ]
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        self._worker_tasks.clear()
        self._aux_tasks.clear()
        for job in list(self._inflight.values()):
            if not job.future.done():
                job.state = FAILED
                job.error = "service stopped"
                job.future.set_exception(
                    ServiceClosed(f"service stopped before {job.id} finished")
                )
                job.future.exception()  # mark retrieved
                job.emit(FAILED, {"error": job.error})
        self._inflight.clear()
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
        with self._sessions_lock:
            sessions, self._sessions = self._sessions, []
        for session in sessions:
            try:
                session.close()
            except Exception:  # pragma: no cover - best-effort teardown
                pass

    async def __aenter__(self) -> "SweepService":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # Admission (the single-flight front door)
    # ------------------------------------------------------------------
    def submit(self, verb: str, spec, *, priority: int = 0) -> Job:
        """Admit one ``(verb, spec)``; returns the tracking :class:`Job`.

        * Store **hit**: an already-terminal job carrying the stored
          result (``source="hit"``) -- no queueing, no compute.
        * Fingerprint already **in flight**: the existing job (the
          caller becomes one more waiter; ``coalesced`` counts them).
        * **Miss**: a new queued job, registered in the single-flight
          map so later identical submissions coalesce onto it.

        Raises :class:`ServiceOverload` when the bounded queue is full
        and :class:`~repro.api.SpecError` for unknown verbs / invalid
        specs.  Must be called on the event-loop thread (every service
        front end -- in-process client, TCP server, CLI -- does).
        """
        if self._closing:
            raise ServiceClosed("service is stopped")
        if verb not in VERBS:
            raise SpecError(
                f"unknown service verb {verb!r}; one of {list(VERBS)}"
            )
        if not isinstance(spec, RunSpec):
            spec = RunSpec.from_dict(spec)
        self._stats["submitted"] += 1
        fingerprint = None
        if self.store is not None:
            try:
                fingerprint = self.store.fingerprint(verb, spec)
            except SpecError:
                fingerprint = None  # live objects: no identity, no dedup
        if fingerprint is not None:
            inflight = self._inflight.get(fingerprint)
            if inflight is not None:
                inflight.coalesced += 1
                self._stats["coalesced"] += 1
                return inflight
            t0 = time.perf_counter()
            cached = self.store.get(fingerprint)
            if cached is not None:
                cached.store_meta = {
                    "hit": True,
                    "fingerprint": fingerprint,
                    "lookup_seconds": time.perf_counter() - t0,
                }
                self._stats["hits"] += 1
                return self._hit_job(verb, spec, fingerprint, cached)
        if self._queue.qsize() >= self.queue_limit:
            raise ServiceOverload(
                f"job queue is full ({self.queue_limit} queued); retry later"
            )
        job = Job(
            f"job-{next(self._job_ids):06d}", verb, spec, fingerprint,
            priority=priority,
        )
        self._register(job)
        if fingerprint is not None:
            self._inflight[fingerprint] = job
        job.emit("submitted", {"fingerprint": fingerprint})
        self._enqueue(job)
        return job

    def _hit_job(self, verb, spec, fingerprint, result: RunResult) -> Job:
        job = Job(f"job-{next(self._job_ids):06d}", verb, spec, fingerprint)
        job.state = DONE
        job.source = "hit"
        job.result = result
        job.finished = time.time()  # display; durations use monotonic
        job.finished_mono = time.monotonic()
        job.future.set_result(result)
        self._register(job)
        job.emit("submitted", {"fingerprint": fingerprint})
        job.emit(DONE, {"source": "hit"})
        return job

    def _register(self, job: Job) -> None:
        self._jobs[job.id] = job
        while len(self._jobs) > JOB_HISTORY:
            oldest = next(iter(self._jobs))
            if self._jobs[oldest].state not in (DONE, FAILED):
                break  # never forget a live job
            del self._jobs[oldest]

    def _enqueue(self, job: Job) -> None:
        self._queue.put_nowait((-job.priority, next(self._seq), job))

    def job(self, job_id: str) -> Job:
        """The tracked job for ``job_id``; raises ``ServiceError`` for
        unknown (or aged-out) ids."""
        try:
            return self._jobs[job_id]
        except KeyError:
            raise ServiceError(f"unknown job id {job_id!r}") from None

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Service counters plus the shared store's
        :meth:`~repro.store.ResultStore.stats_payload` (the ``stats``
        wire verb's payload)."""
        with self._counter_lock:
            counters = dict(self._stats)
        payload = {
            "service": dict(
                counters,
                queue_depth=self._queue.qsize(),
                inflight=len(self._inflight),
                workers=self.workers,
                running=len(self._current),
                started=self._started,
                closing=self._closing,
            ),
        }
        if self.store is not None:
            payload["store"] = self.store.stats_payload()
        return payload

    # ------------------------------------------------------------------
    # Workers
    # ------------------------------------------------------------------
    def _spawn_worker(self) -> int:
        wid = next(self._worker_seq)
        self._worker_tasks[wid] = asyncio.create_task(
            self._worker(wid), name=f"repro-svc-worker-{wid}"
        )
        return wid

    async def _worker(self, wid: int) -> None:
        while not self._closing:
            _, _, job = await self._queue.get()
            if job.state in (DONE, FAILED):
                continue  # superseded (e.g. double re-queue after a crash)
            # Deliberately NOT a try/finally: if this task dies mid-job
            # (cancelled, or a dispatch-layer bug), the entry must stay
            # in ``_current`` so the supervisor can re-queue the job.
            self._current[wid] = job
            await self._run_job(job)
            self._current.pop(wid, None)

    async def _supervise(self) -> None:
        """Re-queue the job of any worker task that dies unexpectedly
        and spawn a replacement -- compute must survive dispatch-layer
        failure (the SRMCA decoupling)."""
        while not self._closing:
            tasks = dict(self._worker_tasks)
            if not tasks:
                return
            done, _ = await asyncio.wait(
                tasks.values(), return_when=asyncio.FIRST_COMPLETED
            )
            if self._closing:
                return
            for wid, task in tasks.items():
                if task not in done:
                    continue
                self._worker_tasks.pop(wid, None)
                job = self._current.pop(wid, None)
                if job is not None and not job.future.done():
                    job.requeues += 1
                    with self._counter_lock:
                        self._stats["requeued"] += 1
                    job.state = QUEUED
                    job.emit("requeued", {"worker": wid})
                    self._enqueue(job)
                self._spawn_worker()

    def _attempt_timeout(self, job: Job) -> float | None:
        """Per-attempt deadline in seconds: the service-wide
        ``job_timeout``, *tightened* (never loosened) by the spec's own
        compute budget -- a budgeted submission must not hold a worker
        past its deadline tier even when the service allows longer jobs.

        The planner's budget prices estimated compute, not wall-clock
        guarantees, so the deadline grants a fixed slack factor plus a
        floor covering session/pool warm-up before declaring a timeout.
        """
        budget_ms = getattr(job.spec, "budget_ms", None)
        if budget_ms is None:
            return self.job_timeout
        budgeted = (
            float(budget_ms) / 1000.0 * BUDGET_TIMEOUT_SLACK
            + BUDGET_TIMEOUT_FLOOR
        )
        if self.job_timeout is None:
            return budgeted
        return min(self.job_timeout, budgeted)

    async def _run_job(self, job: Job) -> None:
        job.attempts += 1
        job.state = RUNNING
        job.started = time.time()  # display; durations use monotonic
        job.started_mono = time.monotonic()
        job.emit(RUNNING, {"attempt": job.attempts})
        loop = asyncio.get_running_loop()
        try:
            future = loop.run_in_executor(self._pool, self._compute, job)
            result = await asyncio.wait_for(
                future, timeout=self._attempt_timeout(job)
            )
        except asyncio.CancelledError:
            raise  # worker shutdown / supervisor path, not a job failure
        except Exception as exc:
            self._dispose_failure(job, exc)
        else:
            self._finish(job, result)

    def _dispose_failure(self, job: Job, exc: Exception) -> None:
        timeout = isinstance(exc, (TimeoutError, asyncio.TimeoutError))
        if timeout:
            with self._counter_lock:
                self._stats["timeouts"] += 1
        retryable = isinstance(exc, RETRYABLE) and not isinstance(
            exc, (SpecError, ValueError)
        )
        if retryable and job.attempts <= self.max_retries:
            with self._counter_lock:
                self._stats["retries"] += 1
            delay = self.retry_backoff * (2 ** (job.attempts - 1))
            job.state = QUEUED
            job.emit(
                "retry",
                {
                    "attempt": job.attempts,
                    "error": f"{type(exc).__name__}: {exc}",
                    "backoff_seconds": delay,
                    "checkpointed": len(job.checkpoint),
                },
            )
            self._track(asyncio.create_task(self._requeue_later(job, delay)))
            return
        job.state = FAILED
        job.finished = time.time()  # display; durations use monotonic
        job.finished_mono = time.monotonic()
        job.error = f"{type(exc).__name__}: {exc}"
        if job.fingerprint is not None:
            self._inflight.pop(job.fingerprint, None)
        with self._counter_lock:
            self._stats["failed"] += 1
        if not job.future.done():
            job.future.set_exception(
                JobFailed(job, f"{job.id} failed: {job.error}")
            )
            job.future.exception()  # mark retrieved for lone submitters
        job.emit(FAILED, {"error": job.error, "attempts": job.attempts})

    async def _requeue_later(self, job: Job, delay: float) -> None:
        if delay > 0:
            await asyncio.sleep(delay)
        if not self._closing and not job.future.done():
            self._enqueue(job)

    def _track(self, task: asyncio.Task) -> None:
        self._aux_tasks.add(task)
        task.add_done_callback(self._aux_tasks.discard)

    def _finish(self, job: Job, result: RunResult) -> None:
        job.state = DONE
        job.finished = time.time()  # display; durations use monotonic
        job.finished_mono = time.monotonic()
        if job.source is None:
            job.source = (
                "hit"
                if result.store_meta and result.store_meta.get("hit")
                else "computed"
            )
        job.result = result
        job.checkpoint.clear()
        if job.fingerprint is not None:
            self._inflight.pop(job.fingerprint, None)
        with self._counter_lock:
            self._stats["completed"] += 1
        if not job.future.done():
            job.future.set_result(result)
        job.emit(
            DONE,
            {
                "source": job.source,
                "attempts": job.attempts,
                "coalesced": job.coalesced,
            },
        )

    # ------------------------------------------------------------------
    # Compute (executor threads)
    # ------------------------------------------------------------------
    def _thread_session(self) -> Session:
        """This executor thread's sibling session (shared store
        instance; for ``jobs > 1`` the shared persistent pool)."""
        session = getattr(self._local, "session", None)
        if session is None or session.closed:
            session = Session(self.profile, store=self.store)
            with self._sessions_lock:
                self._sessions.append(session)
            self._local.session = session
        return session

    def _compute(self, job: Job) -> RunResult:
        """One compute attempt, on an executor thread.  Crash-class
        errors force-close the broken pool (it reboots lazily on the
        next attempt) before re-raising into the retry path."""
        session = self._thread_session()
        with self._counter_lock:
            self._stats["computed"] += 1
        self.execution_order.append(job.id)
        try:
            if job.verb == "grid":
                return self._compute_grid(job, session)
            return getattr(session, job.verb)(job.spec)
        except RETRYABLE:
            backend = session._backend
            if isinstance(backend, PooledBackend):
                # A SIGKILLed child leaves the whole pool broken; close
                # it so the retry (any thread) lazily boots a fresh one.
                backend.close(wait=False)
            raise

    def _compute_grid(self, job: Job, session: Session) -> RunResult:
        """Checkpointed grid compute, payload-identical to
        :meth:`Session.grid <repro.api.Session.grid>`.

        Scenarios run one at a time -- through the session's pooled
        backend when it has one (so a pool-child crash is survivable
        mid-grid), in-thread otherwise -- and every finished scenario
        lands in ``job.checkpoint`` keyed by its **global index**.
        Seeds derive from that same global index
        (:func:`repro.parallel.derive_seed`, the `map_scenarios`
        contract), so a resumed grid is bit-identical to an
        uninterrupted one.
        """
        t0 = time.perf_counter()
        store, fingerprint = session.store, job.fingerprint
        lookup = 0.0
        if store is not None and fingerprint is not None:
            t = time.perf_counter()
            cached = store.get(fingerprint)
            lookup = time.perf_counter() - t
            if cached is not None:
                cached.store_meta = {
                    "hit": True,
                    "fingerprint": fingerprint,
                    "lookup_seconds": lookup,
                }
                return cached
        if job.spec.grid is None:
            raise ValueError("RunSpec.grid is required for grid")
        scenarios = build_grid(job.spec.grid)
        backend = session.backend  # resolves the engine exactly once
        t1 = time.perf_counter()
        config = {
            "base_seed": job.spec.seed,
            "reception_model": job.spec.reception_model(),
            "turnaround": job.spec.turnaround,
            "advertising_jitter": job.spec.advertising_jitter,
        }
        pooled = isinstance(backend, PooledBackend) and backend.jobs >= 2
        results = []
        for index, scenario in enumerate(scenarios):
            if index in job.checkpoint:
                results.append(job.checkpoint[index])
                continue
            if pooled:
                result = backend.submit(
                    _network_one, config, (index, scenario)
                ).result()
            else:
                result = _network_one(config, (index, scenario))
            job.checkpoint[index] = result
            results.append(result)
            self._emit_threadsafe(
                job,
                "progress",
                {
                    "scenario": scenario.name,
                    "completed": len(job.checkpoint),
                    "total": len(scenarios),
                },
            )
        t2 = time.perf_counter()
        payload = {
            "scenarios": [scenario.name for scenario in scenarios],
            "results": [network_result_payload(result) for result in results],
        }
        run = RunResult(
            verb="grid",
            spec=job.spec.describe(),
            profile=session.profile.describe(),
            backend=backend.name,
            timings={"build": t1 - t0, "run": t2 - t1, "total": t2 - t0},
            payload=payload,
            raw=results,
        )
        if store is not None and fingerprint is not None:
            store.put(fingerprint, run)
            run.store_meta = {
                "hit": False,
                "fingerprint": fingerprint,
                "lookup_seconds": lookup,
            }
        return run

    def _emit_threadsafe(self, job: Job, kind: str, data: dict) -> None:
        loop = self._loop
        if loop is None or loop.is_closed():
            return
        try:
            loop.call_soon_threadsafe(job.emit, kind, data)
        except RuntimeError:  # pragma: no cover - loop torn down mid-job
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SweepService(workers={self.workers}, "
            f"queue_limit={self.queue_limit}, "
            f"inflight={len(self._inflight)}, "
            f"{'started' if self._started else 'cold'})"
        )
