"""Fan independent simulation runs out over a process pool.

Every figure sweep and every exhaustive (P, T) search evaluates
*independent* :class:`~repro.parallel.runspec.RunSpec`\\ s — the classic
embarrassingly-parallel shape.  :class:`SweepExecutor` runs them over a
``ProcessPoolExecutor`` while guaranteeing:

* **deterministic ordering** — results come back in submission order no
  matter which worker finishes first, so parallel sweeps are
  bit-identical to serial ones;
* **serial fallback** — ``jobs=1`` (the default), an unpicklable spec,
  or a pool that fails to start all degrade to in-process execution
  with the same results;
* **cache integration** — hits are served before anything is submitted,
  and misses are written back, so overlapping sweeps (fig8's config
  search, fig9, the heuristics grid) pay for each configuration once;
* **progress** — an optional ``progress(done, total, spec)`` callback
  fires exactly once per spec as it completes (in completion order),
  with ``total`` always the full batch size — chunked dispatch and
  engine routing (model-answered points, calibration subsets) report
  against the same scale as the plain path;
* **fault tolerance** — a failing spec never silently discards the rest
  of the batch.  Without a :class:`~repro.parallel.RetryPolicy` the
  failure raises :class:`~repro.parallel.SweepError` *carrying every
  completed result*; with one, attempts are retried (bounded, with
  backoff and per-spec deadlines), crashed worker processes are reaped
  and the pool rebuilt, and — under ``on_error="record"`` — a spec that
  exhausts recovery yields a NaN-metric
  :class:`~repro.parallel.FailedRun` placeholder instead of aborting;
* **checkpoint/resume** — an optional
  :class:`~repro.parallel.SweepCheckpoint` persists completed points
  under their cache-fingerprint keys, so an interrupted sweep restarts
  where it left off (see ``docs/RELIABILITY.md``);
* **fault injection** — a seeded :class:`~repro.faults.FaultPlan` can
  deterministically crash/hang workers or fail runtime operations, for
  testing exactly this machinery.
"""

from __future__ import annotations

import os
import pickle
import time
from collections import deque
from collections.abc import Callable, Iterable
from concurrent.futures import (
    FIRST_COMPLETED,
    ProcessPoolExecutor,
    as_completed,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from typing import TYPE_CHECKING

from repro.errors import (
    ConfigurationError,
    WorkerCrashError,
    WorkerTimeoutError,
)
from repro.faults import FaultPlan
from repro.faults.plan import InjectedWorkerCrash, InjectedWorkerTimeout
from repro.metrics.registry import get_registry
from repro.parallel.cache import SimulationCache
from repro.parallel.checkpoint import SweepCheckpoint
from repro.parallel.resilience import (
    ExecutorStats,
    FailedRun,
    RetryPolicy,
    SweepError,
)
from repro.parallel.runspec import (
    RunResult,
    RunSpec,
    decompress_snapshot,
    execute_spec_batch_slim,
    execute_spec_slim,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.apps.base import AppRun
    from repro.parallel.budget import DesBudget

#: ``progress(done, total, spec)`` — called after each completed run.
ProgressFn = Callable[[int, int, RunSpec], None]


def resolve_jobs(jobs: "int | None") -> int:
    """Normalize a ``--jobs`` value: None/0 means "all cores"."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    return jobs


def _picklable(spec: RunSpec) -> bool:
    try:
        pickle.dumps(spec)
        return True
    except Exception:
        return False


class _Unpicklable:
    """Result wrapper whose pickling always fails (the injected
    ``worker.unpicklable`` fault): the worker computes the run fine but
    cannot ship it back, exercising the executor's result-path
    recovery."""

    def __init__(self, run: "AppRun") -> None:
        self.run = run
        self._poison = lambda: None  # locals never pickle


def execute_spec_faulty(
    spec: RunSpec,
    plan: FaultPlan,
    attempt: int,
    directive: "str | None",
) -> "AppRun":
    """Worker entry point when a fault plan is in force.

    ``directive`` was drawn by the parent (deterministically, from the
    spec's batch index): ``crash`` hard-kills the worker process,
    ``hang`` sleeps past any reasonable deadline, ``unpicklable``
    poisons the result.  Runtime faults activate around the simulation
    itself.
    """
    if directive == "crash":
        os._exit(17)
    if directive == "hang":
        time.sleep(plan.hang_seconds)
        raise WorkerTimeoutError(
            f"injected hang outlived its {plan.hang_seconds}s bound"
        )
    with plan.active(attempt=attempt):
        run = spec.execute()
    if directive == "unpicklable":
        return _Unpicklable(run)  # type: ignore[return-value]
    return run


class SweepExecutor:
    """Execute batches of :class:`RunSpec` with caching, parallelism,
    and (optionally) retries, checkpointing and fault injection."""

    def __init__(
        self,
        jobs: "int | None" = 1,
        cache: SimulationCache | None = None,
        progress: ProgressFn | None = None,
        max_inflight: int | None = None,
        retry: RetryPolicy | None = None,
        checkpoint: SweepCheckpoint | None = None,
        fault_plan: FaultPlan | None = None,
        on_error: str = "raise",
        engine: "str | object" = "sim",
        engine_store: "str | object | None" = None,
        des_budget: "DesBudget | None" = None,
    ) -> None:
        from repro.engine.engines import resolve_engine

        self.jobs = resolve_jobs(jobs)
        self.cache = cache
        self.progress = progress
        #: Bound on queued-but-unfinished submissions, so a 56x6-point
        #: sweep does not pickle every spec up front.
        self.max_inflight = max_inflight or 4 * self.jobs
        self.retry = retry
        self.checkpoint = checkpoint
        self.fault_plan = fault_plan
        if on_error not in ("raise", "record"):
            raise ConfigurationError(
                f"on_error must be 'raise' or 'record', got {on_error!r}"
            )
        self.on_error = on_error
        #: Evaluation engine (see :mod:`repro.engine`): ``None`` for the
        #: native simulation path, else an object whose ``map`` decides
        #: per spec between analytic prediction and simulation.
        #: ``engine_store`` optionally attaches a persistent
        #: certified-family store (see :mod:`repro.engine.store`).
        self._engine_impl = resolve_engine(engine, store=engine_store)
        self.engine = getattr(self._engine_impl, "name", "sim")
        #: Optional :class:`~repro.parallel.budget.DesBudget` charged
        #: for every simulator execution that survives the cache and
        #: checkpoint passes (hits are free).  Accounting only — the
        #: executor never refuses mandatory work; budget-aware callers
        #: (``run_search --engine learned``) consult it before
        #: scheduling optional verification runs.
        self.des_budget = des_budget
        self.stats = ExecutorStats()
        #: Active progress scope: the batch-level total every completion
        #: reports against.  ``map`` opens it over the *whole* batch, so
        #: engine-routed subsets (model-answered points, calibration
        #: sims, DES fallbacks) all count toward one ``total`` instead
        #: of each subset restarting at ``done=1``.
        self._progress_total: "int | None" = None
        self._progress_done = 0
        #: When set, completed runs buffer here instead of writing the
        #: cache point-by-point; ``_map_sim`` flushes via ``put_many``
        #: (one disk write per fingerprint, not one per run).
        self._put_buffer: "list | None" = None

    # -- public API --------------------------------------------------------

    def map(self, specs: Iterable[RunSpec]) -> "list[AppRun]":
        """Run every spec, returning results in submission order.

        With a non-default engine the batch is routed through it (the
        engine calls back into :meth:`_map_sim` for the points it wants
        simulated); otherwise this is the native simulation path.

        Failure semantics: see the module docstring (``retry`` /
        ``on_error``).  When a :class:`SweepError` is raised, completed
        results ride along on the exception and the checkpoint (if any)
        has been flushed — nothing finished is lost.
        """
        specs = list(specs)
        prev_total, prev_done = self._progress_total, self._progress_done
        self._progress_total, self._progress_done = len(specs), 0
        try:
            if self._engine_impl is not None:
                return self._engine_impl.map(self, specs)
            return self._map_sim(specs)
        finally:
            self._progress_total, self._progress_done = prev_total, prev_done

    def _notify_progress(self, spec: RunSpec) -> None:
        """Fire the user's progress callback for one completed spec,
        numbered against the active batch scope.  Every completion path
        — cache hit, checkpoint resume, executed run, recorded failure,
        dedup alias, engine-answered model point — funnels through here
        exactly once per spec."""
        if self.progress is None:
            return
        self._progress_done += 1
        total = self._progress_total
        self.progress(
            self._progress_done,
            total if total is not None else self._progress_done,
            spec,
        )

    def _map_sim(
        self, specs: "list[RunSpec]", inline: bool = False
    ) -> "list[AppRun]":
        """The native path: every spec through the simulator (cache,
        checkpoint, pool).  Engines call this for their DES subsets;
        ``inline=True`` marks a small latency-sensitive subset (hybrid
        calibration) worth running in-process instead of paying pool
        spawn for a handful of cached-next-time points."""
        total = len(specs)
        results: "list[AppRun | None]" = [None] * total
        done = 0
        owns_scope = self._progress_total is None
        if owns_scope:
            self._progress_total, self._progress_done = total, 0
        prev_buffer = self._put_buffer
        buffer: "list | None" = [] if self.cache is not None else None
        self._put_buffer = buffer

        try:
            # Cache pass (one batched lookup): serve hits, collect
            # misses, and deduplicate repeated specs inside the batch
            # (only the first occurrence is simulated; the rest resolve
            # after it completes — get_many already counted duplicates
            # as a single cache miss).
            hits = (
                self.cache.get_many(specs)
                if self.cache is not None
                else [None] * total
            )
            misses: list[int] = []
            first_miss: dict[RunSpec, int] = {}
            aliases: dict[int, int] = {}
            for i, spec in enumerate(specs):
                try:
                    representative = first_miss.get(spec)
                except TypeError:  # unhashable ctor argument: never dedup
                    representative = None
                if representative is not None:
                    aliases[i] = representative
                    continue
                hit = hits[i]
                if hit is not None:
                    self.stats.cache_hits += 1
                    get_registry().counter("executor.cache_hits").inc()
                    results[i] = hit
                    done += 1
                    self._notify_progress(spec)
                else:
                    misses.append(i)
                    try:
                        first_miss[spec] = i
                    except TypeError:
                        pass

            # Checkpoint pass: a resumed sweep serves every point the
            # interrupted run already finished, re-executing the rest.
            if self.checkpoint is not None and misses:
                remaining: list[int] = []
                for i in misses:
                    run = self.checkpoint.lookup(specs[i])
                    if run is None:
                        remaining.append(i)
                        continue
                    self.stats.checkpoint_hits += 1
                    get_registry().counter(
                        "executor.checkpoint_resumed"
                    ).inc()
                    if buffer is not None:
                        buffer.append((specs[i], run))
                    results[i] = run
                    done += 1
                    self._notify_progress(specs[i])
                misses = remaining

            if self.des_budget is not None and misses:
                # Only actual simulator executions cost budget: cache
                # hits, checkpoint resumes and dedup aliases were all
                # served above without touching the DES.
                self.des_budget.charge(len(misses))

            try:
                if misses:
                    if self.jobs > 1 and not self._inline_eligible(
                        inline, len(misses)
                    ):
                        done = self._run_parallel(
                            specs, misses, results, done
                        )
                    else:
                        done = self._run_serial(specs, misses, results, done)
            finally:
                if buffer:
                    self.cache.put_many(buffer)
                    buffer.clear()
                if self.checkpoint is not None:
                    self.checkpoint.flush()

            for i, representative in aliases.items():
                # Served from the cache when one is configured (so
                # hit/miss accounting reflects the dedup), else shared
                # directly.
                run = (
                    self.cache.get(specs[i])
                    if self.cache is not None
                    else None
                )
                results[i] = run if run is not None else results[representative]
                done += 1
                self._notify_progress(specs[i])

            assert done == total
            return results  # type: ignore[return-value]
        finally:
            self._put_buffer = prev_buffer
            if owns_scope:
                self._progress_total, self._progress_done = None, 0

    def _inline_eligible(self, inline: bool, n_misses: int) -> bool:
        """Whether an ``inline``-flagged subset should skip the pool.
        Retries and fault plans keep their per-attempt submission
        machinery; otherwise a subset no larger than one pool round
        is cheaper in-process than a worker spawn."""
        return (
            inline
            and self.retry is None
            and self.fault_plan is None
            and n_misses <= max(4, self.jobs)
        )

    def run_one(self, spec: RunSpec) -> "AppRun":
        """Convenience: execute a single spec through the cache."""
        return self.map([spec])[0]

    # -- shared internals --------------------------------------------------

    def _complete(self, spec: RunSpec, run: "AppRun") -> None:
        if self._put_buffer is not None:
            self._put_buffer.append((spec, run))
        elif self.cache is not None:
            self.cache.put(spec, run)
        if self.checkpoint is not None:
            self.checkpoint.record(spec, run)

    def _classify(self, exc: BaseException) -> None:
        if isinstance(exc, WorkerTimeoutError):
            self.stats.timeouts += 1
            get_registry().counter("executor.timeouts").inc()
        elif isinstance(exc, WorkerCrashError):
            self.stats.worker_crashes += 1
            get_registry().counter("executor.worker_crashes").inc()

    def _should_retry(self, exc: BaseException, attempt: int) -> bool:
        return (
            self.retry is not None
            and attempt < self.retry.max_retries
            and self.retry.retryable(exc)
        )

    def _attempt_ok(self, specs, results, i, run, done, elapsed=None) -> int:
        self.stats.attempts += 1
        self.stats.executed += 1
        # The *only* place worker metrics enter the parent registry:
        # cache hits and checkpoint resumes carry ``metrics=None`` (see
        # repro.parallel.cache.decode_run), so a resumed sweep never
        # double-counts a restored point.  Worker snapshots hold only
        # counters and histograms, whose merge is commutative, so the
        # parallel completion order cannot change the merged totals.
        registry = get_registry()
        registry.counter("executor.runs_executed").inc()
        if elapsed is not None:
            registry.histogram("executor.run_seconds").observe(elapsed)
        metrics = getattr(run, "metrics", None)
        if metrics is not None:
            registry.merge_snapshot(metrics)
        self._complete(specs[i], run)
        results[i] = run
        done += 1
        self._notify_progress(specs[i])
        return done

    def _exhausted(self, specs, results, i, exc, attempts, done) -> int:
        """A spec ran out of recovery: record a placeholder or abort
        (carrying every completed result on the exception)."""
        self.stats.failures += 1
        get_registry().counter("executor.failures").inc()
        if self.on_error == "record":
            spec = specs[i]
            results[i] = FailedRun(
                app=getattr(spec.app_cls, "name", spec.app_cls.__name__),
                places=spec.places,
                tiles=0,
                error=str(exc),
                error_type=type(exc).__name__,
                attempts=attempts,
            )
            done += 1
            self._notify_progress(spec)
            return done
        raise SweepError(
            f"spec {i} failed after {attempts} attempt(s): {exc} "
            f"[{sum(1 for r in results if r is not None)}/{len(specs)} "
            f"completed results preserved on this error]",
            results=list(results),
            spec=specs[i],
        ) from exc

    # -- serial path -------------------------------------------------------

    def _execute_inline(self, spec: RunSpec, i: int, attempt: int):
        """One in-process attempt, honouring the fault plan.

        Worker faults degrade to synchronous stand-ins here: a "crash"
        raises :class:`WorkerCrashError` (this process must survive),
        a "hang" raises :class:`WorkerTimeoutError` immediately (serial
        execution cannot be preempted), and "unpicklable" is a no-op
        (nothing crosses a process boundary).
        """
        plan = self.fault_plan
        if plan is None:
            return spec.execute()
        directive = plan.worker_directive(i, attempt)
        if directive == "crash":
            raise InjectedWorkerCrash(
                f"injected worker crash for spec {i} (serial mode)"
            )
        if directive == "hang":
            raise InjectedWorkerTimeout(
                f"injected worker hang for spec {i} (serial mode)"
            )
        with plan.active(attempt=attempt):
            return spec.execute()

    def _run_serial(self, specs, indices, results, done) -> int:
        for i in indices:
            done = self._serial_one(specs, i, results, done)
        return done

    def _serial_one(self, specs, i, results, done) -> int:
        attempt = 0
        while True:
            t0 = time.perf_counter()
            try:
                run = self._execute_inline(specs[i], i, attempt)
            except Exception as exc:
                self.stats.attempts += 1
                self._classify(exc)
                if self._should_retry(exc, attempt):
                    self.stats.retries += 1
                    get_registry().counter("executor.retries").inc()
                    delay = self.retry.delay(attempt)
                    if delay > 0:
                        time.sleep(delay)
                    attempt += 1
                    continue
                return self._exhausted(
                    specs, results, i, exc, attempt + 1, done
                )
            return self._attempt_ok(
                specs, results, i, run, done,
                elapsed=time.perf_counter() - t0,
            )

    # -- parallel path -----------------------------------------------------

    def _run_parallel(self, specs, indices, results, done) -> int:
        parallelizable, local = [], []
        for i in indices:
            (parallelizable if _picklable(specs[i]) else local).append(i)
        if parallelizable:
            chunk = self._effective_chunksize(len(parallelizable))
            if chunk > 1:
                done = self._drain_chunked(
                    specs, parallelizable, results, done, chunk
                )
            else:
                done = self._drain(specs, parallelizable, results, done)
        if local:
            done = self._run_serial(specs, local, results, done)
        return done

    def _effective_chunksize(self, n: int) -> int:
        """Specs per pool task.  Batching amortizes process spawn and
        result pickling on large grids, but only applies on the plain
        path: retries and fault plans need per-spec submission (worker
        directives and deadlines are drawn per attempt).  Otherwise it
        keeps at least ``4 * jobs`` batches so the pool stays balanced,
        capped at 8 specs per task."""
        if self.retry is not None or self.fault_plan is not None:
            return 1
        return max(1, min(8, n // (4 * self.jobs)))

    def _drain_chunked(self, specs, indices, results, done, chunk) -> int:
        """Submit specs in batches of ``chunk`` per pool task.  A spec
        that fails inside a batch is reported individually (the worker
        returns per-spec outcomes), so ``on_error`` semantics match the
        unchunked path; a batch lost to a pool failure is re-run
        in-process."""
        batches = [
            indices[k:k + chunk] for k in range(0, len(indices), chunk)
        ]
        try:
            pool = ProcessPoolExecutor(
                max_workers=min(self.jobs, len(batches))
            )
        except (OSError, PermissionError):
            return self._run_serial(specs, indices, results, done)
        try:
            futures = {}
            for batch in batches:
                try:
                    future = pool.submit(
                        execute_spec_batch_slim, [specs[i] for i in batch]
                    )
                except (BrokenProcessPool, RuntimeError, OSError):
                    done = self._run_serial(specs, batch, results, done)
                    continue
                futures[future] = batch
            for future in as_completed(futures):
                batch = futures[future]
                try:
                    payload = future.result()
                except Exception:
                    # The pool broke (or the result would not pickle):
                    # the whole batch is lost, so re-run it in-process
                    # rather than guessing which spec was at fault.
                    done = self._run_serial(specs, batch, results, done)
                    continue
                # The worker merged its batch's metrics snapshots into
                # one compressed delta.  Merging it once here equals
                # merging each run's snapshot (associative and
                # commutative), so parent totals are unchanged.
                outcomes, metrics_z = payload
                if metrics_z is not None:
                    get_registry().merge_snapshot(
                        decompress_snapshot(metrics_z)
                    )
                for i, (status, result) in zip(batch, outcomes):
                    if status == "ok":
                        if isinstance(result, RunResult):
                            result = result.to_run()
                        done = self._attempt_ok(
                            specs, results, i, result, done
                        )
                    else:
                        done = self._exhausted(
                            specs, results, i, result, 1, done
                        )
        finally:
            # Workers are idle once every future has resolved, so a
            # blocking shutdown is cheap — and tearing the queues down
            # without waiting races the pool's feeder thread.
            pool.shutdown(wait=True, cancel_futures=True)
        return done

    def _submit(self, pool, spec, i, attempt):
        plan = self.fault_plan
        if plan is not None:
            directive = plan.worker_directive(i, attempt)
            return pool.submit(
                execute_spec_faulty, spec, plan, attempt, directive
            )
        return pool.submit(execute_spec_slim, spec)

    def _charged_for_crash(self, i: int, attempt: int) -> bool:
        """Whether a pool break should cost this inflight spec an
        attempt.  With a fault plan only the spec *directed* to crash
        is charged (innocents are requeued for free); a real crash has
        no known culprit, so every inflight spec is charged — the
        conservative reading."""
        plan = self.fault_plan
        if plan is None:
            return True
        return plan.worker_directive(i, attempt) == "crash"

    def _attempt_failed(
        self, specs, results, pending, i, attempt, exc, done
    ) -> int:
        self.stats.attempts += 1
        self._classify(exc)
        if self._should_retry(exc, attempt):
            self.stats.retries += 1
            get_registry().counter("executor.retries").inc()
            eligible = time.monotonic() + self.retry.delay(attempt)
            pending.append((i, attempt + 1, eligible))
            return done
        return self._exhausted(specs, results, i, exc, attempt + 1, done)

    def _poll_timeout(self, inflight, pending, now):
        """How long to wait for completions: the nearest per-spec
        deadline or backoff-eligibility instant, else forever."""
        candidates = []
        if self.retry is not None and self.retry.timeout is not None:
            candidates.extend(
                t0 + self.retry.timeout - now
                for (_, _, t0) in inflight.values()
            )
        candidates.extend(e - now for (_, _, e) in pending if e > now)
        if not candidates:
            return None
        return max(0.01, min(candidates))

    def _drain(self, specs, indices, results, done) -> int:
        workers = min(self.jobs, len(indices))
        #: (spec index, attempt, eligible-at) — eligible-at implements
        #: retry backoff without blocking other completions.
        pending: deque = deque((i, 0, 0.0) for i in indices)
        inflight: dict = {}
        pool = None

        def close_pool(kill: bool = False) -> None:
            nonlocal pool
            if pool is None:
                return
            if kill:
                # Hung/dead workers never finish their task: terminate
                # the processes so shutdown cannot block on them.
                for proc in list(getattr(pool, "_processes", {}).values()):
                    try:
                        proc.terminate()
                    except Exception:
                        pass
            try:
                pool.shutdown(wait=not kill, cancel_futures=True)
            except Exception:
                pass
            pool = None

        try:
            while pending or inflight:
                now = time.monotonic()
                deferred = []
                broken_on_submit = False
                while pending and len(inflight) < self.max_inflight:
                    i, attempt, eligible = pending.popleft()
                    if eligible > now:
                        deferred.append((i, attempt, eligible))
                        continue
                    if pool is None:
                        try:
                            pool = ProcessPoolExecutor(max_workers=workers)
                        except (OSError, PermissionError):
                            # Sandboxes without process-spawn rights:
                            # degrade to serial rather than failing.
                            pending.extendleft(
                                reversed(deferred + [(i, attempt, eligible)])
                            )
                            order = [idx for idx, _, _ in pending]
                            pending.clear()
                            return self._run_serial(
                                specs, order, results, done
                            )
                    try:
                        future = self._submit(pool, specs[i], i, attempt)
                    except (BrokenProcessPool, RuntimeError, OSError):
                        deferred.append((i, attempt, eligible))
                        broken_on_submit = True
                        break
                    inflight[future] = (i, attempt, now)
                pending.extend(deferred)

                if broken_on_submit:
                    done = self._handle_pool_break(
                        specs, results, pending, inflight, done
                    )
                    close_pool(kill=True)
                    continue

                if not inflight:
                    if pending:
                        soonest = min(e for (_, _, e) in pending)
                        time.sleep(max(0.0, soonest - time.monotonic()))
                    continue

                completed, _ = wait(
                    set(inflight),
                    timeout=self._poll_timeout(inflight, pending, now),
                    return_when=FIRST_COMPLETED,
                )

                if not completed:
                    done, reaped = self._reap_timeouts(
                        specs, results, pending, inflight, done
                    )
                    if reaped:
                        close_pool(kill=True)
                    continue

                broken = False
                for future in completed:
                    i, attempt, t0 = inflight.pop(future)
                    try:
                        run = future.result()
                    except BrokenProcessPool as exc:
                        broken = True
                        if self._charged_for_crash(i, attempt):
                            done = self._attempt_failed(
                                specs, results, pending, i, attempt,
                                WorkerCrashError(
                                    f"worker died executing spec {i}: {exc}"
                                ),
                                done,
                            )
                        else:
                            pending.append((i, attempt, 0.0))
                    except Exception as exc:
                        done = self._attempt_failed(
                            specs, results, pending, i, attempt, exc, done
                        )
                    else:
                        if isinstance(run, RunResult):
                            run = run.to_run()
                        done = self._attempt_ok(
                            specs, results, i, run, done,
                            elapsed=time.monotonic() - t0,
                        )
                if broken:
                    done = self._handle_pool_break(
                        specs, results, pending, inflight, done
                    )
                    close_pool(kill=True)
        finally:
            close_pool(kill=True)
        return done

    def _handle_pool_break(
        self, specs, results, pending, inflight, done
    ) -> int:
        """A worker died and took the pool with it: charge the culprit
        (or, with no fault plan, every inflight spec) and requeue the
        rest uncharged.  The caller rebuilds the pool."""
        for future, (i, attempt, t0) in list(inflight.items()):
            del inflight[future]
            if self._charged_for_crash(i, attempt):
                done = self._attempt_failed(
                    specs, results, pending, i, attempt,
                    WorkerCrashError(
                        f"worker pool broke while spec {i} was inflight"
                    ),
                    done,
                )
            else:
                pending.append((i, attempt, 0.0))
        return done

    def _reap_timeouts(
        self, specs, results, pending, inflight, done
    ) -> "tuple[int, bool]":
        """Abandon attempts that blew their deadline.  A hung worker
        still occupies its process, so the caller kills and rebuilds
        the pool; other inflight specs are requeued uncharged."""
        if self.retry is None or self.retry.timeout is None:
            return done, False
        now = time.monotonic()
        expired = [
            (future, entry)
            for future, entry in inflight.items()
            if now - entry[2] > self.retry.timeout
        ]
        if not expired:
            return done, False
        for future, (i, attempt, t0) in expired:
            del inflight[future]
            done = self._attempt_failed(
                specs, results, pending, i, attempt,
                WorkerTimeoutError(
                    f"spec {i} exceeded its {self.retry.timeout}s deadline"
                ),
                done,
            )
        for future, (i, attempt, t0) in list(inflight.items()):
            del inflight[future]
            pending.append((i, attempt, 0.0))
        return done, True


def run_sweep(
    specs: Iterable[RunSpec],
    jobs: "int | None" = 1,
    cache: SimulationCache | None = None,
    progress: ProgressFn | None = None,
    retry: RetryPolicy | None = None,
    checkpoint: SweepCheckpoint | None = None,
    fault_plan: FaultPlan | None = None,
    on_error: str = "raise",
    engine: "str | object" = "sim",
    engine_store: "str | object | None" = None,
) -> "list[AppRun]":
    """One-shot helper: ``SweepExecutor(...).map(specs)``."""
    return SweepExecutor(
        jobs=jobs,
        cache=cache,
        progress=progress,
        retry=retry,
        checkpoint=checkpoint,
        fault_plan=fault_plan,
        on_error=on_error,
        engine=engine,
        engine_store=engine_store,
    ).map(specs)
