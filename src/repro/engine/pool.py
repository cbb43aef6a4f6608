"""Multiprocess sweep runner.

The exponent-fitting experiments (E9–E12) and the CLI sweeps evaluate a
node program over an ``(n, seed, params)`` grid.  :func:`run_sweep` fans
those grid points across worker processes:

* the *factory* (a picklable, module-level callable) receives one config
  dict and returns a :class:`RunSpec` describing the run — graph
  generation and program construction happen inside the worker, so only
  ``(factory, config)`` crosses the process boundary;
* every config gets a deterministic seed (:func:`derive_seed`) unless it
  carries one already, so results are reproducible regardless of worker
  count or scheduling;
* an optional :class:`~repro.engine.cache.RunCache` makes re-running a
  sweep free: hits are returned without touching the pool.

The benchmark suite (:mod:`repro.bench`) times sweeps through this same
entry point — the ``sweep/*`` workloads call :func:`run_sweep` directly
so the ratchet measures the code path experiments actually use.

Resilience: a sweep survives individual bad grid points.  This process
owns every point's attempts, wherever they run (:func:`_attempt`): an
exception, a deadline kill, a worker death or a task a worker cannot
load is charged by one policy (:func:`_charge`) — retried up to
``retries`` times with exponential backoff, then marked ``failed=True``
on its :class:`SweepOutcome` (carrying a
:class:`~repro.clique.errors.SweepPointFailed`) while the rest of the
grid completes — or, with ``on_error="raise"``, aborts the sweep.  With
``timeout=`` the parent watches every in-flight point and kills (then
replaces) the worker holding a point past its deadline, so a hung point
cannot wedge the sweep.

Parallel sweeps run on a process-wide *persistent pool*
(:class:`PersistentPool`): warm ``fork`` workers that survive across
:func:`run_sweep` calls, so interpreter start-up and imports are paid
once per process rather than once per sweep.  Tasks cross the boundary
as explicit pickle-protocol-5 blobs and, without a timeout, ship in
chunks to amortise queue traffic.  Concurrent sweeps (threads of one
process, e.g. the daemon's) take turns on the pool.  ``fork`` is
required so factories defined in scripts and test modules resolve; on
platforms without ``fork``, or when ``workers <= 1``, the sweep runs
serially in-process with identical results.  :func:`shutdown_pool`
stops the warm workers (they restart lazily on the next sweep).
"""

from __future__ import annotations

import atexit
import hashlib
import json
import os
import pickle
import queue as queue_mod
import threading
import time
import warnings
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from ..clique.errors import CliqueError, SweepPointFailed
from ..clique.graph import CliqueGraph
from ..clique.network import CongestedClique, NodeProgram, RunResult
from ..obs import Observer, summarise_metrics
from .cache import RunCache, content_digest
from .spec import batch_execution, resolve_execution

__all__ = [
    "RunSpec",
    "SweepOutcome",
    "aggregate_sweep_metrics",
    "available_cpus",
    "derive_seed",
    "pool_stats",
    "run_spec",
    "run_sweep",
    "shutdown_pool",
]

#: Ceiling on one retry-backoff sleep, seconds.
_BACKOFF_CAP = 5.0


def available_cpus() -> int:
    """CPUs this process may actually run on.

    ``os.cpu_count()`` reports the machine, not the process: under a
    cgroup cpuset or ``taskset`` clamp the two disagree, and sizing a
    worker pool by the machine oversubscribes the allowed cores.  The
    scheduling affinity mask is the honest figure where the platform
    exposes it (Linux); elsewhere fall back to ``cpu_count``.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            return max(1, len(getaffinity(0)))
        except OSError:  # pragma: no cover - affinity query refused
            pass
    return os.cpu_count() or 1


@dataclass
class RunSpec:
    """Everything needed to execute one run, as returned by a factory.

    ``n`` may be omitted when ``node_input`` is a
    :class:`~repro.clique.graph.CliqueGraph` (the graph's size is used).
    ``postprocess`` runs in the worker on the finished
    :class:`~repro.clique.network.RunResult`; its return value lands in
    :attr:`SweepOutcome.value` (use it to compute verdicts/witness checks
    without shipping large intermediates back to the parent).
    """

    program: NodeProgram
    node_input: Any = None
    aux: Any = None
    n: int | None = None
    bandwidth: int | None = None
    bandwidth_multiplier: int = 1
    max_rounds: int | None = None
    record_transcripts: bool = False
    postprocess: Callable[[RunResult], Any] | None = None

    def resolved_n(self) -> int:
        """The clique size, inferred from the graph input if not given."""
        if self.n is not None:
            return self.n
        if isinstance(self.node_input, CliqueGraph):
            return self.node_input.n
        program = getattr(self.program, "__name__", None) or repr(self.program)
        raise CliqueError(
            f"RunSpec for {program!r} needs an explicit n unless node_input "
            f"is a CliqueGraph (node_input is "
            f"{type(self.node_input).__name__})"
        )


@dataclass
class SweepOutcome:
    """One grid point's result.

    ``config`` is the (seed-augmented) input config; ``value`` is the
    spec's postprocess product, if any.  A point that exhausted its
    retries (crash, hang past the timeout, protocol violation) has
    ``failed=True``, ``result=None`` and the
    :class:`~repro.clique.errors.SweepPointFailed` in ``error``.
    """

    config: dict
    result: RunResult | None
    value: Any = None
    from_cache: bool = False
    failed: bool = False
    error: SweepPointFailed | None = None


def derive_seed(base_seed: int, index: int, config: dict) -> int:
    """Deterministic per-task seed from the sweep seed, the grid index
    and the config content (stable across processes and Python runs)."""
    blob = json.dumps([base_seed, index, config], sort_keys=True, default=repr).encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")


def run_spec(spec: RunSpec, *, execution: Any = None) -> tuple[RunResult, Any]:
    """Execute one :class:`RunSpec` under ``execution`` (see
    :meth:`CongestedClique.run`; an unset engine is the reference
    engine).  Returns ``(result, postprocess_value)``."""
    clique = CongestedClique(
        spec.resolved_n(),
        bandwidth=spec.bandwidth,
        bandwidth_multiplier=spec.bandwidth_multiplier,
        record_transcripts=spec.record_transcripts,
        max_rounds=spec.max_rounds,
    )
    result = clique.run(
        spec.program, spec.node_input, aux=spec.aux, execution=execution
    )
    value = spec.postprocess(result) if spec.postprocess is not None else None
    return result, value


def _attempt(
    factory: Callable[[dict], RunSpec], config: dict, execution: Any
) -> tuple[str, Any]:
    """Run one attempt of one grid point, in whichever process holds it.

    Returns ``("ok", (result, value))`` or ``("error", reason)`` and
    never raises, so a bad point cannot take down a pool worker.  Whether
    a failed attempt is retried is the parent's decision (:func:`_charge`).
    """
    try:
        return "ok", run_spec(factory(config), execution=execution)
    except Exception as exc:
        return "error", f"{type(exc).__name__}: {exc}"


@dataclass
class _PointJob:
    """Parent-side record of one pending grid point and its attempts."""

    slot: int  # position among the pending points (result ordering)
    index: int  # grid index (error messages)
    config: dict
    attempts: int = 0
    eligible_at: float = 0.0  # monotonic time the next attempt may start


def _charge(
    job: _PointJob, reason: str, retries: int, backoff: float
) -> SweepPointFailed | None:
    """Charge ``job`` one failed attempt: the sweep's one retry policy.

    Returns ``None`` when the point is retried (not before the capped
    exponential backoff in ``job.eligible_at``), else its final error.
    """
    job.attempts += 1
    if job.attempts <= retries:
        job.eligible_at = time.monotonic() + min(
            backoff * (1 << (job.attempts - 1)), _BACKOFF_CAP
        )
        return None
    return SweepPointFailed(
        f"sweep point {job.index} (config {job.config!r}) failed after "
        f"{job.attempts} attempt(s): {reason}",
        index=job.index,
        config=job.config,
    )


def _factory_name(factory: Callable) -> str:
    """Stable identifier of a factory for cache keys."""
    return (
        getattr(factory, "__module__", "?")
        + "."
        + getattr(factory, "__qualname__", repr(factory))
    )


def _point_key(
    cache: RunCache, factory: Callable, config: dict, execution: dict
) -> str:
    """Cache key of one grid point: the config determines the inputs,
    ``execution`` is the :meth:`~repro.engine.spec.ExecutionSpec.describe`
    dict."""
    return cache.key_for(
        program=_factory_name(factory),
        n=config.get("n"),
        bandwidth=config.get("bandwidth", config.get("bandwidth_multiplier")),
        input_digest=content_digest(config),
        engine=execution["engine"],
        observer=execution["observer"],
        extra=execution["fault_plan"],
    )


def _fork_context():
    """The ``fork`` multiprocessing context, or ``None`` if unsupported."""
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return None


def _pool_worker_main(task_q, result_q, running) -> None:  # pragma: no cover
    # Child-process entry point (covered indirectly: runs post-fork).
    # Items are chunks: lists of (task_id, pickled-task) pairs; ``None``
    # is the shutdown sentinel.  Each task is one attempt; results
    # stream back one per task so the parent can rebalance and watch
    # deadlines mid-chunk.  ``running`` (shared memory) names the task in
    # progress, so the parent can charge a hard death to the right point.
    while True:
        item = task_q.get()
        if item is None:
            return
        for task_id, blob in item:
            running.value = task_id
            try:
                task = pickle.loads(blob)
            except Exception as exc:
                result_q.put((task_id, "load-error", f"{type(exc).__name__}: {exc}"))
                continue
            status, payload = _attempt(*task)
            if status == "ok":
                # Pickled here, not by the queue's feeder thread, so an
                # unpicklable result is reported instead of lost.
                try:
                    payload = pickle.dumps(payload, protocol=5)
                except Exception as exc:
                    status = "error"
                    payload = f"result could not be pickled: {exc!r}"
            result_q.put((task_id, status, payload))


class _PoolWorker:
    """One warm worker process with its own task and result queues.

    Per-worker queues keep failure domains separate: killing a hung
    worker can only corrupt its own result pipe (discarded with it),
    never a neighbour's pending results.
    """

    __slots__ = ("proc", "task_q", "result_q", "running", "born", "outstanding")

    def __init__(self, context: Any) -> None:
        self.task_q = context.Queue()
        self.result_q = context.Queue()
        #: Id of the task the worker last started (shared memory).
        self.running = context.RawValue("q", -1)
        self.born = time.monotonic()  # a load error before a run: stale fork
        #: task_id -> deadline (monotonic seconds) or None, in dispatch order.
        self.outstanding: dict[int, float | None] = {}
        self.proc = context.Process(
            target=_pool_worker_main,
            args=(self.task_q, self.result_q, self.running),
            daemon=True,
        )
        self.proc.start()

    def kill(self) -> None:
        self.proc.terminate()
        self.proc.join(timeout=5.0)
        if self.proc.is_alive():  # pragma: no cover - terminate ignored
            self.proc.kill()
            self.proc.join(timeout=5.0)

    def retire(self) -> None:
        """Ask the worker to exit after draining its queue."""
        try:
            self.task_q.put(None)
        except (OSError, ValueError):  # pragma: no cover - queue torn down
            self.kill()


class PersistentPool:
    """A reusable pool of warm ``fork`` worker processes.

    Workers outlive a single :func:`run_sweep` call: interpreter
    start-up and imports are paid once, then every sweep dispatches
    pickled ``(factory, config, execution)`` tasks (pickle protocol 5)
    to whatever subset of workers it needs.  Each task is one attempt.
    Without a timeout, tasks ship in chunks; with one, they go one at a
    time so the parent can kill a worker at its deadline.  Callers in
    different threads take turns, as they share the result queues.
    """

    def __init__(self, context: Any) -> None:
        self._context = context
        self._workers: list[_PoolWorker] = []
        self._task_counter = 0
        self._lock = threading.Lock()

    def _grow(self, size: int) -> None:
        """Grow (never shrink) the pool to at least ``size`` live workers."""
        self._workers = [w for w in self._workers if w.proc.is_alive()]
        while len(self._workers) < size:
            self._workers.append(_PoolWorker(self._context))

    def shutdown(self) -> None:
        with self._lock:
            for worker in self._workers:
                worker.retire()
            for worker in self._workers:
                worker.proc.join(timeout=1.0)
                if worker.proc.is_alive():
                    worker.kill()
            self._workers = []

    def run(
        self,
        jobs: "list[_PointJob]",
        blobs: "list[bytes]",
        *,
        max_workers: int,
        timeout: float | None,
        retries: int,
        backoff: float,
    ) -> list[tuple[str, Any]]:
        """Run every job (``blobs[job.slot]`` is its pickled task) to its
        final status; returns ``(status, payload)`` pairs by slot.

        Every failed attempt is charged through :func:`_charge`, except
        a load error on a worker forked before this call: a stale fork
        (the factory's module appeared later) is replaced and the task
        goes to the fresh worker uncharged.
        """
        with self._lock:
            return self._run(jobs, blobs, max_workers, timeout, retries, backoff)

    def _run(self, jobs, blobs, max_workers, timeout, retries, backoff):
        began = time.monotonic()
        self._grow(max_workers)
        ready: deque[_PointJob] = deque(jobs)
        waiting: list[_PointJob] = []
        results: dict[int, tuple[str, Any]] = {}
        in_flight: dict[int, _PointJob] = {}
        chunk = 1
        if timeout is None:
            chunk = max(1, min(16, -(-len(jobs) // (max_workers * 4))))

        def fail(task_id: int, reason: str) -> None:
            job = in_flight.pop(task_id, None)
            if job is None:  # pragma: no cover - task of an aborted run
                return
            error = _charge(job, reason, retries, backoff)
            if error is None:
                waiting.append(job)
            else:
                results[job.slot] = ("error", error)

        def evict(position: int) -> None:
            # Kill and replace a worker; its unfinished tasks go back
            # to the front of the queue, uncharged.
            worker = self._workers[position]
            for task_id in reversed(worker.outstanding):
                job = in_flight.pop(task_id, None)
                if job is not None:
                    ready.appendleft(job)
            worker.kill()
            self._workers[position] = _PoolWorker(self._context)

        while len(results) < len(jobs):
            now = time.monotonic()
            progressed = False
            if waiting:
                ready.extend(job for job in waiting if job.eligible_at <= now)
                waiting[:] = [job for job in waiting if job.eligible_at > now]
            for position in range(min(max_workers, len(self._workers))):
                worker = self._workers[position]
                # Sampled before the drain: everything a dead worker
                # sent is then already in its pipe.
                alive = not worker.outstanding or worker.proc.is_alive()
                replace = False
                try:
                    while True:
                        task_id, status, payload = worker.result_q.get_nowait()
                        worker.outstanding.pop(task_id, None)
                        progressed = True
                        if status == "ok":
                            job = in_flight.pop(task_id, None)
                            if job is not None:
                                results[job.slot] = ("ok", pickle.loads(payload))
                        elif status == "error":
                            fail(task_id, payload)
                        elif worker.born < began and task_id in in_flight:
                            ready.appendleft(in_flight.pop(task_id))
                            replace = True
                        else:
                            reason = f"could not be loaded in a pool worker: {payload}"
                            fail(task_id, reason)
                except queue_mod.Empty:
                    pass
                if worker.outstanding and not alive:
                    # Hard death (e.g. a segfault): the task it was
                    # running is charged, the rest of its chunk is not.
                    running = worker.running.value
                    if running not in worker.outstanding:
                        running = next(iter(worker.outstanding))
                    del worker.outstanding[running]
                    code = worker.proc.exitcode
                    fail(running, f"worker died without a result (exit code {code})")
                    replace = True
                elif worker.outstanding and timeout is not None:
                    task_id, deadline = next(iter(worker.outstanding.items()))
                    if deadline is not None and now >= deadline:
                        del worker.outstanding[task_id]
                        reason = f"exceeded the {timeout:g}s timeout and was killed"
                        fail(task_id, reason)
                        replace = True
                if replace:
                    evict(position)
                    worker = self._workers[position]
                    progressed = True
                if worker.outstanding or not ready:
                    continue
                # Idle worker + ready jobs: dispatch the next chunk.
                batch: list[tuple[int, bytes]] = []
                deadline = now + timeout if timeout is not None else None
                while ready and len(batch) < chunk:
                    job = ready.popleft()
                    task_id = self._task_counter
                    self._task_counter += 1
                    in_flight[task_id] = job
                    worker.outstanding[task_id] = deadline
                    batch.append((task_id, blobs[job.slot]))
                worker.task_q.put(batch)
                progressed = True
            if not progressed:
                time.sleep(0.003)
        return [results[slot] for slot in range(len(jobs))]


_WARM_POOL: "PersistentPool | None" = None
_WARM_LOCK = threading.Lock()


def _warm_pool(context: Any) -> PersistentPool:
    """The process-wide warm pool, created on first use."""
    global _WARM_POOL
    with _WARM_LOCK:
        if _WARM_POOL is None:
            _WARM_POOL = PersistentPool(context)
        return _WARM_POOL


def shutdown_pool() -> None:
    """Stop the warm sweep worker pool (it restarts lazily on next use)."""
    global _WARM_POOL
    with _WARM_LOCK:
        pool, _WARM_POOL = _WARM_POOL, None
    if pool is not None:
        pool.shutdown()


# Registered at import time, not at first pool use: a sweep that crashes
# between warming the pool and registering a hook could otherwise leak
# forked workers past the parent's exit.
atexit.register(shutdown_pool)


def pool_stats() -> dict:
    """State of the process-wide warm pool as a JSON-able dict.

    ``workers`` counts pool processes (live or not yet reaped), ``alive``
    the ones still running; both are 0 when no sweep has warmed the pool
    (or after :func:`shutdown_pool`).
    """
    pool = _WARM_POOL
    if pool is None:
        return {"warm": False, "workers": 0, "alive": 0}
    return {
        "warm": True,
        "workers": len(pool._workers),
        "alive": sum(1 for w in pool._workers if w.proc.is_alive()),
    }


def run_sweep(
    program_factory: Callable[[dict], RunSpec],
    configs: Iterable[dict],
    *,
    workers: int | None = None,
    execution: Any = None,
    cache: RunCache | None = None,
    base_seed: int = 0,
    timeout: float | None = None,
    retries: int = 0,
    retry_backoff: float = 0.1,
    on_error: str = "fail",
) -> list[SweepOutcome]:
    """Run ``program_factory`` over every config, fanning across processes.

    Parameters
    ----------
    program_factory:
        Module-level callable ``config -> RunSpec``.  Must be picklable
        (workers import it by qualified name under ``fork``).
    configs:
        The grid: one dict per run.  Each config is copied and augmented
        with a deterministic ``"seed"`` entry when it has none.
    workers:
        Process count; ``None`` picks ``min(len(grid), cpu_count)``;
        values ``<= 1`` run serially in-process (except with
        ``timeout``, where the deadline kill needs a separate worker
        process).  Either way this process owns every point's attempts
        and applies the retry policy below to each.
    execution:
        An :class:`~repro.engine.spec.ExecutionSpec` (or dict /
        engine-name shorthand) applied to every point.  An unset engine
        is :data:`~repro.engine.spec.BATCH_ENGINE`.  The observer must
        be a *spec* (``None`` collects :class:`repro.obs.RunMetrics`
        into each outcome's ``result.metrics``, aggregated by
        :func:`aggregate_sweep_metrics`; a ``{"observer": "metrics",
        "links": bool, "profile": bool}`` dict configures that
        collector; ``False`` disables it): a single stateful observer
        instance cannot be shared across worker processes.  The
        observer and the fault plan enter the cache key, so points
        observed differently, or faulty and fault-free ones, never mix.
        ``transcripts`` is rejected here; per-run transcript recording
        belongs on :attr:`RunSpec.record_transcripts`.
    cache:
        Optional :class:`~repro.engine.cache.RunCache`; hits skip
        execution entirely and are marked ``from_cache=True``.  Failed
        points are never cached.
    base_seed:
        Root of the deterministic per-task seed derivation.
    timeout:
        Per-attempt wall-clock deadline in seconds.  Each attempt runs
        on a pool worker that is killed and replaced at the deadline
        (requires the ``fork`` start method; without it the guard
        degrades to unguarded execution with a warning).
    retries:
        How many times a failing point (exception, deadline kill, worker
        death, unloadable task) is retried before being marked failed
        with ``sweep point {i} (config ...) failed after {k} attempt(s):
        {reason}``; total attempts = ``retries + 1``.
    retry_backoff:
        Base sleep between attempts, doubled each retry and capped at
        a few seconds.
    on_error:
        ``"fail"`` (default) marks exhausted points ``failed=True`` and
        keeps sweeping; ``"raise"`` aborts the sweep by raising the
        point's :class:`~repro.clique.errors.SweepPointFailed`.

    Results are returned in grid order regardless of scheduling.
    """
    spec = resolve_execution(batch_execution(execution))
    if spec.transcripts is not None:
        raise CliqueError(
            "run_sweep does not take transcripts on the ExecutionSpec; "
            "set RunSpec.record_transcripts in the factory instead"
        )
    if isinstance(spec.observer, Observer):
        raise CliqueError(
            "run_sweep needs an observer spec (None, False or an "
            "{'observer': 'metrics', 'links': bool, 'profile': bool} "
            "dict), not an Observer instance: sweep points run in worker "
            "processes, each with its own fresh collector"
        )
    if on_error not in ("fail", "raise"):
        raise CliqueError(f"on_error must be 'fail' or 'raise', not {on_error!r}")
    if retries < 0:
        raise CliqueError(f"retries must be >= 0, not {retries}")
    if timeout is not None and timeout <= 0:
        raise CliqueError(f"timeout must be positive, not {timeout}")
    if retry_backoff < 0:
        raise CliqueError(f"retry_backoff must be >= 0, not {retry_backoff}")
    key_desc = spec.describe()
    points: list[dict] = []
    for index, config in enumerate(configs):
        config = dict(config)
        config.setdefault("seed", derive_seed(base_seed, index, config))
        points.append(config)

    outcomes: list[SweepOutcome | None] = [None] * len(points)
    jobs: list[_PointJob] = []
    for index, config in enumerate(points):
        if cache is not None:
            hit = cache.get(_point_key(cache, program_factory, config, key_desc))
            if hit is not None:
                result, value = hit
                outcomes[index] = SweepOutcome(
                    config=config, result=result, value=value, from_cache=True
                )
                continue
        jobs.append(_PointJob(slot=len(jobs), index=index, config=config))

    if workers is None:
        workers = min(len(jobs), available_cpus())
    blobs: "list[bytes] | None" = None
    # A timeout always goes through the pool (the deadline kill needs a
    # separate process), even for a single point or worker.
    if jobs and (timeout is not None or (workers > 1 and len(jobs) > 1)):
        context = _fork_context()
        if context is None:  # pragma: no cover - non-POSIX platforms
            if timeout is not None:
                warnings.warn(
                    "per-point timeouts need the 'fork' start method; "
                    "running without a timeout guard",
                    RuntimeWarning,
                    stacklevel=2,
                )
        else:
            try:
                blobs = [
                    pickle.dumps((program_factory, job.config, spec), protocol=5)
                    for job in jobs
                ]
            except (pickle.PicklingError, AttributeError, TypeError) as exc:
                # Unpicklable factory (e.g. a closure): degrade to serial.
                warnings.warn(
                    f"sweep factory {_factory_name(program_factory)} (or its"
                    f" configs) is not picklable"
                    f" ({type(exc).__name__}: {exc}); running"
                    f" {len(jobs)} pending point(s) serially in-process",
                    RuntimeWarning,
                    stacklevel=2,
                )
    if blobs is None:
        statuses = []
        for job in jobs:
            status, payload = _attempt(program_factory, job.config, spec)
            while status == "error":
                payload = _charge(job, payload, retries, retry_backoff)
                if payload is not None:
                    break
                time.sleep(max(0.0, job.eligible_at - time.monotonic()))
                status, payload = _attempt(program_factory, job.config, spec)
            statuses.append((status, payload))
    else:
        statuses = _warm_pool(context).run(
            jobs,
            blobs,
            max_workers=max(1, min(workers, len(jobs))),
            timeout=timeout,
            retries=retries,
            backoff=retry_backoff,
        )

    for job, (status, payload) in zip(jobs, statuses):
        if status == "ok":
            result, value = payload
            outcomes[job.index] = SweepOutcome(
                config=job.config, result=result, value=value
            )
            if cache is not None:
                cache.put(
                    _point_key(cache, program_factory, job.config, key_desc),
                    (result, value),
                )
        else:
            if on_error == "raise":
                raise payload
            outcomes[job.index] = SweepOutcome(
                config=job.config, result=None, failed=True, error=payload
            )
    return [outcome for outcome in outcomes if outcome is not None]


def aggregate_sweep_metrics(outcomes: Iterable[SweepOutcome]) -> dict:
    """Roll the per-run :class:`repro.obs.RunMetrics` of a sweep into one
    summary dict (see :func:`repro.obs.summarise_metrics`).

    Cross-worker aggregation works because each worker ships its run's
    metrics back inside the pickled ``RunResult``; outcomes from
    ``observer=False`` runs (``metrics is None``) and failed points
    (``result is None``) are skipped.  When the sweep had failures the
    summary gains ``failed_points`` / ``failed_indices`` keys; a
    fully-successful sweep's summary shape is unchanged.
    """
    outcomes = list(outcomes)
    summary = summarise_metrics(
        outcome.result.metrics
        for outcome in outcomes
        if outcome.result is not None
    )
    failed = [outcome for outcome in outcomes if outcome.failed]
    if failed:
        summary["failed_points"] = len(failed)
        summary["failed_indices"] = sorted(
            outcome.error.index
            for outcome in failed
            if outcome.error is not None and outcome.error.index is not None
        )
    return summary
