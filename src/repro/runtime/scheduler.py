"""Batch execution across a pool of warm worker processes.

The scheduler turns a list of :class:`~repro.runtime.job.Job` into a
list of :class:`JobResult` in the *same order*, whatever the worker
count: results are matched back by submission index, so a parallel
batch is a drop-in replacement for a serial loop.  Every worker wraps
execution in its own try/except and ships failures back as data — one
bad job reports an error instead of killing the batch.

Two failure modes are kept apart:

* a **deterministic job failure** (the job itself raised — bad source
  vertex, unsupported mode ...) comes back as ``{"ok": False}`` from
  :func:`execute_payload` and is *never* retried: rerunning the same
  job would fail the same way;
* a **worker crash** (the child process died — OOM kill, segfault,
  ``os._exit``) is detected through the pipe and retried on a fresh
  worker up to ``max_crash_retries`` times before the job is marked
  failed with ``crashed=True``.

Both paths surface the attempt count in :attr:`JobResult.attempts`.

Workers communicate in plain dictionaries (job spec out, stats dict
back) over :func:`worker_loop` — a warm loop that serves one payload
after another on a duplex pipe.  The persistent simulation service
(:mod:`repro.service`) keeps long-lived workers on the very same loop,
so batch and service execution are bit-identical by construction.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import multiprocessing.util
import sys
import time
import traceback
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import JobError
from repro.hw.stats import RunStats
from repro.obs import logsetup, metrics, tracing
from repro.runtime.job import Job

log = logsetup.get_logger(__name__)

__all__ = ["Scheduler", "JobResult", "WorkerCrash", "WorkerTimeout",
           "WorkerProcess", "attach_dataset", "execute_job",
           "execute_payload", "prepare_block_dir", "worker_loop"]


def attach_dataset(job: Job, residency: bool = False,
                   resident_log: Optional[list] = None):
    """Prepare-or-attach the job's dataset graph (pipeline phases 1+2).

    With ``residency`` the graph comes from (or is published into) the
    host-wide shared-memory segment for that dataset; otherwise it is
    the classic per-process build.  Either way a cold build traces as
    ``prepare`` and a warm hit as ``attach`` — so a warm resubmission's
    trace shows an attach and no prepare.
    """
    from repro.runtime import residency as residency_mod

    return residency_mod.ensure_dataset(
        job.dataset, weighted=job.resolved_weighted,
        seed=job.dataset_seed, share=residency,
        resident_log=resident_log)


def prepare_block_dir(job: Job, config,
                      cache_dir: Optional[str] = None,
                      residency: bool = False,
                      resident_log: Optional[list] = None):
    """Prepare phase for an out-of-core job: a complete shard directory.

    A warm shard never materializes the dataset at all (the packed,
    streaming-ordered shard is the prepared artifact); a cold one builds
    the graph via :func:`attach_dataset` and shards it under a traced
    ``shard-build`` span.  Without a ``cache_dir`` the shards go to a
    per-process scratch root (removed at process exit) instead of a
    throwaway per-run temp dir, so repeat cache-less runs still reuse
    the shard.  Opening it in the attach phase validates its layout
    once; each chunk's edges are checked as a pass reads them.
    """
    from repro.runtime import residency as residency_mod
    from repro.runtime.shards import prepared_block_dir

    root = cache_dir if cache_dir is not None \
        else residency_mod.process_shard_root()
    return prepared_block_dir(
        lambda: attach_dataset(job, residency=residency,
                               resident_log=resident_log),
        config, root,
        dataset=job.dataset,
        dataset_seed=job.dataset_seed,
        weighted=job.resolved_weighted,
    )


def execute_job(job: Job,
                cache_dir: Optional[str] = None,
                residency: bool = False,
                resident_log: Optional[list] = None) -> RunStats:
    """Run one job in the current process and return its stats.

    Execution is an explicit three-phase pipeline:

    1. **prepare** — build or locate the immutable, content-keyed
       dataset artifact (generated graph, or prepared shard directory
       for out-of-core jobs);
    2. **attach** — map it into this process read-only (shared-memory
       attach, opening and validating the shard, or plain in-process
       reuse);
    3. **compute** — dispatch to the platform/deployment engine.

    The phases change only *where the bytes live*: results are
    bit-identical with ``residency`` on or off across single-node,
    out-of-core and multi-node deployments.

    ``cache_dir`` (the owning runner's cache directory) enables
    artifact reuse beyond finished results: out-of-core jobs keep
    their prepared block directories under ``<cache_dir>/shards/``.
    ``residency`` additionally shares prepared datasets between
    processes via ``multiprocessing.shared_memory`` (Linux; each
    action is reported into ``resident_log`` for the resident-set
    owner).  Imports lazily so forked workers only pay for what they
    run.
    """
    kwargs = dict(job.run_kwargs)
    if job.platform == "graphr":
        deployment = job.resolved_deployment()
        config = job.resolved_config()
        if deployment.kind == "out-of-core":
            from repro.core.outofcore import OutOfCoreRunner

            block_dir = prepare_block_dir(
                job, config, cache_dir, residency=residency,
                resident_log=resident_log)
            with tracing.span("attach", dataset=job.dataset,
                              deployment="out-of-core"):
                runner = OutOfCoreRunner(block_dir, config)
            _, stats = runner.run(job.algorithm, **kwargs)
            return stats
        graph = attach_dataset(job, residency=residency,
                               resident_log=resident_log)
        if deployment.kind == "multi-node":
            from repro.core.multinode import (MultiNodeConfig,
                                              MultiNodeGraphR)

            cluster = MultiNodeGraphR(MultiNodeConfig(
                num_nodes=deployment.num_nodes,
                node=config,
                link_bandwidth_bps=deployment.link_bandwidth_bps,
                link_latency_s=deployment.link_latency_s,
            ))
            _, stats = cluster.run(job.algorithm, graph, **kwargs)
        else:
            from repro.core.accelerator import GraphR

            _, stats = GraphR(config).run(job.algorithm, graph,
                                          **kwargs)
    else:
        from repro.baselines import CPUPlatform, GPUPlatform, PIMPlatform

        graph = attach_dataset(job, residency=residency,
                               resident_log=resident_log)
        platform_cls = {"cpu": CPUPlatform, "gpu": GPUPlatform,
                        "pim": PIMPlatform}[job.platform]
        _, stats = platform_cls().run(job.algorithm, graph, **kwargs)
    return stats


def execute_payload(payload: Dict[str, object],
                    cache_dir: Optional[str] = None,
                    residency: bool = False
                    ) -> Dict[str, object]:
    """Worker entry point: job dict in, result dict out.

    Must stay importable at module top level (pickled by name) and must
    never raise — errors travel back as ``{"ok": False, ...}`` so the
    pool and the rest of the batch survive.

    This is also where the telemetry envelope opens: each job runs
    under a fresh metrics registry (its snapshot rides back as
    ``outcome["metrics"]`` — a mergeable delta) and under a root trace
    span keyed by the content-key prefix, serialized into
    ``stats["extra"]["trace"]``.  Neither touches the simulated values:
    the trace is attached to the already-built stats dict and the
    registry only ever *observes*.
    """
    registry = metrics.MetricsRegistry()
    correlation = None
    resident_log: Optional[list] = [] if residency else None
    try:
        job = Job.from_dict(payload)
        correlation = job.content_key()[:12]
        logsetup.set_correlation_id(correlation)
        log.info("job start: %s", job.label())
        with metrics.use_registry(registry):
            registry.counter(
                "repro_jobs_started_total",
                "Jobs entering execute_payload").inc()
            started = time.perf_counter()
            with tracing.trace("job", correlation_id=correlation) as root:
                stats = execute_job(job, cache_dir=cache_dir,
                                    residency=residency,
                                    resident_log=resident_log)
            wall = time.perf_counter() - started
            registry.histogram(
                "repro_job_execute_seconds",
                "End-to-end job execution latency").observe(wall)
            registry.counter(
                "repro_jobs_completed_total",
                "Jobs finishing successfully").inc()
        stats_dict = stats.to_dict()
        if root is not None:
            root.annotate(algorithm=job.algorithm, dataset=job.dataset,
                          platform=job.platform)
            stats_dict["extra"]["trace"] = root.to_dict()
        log.info("job done: %.3fs wall", wall)
        outcome = {"ok": True, "stats": stats_dict,
                   "metrics": registry.snapshot()}
        if resident_log:
            outcome["resident"] = resident_log
        return outcome
    except Exception:  # noqa: BLE001 - the whole point is containment
        registry.counter("repro_jobs_failed_total",
                         "Jobs raising a deterministic error").inc()
        log.warning("job failed", exc_info=True)
        outcome = {"ok": False, "error": traceback.format_exc(),
                   "metrics": registry.snapshot()}
        if resident_log:
            # Segments touched before the failure still exist; the
            # resident-set owner must learn about them either way.
            outcome["resident"] = resident_log
        return outcome
    finally:
        if correlation is not None:
            logsetup.set_correlation_id(None)


def _prepend_queue_wait(stats_dict: Dict[str, object],
                        wait_s: float) -> None:
    """Insert a ``queue-wait`` span at the front of a serialized trace.

    The worker cannot know how long its payload sat queued before
    dispatch — only the dispatcher (scheduler or service supervisor)
    does, so the span is grafted onto the already-serialized tree.
    No-op when tracing was disabled (no trace in the stats).
    """
    trace_dict = stats_dict.get("extra", {}).get("trace")
    if isinstance(trace_dict, dict):
        trace_dict.setdefault("children", []).insert(
            0, {"name": "queue-wait", "duration_s": wait_s})


#: Free heap a worker may keep between jobs: glibc itself leaves up to
#: 64 MB free at the top of its heap (twice its largest mmap threshold),
#: and handing back less only costs the next job page faults.
_KEPT_FREE_HEAP = 64 << 20


class _MallInfo2(ctypes.Structure):
    """glibc's ``struct mallinfo2``."""

    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks",
        "fsmblks", "uordblks", "fordblks", "keepcost")]


def _heap_trimmer() -> Callable[[], None]:
    """Hand a finished job's freed heap back to the OS (glibc only).

    glibc returns freed memory to the OS only from the top of its heap.
    A warm worker runs job after job, so one long-lived block allocated
    near a job's peak (a first-use cache, a small buffer that numpy
    keeps) holds every freed page below it resident for the rest of the
    worker's life: 76 to 237 MB after one functional job on AZ.  Past
    :data:`_KEPT_FREE_HEAP` of free heap, ``malloc_trim`` releases the
    free pages wherever they lie.  A no-op without glibc.
    """
    try:
        libc = ctypes.CDLL(None)
        trim, info = libc.malloc_trim, libc.mallinfo2
    except (AttributeError, OSError, TypeError):
        return lambda: None
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    info.restype = _MallInfo2

    def release() -> None:
        if info().fordblks > _KEPT_FREE_HEAP:
            trim(0)

    return release


def worker_loop(conn, cache_dir: Optional[str] = None,
                residency: bool = False) -> None:
    """Warm-worker loop: ``(tag, payload)`` in, ``(tag, outcome)`` out.

    Serves payloads until the parent sends ``None`` or closes the pipe.
    Job errors are contained by :func:`execute_payload`; pipe failures
    just end the loop.  Both the batch :class:`Scheduler` and the
    service's :class:`~repro.service.supervisor.WorkerSupervisor` run
    their children on this one function.
    """
    try:
        import signal

        # A foreground Ctrl-C signals the whole process group; if it
        # killed a worker mid-job the parent would misread a graceful
        # interrupt as a worker *crash* and burn a retry.  Shutdown is
        # the parent's job (sentinel / pipe close), so ignore SIGINT.
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - exotic hosts
        pass
    release_freed_heap = _heap_trimmer()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        if message is None:
            break
        tag, payload = message
        try:
            conn.send((tag, execute_payload(payload,
                                            cache_dir=cache_dir,
                                            residency=residency)))
        except (BrokenPipeError, OSError):
            break
        release_freed_heap()


class WorkerCrash(RuntimeError):
    """A worker process died without delivering its result."""


class WorkerTimeout(RuntimeError):
    """A worker did not deliver its result within the allowed time."""


def _pool_context():
    """On Linux, ``fork`` lets workers inherit ``sys.path`` and the
    warm dataset cache.  Elsewhere the platform default is kept:
    macOS deliberately defaults to ``spawn`` because forking a
    threaded parent (numpy/Accelerate) can deadlock or crash."""
    return multiprocessing.get_context(
        "fork" if sys.platform == "linux" else None)


class WorkerProcess:
    """One warm child process speaking the :func:`worker_loop` protocol.

    The parent end of the duplex pipe lives here; :meth:`submit` sends
    one ``(tag, payload)`` and :meth:`recv` waits for the matching
    ``(tag, outcome)``, raising :class:`WorkerCrash` if the child dies
    first and :class:`WorkerTimeout` if it exceeds the deadline.
    """

    def __init__(self, cache_dir: Optional[str] = None,
                 ctx=None, residency: bool = False) -> None:
        ctx = ctx or _pool_context()
        self.conn, child = ctx.Pipe()
        # A forked child inherits BOTH pipe ends.  If it kept its copy
        # of the parent end, the parent's death would never surface as
        # EOF on recv() and an orphaned worker would block forever —
        # pinning every other inherited fd (e.g. the service daemon's
        # listening socket) with it.  Close the parent end in every
        # subsequently forked child (this worker's own child included).
        multiprocessing.util.register_after_fork(
            self, WorkerProcess._close_parent_end)
        self.process = ctx.Process(target=worker_loop,
                                   args=(child, cache_dir, residency),
                                   daemon=True)
        self.process.start()
        child.close()

    @staticmethod
    def _close_parent_end(worker: "WorkerProcess") -> None:
        try:
            worker.conn.close()
        except OSError:
            pass

    def alive(self) -> bool:
        """Whether the child process is still running."""
        return self.process.is_alive()

    def submit(self, tag: object, payload: Dict[str, object]) -> None:
        """Dispatch one payload; raises :class:`WorkerCrash` if the
        pipe is already gone."""
        try:
            self.conn.send((tag, payload))
        except (BrokenPipeError, OSError) as exc:
            raise WorkerCrash(f"worker pipe closed: {exc}") from exc

    def recv(self, timeout: Optional[float] = None
             ) -> Tuple[object, Dict[str, object]]:
        """The next ``(tag, outcome)`` message.

        Polls the pipe and the child's liveness together, so a silent
        death (``os._exit``, OOM kill) surfaces as
        :class:`WorkerCrash` instead of a hang; a result that raced
        the death is still drained and returned.
        """
        deadline = (None if timeout is None
                    else time.monotonic() + timeout)
        while True:
            step = 0.1
            if deadline is not None:
                step = min(step, max(0.0, deadline - time.monotonic()))
            try:
                if self.conn.poll(step):
                    return self.conn.recv()
            except (EOFError, OSError) as exc:
                raise WorkerCrash(
                    f"worker pipe broke: {exc}") from exc
            if not self.process.is_alive():
                try:
                    if self.conn.poll(0):
                        return self.conn.recv()
                except (EOFError, OSError):
                    pass
                raise WorkerCrash(
                    f"worker exited with code {self.process.exitcode}")
            if deadline is not None and time.monotonic() >= deadline:
                raise WorkerTimeout(
                    f"no result within {timeout:.1f}s")

    def stop(self, kill: bool = False,
             join_timeout: float = 2.0) -> None:
        """Shut the child down (politely, or with ``kill=True``)."""
        if not kill and self.process.is_alive():
            try:
                self.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        elif self.process.is_alive():
            self.process.terminate()
        self.process.join(join_timeout)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(1.0)
        try:
            self.conn.close()
        except OSError:
            pass


@dataclass
class JobResult:
    """Outcome of one scheduled job."""

    job: Job
    stats: Optional[RunStats] = None
    error: Optional[str] = None
    from_cache: bool = False
    #: Execution attempts consumed (> 1 only after worker crashes).
    attempts: int = 1
    #: The failure was a worker crash, not a deterministic job error.
    crashed: bool = False

    @property
    def ok(self) -> bool:
        """Whether the job produced stats."""
        return self.error is None and self.stats is not None

    def unwrap(self) -> RunStats:
        """The stats, or a :class:`JobError` carrying the worker's
        traceback."""
        if not self.ok:
            raise JobError(
                f"job {self.job.label()} failed:\n{self.error or 'no stats'}")
        return self.stats


class Scheduler:
    """Executes job batches, serially or across a worker-process pool.

    Parameters
    ----------
    workers:
        Pool size; ``1`` executes in-process.
    cache_dir:
        Forwarded to :func:`execute_job` for artifact reuse (prepared
        out-of-core shards); ``None`` disables it.
    max_crash_retries:
        How many times a job whose worker *crashed* is retried on a
        fresh worker before being reported failed.  Deterministic job
        errors are never retried.
    residency:
        Share prepared datasets between pool workers via
        ``multiprocessing.shared_memory`` (``None`` auto-enables on
        Linux when a pool is actually used).  Segments created by a
        batch are unlinked when the pool winds down — the batch
        scheduler has no long-lived owner for them; the service
        supervisor does and manages its own resident set.  Results
        are bit-identical either way.
    """

    def __init__(self, workers: int = 1,
                 cache_dir: Optional[Union[str, "object"]] = None,
                 max_crash_retries: int = 2,
                 residency: Optional[bool] = None) -> None:
        from repro.runtime.residency import residency_supported

        if workers < 1:
            raise JobError("workers must be >= 1")
        if max_crash_retries < 0:
            raise JobError("max_crash_retries must be >= 0")
        self.workers = workers
        self.cache_dir = str(cache_dir) if cache_dir is not None else None
        self.max_crash_retries = max_crash_retries
        if residency is None:
            residency = workers > 1
        self.residency = bool(residency) and residency_supported()

    def run(self, jobs: Sequence[Job]) -> List[JobResult]:
        """Execute every job; results come back in submission order."""
        jobs = list(jobs)
        if not jobs:
            return []
        payloads = [job.to_dict() for job in jobs]
        queued_at = time.perf_counter()
        registry = metrics.get_registry()
        if self.workers > 1 and len(jobs) > 1:
            raw = self._run_pool(payloads)
        else:
            raw = []
            for payload in payloads:
                wait = time.perf_counter() - queued_at
                registry.histogram(
                    "repro_scheduler_queue_wait_seconds",
                    "Time jobs waited before execution began").observe(
                        wait)
                outcome = execute_payload(payload,
                                          cache_dir=self.cache_dir)
                outcome["_queue_wait_s"] = wait
                raw.append(outcome)
        results = []
        for job, outcome in zip(jobs, raw):
            delta = outcome.pop("metrics", None)
            if delta is not None:
                registry.merge(delta)
            outcome.pop("resident", None)  # consumed by _run_pool
            wait = outcome.pop("_queue_wait_s", None)
            attempts = int(outcome.get("attempts", 1))
            if attempts > 1:
                registry.counter(
                    "repro_job_retries_total",
                    "Extra execution attempts after worker crashes"
                ).inc(attempts - 1)
            if outcome.get("ok"):
                if wait is not None:
                    _prepend_queue_wait(outcome["stats"], wait)
                results.append(JobResult(
                    job=job, stats=RunStats.from_dict(outcome["stats"]),
                    attempts=attempts))
            else:
                results.append(JobResult(
                    job=job,
                    error=outcome.get("error", "worker died"),
                    attempts=attempts,
                    crashed=bool(outcome.get("crashed"))))
        return results

    def _run_pool(self, payloads: List[Dict[str, object]]
                  ) -> List[Dict[str, object]]:
        """Map payloads over warm workers, preserving order.

        Each worker serves one payload at a time over its pipe; a
        worker that dies mid-job is replaced and the job requeued (to
        the front, so retries keep their scheduling slot) until its
        crash budget runs out.
        """
        ctx = _pool_context()
        registry = metrics.get_registry()
        queued_at = time.perf_counter()
        limit = 1 + self.max_crash_retries
        total = len(payloads)
        results: List[Optional[Dict[str, object]]] = [None] * total
        attempts = [0] * total
        waits: List[Optional[float]] = [None] * total
        # A worker found dead at dispatch time (died idle after its
        # previous job) never ran the payload, so that is not charged
        # as an execution attempt — but it is bounded separately so a
        # pathological spawn-die loop cannot spin forever.
        dispatch_failures = [0] * total
        pending = deque(range(total))
        pool_size = min(self.workers, total)
        workers: List[WorkerProcess] = []
        busy: Dict[WorkerProcess, int] = {}
        # Shared-memory segments the workers report creating/attaching:
        # a batch has no long-lived resident-set owner, so the pool
        # unlinks them on the way out.
        seen_segments: set = set()

        def crashed(index: int, detail: object) -> None:
            registry.counter(
                "repro_worker_crashes_total",
                "Worker processes that died mid-job").inc()
            log.warning("worker crashed on job %d: %s", index, detail)
            if attempts[index] < limit:
                pending.appendleft(index)
            else:
                results[index] = {
                    "ok": False, "crashed": True,
                    "error": (f"worker crashed while running job "
                              f"(attempt {attempts[index]}/{limit}): "
                              f"{detail}"),
                }

        try:
            while pending or busy:
                while len(workers) < pool_size and pending:
                    workers.append(WorkerProcess(
                        cache_dir=self.cache_dir, ctx=ctx,
                        residency=self.residency))
                for worker in list(workers):
                    if worker in busy or not pending:
                        continue
                    index = pending.popleft()
                    attempts[index] += 1
                    if attempts[index] == 1:
                        waits[index] = time.perf_counter() - queued_at
                        registry.histogram(
                            "repro_scheduler_queue_wait_seconds",
                            "Time jobs waited before execution began"
                        ).observe(waits[index])
                    try:
                        worker.submit(index, payloads[index])
                    except WorkerCrash as exc:
                        workers.remove(worker)
                        worker.stop(kill=True)
                        attempts[index] -= 1  # never actually ran
                        dispatch_failures[index] += 1
                        if dispatch_failures[index] > limit + 2:
                            results[index] = {
                                "ok": False, "crashed": True,
                                "error": (f"could not dispatch job: "
                                          f"workers died before "
                                          f"accepting it ({exc})"),
                            }
                        else:
                            pending.appendleft(index)
                        continue
                    busy[worker] = index
                progressed = False
                for worker in list(busy):
                    try:
                        if not worker.conn.poll(0):
                            if worker.process.is_alive():
                                continue
                            if not worker.conn.poll(0):
                                raise WorkerCrash(
                                    f"worker exited with code "
                                    f"{worker.process.exitcode}")
                        tag, outcome = worker.conn.recv()
                    except (WorkerCrash, EOFError, OSError) as exc:
                        index = busy.pop(worker)
                        workers.remove(worker)
                        worker.stop(kill=True)
                        crashed(index, exc)
                        progressed = True
                        continue
                    index = busy.pop(worker)
                    results[index] = dict(outcome)
                    for entry in outcome.get("resident") or ():
                        if entry.get("name"):
                            seen_segments.add(str(entry["name"]))
                    progressed = True
                if busy and not progressed:
                    time.sleep(0.02)
            return [dict(outcome, attempts=attempts[index],
                         **({"_queue_wait_s": waits[index]}
                            if waits[index] is not None else {}))
                    for index, outcome in enumerate(results)]
        finally:
            for worker in workers:
                worker.stop()
            if seen_segments:
                from repro.runtime.residency import cleanup_segments

                cleanup_segments(seen_segments)
