"""Seeded inputs of the four workloads and the drivers that run them.

Every input comes from the benchmark's ``--seed``: the dataset-generator
seed of each job and every source vertex.  Sources are drawn from the
lowest vertex ids, which are the hubs of the R-MAT analogs, so a
traversal never starts on an isolated vertex and a job's work does not
swing with the seed.

Run as a script this module is the workload's own process:

    python3 perfbench/workloads.py batch <spec.json>
        runs a ``sweep-*`` or ``deployments`` workload through
        ``BatchRunner`` and writes its measurements to the path the spec
        names; prints ``ready`` once the first job could be submitted.
    python3 perfbench/workloads.py daemon <trace_dir> <serve args...>
        runs ``repro serve`` with the span recorder installed.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

import speed

#: Worker processes of every pool and of the daemon (the host's cores).
WORKERS = 2
#: Sources are drawn below this vertex id (R-MAT hubs).
SOURCE_RANGE = 256
#: Warm resubmissions of a batch workload's whole grid after its cold
#: window last this share of ``--seconds``: the re-run of a sweep whose
#: results are cached.  Whole grids keep every sample the same mix of
#: result sizes.  The host's speed drops by up to 1.9x for spells of a
#: few seconds, so the window must be long enough to see a fast spell.
WARM_SHARE = 0.5
#: Calibration-kernel samples per core before and after each cold round.
COLD_KERNELS = 3
#: Warm resubmissions of a batch workload per calibration-kernel sample.
WARM_PER_KERNEL = 8
#: Calibration-kernel samples per core between two service slices.
KERNELS_PER_SLICE = 3
#: Service clients: closed loop, one job in flight each.
SERVICE_CLIENTS = 2
#: Poll interval of the service clients, well under a cold job's ~90 ms.
POLL_INTERVAL_S = 0.005
#: The service window alternates this many cold and warm slices, so both
#: kinds of sample spread over the whole window.
SERVICE_SLICES = 8
#: Share of each service slice that submits cold keys.
SERVICE_COLD_SHARE = 0.7
#: Untimed cold submissions before the service window, as a share of
#: ``--seconds``: workers import and attach the dataset here.
SERVICE_WARMUP_SHARE = 0.1
#: Algorithms whose (source, iteration budget) make new service keys.
SERVICE_ALGORITHMS = ("bfs", "sssp", "sswp", "ppr")

BATCH_WORKLOADS = ("sweep-analytic", "sweep-functional", "deployments")
WORKLOADS = BATCH_WORKLOADS + ("service",)


def stats_digest(stats) -> str:
    """Digest of a run's simulated result, ``RunStats.identity_dict()``.

    ``stats`` is a ``RunStats`` or its ``to_dict()`` form.
    """
    from repro.hw.stats import RunStats

    if isinstance(stats, dict):
        stats = RunStats.from_dict(stats)
    text = json.dumps(stats.identity_dict(), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# Job grids
# ----------------------------------------------------------------------
def batches(workload: str, seed: int, tiny: bool = False) -> List[list]:
    """The workload's batches of ``Job``, in submission order.

    ``tiny`` swaps every dataset for WV and, for out-of-core jobs, uses
    blocks large enough that a shard holds a handful of files: the
    smoke-test variant of the same shapes.
    """
    from repro.core.config import GraphRConfig
    from repro.core.partitioned import DeploymentSpec
    from repro.runtime.job import Job

    rng = random.Random(f"{workload}/{seed}")

    def source() -> int:
        return rng.randrange(SOURCE_RANGE)

    def job(algorithm, dataset, config, deployment=None, **kwargs):
        return Job(algorithm=algorithm, dataset="WV" if tiny else dataset,
                   config=config, deployment=deployment, run_kwargs=kwargs,
                   dataset_seed=seed)

    if workload in ("sweep-analytic", "sweep-functional"):
        functional = workload == "sweep-functional"
        config = GraphRConfig(mode="functional" if functional
                              else "analytic")
        # Longest jobs first (the larger graph, then the costlier
        # algorithms of each mode), so two workers end the batch
        # together instead of one waiting on a late long job.
        if functional:
            # wcc fails deterministically in functional mode on SD and
            # AZ (labels outgrow the 16-bit range), so only analytic.
            order = ("kcore", "ppr", "sswp", "sssp", "pagerank", "bfs",
                     "spmv")
        else:
            order = ("wcc", "sswp", "sssp", "pagerank", "kcore", "spmv",
                     "ppr", "bfs")
        kwargs = {"pagerank": lambda: {"max_iterations": 5},
                  "ppr": lambda: dict({"source": source()},
                                      **({"max_iterations": 5}
                                         if functional else {})),
                  "bfs": lambda: {"source": source()},
                  "sssp": lambda: {"source": source()},
                  "sswp": lambda: {"source": source()}}
        return [[job(algorithm, dataset, config,
                     **kwargs.get(algorithm, dict)())
                 for dataset in (("WV",) if tiny else ("AZ", "SD"))
                 for algorithm in order]]
    if workload == "deployments":
        ooc = DeploymentSpec(kind="out-of-core")
        fine = 1024 if tiny else 128
        coarse = 2048 if tiny else 4096
        small = GraphRConfig(mode="analytic", block_size=fine)
        large = GraphRConfig(mode="analytic", block_size=coarse)
        # One job per shard key, then the same keys again with other
        # algorithms: two batches, because concurrent builders of one
        # shard would both build it.  One multi-node job rides in each
        # batch, so both workers finish each batch together.
        build = [
            job("spmv", "WV", small, ooc),
            job("bfs", "SD", large, ooc, source=source()),
            job("sssp", "SD", large, ooc, source=source()),
            job("sssp", "SD", GraphRConfig(mode="analytic"),
                DeploymentSpec(kind="multi-node", num_nodes=4),
                source=source()),
        ]
        reuse = [
            job("pagerank", "WV",
                GraphRConfig(mode="functional", block_size=fine), ooc,
                max_iterations=1),
            job("pagerank", "SD", large, ooc, max_iterations=5),
            job("sswp", "SD", large, ooc, source=source()),
            job("pagerank", "SD", GraphRConfig(mode="analytic"),
                DeploymentSpec(kind="multi-node", num_nodes=2),
                max_iterations=5),
        ]
        return [build, reuse]
    raise ValueError(f"not a batch workload: {workload!r}")


class ColdKeys:
    """New WV analytic service jobs, each key used once, in a seeded
    order: the algorithm cycles through :data:`SERVICE_ALGORITHMS`, and
    each draws a fresh (source, iteration budget) pair."""

    def __init__(self, seed: int) -> None:
        rng = random.Random(f"service/{seed}")
        self.seed = seed
        self._pairs = {}
        for algorithm in SERVICE_ALGORITHMS:
            pairs = [(source, budget)
                     for source in range(2 * SOURCE_RANGE)
                     for budget in (3, 4, 5)]
            rng.shuffle(pairs)
            self._pairs[algorithm] = pairs
        self._issued = 0
        self._lock = threading.Lock()

    def next(self):
        from repro.core.config import GraphRConfig
        from repro.runtime.job import Job

        with self._lock:
            index = self._issued
            self._issued += 1
        algorithm = SERVICE_ALGORITHMS[index % len(SERVICE_ALGORITHMS)]
        source, budget = self._pairs[algorithm][
            index // len(SERVICE_ALGORITHMS)]
        return index, Job(algorithm=algorithm, dataset="WV",
                          config=GraphRConfig(mode="analytic"),
                          run_kwargs={"source": source,
                                      "max_iterations": budget},
                          dataset_seed=self.seed)


# ----------------------------------------------------------------------
# Drivers
# ----------------------------------------------------------------------
class Outcomes:
    """Per-job results of one pass: digests, errors, latencies."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.digests: Dict[str, str] = {}
        #: content key -> position in the workload's generation order
        self.order: Dict[str, int] = {}
        self.attempted = 0
        self.errors = 0
        self.mismatches = 0
        self.first_error: Optional[str] = None
        #: content keys submitted (service), done or not
        self.issued: set = set()
        self.cold: List[float] = []
        self.warm: List[float] = []
        #: calibration-kernel timings (see ``speed.py``) taken in the
        #: window of the cold samples and in that of the warm ones, where
        #: it is a window of its own
        self.kernel: Dict[str, List[list]] = {"cold": [], "warm": []}

    def record(self, key: str, digest: Optional[str], error=None,
               order: Optional[int] = None, checked: bool = True) -> None:
        """One finished job; a digest that differs from an earlier run
        of the same key is an identity mismatch.  ``checked=False``
        counts a job that succeeded without digesting it."""
        with self.lock:
            self.attempted += 1
            if not checked:
                return
            if digest is None:
                self.errors += 1
                self.first_error = self.first_error or str(error)
                return
            if order is not None:
                self.order.setdefault(key, order)
            known = self.digests.setdefault(key, digest)
            if known != digest:
                self.mismatches += 1

    def as_dict(self) -> Dict[str, object]:
        return {"digests": self.digests, "order": self.order,
                "issued": sorted(self.issued),
                "attempted": self.attempted, "errors": self.errors,
                "mismatches": self.mismatches,
                "first_error": self.first_error,
                "cold": self.cold, "warm": self.warm,
                "kernel": self.kernel}


def run_batch_workload(spec: Dict[str, object]) -> Dict[str, object]:
    """Cold rounds of the grid's batches, each round on a fresh cache,
    until ``seconds`` have passed; then warm resubmissions of the whole
    grid against the last cache for ``warm_seconds``.  A cold sample is
    one round, a warm sample one resubmission.  The calibration kernel
    runs before and after every cold round and after every few warm
    samples, while the workers are idle."""
    trace_dir = spec.get("trace_dir")
    tracer = None
    if trace_dir:
        import tracer as span_tracer

        tracer = span_tracer.install(Path(trace_dir))
    from repro.runtime.runner import BatchRunner

    work = Path(spec["work_dir"])
    grid = batches(spec["workload"], spec["seed"], spec.get("tiny", False))
    caches = []

    def fresh_runner():
        caches.append(str(work / f"cache-{len(caches)}"))
        return BatchRunner(workers=WORKERS, cache_dir=caches[-1])

    runner = fresh_runner()
    print("ready", flush=True)
    if spec.get("probe"):
        return {}
    outcomes = Outcomes()
    jobs = 0
    speed.sample(outcomes.kernel["cold"], COLD_KERNELS)
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        for batch in grid:
            results = runner.run_jobs(batch)
            for result in results:
                jobs += 1
                outcomes.record(result.job.content_key(),
                                stats_digest(result.stats)
                                if result.ok else None, result.error)
        outcomes.cold.append(time.perf_counter() - began)
        window = time.perf_counter() - start
        speed.sample(outcomes.kernel["cold"], COLD_KERNELS)
        if window >= float(spec["seconds"]):
            break
        runner = fresh_runner()
    flat = [job for batch in grid for job in batch]
    warm_until = time.perf_counter() + float(spec["warm_seconds"])
    sample = 0
    # This process answers every warm resubmission from the cache alone:
    # it and the kernel of the warm window share one core.
    with speed.pinned():
        while sample == 0 or time.perf_counter() < warm_until:
            if sample % WARM_PER_KERNEL == 0:
                speed.sample(outcomes.kernel["warm"], 1)
            began = time.perf_counter()
            results = runner.run_jobs(flat)
            outcomes.warm.append(time.perf_counter() - began)
            for result in results:
                key = result.job.content_key()
                hit = result.ok and result.from_cache
                if hit and sample:
                    # Every sample reads the same cache files: the first
                    # one's digests cover them.
                    outcomes.record(key, None, checked=False)
                    continue
                outcomes.record(key, stats_digest(result.stats) if hit
                                else None, result.error
                                or "warm resubmission missed the cache")
            sample += 1
    if tracer is not None:
        tracer.flush()
    return dict(outcomes.as_dict(), jobs=jobs, window_s=window,
                caches=caches)


def run_service_clients(url: str, seed: int, seconds: float,
                        min_cold: int = 0, min_warm: int = 0,
                        ) -> Dict[str, object]:
    """Closed-loop clients against a running daemon.

    Each client submits one job and waits for its terminal detail
    before submitting the next.  After an untimed warm-up of cold
    submissions, the window alternates :data:`SERVICE_SLICES` pairs of
    slices over ``seconds``: a cold slice, in which every submission is
    a new key, then a warm slice, in which every submission resubmits a
    key already done.  So both kinds of sample spread over the whole
    window, and a cache hit never queues behind a cold job's compute.
    Slices go on past ``seconds`` until ``min_cold`` and ``min_warm``
    samples exist, giving up after three times ``seconds``.
    """
    from repro.service.client import ServiceClient

    keys = ColdKeys(seed)
    outcomes = Outcomes()
    done: List[tuple] = []
    clients = [(ServiceClient(url, poll_interval_s=POLL_INTERVAL_S),
                random.Random(f"client/{seed}/{number}"))
               for number in range(SERVICE_CLIENTS)]

    def client_loop(client, rng, warm: bool, stop_at: float,
                    samples: Optional[List[float]]) -> None:
        while time.perf_counter() < stop_at:
            order, job = rng.choice(done) if warm else keys.next()
            key = job.content_key()
            with outcomes.lock:
                outcomes.issued.add(key)
            began = time.perf_counter()
            try:
                submission = client.submit(job)[0]
                detail = client.wait_for([submission["id"]],
                                         timeout_s=60.0)[0]
            except Exception as exc:  # noqa: BLE001 - counted as failed
                outcomes.record(key, None, exc)
                continue
            elapsed = time.perf_counter() - began
            stats = detail.get("stats")
            if detail.get("state") != "done" or not stats:
                outcomes.record(key, None,
                                detail.get("error") or detail.get("state"))
                continue
            outcomes.record(key, stats_digest(stats), order=order)
            with outcomes.lock:
                if samples is not None:
                    samples.append(elapsed)
                if not warm:
                    done.append((order, job))

    def phase(warm: bool, duration: float, timed: bool = True) -> None:
        samples = (outcomes.warm if warm else outcomes.cold) if timed \
            else None
        stop_at = time.perf_counter() + duration
        threads = [threading.Thread(target=client_loop,
                                    args=(client, rng, warm, stop_at,
                                          samples))
                   for client, rng in clients]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    phase(False, SERVICE_WARMUP_SHARE * seconds, timed=False)
    per_slice = seconds / SERVICE_SLICES
    kernel_s = 0.0
    start = time.perf_counter()
    slices = 0
    while True:
        phase(False, SERVICE_COLD_SHARE * per_slice)
        if done:
            phase(True, (1 - SERVICE_COLD_SHARE) * per_slice)
        slices += 1
        # Between slices no job is in flight: the kernel runs alone.
        began = time.perf_counter()
        speed.sample(outcomes.kernel["cold"], KERNELS_PER_SLICE)
        kernel_s += time.perf_counter() - began
        enough = (len(outcomes.cold) >= min_cold
                  and len(outcomes.warm) >= min_warm)
        if slices >= SERVICE_SLICES and (
                enough or time.perf_counter() - start >= 3 * seconds):
            break
    window = time.perf_counter() - start - kernel_s
    result = outcomes.as_dict()
    return dict(result, jobs=len(result["cold"]) + len(result["warm"]),
                window_s=window)


def serve_traced(trace_dir: str, serve_args: List[str]) -> int:
    """``repro serve`` with the span recorder in the daemon and in
    every worker it forks."""
    import tracer as span_tracer

    tracer = span_tracer.install(Path(trace_dir))
    from repro.cli import main

    try:
        return main(["serve", *serve_args])
    finally:
        tracer.flush()


def main(argv: List[str]) -> int:
    role = argv[0]
    if role == "batch":
        spec = json.loads(Path(argv[1]).read_text())
        result = run_batch_workload(spec)
        if result:
            Path(spec["result_path"]).write_text(json.dumps(result))
        return 0
    if role == "daemon":
        return serve_traced(argv[1], argv[2:])
    raise SystemExit(f"unknown role {role!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
