#!/usr/bin/env python
"""Batch runtime: fan a job grid across workers with a result cache.

Builds a small (platform x algorithm) grid on WikiVote, runs it through
:class:`repro.runtime.BatchRunner` twice with a persistent cache, and
shows that the second pass is answered entirely from disk — the
workflow behind ``repro batch jobs.json --workers N --cache-dir PATH``.

The second half demonstrates the batched functional engine: the same
WikiVote PageRank executed through the device models with read noise
on, which runs it on crossbar-tile batches, once at the default batch
size and once at a small one — the results are bit-identical, only the
wall clock differs.
"""

from __future__ import annotations

import tempfile
import time

import numpy as np

from repro import GraphR, GraphRConfig, dataset
from repro.runtime import BatchRunner, Job


def build_jobs() -> list:
    """A 2-platform x 3-algorithm grid on the WikiVote analog."""
    jobs = []
    for platform in ("graphr", "cpu"):
        jobs.append(Job("pagerank", "WV", platform=platform,
                        run_kwargs={"max_iterations": 5}))
        jobs.append(Job("bfs", "WV", platform=platform,
                        run_kwargs={"source": 0}))
        jobs.append(Job("spmv", "WV", platform=platform))
    return jobs


def functional_batching_demo() -> None:
    """Two tile batch sizes of noisy functional WikiVote PageRank.

    Read noise keeps the run on the tile path (clean configs take the
    cell path, which builds no tiles); the seeded noise is drawn in
    the same order at any batch size, so the batch size only changes
    wall-clock, never the results.
    """
    graph = dataset("WV")
    outputs = {}
    for batch_size in (256, 16):
        accel = GraphR(GraphRConfig(
            mode="functional", noise_sigma=0.2,
            functional_batch_size=batch_size))
        start = time.perf_counter()
        result, stats = accel.run("pagerank", graph, max_iterations=5)
        elapsed = time.perf_counter() - start
        outputs[batch_size] = result.values
        print(f"  batch={batch_size:3d}: "
              f"{elapsed:6.3f}s wall, {stats.iterations} iterations, "
              f"simulated {stats.seconds * 1e3:.3f} ms")
    identical = np.array_equal(outputs[256], outputs[16])
    print(f"  results bit-identical: {identical}")


def main() -> None:
    jobs = build_jobs()
    with tempfile.TemporaryDirectory() as cache_dir:
        runner = BatchRunner(workers=2, cache_dir=cache_dir)

        print("first pass (simulating):")
        for result in runner.run_jobs(jobs):
            stats = result.unwrap()
            origin = "cache" if result.from_cache else "fresh"
            print(f"  [{origin}] {stats.summary()}")

        print("\nsecond pass (same cache dir):")
        rerun = BatchRunner(workers=2, cache_dir=cache_dir)
        for result in rerun.run_jobs(jobs):
            stats = result.unwrap()
            origin = "cache" if result.from_cache else "fresh"
            print(f"  [{origin}] {stats.summary()}")

        cache = rerun.cache_stats()
        print(f"\nsecond-pass cache stats: {cache['hits']} hits, "
              f"{cache['misses']} misses "
              f"(hit rate {cache['hit_rate']:.0%})")

    print("\nfunctional batching (noisy WV pagerank, device-level "
          "engine):")
    functional_batching_demo()


if __name__ == "__main__":
    main()
