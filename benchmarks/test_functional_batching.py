"""Functional batching: wall-clock win of the batched engine.

A positive batch size runs clean configs on the cell path (programmed
cells contracted per pass, add-op candidates folded per edge) and
noisy or variational ones on stacked ``(B, S, S)`` tiles, where the
per-tile reference loop makes one engine call per crossbar tile.  All
are bit-identical (asserted in the unit suite and at paper scale
here); this benchmark pins the performance claim — the batched path
must beat the per-tile loop by at least 5x on WikiVote PageRank — and
smoke-tests that auto mode runs the paper-scale WV/SD workloads
functionally end-to-end.
"""

from __future__ import annotations

import time

import numpy as np

from repro.algorithms.registry import get_program
from repro.core.accelerator import GraphR
from repro.core.config import GraphRConfig
from repro.core.controller import Controller
from repro.graph.datasets import dataset

#: Iterations measured for the speedup ratio: enough work to dominate
#: setup, small enough to keep the per-tile baseline quick.
MEASURED_ITERATIONS = 3


def _functional_seconds(graph, batch_size: int) -> float:
    config = GraphRConfig(mode="functional",
                          functional_batch_size=batch_size)
    controller = Controller(config, graph, get_program("pagerank"))
    start = time.perf_counter()
    controller.run_functional(max_iterations=MEASURED_ITERATIONS)
    return time.perf_counter() - start


def test_wv_pagerank_batched_speedup(benchmark):
    graph = dataset("WV")
    # Warm the dataset/streamer caches outside the measured region.
    _functional_seconds(graph, 256)
    batched = benchmark.pedantic(
        lambda: _functional_seconds(graph, 256), rounds=1, iterations=1)
    per_tile = _functional_seconds(graph, 0)
    speedup = per_tile / batched
    print(f"\nWV pagerank functional: per-tile {per_tile:.3f}s, "
          f"batched {batched:.3f}s -> {speedup:.1f}x")
    assert speedup >= 5.0, \
        f"batched path must be >=5x the per-tile loop, got {speedup:.1f}x"


def test_wv_and_sd_run_functional_end_to_end():
    """Auto mode picks the functional engine for the paper's two
    smallest graphs — PageRank on WV, SSSP on WV and SD — and the runs
    complete with converged results."""
    accel = GraphR()

    result, stats = accel.run("pagerank", dataset("WV"),
                              max_iterations=20)
    assert stats.extra["mode"] == "functional"
    assert np.isfinite(result.values).all()

    for code in ("WV", "SD"):
        graph = dataset(code, weighted=True)
        result, stats = accel.run("sssp", graph, source=0)
        assert stats.extra["mode"] == "functional", code
        assert result.converged, code


def test_batched_and_per_tile_bit_identical_on_wv():
    """The acceptance check at paper scale: same values, same stats.
    Clean configs take the cell path, so this pits MAC and add-op (both
    polarities, on weighted WV) cell passes against the per-tile
    oracle."""
    cases = [("pagerank", False, {"max_iterations": 2}),
             ("sssp", True, {"source": 0}),
             ("sswp", True, {"source": 0})]
    for algorithm, weighted, kwargs in cases:
        graph = dataset("WV", weighted=weighted)
        program = get_program(algorithm, **{
            key: value for key, value in kwargs.items()
            if key == "source"})
        outputs = []
        for batch_size in (256, 0):
            config = GraphRConfig(mode="functional",
                                  functional_batch_size=batch_size)
            controller = Controller(config, graph, program)
            result, stats = controller.run_functional(**kwargs)
            outputs.append((result.values, stats.to_dict()))
        assert np.array_equal(outputs[0][0], outputs[1][0]), algorithm
        assert outputs[0][1] == outputs[1][1], algorithm
