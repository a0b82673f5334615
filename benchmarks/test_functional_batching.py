"""Functional batching: wall-clock win of the batched engine.

A clean config runs on the cell path (programmed cells contracted per
pass, add-op candidates folded per edge); noisy or variational ones
run on stacked ``(B, S, S)`` tiles.  The tile path at a batch size of
one makes one engine call per crossbar tile, and it is the oracle: a
clean config reaches it when its engine reports the cell path inexact,
which only these tests arrange.  All are bit-identical (asserted in the
unit suite and at paper scale here); this benchmark pins the
performance claim — the default path must beat the tile path at batch
1 by at least 5x on WikiVote PageRank — and smoke-tests that auto mode
runs the paper-scale WV/SD workloads functionally end-to-end.
"""

from __future__ import annotations

import time
from unittest import mock

import numpy as np

from repro.algorithms.registry import get_program
from repro.core.accelerator import GraphR
from repro.core.config import GraphRConfig
from repro.core.controller import Controller
from repro.core.engine import GraphEngine
from repro.graph.datasets import dataset

#: Iterations measured for the speedup ratio: enough work to dominate
#: setup, small enough to keep the batch-1 baseline quick.
MEASURED_ITERATIONS = 3


def _forced_tiles():
    """Inside this context every engine reports its cell path inexact,
    so clean configs run the tile path."""
    inexact = property(lambda self: False)
    return mock.patch.multiple(GraphEngine, exact_mac_cells=inexact,
                               exact_addop_cells=inexact)


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
    with _forced_tiles():
        per_tile = _functional_seconds(graph, 1)
    speedup = per_tile / batched
    print(f"\nWV pagerank functional: tiles at batch 1 {per_tile:.3f}s, "
          f"default {batched:.3f}s -> {speedup:.1f}x")
    assert speedup >= 5.0, \
        f"default path must be >=5x the tile path at batch 1, " \
        f"got {speedup:.1f}x"


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
    polarities, on weighted WV) cell passes against the tile path at a
    batch size of one."""
    cases = [("pagerank", False, {"max_iterations": 2}),
             ("sssp", True, {"source": 0}),
             ("sswp", True, {"source": 0})]
    for algorithm, weighted, kwargs in cases:
        graph = dataset("WV", weighted=weighted)
        program = get_program(algorithm, **{
            key: value for key, value in kwargs.items()
            if key == "source"})

        def run(batch_size):
            config = GraphRConfig(mode="functional",
                                  functional_batch_size=batch_size)
            controller = Controller(config, graph, program)
            result, stats = controller.run_functional(**kwargs)
            return result.values, stats.to_dict()

        cells = run(256)
        with _forced_tiles():
            tiles = run(1)
        assert np.array_equal(cells[0], tiles[0]), algorithm
        assert cells[1] == tiles[1], algorithm
