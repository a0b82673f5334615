"""Chunking never changes a stream kernel's run.

Each streamable algorithm's ``*_reference`` is its
:class:`~repro.algorithms.kernels.StreamKernel` run over the whole edge
list as one chunk; out-of-core runs feed the same kernel the shard's
chunks.  This oracle cuts small multigraphs (parallel edges, self-loops,
sinks, isolated vertices) at random chunk boundaries, empty and
one-edge chunks included, and requires the chunked run to equal
:func:`~repro.algorithms.registry.run_reference` exactly: bitwise
values and dtype, iterations, ``converged``, every trace field, and the
type and message of any error.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.registry import get_stream_kernel, run_reference
from repro.graph.coo import COOMatrix
from repro.graph.graph import Graph

STREAMABLE = ("pagerank", "ppr", "spmv", "bfs", "sssp", "sswp", "kcore",
              "wcc")


@st.composite
def multigraphs(draw):
    """A seeded multigraph whose edges touch only a prefix of its
    vertices (the rest are isolated), with positive float weights."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = int(rng.integers(1, 11))
    touched = int(rng.integers(1, n + 1))
    m = int(rng.integers(0, 61))
    adjacency = COOMatrix((n, n), rng.integers(0, touched, m),
                          rng.integers(0, touched, m),
                          rng.uniform(0.5, 15.0, m))
    return Graph(adjacency=adjacency, name="multigraph", weighted=True)


def algorithm_kwargs(draw, name, n):
    """Run kwargs for ``name``, iteration budgets of 0 included."""
    if name == "spmv":
        return {"x": draw(st.sampled_from([None, np.linspace(0.25, 2, n)]))}
    kwargs = {}
    if draw(st.booleans()):
        kwargs["max_iterations"] = draw(st.integers(0, 4))
    if name in ("pagerank", "ppr"):
        kwargs["raise_on_divergence"] = draw(st.booleans())
    if name in ("ppr", "bfs", "sssp", "sswp"):
        kwargs["source"] = draw(st.integers(0, n - 1))
    if name == "kcore":
        kwargs["k"] = draw(st.integers(1, 3))
    if name == "wcc":
        kwargs["symmetrize"] = draw(st.booleans())
    return kwargs


def outcome(run):
    """Everything a run yields, or the error it raises."""
    try:
        result = run()
    except Exception as exc:  # noqa: BLE001 - errors must match too
        return ("raised", type(exc), str(exc))
    trace = result.trace
    frontiers = (None if trace.frontiers is None
                 else [f.tobytes() for f in trace.frontiers])
    return (result.algorithm, result.values.dtype,
            result.values.tobytes(), result.iterations, result.converged,
            trace.active_vertices, trace.active_edges, frontiers)


def run_chunked(name, graph, kwargs, cuts):
    """The registry's kernel over ``graph``'s edges, cut at ``cuts``.

    WCC's reference runs the mirrored edge set without in-kernel
    mirroring, so its chunks cut that set.
    """
    kernel_kwargs = dict(kwargs)
    if name == "wcc":
        if kernel_kwargs.get("symmetrize", True):
            graph = graph.symmetrized()
        kernel_kwargs["symmetrize"] = False
    adj = graph.adjacency
    src, dst = np.asarray(adj.rows), np.asarray(adj.cols)
    values = np.asarray(adj.values)
    bounds = [0] + sorted(min(c, adj.nnz) for c in cuts) + [adj.nnz]
    kernel = get_stream_kernel(name)(graph.num_vertices,
                                     graph.out_degrees(), **kernel_kwargs)
    while not kernel.finished:
        kernel.begin_pass()
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            kernel.process_edges(src[lo:hi], dst[lo:hi], values[lo:hi])
        kernel.end_pass()
    return kernel.result()


@pytest.mark.parametrize("name", STREAMABLE)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_chunking_never_changes_the_run(name, data):
    graph = data.draw(multigraphs())
    kwargs = algorithm_kwargs(data.draw, name, graph.num_vertices)
    cuts = data.draw(st.lists(st.integers(0, 120), max_size=8))
    expected = outcome(lambda: run_reference(name, graph, **kwargs))
    # Random cuts, then one edge per chunk (trailing chunks empty).
    for chunking in (cuts, range(1, 121)):
        assert outcome(lambda: run_chunked(name, graph, kwargs,
                                           chunking)) == expected
