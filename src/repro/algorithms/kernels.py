"""Streamed exact kernels: each algorithm's one exact evaluator.

GraphR's analytic mode needs exact algorithm values, and its
out-of-core deployment (Figure 9) consumes the preprocessed edge list
block by block without ever holding the whole graph.  A
:class:`StreamKernel` serves both: per pass it exposes the
active-source frontier, consumes edge chunks' ``(src, dst, value)``
arrays in streaming order, and finishes the pass with the algorithm's
vector updates.  Only O(|V|) state — property, degree and frontier
vectors — lives across chunks.

The kernel is the algorithm's only exact evaluator.  Its module's
``*_reference`` function is the kernel run over the graph's own edge
list as one chunk (:func:`run_one_chunk`), and out-of-core runs drive
the same kernel over the shard's chunks.  Chunked ``np.add.at`` /
``np.minimum.at`` scatters applied in stream order are element for
element the same operation sequence as one call over the concatenated
arrays, so a run over the ordered shard's chunks is **bit-identical**
to the reference on the ordered edge list (min/max-based kernels are
order-independent and match the unordered reference too).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

import numpy as np

from repro.algorithms.vertex_program import AlgorithmResult, IterationTrace
from repro.graph.graph import Graph

__all__ = ["StreamKernel", "run_one_chunk"]


class StreamKernel(ABC):
    """One algorithm's pass-structured exact evaluator.

    Drive it as::

        while not kernel.finished:
            frontier = kernel.frontier     # mask for this pass (or None)
            kernel.begin_pass()
            for chunk in blocks_in_streaming_order:
                kernel.process_edges(src, dst, values)
            kernel.end_pass()

    A constructor may leave the kernel ``finished`` before any pass (an
    iteration budget of 0, an empty frontier); a kernel that is
    ``finished`` holds the run's final values, iterations,
    convergence flag and trace.
    """

    #: Registered algorithm name.
    algorithm: str = "abstract"

    def __init__(self, num_vertices: int) -> None:
        self.num_vertices = int(num_vertices)
        self.iterations = 0
        self.converged = False
        self.finished = False
        self.trace = IterationTrace()
        #: Active-source mask for the coming pass; ``None`` means every
        #: source is active (dense-sweep programs).
        self.frontier: Optional[np.ndarray] = None
        #: Final property vector (valid once ``finished``).
        self.values: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    @abstractmethod
    def begin_pass(self) -> None:
        """Prepare the pass's accumulator / per-source vectors."""

    @abstractmethod
    def process_edges(self, src: np.ndarray, dst: np.ndarray,
                      values: np.ndarray) -> None:
        """Consume one chunk of edges, in streaming order."""

    @abstractmethod
    def end_pass(self) -> None:
        """Fold the pass into the vertex state; set ``finished`` /
        ``converged`` / ``frontier`` for the next pass."""

    # ------------------------------------------------------------------
    def result(self) -> AlgorithmResult:
        """The run's outcome as an :class:`AlgorithmResult`."""
        return AlgorithmResult(
            algorithm=self.algorithm,
            values=self.values,
            iterations=self.iterations,
            converged=self.converged,
            trace=self.trace,
        )


def run_one_chunk(kernel: StreamKernel, graph: Graph) -> AlgorithmResult:
    """Run ``kernel`` to completion with ``graph``'s whole edge list,
    in its own order, as the one chunk of every pass."""
    adj = graph.adjacency
    src = np.asarray(adj.rows)
    dst = np.asarray(adj.cols)
    values = np.asarray(adj.values)
    while not kernel.finished:
        kernel.begin_pass()
        kernel.process_edges(src, dst, values)
        kernel.end_pass()
    return kernel.result()
