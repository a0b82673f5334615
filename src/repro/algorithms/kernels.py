"""Streamed exact kernels: the references, one edge chunk at a time.

Out-of-core execution (Figure 9) consumes the preprocessed edge list
block by block and must never hold the whole graph in memory — but the
analytic execution mode needs the exact algorithm values.  A
:class:`StreamKernel` is an algorithm's reference implementation
re-expressed over edge *chunks*: per pass it exposes the active-source
frontier, consumes each chunk's ``(src, dst, value)`` arrays in
streaming order, and finishes the pass with the same vector updates
the in-memory reference performs.

Chunked ``np.add.at`` / ``np.minimum.at`` scatters applied in stream
order are element-for-element the same operation sequence as one call
over the concatenated arrays, so a kernel driven over the ordered
shard's chunks produces **bit-identical** values to its reference run
on the ordered edge list (min-based kernels are order-independent and
match the unordered reference too).  Only O(|V|) state — property,
degree and frontier vectors — lives across chunks.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

import numpy as np

from repro.algorithms.vertex_program import AlgorithmResult, IterationTrace

__all__ = ["StreamKernel"]


class StreamKernel(ABC):
    """One algorithm's pass-structured exact evaluator.

    Drive it as::

        while not kernel.finished:
            frontier = kernel.frontier     # mask for this pass (or None)
            kernel.begin_pass()
            for chunk in blocks_in_streaming_order:
                kernel.process_edges(src, dst, values)
            kernel.end_pass()

    Subclasses mirror their module's ``*_reference`` loop exactly —
    same numpy expressions, same trace records, same convergence test —
    so a streamed run is a drop-in replacement for the reference.
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
        """The run's outcome, shaped like the reference's."""
        return AlgorithmResult(
            algorithm=self.algorithm,
            values=self.values,
            iterations=self.iterations,
            converged=self.converged,
            trace=self.trace,
        )
