"""Breadth-first search as a vertex program (Table 2 row 3).

BFS is the unweighted special case of SSSP: ``processEdge`` computes
``1 + V.prop`` and ``reduce`` takes the minimum, yielding each vertex's
level (hop distance from the source).  It is a parallel-add-op program
with an active-vertex list.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.kernels import StreamKernel, run_one_chunk
from repro.algorithms.vertex_program import (
    AlgorithmResult,
    IterationTrace,
    MappingPattern,
    VertexProgram,
)
from repro.errors import GraphFormatError
from repro.graph.graph import Graph

__all__ = ["BFSProgram", "BFSKernel", "bfs_reference", "UNREACHABLE"]

#: Property value for unreached vertices — the paper's reserved maximum
#: cell value ``M``.  2**16 - 1 is the 16-bit fixed-point ceiling.
UNREACHABLE = float((1 << 16) - 1)


class BFSProgram(VertexProgram):
    """Vertex-program descriptor for BFS."""

    name = "bfs"
    pattern = MappingPattern.PARALLEL_ADD_OP
    reduce_op = "min"
    needs_active_list = True
    reduce_identity = UNREACHABLE

    def __init__(self, source: int = 0) -> None:
        if source < 0:
            raise GraphFormatError("source must be non-negative")
        self.source = int(source)

    def initial_properties(self, graph: Graph, **kwargs) -> np.ndarray:
        """Level 0 at the source, unreachable everywhere else."""
        source = int(kwargs.get("source", self.source))
        if not 0 <= source < graph.num_vertices:
            raise GraphFormatError(
                f"source {source} out of range for {graph.num_vertices} vertices"
            )
        props = np.full(graph.num_vertices, UNREACHABLE)
        props[source] = 0.0
        return props

    def edge_coefficients(self, src: np.ndarray, values: np.ndarray,
                          out_degrees: np.ndarray) -> np.ndarray:
        """Every present edge contributes 1 hop."""
        return np.ones(len(src))

    def crossbar_coefficient(self, graph: Graph) -> np.ndarray:
        """Whole-graph view of :meth:`edge_coefficients`."""
        return np.ones(graph.num_edges)

    def has_converged(self, old_properties: np.ndarray,
                      new_properties: np.ndarray, iteration: int) -> bool:
        """No level changed — the frontier died out."""
        return bool(np.array_equal(old_properties, new_properties))


class BFSKernel(StreamKernel):
    """BFS's exact evaluator: level-synchronous, one edge chunk at a
    time.

    Every frontier vertex sits at level ``iterations``, so an unvisited
    out-neighbour gets level ``iterations + 1``.  Level values are
    small integers, so chunked discovery is exactly one whole-list
    step: a vertex discovered by an earlier chunk of the same pass
    would be re-assigned the same level by later chunks anyway.
    """

    algorithm = "bfs"

    def __init__(self, num_vertices: int, out_degrees: np.ndarray,
                 source: int = 0, max_iterations: int = 0) -> None:
        super().__init__(num_vertices)
        n = self.num_vertices
        if not 0 <= source < n:
            raise GraphFormatError(f"source {source} out of range")
        self._levels = np.full(n, UNREACHABLE)
        self._levels[source] = 0.0
        self.frontier = np.zeros(n, dtype=bool)
        self.frontier[source] = True
        self._limit = max_iterations if max_iterations > 0 else n + 1
        self.trace = IterationTrace(frontiers=[])
        self.values = self._levels

    def begin_pass(self) -> None:
        self._next = np.zeros(self.num_vertices, dtype=bool)
        self._pass_edges = 0

    def process_edges(self, src: np.ndarray, dst: np.ndarray,
                      values: np.ndarray) -> None:
        edge_mask = self.frontier[np.asarray(src)]
        self._pass_edges += int(edge_mask.sum())
        candidates = np.asarray(dst)[edge_mask]
        fresh = candidates[self._levels[candidates] == UNREACHABLE]
        self._levels[fresh] = float(self.iterations + 1)
        self._next[fresh] = True

    def end_pass(self) -> None:
        self.iterations += 1
        self.trace.record(vertices=int(self.frontier.sum()),
                          edges=self._pass_edges,
                          frontier=self.frontier)
        self.frontier = self._next
        self.values = self._levels
        if not self.frontier.any() or self.iterations >= self._limit:
            self.converged = not self.frontier.any()
            self.finished = True


def bfs_reference(graph: Graph, source: int = 0,
                  max_iterations: int = 0) -> AlgorithmResult:
    """Level-synchronous BFS with a frontier trace: the
    :class:`BFSKernel` run over the whole edge list as one chunk.

    ``max_iterations`` of 0 means unbounded (BFS terminates in at most
    ``|V|`` levels).  The trace's ``frontiers`` list holds the active
    source mask per iteration; the platform models use it to count the
    subgraphs/edges actually touched.
    """
    return run_one_chunk(BFSKernel(graph.num_vertices, None, source=source,
                                   max_iterations=max_iterations), graph)
