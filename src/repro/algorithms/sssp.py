"""Single-source shortest paths (Figure 14): parallel-add-op pattern.

``processEdge`` adds the edge weight to the source's distance label;
``reduce`` takes the minimum (the relaxation operator).  GraphR maps a
subgraph's weight matrix into a crossbar, selects one source row per
time slot with a one-hot wordline, adds ``dist(u)`` through an always-on
bias row, and lets the sALU's comparators keep the elementwise minimum
(Figure 16 c3).

Two references are provided: frontier-driven Bellman-Ford (the
paper-faithful relaxation schedule, with an iteration trace) and
Dijkstra (for cross-validation in tests).
"""

from __future__ import annotations

import heapq

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

__all__ = ["SSSPProgram", "SSSPKernel", "sssp_reference",
           "dijkstra_reference", "INFINITY"]

#: Reserved "no edge / unreached" value — the paper's cell maximum ``M``.
INFINITY = float((1 << 16) - 1)


class SSSPProgram(VertexProgram):
    """Vertex-program descriptor for SSSP (Table 2 row 4)."""

    name = "sssp"
    pattern = MappingPattern.PARALLEL_ADD_OP
    reduce_op = "min"
    needs_active_list = True
    reduce_identity = INFINITY

    def __init__(self, source: int = 0) -> None:
        if source < 0:
            raise GraphFormatError("source must be non-negative")
        self.source = int(source)

    def initial_properties(self, graph: Graph, **kwargs) -> np.ndarray:
        """Distance 0 at the source, infinity elsewhere."""
        source = int(kwargs.get("source", self.source))
        if not 0 <= source < graph.num_vertices:
            raise GraphFormatError(
                f"source {source} out of range for {graph.num_vertices} vertices"
            )
        dist = np.full(graph.num_vertices, INFINITY)
        dist[source] = 0.0
        return dist

    def edge_coefficients(self, src: np.ndarray, values: np.ndarray,
                          out_degrees: np.ndarray) -> np.ndarray:
        """The edge weight ``w(u, v)`` is the crossbar cell content."""
        weights = np.asarray(values, dtype=np.float64)
        if weights.size and weights.min() < 0:
            raise GraphFormatError("SSSP requires non-negative edge weights")
        return weights

    def crossbar_coefficient(self, graph: Graph) -> np.ndarray:
        """Whole-graph view of :meth:`edge_coefficients`."""
        return self.edge_coefficients(graph.adjacency.rows,
                                      graph.adjacency.values, None)

    def has_converged(self, old_properties: np.ndarray,
                      new_properties: np.ndarray, iteration: int) -> bool:
        """No distance label changed anywhere."""
        return bool(np.array_equal(old_properties, new_properties))


class SSSPKernel(StreamKernel):
    """SSSP's exact evaluator: frontier-driven Bellman-Ford, one edge
    chunk at a time.

    ``minimum.at`` is order-independent, so chunked relaxation against
    the pass-shared ``proposed`` vector is exactly one whole-list
    min-scatter.
    """

    algorithm = "sssp"

    def __init__(self, num_vertices: int, out_degrees: np.ndarray,
                 source: int = 0, max_iterations: int = 0) -> None:
        super().__init__(num_vertices)
        n = self.num_vertices
        if not 0 <= source < n:
            raise GraphFormatError(f"source {source} out of range")
        self._dist = np.full(n, INFINITY)
        self._dist[source] = 0.0
        self.frontier = np.zeros(n, dtype=bool)
        self.frontier[source] = True
        self._limit = max_iterations if max_iterations > 0 else n + 1
        self.trace = IterationTrace(frontiers=[])
        self.values = self._dist

    def begin_pass(self) -> None:
        self._proposed = self._dist.copy()
        self._pass_edges = 0

    def process_edges(self, src: np.ndarray, dst: np.ndarray,
                      values: np.ndarray) -> None:
        src = np.asarray(src)
        weights = np.asarray(values, dtype=np.float64)
        # Every edge streams through the first pass: validate there only.
        if self.iterations == 0 and weights.size and weights.min() < 0:
            raise GraphFormatError(
                "SSSP requires non-negative edge weights")
        edge_mask = self.frontier[src]
        self._pass_edges += int(edge_mask.sum())
        relax_src = src[edge_mask]
        relax_dst = np.asarray(dst)[edge_mask]
        candidate = self._dist[relax_src] + weights[edge_mask]
        np.minimum.at(self._proposed, relax_dst, candidate)

    def end_pass(self) -> None:
        self.iterations += 1
        self.trace.record(vertices=int(self.frontier.sum()),
                          edges=self._pass_edges,
                          frontier=self.frontier)
        improved = self._proposed < self._dist
        self._dist = self._proposed
        self.frontier = improved
        self.values = self._dist
        if not self.frontier.any() or self.iterations >= self._limit:
            self.converged = not self.frontier.any()
            self.finished = True


def sssp_reference(graph: Graph, source: int = 0,
                   max_iterations: int = 0) -> AlgorithmResult:
    """Frontier-driven Bellman-Ford with an iteration trace: the
    :class:`SSSPKernel` run over the whole edge list as one chunk.

    Each iteration relaxes every out-edge of the vertices whose label
    changed in the previous iteration — exactly the paper's
    active-vertex semantics (Section 4.2), so the recorded frontiers
    drive the GraphR and baseline cost models.
    """
    return run_one_chunk(SSSPKernel(graph.num_vertices, None,
                                    source=source,
                                    max_iterations=max_iterations), graph)


def dijkstra_reference(graph: Graph, source: int = 0) -> AlgorithmResult:
    """Dijkstra's algorithm — an independent oracle for tests.

    Produces the same distances as :func:`sssp_reference` on
    non-negative weights; its trace is empty (it is not a vertex
    program).
    """
    n = graph.num_vertices
    if not 0 <= source < n:
        raise GraphFormatError(f"source {source} out of range")
    csr = graph.csr()
    indptr = np.asarray(csr.indptr)
    indices = np.asarray(csr.indices)
    weights = np.asarray(csr.values)
    if weights.size and weights.min() < 0:
        raise GraphFormatError("Dijkstra requires non-negative edge weights")

    dist = np.full(n, INFINITY)
    dist[source] = 0.0
    visited = np.zeros(n, dtype=bool)
    heap: list[tuple[float, int]] = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if visited[u]:
            continue
        visited[u] = True
        start, stop = int(indptr[u]), int(indptr[u + 1])
        for v, w in zip(indices[start:stop], weights[start:stop]):
            nd = d + float(w)
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, int(v)))
    return AlgorithmResult(
        algorithm="dijkstra",
        values=dist,
        iterations=0,
        converged=True,
    )
