"""Single-source widest path (SSWP): the max/min dual of SSSP.

The bottleneck problem: the width of a path is its narrowest edge, and
every vertex wants the widest path from the source —

    processEdge:  E.value = min(V.prop, E.weight)
    reduce:       V.prop  = max(V.prop, E.value)

the exact dual of SSSP's relax (add becomes min, min becomes max), on
the same parallel-add-op hardware: the subgraph's weight matrix sits in
a crossbar, one source row is selected per time slot, and the sALU's
comparator array folds candidates — configured for ``max`` instead of
``min`` (Figure 15 lists both ops).  Unreached vertices hold width 0
(the identity of ``max`` over positive widths), the source holds the
cell maximum ``M`` (its bottleneck is unbounded), and edge weights must
be strictly positive so a zero cell always means "no edge".

Widths only ever take values from the finite set of edge weights (plus
``UNBOUNDED`` at the source) and the functional path compares and
selects rather than accumulating, so functional runs are exact —
bit-identical to this reference.
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

__all__ = ["SSWPProgram", "SSWPKernel", "sswp_reference",
           "widest_path_reference", "UNBOUNDED"]

#: Source width — the paper's cell maximum ``M`` (no bottleneck yet).
UNBOUNDED = float((1 << 16) - 1)


def _validated_widths(values: np.ndarray) -> np.ndarray:
    weights = np.asarray(values, dtype=np.float64)
    if weights.size and weights.min() <= 0:
        raise GraphFormatError(
            "SSWP requires strictly positive edge weights "
            "(width 0 is the reserved no-edge value)")
    return weights


class SSWPProgram(VertexProgram):
    """Vertex-program descriptor for SSWP."""

    name = "sswp"
    pattern = MappingPattern.PARALLEL_ADD_OP
    reduce_op = "max"
    needs_active_list = True
    #: Identity of ``max`` over positive widths: unreached = width 0.
    reduce_identity = 0.0

    def __init__(self, source: int = 0) -> None:
        if source < 0:
            raise GraphFormatError("source must be non-negative")
        self.source = int(source)

    def initial_properties(self, graph: Graph, **kwargs) -> np.ndarray:
        """Width ``M`` at the source, 0 (unreached) elsewhere."""
        source = int(kwargs.get("source", self.source))
        if not 0 <= source < graph.num_vertices:
            raise GraphFormatError(
                f"source {source} out of range for "
                f"{graph.num_vertices} vertices"
            )
        width = np.zeros(graph.num_vertices)
        width[source] = UNBOUNDED
        return width

    def edge_coefficients(self, src: np.ndarray, values: np.ndarray,
                          out_degrees: np.ndarray) -> np.ndarray:
        """The edge width ``w(u, v)`` is the crossbar cell content."""
        return _validated_widths(values)

    def crossbar_coefficient(self, graph: Graph) -> np.ndarray:
        """Whole-graph view of :meth:`edge_coefficients`."""
        return self.edge_coefficients(graph.adjacency.rows,
                                      graph.adjacency.values, None)

    def has_converged(self, old_properties: np.ndarray,
                      new_properties: np.ndarray, iteration: int) -> bool:
        """No width label changed anywhere."""
        return bool(np.array_equal(old_properties, new_properties))


class SSWPKernel(StreamKernel):
    """SSWP's exact evaluator: frontier-driven widening, one edge chunk
    at a time.

    Each pass widens every out-edge of the vertices whose width
    improved in the previous pass — SSSP's active-vertex schedule with
    the dual operators.  ``maximum.at`` is order-independent, so
    chunked widening against the pass-shared ``proposed`` vector is
    exactly one whole-list max-scatter.
    """

    algorithm = "sswp"

    def __init__(self, num_vertices: int, out_degrees: np.ndarray,
                 source: int = 0, max_iterations: int = 0) -> None:
        super().__init__(num_vertices)
        n = self.num_vertices
        if not 0 <= source < n:
            raise GraphFormatError(f"source {source} out of range")
        self._width = np.zeros(n)
        self._width[source] = UNBOUNDED
        self.frontier = np.zeros(n, dtype=bool)
        self.frontier[source] = True
        self._limit = max_iterations if max_iterations > 0 else n + 1
        self.trace = IterationTrace(frontiers=[])
        self.values = self._width

    def begin_pass(self) -> None:
        self._proposed = self._width.copy()
        self._pass_edges = 0

    def process_edges(self, src: np.ndarray, dst: np.ndarray,
                      values: np.ndarray) -> None:
        src = np.asarray(src)
        # Every edge streams through the first pass: validate there only.
        weights = (_validated_widths(values) if self.iterations == 0
                   else np.asarray(values, dtype=np.float64))
        edge_mask = self.frontier[src]
        self._pass_edges += int(edge_mask.sum())
        widen_src = src[edge_mask]
        widen_dst = np.asarray(dst)[edge_mask]
        candidate = np.minimum(self._width[widen_src],
                               weights[edge_mask])
        np.maximum.at(self._proposed, widen_dst, candidate)

    def end_pass(self) -> None:
        self.iterations += 1
        self.trace.record(vertices=int(self.frontier.sum()),
                          edges=self._pass_edges,
                          frontier=self.frontier)
        improved = self._proposed > self._width
        self._width = self._proposed
        self.frontier = improved
        self.values = self._width
        if not self.frontier.any() or self.iterations >= self._limit:
            self.converged = not self.frontier.any()
            self.finished = True


def sswp_reference(graph: Graph, source: int = 0,
                   max_iterations: int = 0) -> AlgorithmResult:
    """Frontier-driven widest-path iteration with a trace: the
    :class:`SSWPKernel` run over the whole edge list as one chunk."""
    return run_one_chunk(SSWPKernel(graph.num_vertices, None,
                                    source=source,
                                    max_iterations=max_iterations), graph)


def widest_path_reference(graph: Graph, source: int = 0) -> AlgorithmResult:
    """Dijkstra with a max-heap — an independent oracle for tests.

    Produces the same widths as :func:`sswp_reference` on strictly
    positive weights; its trace is empty (it is not a vertex program).
    """
    n = graph.num_vertices
    if not 0 <= source < n:
        raise GraphFormatError(f"source {source} out of range")
    csr = graph.csr()
    indptr = np.asarray(csr.indptr)
    indices = np.asarray(csr.indices)
    weights = _validated_widths(csr.values)

    width = np.zeros(n)
    width[source] = UNBOUNDED
    visited = np.zeros(n, dtype=bool)
    heap: list[tuple[float, int]] = [(-UNBOUNDED, source)]
    while heap:
        negative, u = heapq.heappop(heap)
        if visited[u]:
            continue
        visited[u] = True
        start, stop = int(indptr[u]), int(indptr[u + 1])
        for v, w in zip(indices[start:stop], weights[start:stop]):
            candidate = min(-negative, float(w))
            if candidate > width[v]:
                width[v] = candidate
                heapq.heappush(heap, (-candidate, int(v)))
    return AlgorithmResult(
        algorithm="widest-path",
        values=width,
        iterations=0,
        converged=True,
    )
