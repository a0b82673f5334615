"""Weakly connected components via min-label propagation.

Not one of the paper's four evaluated workloads, but squarely inside
its claim that "GraphR is general because it could accelerate all
vertex programs that can be performed in SpMV form": the program is

    processEdge:  E.value = V.prop          (add-op with addend 0)
    reduce:       V.prop = min(V.prop, E.value)

over the *symmetrized* edge set, with labels initialised to vertex ids.
After convergence every vertex holds the smallest vertex id of its
weakly connected component.
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

__all__ = ["WCCProgram", "WCCKernel", "wcc_reference", "component_sizes"]


class WCCProgram(VertexProgram):
    """Vertex-program descriptor for weakly connected components.

    The controller should be handed an already-symmetrized graph
    (:meth:`repro.graph.graph.Graph.symmetrized`); the descriptor
    validates nothing about symmetry itself — on a directed edge set it
    computes the min-label *forward* propagation instead.
    """

    name = "wcc"
    pattern = MappingPattern.PARALLEL_ADD_OP
    reduce_op = "min"
    needs_active_list = True
    #: Labels are vertex ids; the identity must exceed every id.
    reduce_identity = float((1 << 16) - 1)

    def initial_properties(self, graph: Graph, **kwargs) -> np.ndarray:
        """Every vertex starts in its own component."""
        if graph.num_vertices >= (1 << 16) - 1:
            raise GraphFormatError(
                "WCC labels must fit the 16-bit fixed-point range"
            )
        return np.arange(graph.num_vertices, dtype=np.float64)

    def edge_coefficients(self, src: np.ndarray, values: np.ndarray,
                          out_degrees: np.ndarray) -> np.ndarray:
        """Addend zero: the label passes through unchanged."""
        return np.zeros(len(src))

    def crossbar_coefficient(self, graph: Graph) -> np.ndarray:
        """Whole-graph view of :meth:`edge_coefficients`."""
        return np.zeros(graph.num_edges)


class WCCKernel(StreamKernel):
    """WCC's exact evaluator: min-label propagation, one edge chunk at
    a time.

    Each pass relaxes the out-edges of the vertices whose label
    dropped in the previous pass (every vertex on the first).
    ``symmetrize`` relaxes each directed chunk edge in both directions
    instead of materialising the mirrored edge set: min-label
    propagation is duplicate-insensitive, so labels, frontiers and
    iteration counts equal a run over the mirrored set, but the
    per-pass trace ``edges`` counts the directed active edges (what
    the out-of-core cost model streams).  :func:`wcc_reference` runs
    the mirrored, deduplicated set with ``symmetrize=False``.
    """

    algorithm = "wcc"

    def __init__(self, num_vertices: int, out_degrees: np.ndarray,
                 symmetrize: bool = True, max_iterations: int = 0) -> None:
        super().__init__(num_vertices)
        n = self.num_vertices
        self._symmetrize = bool(symmetrize)
        self._labels = np.arange(n, dtype=np.float64)
        self.frontier = np.ones(n, dtype=bool)
        # An empty graph has no frontier, hence nothing to propagate.
        self.finished = self.converged = n == 0
        self._limit = max_iterations if max_iterations > 0 else n + 1
        self.trace = IterationTrace(frontiers=[])
        self.values = self._labels

    def begin_pass(self) -> None:
        self._proposed = self._labels.copy()
        self._pass_edges = 0

    def process_edges(self, src: np.ndarray, dst: np.ndarray,
                      values: np.ndarray) -> None:
        src = np.asarray(src)
        dst = np.asarray(dst)
        mask = self.frontier[src]
        self._pass_edges += int(mask.sum())
        np.minimum.at(self._proposed, dst[mask], self._labels[src[mask]])
        if self._symmetrize:
            back = self.frontier[dst]
            np.minimum.at(self._proposed, src[back],
                          self._labels[dst[back]])

    def end_pass(self) -> None:
        self.iterations += 1
        self.trace.record(vertices=int(self.frontier.sum()),
                          edges=self._pass_edges,
                          frontier=self.frontier)
        improved = self._proposed < self._labels
        self._labels = self._proposed
        self.frontier = improved
        self.values = self._labels
        if not self.frontier.any() or self.iterations >= self._limit:
            self.converged = not self.frontier.any()
            self.finished = True


def wcc_reference(graph: Graph, symmetrize: bool = True,
                  max_iterations: int = 0) -> AlgorithmResult:
    """Min-label propagation with an iteration trace: the
    :class:`WCCKernel` run over the whole edge list as one chunk.

    ``symmetrize`` mirrors the edges first (true WCC), and the trace
    counts the mirrored, deduplicated edges; with it off the
    propagation follows edge direction only.
    """
    work = graph.symmetrized() if symmetrize else graph
    return run_one_chunk(WCCKernel(work.num_vertices, None,
                                   symmetrize=False,
                                   max_iterations=max_iterations), work)


def component_sizes(labels: np.ndarray) -> dict[int, int]:
    """``component label -> member count`` from a WCC result."""
    labels = np.asarray(labels).astype(np.int64)
    unique, counts = np.unique(labels, return_counts=True)
    return {int(u): int(c) for u, c in zip(unique, counts)}
