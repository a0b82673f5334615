"""PageRank (Figure 13): the canonical parallel-MAC program.

Iterates ``PR_{t+1} = r * M @ PR_t + (1 - r) * e`` where ``M`` is the
column-stochastic transition matrix (``M[v, u] = 1/outdeg(u)`` for each
edge ``u -> v``) and ``e`` is the uniform vector.  GraphR stores
``r * M`` in the crossbars and implements the ``(1-r) e`` addition with
an extra always-on row (Figure 16 b3).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import ConvergenceError
from repro.algorithms.kernels import StreamKernel, run_one_chunk
from repro.algorithms.vertex_program import (
    AlgorithmResult,
    MappingPattern,
    VertexProgram,
)
from repro.graph.graph import Graph

__all__ = ["PageRankProgram", "PageRankKernel", "pagerank_reference"]

#: The paper's example uses r = 4/5; the standard damping is 0.85.
DEFAULT_DAMPING = 0.85
DEFAULT_TOLERANCE = 1e-7
DEFAULT_MAX_ITERATIONS = 100


class PageRankProgram(VertexProgram):
    """Vertex-program descriptor for PageRank (Table 2 row 2)."""

    name = "pagerank"
    pattern = MappingPattern.PARALLEL_MAC
    reduce_op = "add"
    needs_active_list = False
    reduce_identity = 0.0
    unit_interval_coefficients = True

    def __init__(self, damping: float = DEFAULT_DAMPING,
                 tolerance: float = DEFAULT_TOLERANCE) -> None:
        if not 0.0 < damping < 1.0:
            # repro: noqa REP106 - library-style constructor contract
            raise ValueError("damping must be in (0, 1)")
        if tolerance <= 0.0:
            # repro: noqa REP106 - library-style constructor contract
            raise ValueError("tolerance must be positive")
        self.damping = float(damping)
        self.tolerance = float(tolerance)

    def initial_properties(self, graph: Graph, **kwargs) -> np.ndarray:
        """Uniform distribution ``1/|V|``."""
        n = graph.num_vertices
        return np.full(n, 1.0 / n)

    def edge_coefficients(self, src: np.ndarray, values: np.ndarray,
                          out_degrees: np.ndarray) -> np.ndarray:
        """``r / outdeg(src)`` per edge — the entries of ``r * M``.

        Dangling sources (outdeg 0) contribute no edges, so no
        coefficient exists for them; their rank mass leaks, as in the
        paper's formulation.
        """
        out_deg = np.asarray(out_degrees).astype(np.float64)
        return self.damping / out_deg[np.asarray(src)]

    def crossbar_coefficient(self, graph: Graph) -> np.ndarray:
        """Whole-graph view of :meth:`edge_coefficients`."""
        return self.edge_coefficients(graph.adjacency.rows, None,
                                      graph.out_degrees())

    def apply(self, reduced: np.ndarray, old_properties: np.ndarray,
              graph: Graph) -> np.ndarray:
        """Add the teleport term ``(1 - r) / |V|`` (Figure 13, Phase 2)."""
        return reduced + (1.0 - self.damping) / graph.num_vertices

    def has_converged(self, old_properties: np.ndarray,
                      new_properties: np.ndarray, iteration: int) -> bool:
        """L1 change below tolerance."""
        delta = float(np.abs(new_properties - old_properties).sum())
        return delta < self.tolerance


class PageRankKernel(StreamKernel):
    """PageRank's exact evaluator: power iteration, one edge chunk at a
    time.

    Each pass gathers the per-source contribution ``r * rank / outdeg``
    and scatters it chunk by chunk, in stream order, onto the restart
    vector ``(1 - r) / |V|``; the run converges once the L1 change
    drops below ``tolerance``.  With ``raise_on_divergence``, a run
    that spends ``max_iterations`` (0 included) without converging
    raises :class:`ConvergenceError`.
    """

    algorithm = "pagerank"
    #: How the divergence error names the algorithm.
    title = "PageRank"

    def __init__(self, num_vertices: int, out_degrees: np.ndarray,
                 damping: float = DEFAULT_DAMPING,
                 tolerance: float = DEFAULT_TOLERANCE,
                 max_iterations: int = DEFAULT_MAX_ITERATIONS,
                 raise_on_divergence: bool = False) -> None:
        super().__init__(num_vertices)
        self.damping = float(damping)
        self.tolerance = float(tolerance)
        self.max_iterations = int(max_iterations)
        self.raise_on_divergence = bool(raise_on_divergence)
        out_deg = np.asarray(out_degrees).astype(np.float64)
        self._safe_deg = np.where(out_deg > 0, out_deg, 1.0)
        self._rank, self._restart = self._start()
        self.values = self._rank
        if self.max_iterations < 1:
            self._give_up()

    def _start(self) -> Tuple[np.ndarray, np.ndarray]:
        """The initial rank vector and the per-pass restart vector."""
        n = self.num_vertices
        return np.full(n, 1.0 / n), np.full(n, (1.0 - self.damping) / n)

    def _give_up(self) -> None:
        self.finished = True
        if self.raise_on_divergence:
            raise ConvergenceError(
                f"{self.title} did not converge in "
                f"{self.max_iterations} iterations"
            )

    def begin_pass(self) -> None:
        self._contrib = self.damping * self._rank / self._safe_deg
        self._acc = self._restart.copy()
        self._pass_edges = 0

    def process_edges(self, src: np.ndarray, dst: np.ndarray,
                      values: np.ndarray) -> None:
        np.add.at(self._acc, np.asarray(dst),
                  self._contrib[np.asarray(src)])
        self._pass_edges += len(src)

    def end_pass(self) -> None:
        self.iterations += 1
        self.trace.record(vertices=self.num_vertices,
                          edges=self._pass_edges)
        delta = float(np.abs(self._acc - self._rank).sum())
        self._rank = self._acc
        self.values = self._rank
        if delta < self.tolerance:
            self.converged = True
            self.finished = True
        elif self.iterations >= self.max_iterations:
            self._give_up()


def pagerank_reference(
    graph: Graph,
    damping: float = DEFAULT_DAMPING,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    raise_on_divergence: bool = False,
) -> AlgorithmResult:
    """Exact power-iteration PageRank with an iteration trace: the
    :class:`PageRankKernel` run over the whole edge list as one chunk.

    Parameters mirror :class:`PageRankProgram`.  Every iteration
    processes all edges (PageRank keeps no active list), so the trace
    records ``|V|`` vertices and ``|E|`` edges per iteration.
    """
    return run_one_chunk(PageRankKernel(
        graph.num_vertices, graph.out_degrees(), damping, tolerance,
        max_iterations, raise_on_divergence), graph)
