"""Personalized PageRank: the restart-vector variant of PageRank.

Instead of teleporting uniformly, every restart jumps back to one
personalization vertex ``s``:

    PPR_{t+1} = r * M @ PPR_t + (1 - r) * e_s

so the stationary vector ranks vertices by their proximity to ``s`` —
the building block of recommendation / "who-to-follow" scenarios.  The
crossbar mapping is PageRank's (parallel-MAC, ``r * M`` stored in the
cells); only the Phase 2 apply differs, adding ``(1 - r)`` to the
restart vertex alone instead of ``(1 - r)/|V|`` everywhere.  As in the
paper's PageRank formulation, dangling mass leaks.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import GraphFormatError
from repro.algorithms.kernels import run_one_chunk
from repro.algorithms.pagerank import (DEFAULT_DAMPING,
                                       DEFAULT_MAX_ITERATIONS,
                                       DEFAULT_TOLERANCE, PageRankKernel)
from repro.algorithms.vertex_program import (
    AlgorithmResult,
    MappingPattern,
    VertexProgram,
)
from repro.graph.graph import Graph

__all__ = ["PPRProgram", "PPRKernel", "ppr_reference"]


def _checked_source(source: int, num_vertices: int) -> int:
    source = int(source)
    if not 0 <= source < num_vertices:
        raise GraphFormatError(
            f"source {source} out of range for {num_vertices} vertices")
    return source


class PPRProgram(VertexProgram):
    """Vertex-program descriptor for personalized PageRank."""

    name = "ppr"
    pattern = MappingPattern.PARALLEL_MAC
    reduce_op = "add"
    needs_active_list = False
    reduce_identity = 0.0
    unit_interval_coefficients = True

    def __init__(self, source: int = 0,
                 damping: float = DEFAULT_DAMPING,
                 tolerance: float = DEFAULT_TOLERANCE) -> None:
        if source < 0:
            raise GraphFormatError("source must be non-negative")
        if not 0.0 < damping < 1.0:
            # repro: noqa REP106 - library-style constructor contract
            raise ValueError("damping must be in (0, 1)")
        if tolerance <= 0.0:
            # repro: noqa REP106 - library-style constructor contract
            raise ValueError("tolerance must be positive")
        self.source = int(source)
        self.damping = float(damping)
        self.tolerance = float(tolerance)

    def initial_properties(self, graph: Graph, **kwargs) -> np.ndarray:
        """All mass on the personalization vertex."""
        source = _checked_source(kwargs.get("source", self.source),
                                 graph.num_vertices)
        rank = np.zeros(graph.num_vertices)
        rank[source] = 1.0
        return rank

    def edge_coefficients(self, src: np.ndarray, values: np.ndarray,
                          out_degrees: np.ndarray) -> np.ndarray:
        """``r / outdeg(src)`` per edge — identical to PageRank's."""
        out_deg = np.asarray(out_degrees).astype(np.float64)
        return self.damping / out_deg[np.asarray(src)]

    def crossbar_coefficient(self, graph: Graph) -> np.ndarray:
        """Whole-graph view of :meth:`edge_coefficients`."""
        return self.edge_coefficients(graph.adjacency.rows, None,
                                      graph.out_degrees())

    def apply(self, reduced: np.ndarray, old_properties: np.ndarray,
              graph: Graph) -> np.ndarray:
        """Add the restart term ``(1 - r)`` at the source alone."""
        _checked_source(self.source, graph.num_vertices)
        new = np.asarray(reduced).copy()
        new[self.source] += 1.0 - self.damping
        return new

    def has_converged(self, old_properties: np.ndarray,
                      new_properties: np.ndarray, iteration: int) -> bool:
        """L1 change below tolerance."""
        delta = float(np.abs(new_properties - old_properties).sum())
        return delta < self.tolerance


class PPRKernel(PageRankKernel):
    """Personalized PageRank's exact evaluator: :class:`PageRankKernel`
    with every restart, and the initial mass, on the source vertex."""

    algorithm = "ppr"
    title = "personalized PageRank"

    def __init__(self, num_vertices: int, out_degrees: np.ndarray,
                 source: int = 0,
                 damping: float = DEFAULT_DAMPING,
                 tolerance: float = DEFAULT_TOLERANCE,
                 max_iterations: int = DEFAULT_MAX_ITERATIONS,
                 raise_on_divergence: bool = False) -> None:
        self._source = _checked_source(source, int(num_vertices))
        super().__init__(num_vertices, out_degrees, damping, tolerance,
                         max_iterations, raise_on_divergence)

    def _start(self) -> Tuple[np.ndarray, np.ndarray]:
        rank = np.zeros(self.num_vertices)
        rank[self._source] = 1.0
        restart = np.zeros(self.num_vertices)
        restart[self._source] = 1.0 - self.damping
        return rank, restart


def ppr_reference(
    graph: Graph,
    source: int = 0,
    damping: float = DEFAULT_DAMPING,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    raise_on_divergence: bool = False,
) -> AlgorithmResult:
    """Exact power-iteration personalized PageRank with a trace: the
    :class:`PPRKernel` run over the whole edge list as one chunk.

    Parameters mirror :class:`PPRProgram`.  Every iteration processes
    all edges (no active list), like PageRank.
    """
    return run_one_chunk(PPRKernel(
        graph.num_vertices, graph.out_degrees(), source, damping,
        tolerance, max_iterations, raise_on_divergence), graph)
