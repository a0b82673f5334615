"""Sparse matrix-vector multiplication as a vertex program (Table 2 row 1).

The paper's SpMV program computes, for every destination vertex,
``sum over in-edges of (V.prop / V.outdegree * E.weight)`` — i.e. one
multiplication pass of the normalised adjacency against the property
vector.  It is the purest parallel-MAC workload (a single iteration,
no convergence loop), which is why it shows the paper's largest
speedups (Figure 17).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.algorithms.kernels import StreamKernel, run_one_chunk
from repro.algorithms.vertex_program import (
    AlgorithmResult,
    MappingPattern,
    VertexProgram,
)
from repro.errors import GraphFormatError
from repro.graph.graph import Graph

__all__ = ["SpMVProgram", "SpMVKernel", "spmv_reference"]


class SpMVProgram(VertexProgram):
    """Vertex-program descriptor for one SpMV pass."""

    name = "spmv"
    pattern = MappingPattern.PARALLEL_MAC
    reduce_op = "add"
    needs_active_list = False
    reduce_identity = 0.0

    def initial_properties(self, graph: Graph, **kwargs) -> np.ndarray:
        """The input vector ``x`` (default: all ones)."""
        x = kwargs.get("x")
        if x is None:
            return np.ones(graph.num_vertices)
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (graph.num_vertices,):
            raise GraphFormatError(
                f"x length {x.shape} != {graph.num_vertices} vertices"
            )
        return x

    def edge_coefficients(self, src: np.ndarray, values: np.ndarray,
                          out_degrees: np.ndarray) -> np.ndarray:
        """``E.weight / outdeg(src)`` per edge."""
        out_deg = np.asarray(out_degrees).astype(np.float64)
        weights = np.asarray(values, dtype=np.float64)
        return weights / out_deg[np.asarray(src)]

    def crossbar_coefficient(self, graph: Graph) -> np.ndarray:
        """Whole-graph view of :meth:`edge_coefficients`."""
        return self.edge_coefficients(graph.adjacency.rows,
                                      graph.adjacency.values,
                                      graph.out_degrees())

    def has_converged(self, old_properties: np.ndarray,
                      new_properties: np.ndarray, iteration: int) -> bool:
        """SpMV is a single pass."""
        return True


class SpMVKernel(StreamKernel):
    """SpMV's exact evaluator: one pass scattering
    ``w(u,v)/outdeg(u) * x[u]`` chunk by chunk in stream order."""

    algorithm = "spmv"

    def __init__(self, num_vertices: int, out_degrees: np.ndarray,
                 x: Optional[np.ndarray] = None) -> None:
        super().__init__(num_vertices)
        n = self.num_vertices
        if x is None:
            x = np.ones(n)
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (n,):
            raise GraphFormatError(f"x length {x.shape} != {n} vertices")
        self._x = x
        out_deg = np.asarray(out_degrees).astype(np.float64)
        self._safe_deg = np.where(out_deg > 0, out_deg, 1.0)

    def begin_pass(self) -> None:
        self._y = np.zeros(self.num_vertices)
        self._pass_edges = 0

    def process_edges(self, src: np.ndarray, dst: np.ndarray,
                      values: np.ndarray) -> None:
        src = np.asarray(src)
        weights = np.asarray(values, dtype=np.float64)
        np.add.at(self._y, np.asarray(dst),
                  weights / self._safe_deg[src] * self._x[src])
        self._pass_edges += len(src)

    def end_pass(self) -> None:
        self.iterations = 1
        self.trace.record(vertices=self.num_vertices,
                          edges=self._pass_edges)
        self.values = self._y
        self.converged = True
        self.finished = True


def spmv_reference(graph: Graph,
                   x: Optional[np.ndarray] = None) -> AlgorithmResult:
    """Exact single-pass SpMV ``y[v] = sum_u w(u,v)/outdeg(u) * x[u]``:
    the :class:`SpMVKernel` run over the whole edge list as one chunk."""
    return run_one_chunk(SpMVKernel(graph.num_vertices,
                                    graph.out_degrees(), x=x), graph)
