"""k-core decomposition: sum-reduce peeling on the parallel-MAC pattern.

Not one of the paper's evaluated workloads, but inside its generality
claim (any vertex program whose reduce is a sum or a min/max): peeling
is

    processEdge:  E.value = 1            (from each *peeling* source)
    reduce:       V.prop  = sum(E.value)
    apply:        V.prop  = V.prop - reduced; peel when V.prop < k

over the directed edge set — a vertex's support is the number of
in-edges from sources still in the core, and vertices whose support
drops below ``k`` are removed round by round until the (k, in-degree)
core remains.  Hand the controller a symmetrized graph
(:meth:`repro.graph.graph.Graph.symmetrized`) for classic undirected
k-core semantics, exactly like WCC.

The crossbar mapping stores coefficient 1 per edge; the wordline
presents 1 for every vertex peeling this round and 0 otherwise, so one
MAC sweep counts each destination's peeling in-neighbours.  The state
encoding keeps the whole program in one float vector:

* ``INIT`` (-2): not yet seeded — the first round everyone "fires"
  once, and the MAC sweep itself computes the in-degree vector (no
  deployment ever needs the degrees up front);
* ``>= 0``: remaining in-support of a live vertex; values below ``k``
  fire (announce removal) on the next round;
* ``REMOVED`` (-1): peeled out.

Every quantity is integer-valued, so functional runs are *exact*: the
fixed-point MAC on {0, 1} inputs and unit coefficients reproduces the
reference bit for bit.
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

__all__ = ["KCoreProgram", "KCoreKernel", "kcore_reference",
           "core_membership", "INIT", "REMOVED"]

#: Sentinel for "not yet seeded" (fires the degree-counting round).
INIT = -2.0
#: Sentinel for "peeled out of the core".
REMOVED = -1.0


def _firing(properties: np.ndarray, k: int) -> np.ndarray:
    """Vertices announcing themselves this round: the unseeded (degree
    sweep) plus live vertices whose support fell below ``k``."""
    properties = np.asarray(properties)
    return (properties == INIT) | ((properties >= 0) & (properties < k))


def _peel_step(properties: np.ndarray, reduced: np.ndarray,
               k: int) -> np.ndarray:
    """One apply step of the peeling program (shared by the stream
    kernel and the vertex program — one formula, so every execution
    layer peels identically).

    The support floor at 0 is a no-op in exact arithmetic (a vertex's
    firing in-neighbours are always still counted in its support, so
    ``reduced <= prop``) but keeps the state encoding closed when the
    functional engine adds read noise: a noise-inflated subtraction
    lands at 0 — which fires and peels next round — instead of below
    zero, where it would collide with the sentinels and freeze.
    """
    new = properties.copy()
    seed = properties == INIT
    new[seed] = np.maximum(reduced[seed], 0.0)
    fired = (properties >= 0) & (properties < k)
    new[fired] = REMOVED
    alive = properties >= k
    new[alive] = np.maximum(properties[alive] - reduced[alive], 0.0)
    return new


class KCoreProgram(VertexProgram):
    """Vertex-program descriptor for k-core peeling."""

    name = "kcore"
    pattern = MappingPattern.PARALLEL_MAC
    reduce_op = "add"
    needs_active_list = True
    reduce_identity = 0.0

    def __init__(self, k: int = 2) -> None:
        if int(k) < 1:
            raise GraphFormatError("k must be a positive integer")
        self.k = int(k)

    def initial_properties(self, graph: Graph, **kwargs) -> np.ndarray:
        """Everything unseeded: the first sweep counts the degrees."""
        return np.full(graph.num_vertices, INIT)

    def edge_coefficients(self, src: np.ndarray, values: np.ndarray,
                          out_degrees: np.ndarray) -> np.ndarray:
        """Unit coefficient: each edge carries one unit of support."""
        return np.ones(len(src))

    def crossbar_coefficient(self, graph: Graph) -> np.ndarray:
        """Whole-graph view of :meth:`edge_coefficients`."""
        return np.ones(graph.num_edges)

    def source_input(self, properties: np.ndarray,
                     graph: Graph) -> np.ndarray:
        """Drive 1 on the wordline of every firing vertex, 0 elsewhere."""
        return _firing(properties, self.k).astype(np.float64)

    def apply(self, reduced: np.ndarray, old_properties: np.ndarray,
              graph: Graph) -> np.ndarray:
        """Seed, peel, or decrement — see :func:`_peel_step`."""
        return _peel_step(np.asarray(old_properties), reduced, self.k)

    def has_converged(self, old_properties: np.ndarray,
                      new_properties: np.ndarray, iteration: int) -> bool:
        """No vertex seeded, peeled or lost support."""
        return bool(np.array_equal(old_properties, new_properties))


class KCoreKernel(StreamKernel):
    """k-core's exact evaluator: synchronous peeling, one edge chunk at
    a time.

    Chunked ``np.add.at`` of unit contributions is exact integer
    arithmetic, so any chunking produces the same support counts bit
    for bit.
    """

    algorithm = "kcore"

    def __init__(self, num_vertices: int, out_degrees: np.ndarray,
                 k: int = 2, max_iterations: int = 0) -> None:
        super().__init__(num_vertices)
        if int(k) < 1:
            raise GraphFormatError("k must be a positive integer")
        self._k = int(k)
        n = self.num_vertices
        self._prop = np.full(n, INIT)
        self.frontier = np.ones(n, dtype=bool)
        self._limit = max_iterations if max_iterations > 0 else n + 2
        self.trace = IterationTrace(frontiers=[])
        self.values = self._prop

    def begin_pass(self) -> None:
        self._acc = np.zeros(self.num_vertices)
        self._pass_edges = 0

    def process_edges(self, src: np.ndarray, dst: np.ndarray,
                      values: np.ndarray) -> None:
        src = np.asarray(src)
        mask = self.frontier[src]
        self._pass_edges += int(mask.sum())
        np.add.at(self._acc, np.asarray(dst)[mask], 1.0)

    def end_pass(self) -> None:
        self.iterations += 1
        self.trace.record(vertices=int(self.frontier.sum()),
                          edges=self._pass_edges,
                          frontier=self.frontier)
        new = _peel_step(self._prop, self._acc, self._k)
        changed = not np.array_equal(new, self._prop)
        self._prop = new
        self.values = new
        self.frontier = _firing(new, self._k)
        if not changed or self.iterations >= self._limit:
            self.converged = not changed
            self.finished = True


def kcore_reference(graph: Graph, k: int = 2,
                    max_iterations: int = 0) -> AlgorithmResult:
    """Synchronous peeling with an iteration trace: the
    :class:`KCoreKernel` run over the whole edge list as one chunk.

    The first pass fires every vertex (the degree-counting sweep);
    subsequent passes fire the vertices whose support dropped below
    ``k``.  The run ends with the pass that changes nothing (that
    confirming pass is counted, matching the functional loop's
    convergence test).  ``values`` holds the surviving in-support for
    core members and :data:`REMOVED` for peeled vertices.
    """
    return run_one_chunk(KCoreKernel(graph.num_vertices, None, k=k,
                                     max_iterations=max_iterations), graph)


def core_membership(values: np.ndarray) -> np.ndarray:
    """Boolean core mask from a k-core result's values."""
    return np.asarray(values) >= 0
