"""Graph algorithms as vertex programs (Figure 6, Table 2).

Each algorithm exists twice:

* a **reference implementation** — exact numpy code that also records a
  per-iteration :class:`~repro.algorithms.vertex_program.IterationTrace`
  (active vertices/edges), which every platform model consumes.  For
  every algorithm but collaborative filtering it is the algorithm's
  :class:`~repro.algorithms.kernels.StreamKernel` run over the whole
  edge list as one chunk, the same evaluator out-of-core runs stream;
* a **vertex program descriptor** — the ``processEdge`` / ``reduce``
  decomposition GraphR maps onto crossbars (parallel-MAC or
  parallel-add-op pattern).
"""

from repro.algorithms.vertex_program import (
    VertexProgram,
    AlgorithmResult,
    IterationTrace,
    MappingPattern,
)
from repro.algorithms.pagerank import PageRankProgram, pagerank_reference
from repro.algorithms.bfs import BFSProgram, bfs_reference
from repro.algorithms.sssp import SSSPProgram, sssp_reference
from repro.algorithms.spmv import SpMVProgram, spmv_reference
from repro.algorithms.cf import CollaborativeFilteringProgram, cf_reference, cf_rmse
from repro.algorithms.kcore import KCoreProgram, kcore_reference
from repro.algorithms.sswp import SSWPProgram, sswp_reference
from repro.algorithms.ppr import PPRProgram, ppr_reference
from repro.algorithms.registry import (
    get_program,
    list_algorithms,
    run_reference,
    weighted_algorithms,
)

__all__ = [
    "VertexProgram",
    "AlgorithmResult",
    "IterationTrace",
    "MappingPattern",
    "PageRankProgram",
    "pagerank_reference",
    "BFSProgram",
    "bfs_reference",
    "SSSPProgram",
    "sssp_reference",
    "SpMVProgram",
    "spmv_reference",
    "CollaborativeFilteringProgram",
    "cf_reference",
    "cf_rmse",
    "KCoreProgram",
    "kcore_reference",
    "SSWPProgram",
    "sswp_reference",
    "PPRProgram",
    "ppr_reference",
    "get_program",
    "list_algorithms",
    "run_reference",
    "weighted_algorithms",
]
