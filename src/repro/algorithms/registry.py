"""Algorithm registry: name -> program descriptor and reference runner.

Mirrors Table 2 of the paper (property, processEdge, reduce, active
list) and is the single lookup point the benchmark harness uses.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from repro.errors import ConfigError
from repro.algorithms.kernels import StreamKernel
from repro.algorithms.vertex_program import AlgorithmResult, VertexProgram
from repro.algorithms.pagerank import (PageRankKernel, PageRankProgram,
                                       pagerank_reference)
from repro.algorithms.bfs import BFSKernel, BFSProgram, bfs_reference
from repro.algorithms.sssp import SSSPKernel, SSSPProgram, sssp_reference
from repro.algorithms.spmv import SpMVKernel, SpMVProgram, spmv_reference
from repro.algorithms.cf import CollaborativeFilteringProgram, cf_reference
from repro.algorithms.wcc import WCCKernel, WCCProgram, wcc_reference
from repro.algorithms.kcore import KCoreKernel, KCoreProgram, kcore_reference
from repro.algorithms.sswp import SSWPKernel, SSWPProgram, sswp_reference
from repro.algorithms.ppr import PPRKernel, PPRProgram, ppr_reference
from repro.graph.graph import Graph

__all__ = ["PROGRAM_INIT_KEYS", "get_program", "get_stream_kernel",
           "list_algorithms", "resolve_program", "run_reference",
           "weighted_algorithms", "TABLE2_ROWS", "Table2Row"]


@dataclass(frozen=True)
class Table2Row:
    """One row of the paper's Table 2."""

    application: str
    vertex_property: str
    process_edge: str
    reduce: str
    active_vertex_list_required: bool


#: Table 2 verbatim (used by the table-2 benchmark and docs).
TABLE2_ROWS: Tuple[Table2Row, ...] = (
    Table2Row("spmv", "Multiplication Value",
              "E.value = V.prop / V.outdegree * E.weight",
              "V.prop = sum(E.value)", False),
    Table2Row("pagerank", "Page Rank Value",
              "E.value = r * V.prop / V.outdegree",
              "V.prop = sum(E.value) + (1-r) / Num_Vertex", False),
    Table2Row("bfs", "Level",
              "E.value = 1 + V.prop",
              "V.prop = min(V.prop, E.value)", True),
    Table2Row("sssp", "Path Length",
              "E.value = E.weight + V.prop",
              "V.prop = min(V.prop, E.value)", True),
)

_PROGRAMS: Dict[str, Callable[..., VertexProgram]] = {
    "pagerank": PageRankProgram,
    "bfs": BFSProgram,
    "sssp": SSSPProgram,
    "spmv": SpMVProgram,
    "cf": CollaborativeFilteringProgram,
    "wcc": WCCProgram,
    "kcore": KCoreProgram,
    "sswp": SSWPProgram,
    "ppr": PPRProgram,
}

_REFERENCES: Dict[str, Callable[..., AlgorithmResult]] = {
    "pagerank": pagerank_reference,
    "bfs": bfs_reference,
    "sssp": sssp_reference,
    "spmv": spmv_reference,
    "cf": cf_reference,
    "wcc": wcc_reference,
    "kcore": kcore_reference,
    "sswp": sswp_reference,
    "ppr": ppr_reference,
}


_KERNELS: Dict[str, Callable[..., StreamKernel]] = {
    "pagerank": PageRankKernel,
    "bfs": BFSKernel,
    "sssp": SSSPKernel,
    "spmv": SpMVKernel,
    "wcc": WCCKernel,
    "kcore": KCoreKernel,
    "sswp": SSWPKernel,
    "ppr": PPRKernel,
}

#: Algorithms whose semantics need edge weights (the dataset analogs
#: default to weighted generation for these).
_WEIGHTED: Tuple[str, ...] = ("sssp", "sswp")

#: Run kwargs forwarded to ``initial_properties`` in functional mode.
PROGRAM_INIT_KEYS: Tuple[str, ...] = ("source", "x", "seed")


def list_algorithms() -> Tuple[str, ...]:
    """Names of every registered algorithm."""
    return tuple(_PROGRAMS)


def weighted_algorithms() -> Tuple[str, ...]:
    """Algorithms that need weighted dataset analogs."""
    return _WEIGHTED


def get_program(name: str, **kwargs) -> VertexProgram:
    """Instantiate a vertex program by name (constructor kwargs pass
    through, e.g. ``source=3`` for BFS/SSSP)."""
    key = name.lower()
    if key not in _PROGRAMS:
        raise ConfigError(
            f"unknown algorithm {name!r}; known: {', '.join(_PROGRAMS)}"
        )
    return _PROGRAMS[key](**kwargs)


def resolve_program(algorithm, kwargs: Dict[str, object]):
    """Route a run's kwargs to the program, the reference and the
    functional loop.

    ``algorithm`` may be a registered name or a ready
    :class:`VertexProgram`.  A name is built with the keywords its
    constructor's signature names (``features=64`` reaches the CF
    program, so cost charging sees the same parameters the reference
    computes with).  The reference call accepts the full kwargs; the
    functional loop's ``initial_properties`` gets only
    :data:`PROGRAM_INIT_KEYS`.  Returns ``(program, reference_kwargs,
    init_kwargs)``.
    """
    init_kwargs = {k: v for k, v in kwargs.items()
                   if k in PROGRAM_INIT_KEYS}
    if isinstance(algorithm, VertexProgram):
        return algorithm, dict(kwargs), init_kwargs
    cls = _PROGRAMS.get(algorithm.lower())
    ctor_keys = inspect.signature(cls).parameters if cls else ()
    ctor_kwargs = {k: v for k, v in kwargs.items() if k in ctor_keys}
    return (get_program(algorithm, **ctor_kwargs), dict(kwargs),
            init_kwargs)


def get_stream_kernel(name: str) -> Callable[..., StreamKernel]:
    """The algorithm's chunked exact-kernel factory (out-of-core path).

    Factories take ``(num_vertices, out_degrees, **reference_kwargs)``.
    Algorithms without a streamable form (collaborative filtering's
    matrix-valued properties) raise :class:`ConfigError`.
    """
    key = name.lower()
    if key not in _KERNELS:
        raise ConfigError(
            f"{name!r} cannot run block-streamed out-of-core (no "
            f"streamed kernel); available: {', '.join(_KERNELS)}"
        )
    return _KERNELS[key]


def run_reference(name: str, graph: Graph, **kwargs) -> AlgorithmResult:
    """Run the exact reference implementation of an algorithm."""
    key = name.lower()
    if key not in _REFERENCES:
        raise ConfigError(
            f"unknown algorithm {name!r}; known: {', '.join(_REFERENCES)}"
        )
    return _REFERENCES[key](graph, **kwargs)
