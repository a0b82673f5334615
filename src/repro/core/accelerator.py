"""Public GraphR facade.

>>> from repro.core import GraphR, GraphRConfig
>>> from repro.graph import dataset
>>> accel = GraphR()
>>> result, stats = accel.run("pagerank", dataset("WV"))
>>> stats.seconds > 0 and stats.joules > 0
True

``run`` picks the execution mode per the configuration: functional
(device-level simulation) when the streamed-tile budget allows,
analytic (exact algorithm + event-counted cost) otherwise.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

from repro.algorithms.registry import resolve_program
from repro.algorithms.vertex_program import (AlgorithmResult,
                                             MappingPattern,
                                             VertexProgram)
from repro.core.config import GraphRConfig
from repro.core.controller import Controller
from repro.graph.graph import Graph
from repro.hw.stats import RunStats

__all__ = ["GraphR", "choose_execution_mode", "config_summary"]


def config_summary(config: GraphRConfig):
    """The geometry keys every GraphR run reports in ``stats.extra``."""
    return {
        "crossbar_size": config.crossbar_size,
        "crossbars_per_ge": config.crossbars_per_ge,
        "num_ges": config.num_ges,
        "slices": config.slices,
    }

#: Auto-mode iteration estimate for active-list (add-op) algorithms:
#: frontier-driven runs touch each subgraph for a handful of sweeps in
#: total rather than on every iteration, so projecting the full
#: ``max_iterations`` over every non-empty subgraph would overestimate
#: their functional cost by orders of magnitude.
_ACTIVE_LIST_SWEEPS = 4


def choose_execution_mode(config: GraphRConfig, program: VertexProgram,
                          nonempty_subgraphs: int,
                          max_iterations: Optional[int] = None) -> str:
    """Resolve ``mode="auto"``: functional when the projected tile x
    iteration work fits the budget.

    Dense-sweep (MAC) programs stream every non-empty subgraph each
    iteration; add-op active-list programs only stream subgraphs with
    active sources, whose total across a run is a few sweeps of the
    graph (``_ACTIVE_LIST_SWEEPS``) rather than ``max_iterations``-many.
    An active-list program on the *MAC* pattern (k-core peeling) gets
    no such discount: the MAC functional path has no frontier skip, so
    every peel round streams every non-empty subgraph and the dense
    projection is the honest one.  Every deployment (single node,
    out-of-core, multi-node) picks the same way, from its own
    non-empty subgraph count.
    """
    if program.name == "cf":
        return "analytic"
    iterations = max_iterations or config.max_iterations
    if program.needs_active_list \
            and program.pattern is MappingPattern.PARALLEL_ADD_OP:
        projected = nonempty_subgraphs * min(iterations,
                                             _ACTIVE_LIST_SWEEPS)
    else:
        projected = nonempty_subgraphs * iterations
    if projected <= config.functional_tile_budget:
        return "functional"
    return "analytic"


class GraphR:
    """A GraphR node: run vertex programs on the simulated accelerator."""

    def __init__(self, config: Optional[GraphRConfig] = None) -> None:
        self.config = config or GraphRConfig()

    def run(self, algorithm: Union[str, VertexProgram], graph: Graph,
            mode: Optional[str] = None,
            **kwargs) -> Tuple[AlgorithmResult, RunStats]:
        """Execute an algorithm on a graph.

        Parameters
        ----------
        algorithm:
            Registered name (``"pagerank"``, ``"bfs"``, ``"sssp"``,
            ``"spmv"``, ``"cf"``) or a :class:`VertexProgram` instance.
        graph:
            Input graph.
        mode:
            Override the config's execution mode for this run.
        kwargs:
            Algorithm parameters (``source=...``, ``damping=...``,
            ``epochs=...``); routed to both the program constructor and
            the reference implementation as appropriate.

        Returns
        -------
        (AlgorithmResult, RunStats)
            The computed values plus simulated time/energy.
        """
        program, reference_kwargs, init_kwargs = resolve_program(
            algorithm, kwargs)

        controller = Controller(self.config, graph, program)
        max_iterations = kwargs.get("max_iterations")
        chosen = mode or self.config.mode
        if chosen == "auto":
            chosen = self._pick_mode(controller, program, max_iterations)
        if chosen == "functional":
            result, stats = controller.run_functional(
                max_iterations=max_iterations, **init_kwargs)
        else:
            result, stats = controller.run_analytic(**reference_kwargs)
        stats.extra["config"] = config_summary(self.config)
        return result, stats

    def _pick_mode(self, controller: Controller, program: VertexProgram,
                   max_iterations: Optional[int] = None) -> str:
        """Resolve ``auto`` from this run's streamer (see
        :func:`choose_execution_mode`)."""
        return choose_execution_mode(
            self.config, program,
            controller.streamer.num_nonempty_subgraphs, max_iterations)

    def __repr__(self) -> str:
        cfg = self.config
        return (f"GraphR(S={cfg.crossbar_size}, C={cfg.crossbars_per_ge}, "
                f"G={cfg.num_ges}, mode={cfg.mode})")
