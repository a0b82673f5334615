"""Controller: the Figure 10 loop, in both execution modes.

The controller coordinates data movement between memory ReRAM and the
GEs, runs the streaming-apply iteration, reduces with the sALU, and
checks convergence.  :class:`Controller` implements that loop twice:

* :meth:`run_functional` — every tile goes through the functional
  :class:`~repro.core.engine.GraphEngine`, so the returned values are
  computed by the simulated device chain;
* :meth:`run_analytic` — the exact reference algorithm provides the
  values and the per-iteration frontier trace, and the streaming
  scheduler converts each iteration into event counts.  Identical work
  is charged identically (same :class:`~repro.core.cost.CostModel`).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.algorithms.registry import run_reference
from repro.algorithms.vertex_program import AlgorithmResult, VertexProgram
from repro.core.config import GraphRConfig
from repro.core.cost import CostModel
from repro.core.partitioned import (
    GraphPartition,
    PartitionedFunctionalRunner,
    engine_for_program,
)
from repro.core.streaming import SubgraphStreamer
from repro.graph.graph import Graph
from repro.hw.stats import RunStats
from repro.obs import tracing

__all__ = ["Controller"]


class Controller:
    """Iteration-loop driver for one (graph, program, config) run."""

    def __init__(self, config: GraphRConfig, graph: Graph,
                 program: VertexProgram) -> None:
        self.config = config
        self.graph = graph
        self.program = program
        self.streamer = SubgraphStreamer(graph, config)
        self.cost = CostModel(config)
        self.engine = engine_for_program(config, program)

    # ------------------------------------------------------------------
    def run_functional(self, max_iterations: Optional[int] = None,
                       **program_kwargs) -> Tuple[AlgorithmResult,
                                                  RunStats]:
        """Run the loop through the functional device models.

        ``max_iterations`` overrides the config's iteration budget for
        this run (the same knob ``run_kwargs`` gives the analytic
        reference), so both modes honour a job's budget identically.
        The loop itself is the shared partitioned one, driven with a
        single whole-graph partition — out-of-core and multi-node
        deployments execute the identical code, which is what keeps
        them bit-identical to this path by construction.
        """
        program = self.program
        graph = self.graph
        stats = RunStats(platform="graphr", algorithm=program.name,
                         dataset=graph.name)
        stats.seconds += self.config.setup_overhead_s
        stats.latency.add("setup", self.config.setup_overhead_s)

        whole = GraphPartition(index=0, graph=graph,
                               streamer=self.streamer,
                               col_lo=0, col_hi=graph.num_vertices)
        runner = PartitionedFunctionalRunner(
            self.config, program, graph.num_vertices,
            graph_view=graph, out_degrees=graph.out_degrees(),
            partitions=lambda: (whole,), engine=self.engine,
            persistent_partitions=True)

        def charge(merged, per_partition) -> float:
            seconds = self.cost.charge_iteration(merged, stats.energy,
                                                 stats.latency)
            stats.seconds += seconds
            return seconds

        result, _ = runner.run(charge, max_iterations=max_iterations,
                               **program_kwargs)
        stats.iterations = result.iterations
        stats.extra["mode"] = "functional"
        stats.extra["nonempty_subgraphs"] = self.streamer.num_nonempty_subgraphs
        stats.extra["subgraph_slots"] = self.streamer.total_subgraph_slots
        return result, stats

    # ------------------------------------------------------------------
    def run_analytic(self, **reference_kwargs) -> Tuple[AlgorithmResult,
                                                        RunStats]:
        """Run the reference algorithm and charge event-counted costs."""
        program = self.program
        graph = self.graph
        stats = RunStats(platform="graphr", algorithm=program.name,
                         dataset=graph.name)
        stats.seconds += self.config.setup_overhead_s
        stats.latency.add("setup", self.config.setup_overhead_s)
        with tracing.span("reference", algorithm=program.name):
            result = run_reference(program.name, graph,
                                   **reference_kwargs)

        work_factor = getattr(program, "features", 1) \
            if program.name == "cf" else 1
        with tracing.span("charge",
                          iterations=max(1, result.iterations)):
            if program.needs_active_list and result.trace.frontiers:
                for frontier in result.trace.frontiers:
                    events = self.streamer.iteration_events(
                        program.pattern, frontier=frontier,
                        work_factor=work_factor)
                    stats.seconds += self.cost.charge_iteration(
                        events, stats.energy, stats.latency)
            else:
                events = self.streamer.iteration_events(
                    program.pattern, frontier=None,
                    work_factor=work_factor)
                for _ in range(max(1, result.iterations)):
                    stats.seconds += self.cost.charge_iteration(
                        events, stats.energy, stats.latency)
        stats.iterations = result.iterations
        stats.extra["mode"] = "analytic"
        stats.extra["nonempty_subgraphs"] = self.streamer.num_nonempty_subgraphs
        stats.extra["subgraph_slots"] = self.streamer.total_subgraph_slots
        return result, stats
