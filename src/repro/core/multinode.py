"""Multi-node GraphR (the paper's other deployment setting).

Section 3.1: "multi-node: one can connect different GraphR nodes ...
to process large graphs.  In this case, each block is processed by a
GraphR node.  Data movements happen between GraphR nodes."  The paper
evaluates only the out-of-core single node and leaves multi-node as
future work; this module provides the extension on top of the shared
partitioned-execution layer.

Model
-----
The vertex space is split into ``num_nodes`` contiguous destination
stripes; node ``k`` owns every edge whose destination falls in stripe
``k`` (column partitioning, so each node reduces its own vertices and
no cross-node reduction is needed).  When the node configuration sets
an explicit block size, stripe boundaries snap to block columns — each
node then owns whole disk blocks, which is also what makes cluster
event totals match a single node's exactly.  Per iteration:

* every node runs streaming-apply over its stripe (its own streamer +
  the shared cost model) — nodes work in parallel, so the compute time
  is the **max** over nodes;
* afterwards the updated vertex properties are exchanged: every node
  broadcasts its stripe to the others over the inter-node links
  (all-gather), charged at ``link_bandwidth_bps`` with a per-message
  latency.

Both execution modes run: analytic (reference values + event-counted
cost, as before) and functional (every stripe's tiles through the
shared device-model engine — stripes own disjoint destination ranges,
so the cluster's values are bit-identical to a single-node functional
run).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.algorithms.registry import resolve_program, run_reference
from repro.algorithms.vertex_program import AlgorithmResult
from repro.core.accelerator import choose_execution_mode
from repro.core.config import GraphRConfig
from repro.core.cost import CostModel, IterationEvents
from repro.core.partitioned import (
    PartitionedFunctionalRunner,
    partition_by_destination,
    partition_pass_events,
)
from repro.errors import ConfigError
from repro.graph.graph import Graph
from repro.hw.stats import RunStats
from repro.obs import tracing

__all__ = ["MultiNodeConfig", "MultiNodeGraphR"]

#: Bytes per exchanged vertex property (16-bit value + id packing).
PROPERTY_BYTES = 4


@dataclass(frozen=True)
class MultiNodeConfig:
    """Cluster parameters for a multi-node GraphR deployment.

    ``link_bandwidth_bps`` models the point-to-point inter-node links
    (PCIe/NVLink-class by default); ``link_latency_s`` is charged once
    per exchange round.
    """

    num_nodes: int = 4
    node: GraphRConfig = None  # type: ignore[assignment]
    link_bandwidth_bps: float = 16e9
    link_latency_s: float = 2e-6

    def __post_init__(self) -> None:
        if self.num_nodes <= 0:
            raise ConfigError("num_nodes must be positive")
        if self.link_bandwidth_bps <= 0 or self.link_latency_s < 0:
            raise ConfigError("invalid link parameters")
        if self.node is None:
            object.__setattr__(self, "node",
                               GraphRConfig(mode="analytic"))


class MultiNodeGraphR:
    """A cluster of GraphR nodes processing one graph cooperatively."""

    def __init__(self, config: MultiNodeConfig | None = None) -> None:
        self.config = config or MultiNodeConfig()

    # ------------------------------------------------------------------
    def _stripes(self, graph: Graph) -> List[Tuple[int, int]]:
        """Contiguous destination ranges, one per node.

        With an explicit node ``block_size`` (and at least one block
        column per node) bounds snap to block columns; otherwise the
        vertex space splits evenly.
        """
        n = graph.num_vertices
        k = min(self.config.num_nodes, max(1, n))
        node_cfg = self.config.node
        if node_cfg.block_size is not None:
            block = node_cfg.effective_block_size(n)
            side = -(-n // block)
            if side >= k:
                cuts = np.linspace(0, side, k + 1).astype(int)
                bounds = np.minimum(cuts * block, n)
                return [(int(bounds[i]), int(bounds[i + 1]))
                        for i in range(k)]
        bounds = np.linspace(0, n, k + 1).astype(int)
        return [(int(bounds[i]), int(bounds[i + 1])) for i in range(k)]

    def _node_graph(self, graph: Graph, stripe: Tuple[int, int]) -> Graph:
        """Subgraph of edges whose destination lies in the stripe
        (kept for diagnostics; vertex ids stay global so the
        streamer's frontier masks line up across nodes)."""
        return partition_by_destination(
            graph, [stripe], self.config.node)[0].graph

    # ------------------------------------------------------------------
    def run(self, algorithm: str, graph: Graph,
            mode: Optional[str] = None,
            **kwargs) -> Tuple[AlgorithmResult, RunStats]:
        """Execute ``algorithm`` across the cluster.

        Returns the result and the cluster-level stats: per-iteration
        time is ``max`` over nodes plus the property exchange; energy
        sums every node's ledger plus link energy.
        """
        program, reference_kwargs, init_kwargs = resolve_program(
            algorithm, kwargs)
        node_cfg = self.config.node
        if not node_cfg.skip_empty_subgraphs:
            # Per-stripe streamers each report the whole grid's slot
            # count; summing over nodes would overbill the ablation.
            raise ConfigError(
                "the skip_empty_subgraphs=False ablation is supported "
                "on the in-memory single node only"
            )
        stats = RunStats(platform="graphr-multinode",
                         algorithm=program.name, dataset=graph.name)

        partitions = partition_by_destination(graph,
                                              self._stripes(graph),
                                              node_cfg)
        cost = CostModel(node_cfg)

        exchange_bytes = graph.num_vertices * PROPERTY_BYTES
        exchange_s = (exchange_bytes / self.config.link_bandwidth_bps
                      + self.config.link_latency_s)

        def charge_round(per_node: List[IterationEvents]) -> float:
            """One cluster iteration: slowest node + all-gather."""
            node_times = [cost.charge_iteration(events, stats.energy,
                                                stats.latency)
                          for events in per_node]
            stats.latency.add("exchange", exchange_s)
            stats.energy.charge_joules(
                "internode_links",
                exchange_bytes * len(partitions) * 10e-12)  # ~10 pJ/byte
            return max(node_times) + exchange_s

        chosen = mode or node_cfg.mode
        if chosen == "auto":
            nonempty = sum(p.streamer.num_nonempty_subgraphs
                           for p in partitions)
            chosen = choose_execution_mode(node_cfg, program, nonempty,
                                           kwargs.get("max_iterations"))

        seconds = node_cfg.setup_overhead_s
        if chosen == "functional":
            runner = PartitionedFunctionalRunner(
                node_cfg, program, graph.num_vertices,
                graph_view=graph, out_degrees=graph.out_degrees(),
                partitions=lambda: partitions,
                persistent_partitions=True,
            )
            result, loop_seconds = runner.run(
                lambda merged, per_node: charge_round(per_node),
                max_iterations=kwargs.get("max_iterations"),
                **init_kwargs)
            seconds += loop_seconds
        else:
            with tracing.span("reference", algorithm=program.name):
                result = run_reference(program.name, graph,
                                       **reference_kwargs)
            work_factor = program.features \
                if program.name == "cf" else 1
            frontiers = (result.trace.frontiers
                         if program.needs_active_list
                         and result.trace.frontiers else None)
            iterations = max(1, result.iterations)
            for it in range(iterations):
                frontier = (frontiers[it] if frontiers is not None
                            else None)
                with tracing.span("iteration", index=it + 1):
                    with tracing.span("sweep"):
                        per_node = [partition_pass_events(
                            p, program.pattern, frontier, work_factor,
                            node_cfg) for p in partitions]
                    if frontier is not None \
                            and not any(ev.edges for ev in per_node):
                        # No node sees an active edge: charge the pass
                        # like the single-node early return does.
                        per_node = [IterationEvents()
                                    for _ in per_node]
                    with tracing.span("charge"):
                        seconds += charge_round(per_node)

        stats.seconds = seconds
        stats.iterations = result.iterations
        stats.extra["mode"] = f"multinode-{chosen}"
        stats.extra["num_nodes"] = len(partitions)
        stats.extra["stripe_edges"] = [p.graph.num_edges
                                       for p in partitions]
        return result, stats

    def __repr__(self) -> str:
        return (f"MultiNodeGraphR(nodes={self.config.num_nodes}, "
                f"link={self.config.link_bandwidth_bps / 1e9:.0f} GB/s)")
