"""Shared partitioned-execution layer for non-single-node deployments.

The paper's two scaling deployments split the adjacency matrix along
destination ranges and run the same streaming-apply work per piece:

* **out-of-core** (Section 3.4 / Figure 9): one node consumes the
  preprocessed blocks sequentially from disk — partition times *sum*
  and events of one pass merge into a single charge;
* **multi-node** (Section 3.1): each stripe of block columns lives on
  its own node — partitions run concurrently, so per-iteration time is
  the *max* over nodes plus a property exchange.

This module is the machinery both runners drive:

* :class:`DeploymentSpec` — the serializable deployment description
  jobs carry (participates in the runtime's content keys);
* :class:`GraphPartition` + :func:`partition_by_destination` — one
  destination range's subgraph with its own streaming scheduler;
* :func:`partition_pass_events` / :func:`accumulate_pass_events` — the
  analytic event path, per partition and folded per pass (pass-level
  merging reproduces the single-node event record exactly: subgraph
  ids are globally unique, destinations are deduplicated across
  partitions, and inactive partitions still charge their sequential
  scan while globally-inactive passes charge nothing);
* :class:`PartitionedFunctionalRunner` — the controller's functional
  iteration loop over partition scans.  Partitions stream their
  crossbars in the same global order a whole-graph streamer produces,
  into the same shared engine and accumulator, so partitioned
  functional runs are bit-identical to single-node functional runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Tuple)

import numpy as np

from repro.algorithms.vertex_program import (
    AlgorithmResult,
    IterationTrace,
    MappingPattern,
    VertexProgram,
)
from repro.core.addop_mapper import run_addop_scan
from repro.core.config import GraphRConfig
from repro.core.cost import IterationEvents
from repro.core.engine import GraphEngine
from repro.core.mac_mapper import run_mac_scan
from repro.core.streaming import MacCells, SubgraphStreamer
from repro.errors import ConfigError, MappingError
from repro.graph.coo import COOMatrix
from repro.graph.graph import Graph
from repro.obs import metrics, tracing
from repro.reram.fixed_point import FixedPointFormat

__all__ = [
    "DEPLOYMENT_KINDS",
    "DeploymentSpec",
    "GraphPartition",
    "PartitionedFunctionalRunner",
    "accumulate_pass_events",
    "engine_for_program",
    "merge_events_apply_aside",
    "partition_by_destination",
    "partition_pass_events",
]

#: Deployment scenarios a job may request.
DEPLOYMENT_KINDS: Tuple[str, ...] = ("single", "out-of-core", "multi-node")


@dataclass(frozen=True)
class DeploymentSpec:
    """How a GraphR job is deployed (Section 3.1's three settings).

    ``single`` is the in-memory node every plain run uses;
    ``out-of-core`` streams preprocessed blocks from disk on one node;
    ``multi-node`` splits destination stripes across ``num_nodes``
    nodes linked at ``link_bandwidth_bps`` / ``link_latency_s``.  The
    node-architecture knobs stay in :class:`GraphRConfig` (including
    the out-of-core block size ``B``).
    """

    kind: str = "single"
    num_nodes: int = 4
    link_bandwidth_bps: float = 16e9
    link_latency_s: float = 2e-6

    def __post_init__(self) -> None:
        if self.kind not in DEPLOYMENT_KINDS:
            raise ConfigError(
                f"unknown deployment {self.kind!r}; available: "
                f"{', '.join(DEPLOYMENT_KINDS)}"
            )
        if self.num_nodes < 1:
            raise ConfigError("num_nodes must be positive")
        if self.link_bandwidth_bps <= 0 or self.link_latency_s < 0:
            raise ConfigError("invalid link parameters")

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Canonical JSON-safe form (cluster fields only when they
        matter, so equivalent specs serialize identically)."""
        payload: Dict[str, object] = {"kind": self.kind}
        if self.kind == "multi-node":
            payload["num_nodes"] = self.num_nodes
            payload["link_bandwidth_bps"] = self.link_bandwidth_bps
            payload["link_latency_s"] = self.link_latency_s
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "DeploymentSpec":
        """Rebuild a spec from :meth:`to_dict` output (or a job-file
        entry); unknown fields raise :class:`ConfigError`."""
        known = {"kind", "num_nodes", "link_bandwidth_bps",
                 "link_latency_s"}
        unknown = set(payload) - known
        if unknown:
            raise ConfigError(
                f"unknown deployment field(s): "
                f"{', '.join(sorted(unknown))}")
        return cls(**dict(payload))


@dataclass
class GraphPartition:
    """One destination range's edges, with its streaming schedule.

    ``graph`` keeps global vertex ids (frontier masks and property
    registers line up across partitions); ``col_lo``/``col_hi`` is the
    destination range the partition owns for apply accounting.
    """

    index: int
    graph: Graph
    streamer: SubgraphStreamer
    col_lo: int = 0
    col_hi: int = 0


def partition_by_destination(graph: Graph,
                             bounds: Sequence[Tuple[int, int]],
                             config: GraphRConfig) -> List[GraphPartition]:
    """Split a graph into destination-range partitions (stripes).

    Each partition holds every edge whose destination falls in its
    ``[lo, hi)`` range — column partitioning, so every node reduces its
    own vertices and no cross-partition reduction is needed.
    """
    adj = graph.adjacency
    src = np.asarray(adj.rows)
    dst = np.asarray(adj.cols)
    values = np.asarray(adj.values)
    partitions = []
    for index, (lo, hi) in enumerate(bounds):
        mask = (dst >= lo) & (dst < hi)
        sub = COOMatrix(adj.shape, src[mask], dst[mask], values[mask])
        piece = Graph(adjacency=sub, name=f"{graph.name}[{lo}:{hi}]",
                      weighted=graph.weighted,
                      scale_factor=graph.scale_factor)
        partitions.append(GraphPartition(
            index=index, graph=piece,
            streamer=SubgraphStreamer(piece, config),
            col_lo=int(lo), col_hi=int(hi)))
    return partitions


# ----------------------------------------------------------------------
# Analytic event path
# ----------------------------------------------------------------------
def partition_pass_events(partition: GraphPartition,
                          pattern: MappingPattern,
                          frontier: Optional[np.ndarray],
                          work_factor: int,
                          config: GraphRConfig) -> IterationEvents:
    """One partition's event record for one pass.

    A partition with no active edge still streams past the controller
    (GraphR's disk/memory accesses are strictly sequential), so its
    ``scanned_edges`` are charged unless the selective-block-scan
    optimisation is on.  That matches the single-node streamer, which
    charges the full sequential scan whenever the pass has *any*
    active edge — but a pass with **zero** active edges anywhere
    (a frontier of sinks) charges nothing in the single-node analytic
    path, so callers must drop the whole pass's partition events when
    no partition saw an active edge (the in-memory early return).
    """
    events = partition.streamer.iteration_events(
        pattern, frontier=frontier, work_factor=work_factor)
    if frontier is not None and events.edges == 0 \
            and not config.selective_block_scan:
        events.scanned_edges = partition.graph.num_edges
    return events


def merge_events_apply_aside(merged: IterationEvents,
                             events: IterationEvents) -> None:
    """Fold partition events into a pass record, apply aside.

    ``apply_ops`` is a pass-level quantity (distinct destinations, or
    one apply per vertex in functional mode) — it never sums across
    partitions, so the partition's own count is preserved for
    node-level charging while the pass record gets it separately.
    """
    apply_ops = events.apply_ops
    events.apply_ops = 0
    merged.merge(events)
    events.apply_ops = apply_ops


def accumulate_pass_events(merged: IterationEvents,
                           touched: np.ndarray,
                           partition: GraphPartition,
                           events: IterationEvents,
                           frontier: Optional[np.ndarray]) -> None:
    """Fold one partition's events into a pass-level record.

    Block/subgraph/tile counts are globally unique per partition so
    they sum exactly; ``apply_ops`` (distinct destinations touched)
    must be deduplicated across partitions of the same block column,
    so destinations are marked in the shared ``touched`` mask and the
    caller sets ``merged.apply_ops`` from it once the pass ends.
    Incremental by design: out-of-core providers release each
    partition before loading the next.
    """
    merge_events_apply_aside(merged, events)
    dst = np.asarray(partition.graph.adjacency.cols)
    if frontier is None:
        touched[dst] = True
    else:
        active = frontier[np.asarray(partition.graph.adjacency.rows)]
        touched[dst[active]] = True


# ----------------------------------------------------------------------
# Functional path
# ----------------------------------------------------------------------
def engine_for_program(config: GraphRConfig,
                       program: VertexProgram) -> GraphEngine:
    """The functional engine with the program's fixed-point formats.

    Probability-style MAC programs get maximal fractional precision;
    general MAC programs need integer range for weighted coefficients;
    add-op programs store integer-valued addends.
    """
    if program.pattern is MappingPattern.PARALLEL_MAC:
        frac = (config.data_bits - 1
                if program.unit_interval_coefficients
                else config.frac_bits)
        fmt = FixedPointFormat(config.data_bits, frac)
    else:
        fmt = FixedPointFormat(config.data_bits, 0)
    return GraphEngine(config, coeff_fmt=fmt, input_fmt=fmt)


class PartitionedFunctionalRunner:
    """The controller's functional loop, executed partition by
    partition.

    Parameters
    ----------
    config / program:
        As for :class:`~repro.core.controller.Controller`.
    num_vertices:
        Global vertex count (partitions keep global ids).
    graph_view:
        Graph handed to the program hooks (``initial_properties``,
        ``source_input``, ``apply``).  Deployments that cannot hold the
        edge list pass an edgeless stand-in — the supported programs
        only consult the vertex count.
    out_degrees:
        Global out-degree vector (drives
        :meth:`~repro.algorithms.vertex_program.VertexProgram.edge_coefficients`).
    partitions:
        Zero-argument callable yielding the pass's
        :class:`GraphPartition` sequence in global streaming order; a
        fresh call per pass lets out-of-core providers stream from
        disk without retaining blocks.
    persistent_partitions:
        True when ``partitions`` returns the same objects every pass
        (in-memory deployments): the MAC cells of the cell path, or
        else the per-partition coefficients, are then computed once and
        cached.  Must stay False for streaming providers — caching
        would accumulate O(graph) arrays.
    """

    def __init__(self, config: GraphRConfig, program: VertexProgram,
                 num_vertices: int, graph_view: Graph,
                 out_degrees: np.ndarray,
                 partitions: Callable[[], Iterable[GraphPartition]],
                 engine: Optional[GraphEngine] = None,
                 persistent_partitions: bool = False) -> None:
        if program.name == "cf":
            raise MappingError(
                "collaborative filtering has matrix-valued properties; "
                "use analytic mode"
            )
        self.config = config
        self.program = program
        self.num_vertices = int(num_vertices)
        self.graph_view = graph_view
        self.out_degrees = np.asarray(out_degrees)
        self.partitions = partitions
        self.engine = engine or engine_for_program(config, program)
        self._coeff_cache: Optional[Dict[int, np.ndarray]] = \
            {} if persistent_partitions else None
        self._cell_cache: Optional[Dict[int, MacCells]] = \
            {} if persistent_partitions else None
        #: Whether the scans take the cell path (see the mappers).
        self.cell_path = (
            self.engine.exact_mac_cells
            if program.pattern is MappingPattern.PARALLEL_MAC
            else self.engine.exact_addop_cells)
        block = config.effective_block_size(self.num_vertices)
        # Same padding every partition's streamer derives.
        self._padded = -(-self.num_vertices // block) * block

    # ------------------------------------------------------------------
    def _edge_coefficients(self, partition: GraphPartition) -> np.ndarray:
        adj = partition.graph.adjacency
        return self.program.edge_coefficients(
            np.asarray(adj.rows), np.asarray(adj.values),
            self.out_degrees)

    def _coefficients(self, partition: GraphPartition) -> np.ndarray:
        if self._coeff_cache is None:
            return self._edge_coefficients(partition)
        coefficients = self._coeff_cache.get(partition.index)
        if coefficients is None:
            coefficients = self._edge_coefficients(partition)
            self._coeff_cache[partition.index] = coefficients
        return coefficients

    def _mac_cells(self, partition: GraphPartition) -> Optional[MacCells]:
        """The partition's programmed MAC cells, built on its first pass
        when partitions persist (streamed ones build theirs in each
        scan).  The coefficients are computed only to build them and
        are not kept: once the cells exist no pass reads them."""
        if not self.cell_path or self._cell_cache is None:
            return None
        cells = self._cell_cache.get(partition.index)
        if cells is None:
            cells = partition.streamer.mac_cells(
                self._edge_coefficients(partition), self.engine.coeff_fmt)
            self._cell_cache[partition.index] = cells
        return cells

    def _mac_pass(self, properties: np.ndarray):
        cfg = self.config
        n = self.num_vertices
        padded_inputs = np.zeros(self._padded + cfg.tile_cols)
        padded_inputs[:n] = self.program.source_input(properties,
                                                      self.graph_view)
        accum = np.zeros(self._padded + cfg.tile_cols)
        per_partition: List[IterationEvents] = []
        merged = IterationEvents()
        # Partitions are consumed one at a time and released — only
        # their (small) event records survive the loop.
        for partition in self.partitions():
            cells = self._mac_cells(partition)
            events = run_mac_scan(
                partition.streamer, self.engine, padded_inputs, accum,
                None if cells is not None
                else self._coefficients(partition),
                cells=cells)
            events.scanned_edges = partition.graph.num_edges
            events.apply_ops = partition.col_hi - partition.col_lo
            per_partition.append(events)
            merge_events_apply_aside(merged, events)
        new_properties = self.program.apply(accum[:n], properties,
                                            self.graph_view)
        # The single-node mapper applies every vertex once per pass.
        merged.apply_ops = n
        changed = ~np.isclose(new_properties, properties,
                              rtol=0.0, atol=cfg.tolerance)
        return new_properties, changed, merged, per_partition

    def _addop_pass(self, properties: np.ndarray,
                    frontier: Optional[np.ndarray]):
        cfg = self.config
        n = self.num_vertices
        absent = float(self.program.reduce_identity)
        reduce_op = self.program.reduce_op
        padded_dist = np.full(self._padded + cfg.tile_cols, absent)
        padded_dist[:n] = properties
        accum = np.full(self._padded + cfg.tile_cols, absent)
        accum[:n] = properties
        per_partition: List[IterationEvents] = []
        spans: List[Tuple[int, int]] = []
        merged = IterationEvents()
        for partition in self.partitions():
            events = run_addop_scan(
                partition.streamer, self.engine, padded_dist, accum,
                self._coefficients(partition), absent,
                frontier=frontier, reduce_op=reduce_op)
            events.scanned_edges = partition.graph.num_edges
            per_partition.append(events)
            spans.append((partition.col_lo, partition.col_hi))
            merge_events_apply_aside(merged, events)
        new_properties = accum[:n]
        changed = self.program.improved(new_properties, properties)
        for (lo, hi), events in zip(spans, per_partition):
            events.apply_ops = int(changed[lo:hi].sum())
        merged.apply_ops = int(changed.sum())
        merged.addop = True
        return new_properties, changed, merged, per_partition

    # ------------------------------------------------------------------
    def run(self, charge: Callable[[IterationEvents,
                                    List[IterationEvents]], float],
            max_iterations: Optional[int] = None,
            **program_kwargs) -> Tuple[AlgorithmResult, float]:
        """Run the functional loop; ``charge(merged, per_partition)``
        prices each pass (sequential deployments charge the merged
        record once, parallel ones max over partitions).

        Returns ``(result, seconds)`` where seconds excludes setup.
        """
        program = self.program
        n = self.num_vertices
        budget = (self.config.max_iterations if max_iterations is None
                  else max_iterations)
        properties = program.initial_properties(self.graph_view,
                                                **program_kwargs)
        frontier: Optional[np.ndarray] = None
        if program.needs_active_list:
            frontier = properties != program.reduce_identity

        trace = IterationTrace(
            frontiers=[] if program.needs_active_list else None)
        seconds = 0.0
        converged = False
        iterations = 0
        for iteration in range(1, budget + 1):
            if program.needs_active_list and not frontier.any():
                converged = True
                break
            iterations = iteration
            with tracing.span("iteration", index=iteration) as it_span:
                with tracing.span("sweep", path="cells" if self.cell_path
                                  else "tiles"):
                    if program.pattern is MappingPattern.PARALLEL_MAC:
                        new_props, changed, merged, per_partition = \
                            self._mac_pass(properties)
                    else:
                        new_props, changed, merged, per_partition = \
                            self._addop_pass(properties, frontier)
                with tracing.span("charge"):
                    seconds += charge(merged, per_partition)
                    trace.record(
                        vertices=(int(frontier.sum())
                                  if frontier is not None else n),
                        edges=merged.edges,
                        frontier=(frontier if program.needs_active_list
                                  else None),
                    )
                if it_span is not None:
                    it_span.annotate(active_edges=merged.edges)
                metrics.get_registry().counter(
                    "repro_active_edges_total",
                    "Active edges processed across all iterations"
                ).inc(merged.edges)
            done = program.has_converged(properties, new_props, iteration)
            properties = new_props
            if program.needs_active_list:
                frontier = changed
                done = not changed.any()
            if done:
                converged = True
                break
        result = AlgorithmResult(
            algorithm=program.name,
            values=properties,
            iterations=iterations,
            converged=converged,
            trace=trace,
        )
        return result, seconds
