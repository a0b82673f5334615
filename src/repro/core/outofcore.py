"""Out-of-core GraphR workflow (Figure 9), with explicit disk blocks.

The paper's deployment: a software framework preprocesses the edge list
once, stores it on disk ordered by block/subgraph (Section 3.4), and a
GraphR node consumes one block at a time over sequential I/O.  This
module makes that pipeline concrete:

* :func:`prepare_on_disk` — preprocess a graph and write one binary
  file per block into a directory (the "disk");
* :class:`OutOfCoreRunner` — iterate an algorithm by streaming blocks
  from that directory **one at a time** (never reassembling the edge
  list: peak in-memory edge residency is O(block) — at most two blocks
  during the load handover — measured by a garbage-collection-tracking
  ``peak_edge_residency`` counter in ``stats.extra``), running the
  accelerator per block, and charging disk I/O time/energy (which the
  paper's execution-time numbers exclude — the runner reports both
  views).

Blocks stream in the global column-major block order, so the node's
tile stream is the same sequence a whole-graph run produces; analytic
values come from the algorithm's chunked
:class:`~repro.algorithms.kernels.StreamKernel` and functional values
from the shared partitioned loop, and both are bit-identical to
in-memory runs on the same preprocessed edge list (asserted by tests).
Blocking changes where the data lives, never what is computed.
"""

from __future__ import annotations

import json
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.algorithms.registry import (get_stream_kernel,
                                       resolve_program)
from repro.core.accelerator import (choose_execution_mode,
                                    config_summary)
from repro.core.config import GraphRConfig
from repro.core.cost import EDGE_BYTES, CostModel, IterationEvents
from repro.core.partitioned import (
    GraphPartition,
    PartitionedFunctionalRunner,
    accumulate_pass_events,
    partition_pass_events,
)
from repro.core.streaming import SubgraphStreamer
from repro.errors import ConfigError, GraphFormatError
from repro.graph.coo import COOMatrix
from repro.graph.graph import Graph
from repro.graph.io import load_binary, save_binary
from repro.graph.partition import BlockPartition
from repro.graph.preprocess import GraphROrdering, preprocess_edge_list
from repro.hw.params import DiskParams
from repro.hw.stats import RunStats
from repro.obs import metrics, tracing

__all__ = ["prepare_on_disk", "OutOfCoreRunner", "BlockManifest"]

_MANIFEST = "manifest.json"


@dataclass(frozen=True)
class BlockManifest:
    """What :func:`prepare_on_disk` wrote."""

    name: str
    num_vertices: int
    num_edges: int
    block_size: int
    blocks_per_side: int
    weighted: bool
    files: Tuple[str, ...]


def prepare_on_disk(graph: Graph, directory: Union[str, Path],
                    config: GraphRConfig) -> BlockManifest:
    """Preprocess ``graph`` and persist it block by block.

    Each ``B x B`` vertex block becomes one binary file holding its
    edges in streaming-apply order; a JSON manifest ties them together.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    block = config.effective_block_size(graph.num_vertices)
    ordering = GraphROrdering(
        num_vertices=graph.num_vertices,
        block_size=block,
        crossbar_size=config.crossbar_size,
        crossbars_per_ge=config.logical_crossbars_per_ge,
        num_ges=config.num_ges,
    )
    ordered = preprocess_edge_list(graph.adjacency, ordering)
    partition = BlockPartition(graph.num_vertices, block)

    rows = np.asarray(ordered.rows)
    cols = np.asarray(ordered.cols)
    values = np.asarray(ordered.values)
    files: List[str] = []
    for bi, bj in partition.iter_blocks():
        lo_r, hi_r = bi * block, (bi + 1) * block
        lo_c, hi_c = bj * block, (bj + 1) * block
        mask = ((rows >= lo_r) & (rows < hi_r)
                & (cols >= lo_c) & (cols < hi_c))
        piece = COOMatrix((graph.num_vertices, graph.num_vertices),
                          rows[mask], cols[mask], values[mask])
        filename = f"block_{bi}_{bj}.bin"
        save_binary(Graph(adjacency=piece, name=filename,
                          weighted=graph.weighted),
                    directory / filename)
        files.append(filename)

    manifest = BlockManifest(
        name=graph.name,
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        block_size=block,
        blocks_per_side=partition.blocks_per_side,
        weighted=graph.weighted,
        files=tuple(files),
    )
    (directory / _MANIFEST).write_text(json.dumps({
        "name": manifest.name,
        "num_vertices": manifest.num_vertices,
        "num_edges": manifest.num_edges,
        "block_size": manifest.block_size,
        "blocks_per_side": manifest.blocks_per_side,
        "weighted": manifest.weighted,
        "files": list(manifest.files),
    }, indent=2))
    return manifest


def _read_manifest(directory: Path) -> BlockManifest:
    payload = json.loads((directory / _MANIFEST).read_text())
    return BlockManifest(
        name=payload["name"],
        num_vertices=payload["num_vertices"],
        num_edges=payload["num_edges"],
        block_size=payload["block_size"],
        blocks_per_side=payload["blocks_per_side"],
        weighted=payload["weighted"],
        files=tuple(payload["files"]),
    )


@dataclass
class _DiskMetadata:
    """Vertex-level facts gathered by the preprocessing scan."""

    out_degrees: np.ndarray
    nonempty_subgraphs: int
    max_block_edges: int


class OutOfCoreRunner:
    """Drive a GraphR node over a block directory (Figure 9).

    The runner streams the block files in global (column-major) block
    order — verifying per-block integrity on the way — executes the
    algorithm one block at a time in the configuration's execution
    mode, and adds the disk-side costs: every pass streams all blocks
    from disk sequentially.  Only the vertex property arrays and the
    block in flight (plus its predecessor during the handover) are
    ever resident.
    """

    def __init__(self, directory: Union[str, Path],
                 config: GraphRConfig | None = None,
                 disk: DiskParams | None = None,
                 mmap_blocks: bool = False) -> None:
        self.directory = Path(directory)
        #: Attach block files as zero-copy read-only mmap views instead
        #: of heap copies.  The block files are immutable content-keyed
        #: artifacts, so this changes only where the bytes live; the
        #: residency counter still counts each block's edges the same
        #: way and every computed value is bit-identical.
        self.mmap_blocks = bool(mmap_blocks)
        if not (self.directory / _MANIFEST).exists():
            raise ConfigError(
                f"{self.directory} has no manifest; run prepare_on_disk"
            )
        self.manifest = _read_manifest(self.directory)
        side = self.manifest.blocks_per_side
        if len(self.manifest.files) != side ** 2:
            raise GraphFormatError(
                f"manifest lists {len(self.manifest.files)} block files "
                f"for a {side}x{side} grid"
            )
        self.config = config or GraphRConfig(mode="analytic")
        self.disk = disk or DiskParams()
        self._metadata: Optional[_DiskMetadata] = None
        self._resident_edges = 0
        self._peak_residency = 0

    # ------------------------------------------------------------------
    @property
    def peak_edge_residency(self) -> int:
        """Most edge records held in memory at once so far."""
        return self._peak_residency

    def _validate_block(self, index: int, piece: Graph) -> None:
        """Per-block integrity: vertex space and block bounds."""
        manifest = self.manifest
        filename = manifest.files[index]
        if piece.num_vertices != manifest.num_vertices:
            raise GraphFormatError(
                f"{filename}: vertex count mismatch with manifest"
            )
        side = manifest.blocks_per_side
        block = manifest.block_size
        bi, bj = index % side, index // side
        rows = np.asarray(piece.adjacency.rows)
        cols = np.asarray(piece.adjacency.cols)
        if rows.size == 0:
            return
        if (rows.min() < bi * block or rows.max() >= (bi + 1) * block
                or cols.min() < bj * block
                or cols.max() >= (bj + 1) * block):
            raise GraphFormatError(
                f"{filename}: edges outside block ({bi}, {bj}) bounds "
                f"[{bi * block}, {(bi + 1) * block}) x "
                f"[{bj * block}, {(bj + 1) * block})"
            )

    def _release_edges(self, num_edges: int) -> None:
        self._resident_edges -= num_edges

    def iter_partitions(self) -> Iterator[GraphPartition]:
        """Stream blocks as partitions, one resident at a time.

        Blocks arrive in the manifest's (column-major, i.e. global
        streaming) order.  The residency counter decrements when a
        block's graph is actually garbage-collected (weakref
        finalizer), so it measures what is truly live: a consumer that
        retains partitions drives the counter towards O(graph), and
        the honest steady state is at most two blocks — the consumer
        still references block ``k`` while ``k+1`` loads.
        """
        manifest = self.manifest
        side = manifest.blocks_per_side
        block = manifest.block_size
        n = manifest.num_vertices
        for index, filename in enumerate(manifest.files):
            piece = load_binary(self.directory / filename,
                                mmap=self.mmap_blocks)
            self._validate_block(index, piece)
            graph = Graph(adjacency=piece.adjacency,
                          name=f"{manifest.name}#{filename}",
                          weighted=manifest.weighted)
            del piece
            self._resident_edges += graph.num_edges
            self._peak_residency = max(self._peak_residency,
                                       self._resident_edges)
            weakref.finalize(graph, self._release_edges,
                             graph.num_edges)
            bj = index // side
            yield GraphPartition(
                index=index, graph=graph,
                streamer=SubgraphStreamer(graph, self.config),
                col_lo=bj * block,
                col_hi=min((bj + 1) * block, n),
            )
            del graph

    # ------------------------------------------------------------------
    def load_graph(self) -> Graph:
        """Concatenate the block files back into one (ordered) graph.

        Not used by :meth:`run` — it exists for tests and for callers
        that want the preprocessed edge list in memory (e.g. to compare
        against an in-memory run of the same deployment input).
        """
        rows: List[np.ndarray] = []
        cols: List[np.ndarray] = []
        values: List[np.ndarray] = []
        total = 0
        for index, filename in enumerate(self.manifest.files):
            piece = load_binary(self.directory / filename,
                                mmap=self.mmap_blocks)
            self._validate_block(index, piece)
            rows.append(np.asarray(piece.adjacency.rows))
            cols.append(np.asarray(piece.adjacency.cols))
            values.append(np.asarray(piece.adjacency.values))
            total += piece.num_edges
        if total != self.manifest.num_edges:
            raise GraphFormatError(
                f"block files hold {total} edges, manifest says "
                f"{self.manifest.num_edges}"
            )
        n = self.manifest.num_vertices
        coo = COOMatrix((n, n), np.concatenate(rows),
                        np.concatenate(cols), np.concatenate(values))
        return Graph(adjacency=coo, name=self.manifest.name,
                     weighted=self.manifest.weighted)

    # ------------------------------------------------------------------
    def _scan_metadata(self) -> _DiskMetadata:
        """One preprocessing pass: global degrees, subgraph census and
        integrity checks — all O(|V|) state."""
        if self._metadata is not None:
            return self._metadata
        n = self.manifest.num_vertices
        out_degrees = np.zeros(n, dtype=np.int64)
        nonempty = 0
        max_block = 0
        total = 0
        for partition in self.iter_partitions():
            adj = partition.graph.adjacency
            out_degrees += np.bincount(np.asarray(adj.rows), minlength=n)
            nonempty += partition.streamer.num_nonempty_subgraphs
            max_block = max(max_block, adj.nnz)
            total += adj.nnz
        if total != self.manifest.num_edges:
            raise GraphFormatError(
                f"block files hold {total} edges, manifest says "
                f"{self.manifest.num_edges}"
            )
        self._metadata = _DiskMetadata(
            out_degrees=out_degrees,
            nonempty_subgraphs=nonempty,
            max_block_edges=max_block,
        )
        return self._metadata

    def _graph_view(self) -> Graph:
        """Edgeless stand-in handed to program hooks (they only consult
        the vertex count; the edges stay on disk)."""
        n = self.manifest.num_vertices
        empty = COOMatrix((n, n), np.zeros(0, dtype=np.int64),
                          np.zeros(0, dtype=np.int64), np.zeros(0))
        return Graph(adjacency=empty, name=self.manifest.name,
                     weighted=self.manifest.weighted)

    def _total_subgraph_slots(self) -> int:
        ordering = GraphROrdering(
            num_vertices=self.manifest.num_vertices,
            block_size=self.manifest.block_size,
            crossbar_size=self.config.crossbar_size,
            crossbars_per_ge=self.config.logical_crossbars_per_ge,
            num_ges=self.config.num_ges,
        )
        grid_r, grid_c = ordering.subgraph_grid
        return ordering.blocks_per_side ** 2 * grid_r * grid_c

    # ------------------------------------------------------------------
    def run(self, algorithm: str, mode: Optional[str] = None,
            **kwargs) -> Tuple[object, RunStats]:
        """Execute ``algorithm`` out of core, honouring the execution
        mode (``mode`` argument, else ``config.mode``; ``auto``
        resolves exactly like the in-memory accelerator).

        The returned stats carry two timings: ``stats.seconds`` is the
        paper-comparable execution time (disk I/O excluded, Section
        5.2) and ``stats.extra["seconds_with_disk"]`` includes the
        per-pass sequential block streaming (algorithm passes plus the
        one preprocessing scan).
        """
        program, reference_kwargs, init_kwargs = resolve_program(
            algorithm, kwargs)
        if program.name == "cf":
            raise ConfigError(
                "collaborative filtering is not supported out-of-core: "
                "its matrix-valued factor state has no streamed kernel; "
                "run it on the in-memory accelerator"
            )
        config = self.config
        if not config.skip_empty_subgraphs:
            # Each partition's streamer reports the whole grid's slot
            # count, so summing over partitions would bill the empty
            # slots once per block — the ablation only means something
            # on the in-memory single node.
            raise ConfigError(
                "the skip_empty_subgraphs=False ablation is supported "
                "on the in-memory single node only"
            )
        self._resident_edges = 0
        self._peak_residency = 0
        with tracing.span("scan-metadata",
                          blocks=len(self.manifest.files)):
            meta = self._scan_metadata()
        max_iterations = kwargs.get("max_iterations")

        chosen = mode or config.mode
        if chosen == "auto":
            chosen = choose_execution_mode(config, program,
                                           meta.nonempty_subgraphs,
                                           max_iterations)
        if chosen not in ("analytic", "functional"):
            raise ConfigError(
                f"unsupported out-of-core execution mode {chosen!r}"
            )

        n = self.manifest.num_vertices
        stats = RunStats(platform="graphr", algorithm=program.name,
                         dataset=self.manifest.name)
        stats.seconds += config.setup_overhead_s
        stats.latency.add("setup", config.setup_overhead_s)
        cost = CostModel(config)

        if chosen == "analytic":
            result = self._run_analytic(program, meta, cost, stats,
                                        reference_kwargs)
        else:
            result = self._run_functional(program, meta, cost, stats,
                                          max_iterations, init_kwargs)

        stats.iterations = result.iterations
        stats.extra["mode"] = chosen
        stats.extra["deployment"] = "out-of-core"
        stats.extra["nonempty_subgraphs"] = meta.nonempty_subgraphs
        stats.extra["subgraph_slots"] = self._total_subgraph_slots()
        stats.extra["config"] = config_summary(config)

        # Disk-side accounting: every pass streams every block
        # sequentially, plus the one preprocessing/metadata scan.
        bytes_per_pass = self.manifest.num_edges * EDGE_BYTES
        passes = max(1, stats.iterations) + 1
        disk_seconds = (passes * bytes_per_pass
                        / self.disk.sequential_bandwidth_bps)
        stats.extra["seconds_with_disk"] = stats.seconds + disk_seconds
        stats.extra["disk_seconds"] = disk_seconds
        stats.extra["blocks"] = len(self.manifest.files)
        stats.extra["peak_edge_residency"] = self._peak_residency
        stats.extra["max_block_edges"] = meta.max_block_edges
        stats.energy.charge_joules("disk",
                                   self.disk.power_w * disk_seconds)
        return result, stats

    # ------------------------------------------------------------------
    def _run_analytic(self, program, meta: _DiskMetadata,
                      cost: CostModel, stats: RunStats,
                      reference_kwargs: Dict[str, object]):
        """Streamed exact kernel + per-pass merged event charging."""
        n = self.manifest.num_vertices
        kernel = get_stream_kernel(program.name)(
            n, meta.out_degrees, **reference_kwargs)
        iteration = 0
        while not kernel.finished:
            iteration += 1
            with tracing.span("iteration", index=iteration) as it_span:
                frontier = kernel.frontier
                kernel.begin_pass()
                merged = IterationEvents()
                touched = np.zeros(n, dtype=bool)
                with tracing.span("sweep"):
                    for partition in self.iter_partitions():
                        adj = partition.graph.adjacency
                        kernel.process_edges(np.asarray(adj.rows),
                                             np.asarray(adj.cols),
                                             np.asarray(adj.values))
                        events = partition_pass_events(
                            partition, program.pattern, frontier,
                            work_factor=1, config=self.config)
                        accumulate_pass_events(merged, touched,
                                               partition, events,
                                               frontier)
                if frontier is not None and merged.edges == 0:
                    # A frontier of sinks activates no edge anywhere;
                    # the single-node streamer charges such a pass
                    # nothing (early return), so mirror it exactly.
                    merged = IterationEvents()
                else:
                    merged.apply_ops = int(np.count_nonzero(touched))
                kernel.end_pass()
                with tracing.span("charge"):
                    stats.seconds += cost.charge_iteration(
                        merged, stats.energy, stats.latency)
                if it_span is not None:
                    it_span.annotate(active_edges=merged.edges)
                metrics.get_registry().counter(
                    "repro_active_edges_total",
                    "Active edges processed across all iterations"
                ).inc(merged.edges)
        return kernel.result()

    def _run_functional(self, program, meta: _DiskMetadata,
                        cost: CostModel, stats: RunStats,
                        max_iterations: Optional[int],
                        init_kwargs: Dict[str, object]):
        """Device-model execution over the block stream."""
        runner = PartitionedFunctionalRunner(
            self.config, program, self.manifest.num_vertices,
            graph_view=self._graph_view(),
            out_degrees=meta.out_degrees,
            partitions=self.iter_partitions,
        )

        def charge(merged: IterationEvents, per_partition) -> float:
            # Accumulate straight into the stats so the floating-point
            # summation order matches the in-memory controller's
            # (setup + pass + pass + ...) exactly.
            seconds = cost.charge_iteration(merged, stats.energy,
                                            stats.latency)
            stats.seconds += seconds
            return seconds

        result, _ = runner.run(charge, max_iterations=max_iterations,
                               **init_kwargs)
        return result
