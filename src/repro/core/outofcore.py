"""Out-of-core GraphR workflow (Figure 9): one packed, streaming-ordered
shard, read back in multi-block chunks.

The paper's deployment: a software framework preprocesses the edge list
once, stores it on disk in block/subgraph order (Section 3.4), and a
GraphR node consumes it block by block over sequential I/O.  This
module makes that pipeline concrete:

* :func:`prepare_on_disk` — sort the edge list into streaming order
  once (:func:`~repro.graph.preprocess.preprocess_edge_list`) and write
  it as raw little-endian columns (``src``/``dst`` int32, ``values``
  float64), next to int64 per-block edge offsets, the out-degree
  vector and a JSON manifest (written last) holding the two per-block
  facts a run needs before it reads an edge: the non-empty subgraph
  census and the largest block's edge count;
* :class:`OutOfCoreRunner` — validate the shard once when it opens
  (offsets monotone and ending at ``num_edges``, column file sizes,
  degree table length and sum), then serve every pass as *chunks*:
  runs of consecutive blocks holding at most ``max_block_edges``
  edges, each read with one positioned read per column, checked edge
  by edge against the blocks its offset range names, and executed as
  one partition.  Disk I/O time/energy is charged on top (the paper's
  execution-time numbers exclude it, so the runner reports both views).

Chunks stream in the global column-major block order, so the node's
tile stream is the same sequence a whole-graph run produces.  Analytic
values come from the algorithm's
:class:`~repro.algorithms.kernels.StreamKernel`, its one exact
evaluator: an in-memory analytic run (the ``*_reference`` function)
feeds it the whole edge list as one chunk, this runner the shard's
chunks.  Functional values come from the shared partitioned loop.  Both
are bit-identical to in-memory runs on the same preprocessed edge list
(asserted by tests), because chunking only regroups that one stream:
subgraph, tile and row ids are global, so event counts sum exactly,
and ``ufunc.at`` calls in stream order equal one call.

Two residency figures are kept apart.  ``stats.extra
["peak_edge_residency"]`` is the modelled node's: it consumes one block
at a time and holds block ``k - 1`` while ``k`` loads, so it is derived
from the block edge counts (see :func:`node_edge_residency`).
:attr:`OutOfCoreRunner.peak_edge_residency` is the host's, measured by
a garbage-collection-tracking counter over the chunks actually held; it
stays at most two chunks, hence ``2 * max_block_edges``.
"""

from __future__ import annotations

import json
import os
import weakref
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple, Union

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
from repro.graph.partition import distinct_count
from repro.graph.preprocess import (GraphROrdering, global_order_id,
                                    preprocess_edge_list)
from repro.hw.params import DiskParams
from repro.hw.stats import RunStats
from repro.obs import metrics, tracing

__all__ = ["LAYOUT_VERSION", "prepare_on_disk", "plan_chunks",
           "node_edge_residency", "OutOfCoreRunner", "BlockManifest"]

#: Version of the on-disk layout below; the manifest records it and the
#: runner refuses any other.
LAYOUT_VERSION = 2

_MANIFEST = "manifest.json"
#: Per-edge columns in streaming order: file name and little-endian dtype.
_COLUMNS: Dict[str, Tuple[str, str]] = {
    "src": ("src.i32", "<i4"),
    "dst": ("dst.i32", "<i4"),
    "values": ("values.f64", "<f8"),
}
#: ``blocks + 1`` int64 edge offsets, block ``k`` owning
#: ``[offsets[k], offsets[k + 1])`` (column-major block order).
_OFFSETS = "offsets.i64"
#: Global out-degree per vertex, int64.
_DEGREES = "degrees.i64"


@dataclass(frozen=True)
class BlockManifest:
    """What :func:`prepare_on_disk` wrote.

    ``nonempty_subgraphs`` counts the distinct non-empty subgraphs plus
    one per empty block, the census of a node that builds one streamer
    per block (an empty streamer reports one subgraph); it feeds auto
    mode and ``stats.extra``.  ``max_block_edges`` bounds every chunk.
    """

    name: str
    num_vertices: int
    num_edges: int
    block_size: int
    blocks_per_side: int
    weighted: bool
    nonempty_subgraphs: int
    max_block_edges: int


def prepare_on_disk(graph: Graph, directory: Union[str, Path],
                    config: GraphRConfig) -> BlockManifest:
    """Preprocess ``graph`` once and persist it as one packed shard.

    The streaming-ordered edge list is written column by column; the
    per-block offsets come from one ``bincount``/``cumsum`` over the
    edges' column-major block ids.  The manifest is written last.
    """
    n = graph.num_vertices
    if n >= 2 ** 31:
        raise ConfigError(
            f"{graph.name}: {n} vertices do not fit the shard's int32 "
            f"vertex columns")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    block = config.effective_block_size(n)
    ordering = GraphROrdering(
        num_vertices=n,
        block_size=block,
        crossbar_size=config.crossbar_size,
        crossbars_per_ge=config.logical_crossbars_per_ge,
        num_ges=config.num_ges,
    )
    ordered = preprocess_edge_list(graph.adjacency, ordering)
    rows = np.asarray(ordered.rows)
    cols = np.asarray(ordered.cols)
    side = ordering.blocks_per_side
    counts = np.bincount(rows // block + side * (cols // block),
                         minlength=side * side)
    subgraphs = global_order_id(ordering, rows, cols) \
        // ordering.entries_per_subgraph

    rows.astype("<i4").tofile(directory / _COLUMNS["src"][0])
    cols.astype("<i4").tofile(directory / _COLUMNS["dst"][0])
    np.asarray(ordered.values).astype("<f8").tofile(
        directory / _COLUMNS["values"][0])
    np.concatenate(([0], np.cumsum(counts))).astype("<i8").tofile(
        directory / _OFFSETS)
    np.bincount(rows, minlength=n).astype("<i8").tofile(
        directory / _DEGREES)

    manifest = BlockManifest(
        name=graph.name,
        num_vertices=n,
        num_edges=graph.num_edges,
        block_size=block,
        blocks_per_side=side,
        weighted=graph.weighted,
        nonempty_subgraphs=(distinct_count(subgraphs, presorted=True)
                            + int(np.count_nonzero(counts == 0))),
        max_block_edges=int(counts.max()),
    )
    (directory / _MANIFEST).write_text(json.dumps(
        dict(asdict(manifest), layout=LAYOUT_VERSION), indent=2))
    return manifest


def _read_manifest(directory: Path) -> BlockManifest:
    path = directory / _MANIFEST
    try:
        payload = json.loads(path.read_text())
        layout = payload.get("layout")
        if layout != LAYOUT_VERSION:
            raise GraphFormatError(
                f"{path}: shard layout {layout!r}, this reader needs "
                f"{LAYOUT_VERSION}; re-run prepare_on_disk")
        return BlockManifest(**{field.name: payload[field.name]
                                for field in fields(BlockManifest)})
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise GraphFormatError(f"{path}: malformed manifest ({exc})") \
            from exc


def plan_chunks(offsets: np.ndarray, max_edges: int) -> np.ndarray:
    """Block boundaries of the chunks one pass reads.

    Chunk ``c`` covers blocks ``[bounds[c], bounds[c + 1])``: greedily as
    many consecutive blocks as hold at most ``max_edges`` edges, and at
    least one block, so a bound below the largest block still advances.
    One ``searchsorted`` per chunk, none per block.
    """
    last = offsets.size - 1
    bounds = [0]
    while bounds[-1] < last:
        lo = bounds[-1]
        hi = int(np.searchsorted(offsets, offsets[lo] + max_edges,
                                 side="right")) - 1
        bounds.append(min(max(hi, lo + 1), last))
    return np.asarray(bounds, dtype=np.int64)


def node_edge_residency(block_edges: np.ndarray, wrap: bool) -> int:
    """Peak edges a block-at-a-time node holds, from its block sizes.

    The node keeps block ``k - 1`` while block ``k`` loads, so the peak
    is the largest neighbouring pair (or the first block alone).  With
    ``wrap`` the last block of one pass is also still held while the
    next pass loads block 0, as the analytic sweep's handover does
    between passes.
    """
    counts = np.asarray(block_edges, dtype=np.int64)
    if counts.size == 0:
        return 0
    peak = int(counts[0])
    if counts.size > 1:
        peak = max(peak, int((counts[1:] + counts[:-1]).max()))
    if wrap:
        peak = max(peak, int(counts[-1] + counts[0]))
    return peak


class OutOfCoreRunner:
    """Drive a GraphR node over a prepared shard (Figure 9).

    Opening the runner validates the shard once: offsets, column sizes
    and the degree table.  Each pass then streams the shard in global
    (column-major) block order as chunks of consecutive blocks
    (:attr:`chunk_bounds`), checks every chunk's edges against its
    blocks, executes the algorithm chunk by chunk in the configuration's
    execution mode, and adds the disk-side costs: every pass streams the
    whole shard sequentially.  Only the vertex property arrays and the
    chunk in flight (plus its predecessor during the handover) are ever
    resident.
    """

    def __init__(self, directory: Union[str, Path],
                 config: GraphRConfig | None = None,
                 disk: DiskParams | None = None) -> None:
        self.directory = Path(directory)
        if not (self.directory / _MANIFEST).exists():
            raise ConfigError(
                f"{self.directory} has no manifest; run prepare_on_disk"
            )
        self.manifest = _read_manifest(self.directory)
        self.config = config or GraphRConfig(mode="analytic")
        self.disk = disk or DiskParams()
        self._offsets, self._out_degrees = self._open_shard()
        #: Block boundaries of each pass's chunks (see
        #: :func:`plan_chunks`); replacing it regroups the stream
        #: without changing any result.
        self.chunk_bounds = plan_chunks(self._offsets,
                                        self.manifest.max_block_edges)
        self._resident_edges = 0
        self._peak_residency = 0

    # ------------------------------------------------------------------
    @property
    def peak_edge_residency(self) -> int:
        """Most edge records this process held at once so far."""
        return self._peak_residency

    def _table(self, filename: str, length: int) -> np.ndarray:
        """A whole int64 side table, checked for its length."""
        path = self.directory / filename
        if not path.is_file():
            raise GraphFormatError(f"{path}: missing")
        table = np.fromfile(path, dtype="<i8")
        if table.size != length:
            raise GraphFormatError(
                f"{path}: {table.size} entries, expected {length}")
        return table

    def _open_shard(self) -> Tuple[np.ndarray, np.ndarray]:
        """Validate the shard's layout once; returns its offsets and
        out-degree table."""
        m = self.manifest
        side = m.blocks_per_side
        if m.block_size <= 0 or side != -(-m.num_vertices // m.block_size):
            raise GraphFormatError(
                f"{self.directory}: {side} blocks per side do not tile "
                f"{m.num_vertices} vertices in blocks of {m.block_size}")
        offsets = self._table(_OFFSETS, side * side + 1)
        counts = np.diff(offsets)
        if offsets[0] != 0 or offsets[-1] != m.num_edges:
            raise GraphFormatError(
                f"{self.directory / _OFFSETS}: offsets span "
                f"[{offsets[0]}, {offsets[-1]}], manifest says "
                f"{m.num_edges} edges")
        if (counts < 0).any():
            raise GraphFormatError(
                f"{self.directory / _OFFSETS}: offsets are not monotone")
        if counts.max() != m.max_block_edges:
            raise GraphFormatError(
                f"{self.directory / _OFFSETS}: largest block holds "
                f"{counts.max()} edges, manifest says {m.max_block_edges}")
        for filename, dtype in _COLUMNS.values():
            path = self.directory / filename
            expected = m.num_edges * np.dtype(dtype).itemsize
            size = path.stat().st_size if path.is_file() else None
            if size != expected:
                raise GraphFormatError(
                    f"{path}: {size} bytes, expected {expected} for "
                    f"{m.num_edges} edges")
        degrees = self._table(_DEGREES, m.num_vertices)
        if (degrees < 0).any() or degrees.sum() != m.num_edges:
            raise GraphFormatError(
                f"{self.directory / _DEGREES}: degrees sum to "
                f"{degrees.sum()}, manifest says {m.num_edges} edges")
        return offsets, degrees.astype(np.int64)

    def _column(self, name: str, start: int, count: int) -> np.ndarray:
        filename, dtype = _COLUMNS[name]
        data = np.fromfile(self.directory / filename, dtype=dtype,
                           count=count,
                           offset=start * np.dtype(dtype).itemsize)
        if data.size != count:
            raise GraphFormatError(
                f"{self.directory / filename}: truncated at edge "
                f"{start + data.size}")
        return data

    def _read_chunk(self, lo: int, hi: int) -> Graph:
        """Blocks ``[lo, hi)`` as one graph, each edge checked to lie in
        the block its offset range names."""
        m = self.manifest
        block, side = m.block_size, m.blocks_per_side
        start = int(self._offsets[lo])
        count = int(self._offsets[hi]) - start
        src = self._column("src", start, count).astype(np.int64)
        dst = self._column("dst", start, count).astype(np.int64)
        values = self._column("values", start, count)
        expected = np.repeat(np.arange(lo, hi, dtype=np.int64),
                             np.diff(self._offsets[lo:hi + 1]))
        wrong = np.flatnonzero(src // block + side * (dst // block)
                               != expected)
        if wrong.size:
            k = int(wrong[0])
            bj, bi = divmod(int(expected[k]), side)
            raise GraphFormatError(
                f"{self.directory}: edge {start + k} "
                f"({src[k]} -> {dst[k]}) lies outside block ({bi}, {bj}) "
                f"bounds [{bi * block}, {(bi + 1) * block}) x "
                f"[{bj * block}, {(bj + 1) * block})")
        n = m.num_vertices
        return Graph(adjacency=COOMatrix((n, n), src, dst, values),
                     name=f"{m.name}#blocks{lo}-{hi}",
                     weighted=m.weighted)

    def _release_edges(self, num_edges: int) -> None:
        self._resident_edges -= num_edges

    def iter_partitions(self) -> Iterator[GraphPartition]:
        """Stream the shard as chunk partitions, one resident at a time.

        Chunks arrive in global streaming order.  The residency counter
        decrements when a chunk's graph is actually garbage-collected
        (weakref finalizer), so it measures what is truly live: a
        consumer that retains partitions drives the counter towards
        O(graph), and the honest steady state is at most two chunks —
        the consumer still references chunk ``c`` while ``c+1`` loads.
        """
        m = self.manifest
        side, block = m.blocks_per_side, m.block_size
        bounds = self.chunk_bounds
        for index in range(bounds.size - 1):
            lo, hi = int(bounds[index]), int(bounds[index + 1])
            graph = self._read_chunk(lo, hi)
            self._resident_edges += graph.num_edges
            self._peak_residency = max(self._peak_residency,
                                       self._resident_edges)
            weakref.finalize(graph, self._release_edges,
                             graph.num_edges)
            yield GraphPartition(
                index=index, graph=graph,
                streamer=SubgraphStreamer(graph, self.config),
                col_lo=lo // side * block,
                col_hi=min(((hi - 1) // side + 1) * block,
                           m.num_vertices),
            )
            del graph

    # ------------------------------------------------------------------
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
        per-pass sequential shard streaming (algorithm passes plus the
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
            # slots once per chunk — the ablation only means something
            # on the in-memory single node.
            raise ConfigError(
                "the skip_empty_subgraphs=False ablation is supported "
                "on the in-memory single node only"
            )
        manifest = self.manifest
        self._peak_residency = self._resident_edges
        max_iterations = kwargs.get("max_iterations")

        chosen = mode or config.mode
        if chosen == "auto":
            chosen = choose_execution_mode(config, program,
                                           manifest.nonempty_subgraphs,
                                           max_iterations)
        if chosen not in ("analytic", "functional"):
            raise ConfigError(
                f"unsupported out-of-core execution mode {chosen!r}"
            )

        stats = RunStats(platform="graphr", algorithm=program.name,
                         dataset=manifest.name)
        stats.seconds += config.setup_overhead_s
        stats.latency.add("setup", config.setup_overhead_s)
        cost = CostModel(config)

        if chosen == "analytic":
            result, passes = self._run_analytic(program, cost, stats,
                                                reference_kwargs)
        else:
            result = self._run_functional(program, cost, stats,
                                          max_iterations, init_kwargs)
            passes = 0

        stats.iterations = result.iterations
        stats.extra["mode"] = chosen
        stats.extra["deployment"] = "out-of-core"
        stats.extra["nonempty_subgraphs"] = manifest.nonempty_subgraphs
        stats.extra["subgraph_slots"] = self._total_subgraph_slots()
        stats.extra["config"] = config_summary(config)

        # Disk-side accounting: every pass streams the whole shard
        # sequentially, plus the one preprocessing/metadata scan.
        bytes_per_pass = manifest.num_edges * EDGE_BYTES
        disk_passes = max(1, stats.iterations) + 1
        disk_seconds = (disk_passes * bytes_per_pass
                        / self.disk.sequential_bandwidth_bps)
        stats.extra["seconds_with_disk"] = stats.seconds + disk_seconds
        stats.extra["disk_seconds"] = disk_seconds
        stats.extra["blocks"] = manifest.blocks_per_side ** 2
        stats.extra["peak_edge_residency"] = node_edge_residency(
            np.diff(self._offsets), wrap=passes >= 2)
        stats.extra["max_block_edges"] = manifest.max_block_edges
        stats.energy.charge_joules("disk",
                                   self.disk.power_w * disk_seconds)
        return result, stats

    # ------------------------------------------------------------------
    def _run_analytic(self, program, cost: CostModel, stats: RunStats,
                      reference_kwargs: Dict[str, object]):
        """Streamed exact kernel + per-pass merged event charging.

        Returns the result and the number of passes made.
        """
        n = self.manifest.num_vertices
        kernel = get_stream_kernel(program.name)(
            n, self._out_degrees, **reference_kwargs)
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
        return kernel.result(), iteration

    def _run_functional(self, program, cost: CostModel, stats: RunStats,
                        max_iterations: Optional[int],
                        init_kwargs: Dict[str, object]):
        """Device-model execution over the chunk stream."""
        runner = PartitionedFunctionalRunner(
            self.config, program, self.manifest.num_vertices,
            graph_view=self._graph_view(),
            out_degrees=self._out_degrees,
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
