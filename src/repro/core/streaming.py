"""Streaming-apply scheduler (Section 3.3, Figure 11).

:class:`SubgraphStreamer` owns the preprocessed edge order of one graph
under one :class:`~repro.core.config.GraphRConfig` and serves both
execution modes:

* :meth:`iter_subgraphs` — yields non-empty subgraph tiles in the
  global streaming order (column-major blocks, column-major subgraphs)
  for the Figure 10 instruction trace (:mod:`repro.core.isa`);
* :meth:`iter_tile_batches` — stacks consecutive non-empty ``S x S``
  crossbar tiles into dense ``(batch, S, S)`` blocks with one
  vectorised scatter over the preprocessed edge arrays (no per-tile
  Python work), feeding the functional engine of noisy, variational
  and too-wide configs; crossbar granularity is the hardware's
  sparsity skip — empty crossbars inside a subgraph are never
  materialised.  Its crossbar index is built on the first call, so
  analytic and clean functional runs never pay for it;
* :meth:`mac_cells` / :meth:`active_edges` — the functional cell path
  of clean engines: a partition's programmed MAC cells (built once per
  run), or one pass's active edges, with :meth:`cell_events` counting
  the event record the tile path would have counted;
* :meth:`iteration_events` — vectorised event extraction (non-empty
  subgraphs / crossbar tiles / touched rows / presentations) for the
  analytic cost path, optionally restricted to an active-source
  frontier.

All views derive from the same per-edge precomputation, so functional
and analytic runs of the same iteration count identical events.

Ordering invariant: edges are stored sorted by global order ID, and a
subgraph, crossbar or block id is a non-decreasing function of that ID,
so each of those per-edge id arrays is non-decreasing, and stays so
under any frontier mask.  The analytic counts rely on it: distinct ids
are a boundary count over runs, with no sort and no hashing.  Row keys
and destinations are not ordered and are counted on a sorted copy.
``np.unique`` is avoided on this path because without a ``return_*``
flag numpy 2.3 and later hash, which costs far more than sorting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

import numpy as np

from repro.algorithms.vertex_program import MappingPattern
from repro.core.config import GraphRConfig
from repro.core.cost import IterationEvents
from repro.errors import PartitionError
from repro.graph.graph import Graph
from repro.graph.partition import distinct_count, run_starts
from repro.graph.preprocess import GraphROrdering, global_order_id
from repro.reram.fixed_point import FixedPointFormat

__all__ = ["MacCells", "SubgraphStreamer", "Tile", "TileBatch"]


@dataclass
class Tile:
    """One non-empty subgraph in streaming order.

    Coordinates are split into the global vertex ranges the tile covers
    (``row_base`` + ``tile_rows`` sources, ``col_base`` + ``tile_cols``
    destinations) and tile-local edge arrays.
    """

    index: int
    row_base: int
    col_base: int
    rows_local: np.ndarray
    cols_local: np.ndarray
    edge_ids: np.ndarray

    @property
    def nnz(self) -> int:
        """Edges in the tile."""
        return int(self.rows_local.shape[0])


@dataclass
class TileBatch:
    """A stack of consecutive non-empty crossbar tiles in streaming
    order.

    ``dense`` is a ``(count, S, S)`` block of scattered coefficients —
    a *view into a reused buffer*, valid only until the next batch is
    produced; consumers must not retain it.  ``row_bases`` /
    ``col_bases`` give each crossbar tile's global vertex origin,
    ``edges`` counts the edge records scattered into the batch, and
    ``subgraph_starts`` counts the subgraphs whose first active
    crossbar lies in this batch (so summing it over an iteration's
    batches counts distinct active subgraphs exactly once).
    """

    dense: np.ndarray
    row_bases: np.ndarray
    col_bases: np.ndarray
    edges: int
    subgraph_starts: int

    @property
    def count(self) -> int:
        """Crossbar tiles stacked in this batch."""
        return int(self.dense.shape[0])


@dataclass
class _CrossbarIndex:
    """Keys of the tile-batch scatter: each edge's non-empty crossbar
    ordinal and in-crossbar column (streaming order), and each
    crossbar's subgraph and global vertex origin."""

    ordinal_of_edge: np.ndarray
    col_in_crossbar: np.ndarray
    subgraph: np.ndarray
    row_base: np.ndarray
    col_base: np.ndarray


@dataclass
class MacCells:
    """The programmed crossbar cells of one graph's MAC matrix.

    One entry per cell whose parallel-edge coefficient sum encodes to a
    non-zero code, in streaming order: ``codes`` in the narrowest
    unsigned dtype that holds the format's codes, and ``sources``, the
    source vertex that drives the cell's row.  ``segment_starts``
    indexes the first cell of each (crossbar, column) segment and
    ``destinations`` holds that column's vertex.  ``events`` is the
    event record of every pass over the cells.
    """

    codes: np.ndarray
    sources: np.ndarray
    segment_starts: np.ndarray
    destinations: np.ndarray
    events: IterationEvents


class SubgraphStreamer:
    """Precomputed streaming order of one (graph, config) pair."""

    def __init__(self, graph: Graph, config: GraphRConfig) -> None:
        self.graph = graph
        self.config = config
        block = config.effective_block_size(graph.num_vertices)
        self.ordering = GraphROrdering(
            num_vertices=graph.num_vertices,
            block_size=block,
            crossbar_size=config.crossbar_size,
            crossbars_per_ge=config.logical_crossbars_per_ge,
            num_ges=config.num_ges,
        )
        rows = np.asarray(graph.adjacency.rows)
        cols = np.asarray(graph.adjacency.cols)
        gid = global_order_id(self.ordering, rows, cols)

        # Sort edges into streaming order once (the Section 3.4 pass).
        order = np.argsort(gid, kind="stable")
        self._perm = order
        self._gid = gid[order]
        self._src = rows[order]
        self._dst = cols[order]

        per_tile = self.ordering.entries_per_subgraph
        s = config.crossbar_size
        self._subgraph_of_edge = self._gid // per_tile
        sub_order = self._gid % per_tile
        self._row_in_tile = sub_order % s
        self._col_in_tile = sub_order // s
        self._crossbar_of_edge = (
            self._subgraph_of_edge * config.logical_crossbars
            + self._col_in_tile // s
        )
        self._rowkey_of_edge = (
            self._crossbar_of_edge * s + self._row_in_tile
        )

        # Subgraph boundaries (iter_subgraphs, num_nonempty_subgraphs).
        self._boundaries = np.flatnonzero(
            np.concatenate(([True],
                            self._subgraph_of_edge[1:]
                            != self._subgraph_of_edge[:-1]))
        )
        # Built by the first tile batch (see _crossbar_index).
        self._crossbars: Optional[_CrossbarIndex] = None
        # Scratch buffer reused across batches and iterations.
        self._batch_buffer: Optional[np.ndarray] = None

        # Block-level bookkeeping for the selective-scan optimisation.
        grid_r, grid_c = self.ordering.subgraph_grid
        per_block = grid_r * grid_c
        self._block_of_edge = self._subgraph_of_edge // per_block
        num_blocks = self.ordering.blocks_per_side ** 2
        self._block_edge_counts = np.bincount(
            self._block_of_edge, minlength=num_blocks).astype(np.int64)

    # ------------------------------------------------------------------
    @property
    def num_nonempty_subgraphs(self) -> int:
        """Non-empty subgraphs in the whole graph."""
        return int(self._boundaries.size)

    @property
    def total_subgraph_slots(self) -> int:
        """All subgraph positions, empty ones included."""
        o = self.ordering
        grid_r, grid_c = o.subgraph_grid
        return o.blocks_per_side ** 2 * grid_r * grid_c

    # ------------------------------------------------------------------
    def _subgraph_origins(self, subgraph_indices: np.ndarray
                          ) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorised global (source, destination) origins of subgraph
        slots."""
        o = self.ordering
        grid_r, grid_c = o.subgraph_grid
        per_block = grid_r * grid_c
        idx = np.asarray(subgraph_indices, dtype=np.int64)
        block_order, within = np.divmod(idx, per_block)
        block_j, block_i = np.divmod(block_order, o.blocks_per_side)
        tile_j, tile_i = np.divmod(within, grid_r)
        rows = block_i * o.block_size + tile_i * o.tile_rows
        cols = block_j * o.block_size + tile_j * o.tile_cols
        return rows, cols

    def _crossbar_index(self) -> _CrossbarIndex:
        """The tile batches' crossbar index, built on the first call.

        The streaming sort is column-major inside each subgraph, so the
        sorted edges are also grouped by ``S x S`` crossbar tile: each
        run of equal crossbar ids is one non-empty crossbar, numbered
        in streaming order.
        """
        if self._crossbars is None:
            s = self.config.crossbar_size
            per_subgraph = self.config.logical_crossbars
            first = run_starts(self._crossbar_of_edge)
            keys = self._crossbar_of_edge[first]
            subgraphs = keys // per_subgraph
            rows, cols = self._subgraph_origins(subgraphs)
            self._crossbars = _CrossbarIndex(
                ordinal_of_edge=np.cumsum(first, dtype=np.int64) - 1,
                col_in_crossbar=self._col_in_tile % s,
                subgraph=subgraphs,
                row_base=rows,
                col_base=cols + (keys % per_subgraph) * s,
            )
        return self._crossbars

    def _source_mask(self, frontier: np.ndarray) -> np.ndarray:
        """Per-edge (streaming order) mask of active-source edges."""
        frontier = np.asarray(frontier, dtype=bool)
        if frontier.shape != (self.graph.num_vertices,):
            raise PartitionError("frontier length must equal |V|")
        return frontier[self._src]

    def subgraph_origin(self, subgraph_index: int) -> tuple[int, int]:
        """Global (source, destination) vertex origin of a subgraph slot."""
        rows, cols = self._subgraph_origins(
            np.asarray([subgraph_index], dtype=np.int64))
        return int(rows[0]), int(cols[0])

    def iter_subgraphs(self,
                       frontier: Optional[np.ndarray] = None
                       ) -> Iterator[Tile]:
        """Yield non-empty subgraphs in streaming order.

        ``frontier`` (boolean over vertices) restricts to subgraphs
        containing at least one edge from an active source; the tile's
        edge arrays still contain only active-source edges, matching
        the controller's active-list filtering.
        """
        starts = self._boundaries
        stops = np.concatenate((starts[1:], [self._gid.size]))
        for start, stop in zip(starts, stops):
            sl = slice(int(start), int(stop))
            src = self._src[sl]
            if frontier is not None:
                keep = frontier[src]
                if not keep.any():
                    continue
                src = src[keep]
                dst = self._dst[sl][keep]
                edge_ids = self._perm[sl][keep]
                rows_in = self._row_in_tile[sl][keep]
            else:
                dst = self._dst[sl]
                edge_ids = self._perm[sl]
                rows_in = self._row_in_tile[sl]
            sub_index = int(self._subgraph_of_edge[start])
            row_base, col_base = self.subgraph_origin(sub_index)
            yield Tile(
                index=sub_index,
                row_base=row_base,
                col_base=col_base,
                rows_local=rows_in,
                cols_local=dst - col_base,
                edge_ids=edge_ids,
            )

    # ------------------------------------------------------------------
    def iter_tile_batches(self, coefficients: np.ndarray,
                          batch_size: int,
                          frontier: Optional[np.ndarray] = None,
                          fill_value: float = 0.0,
                          combine: str = "add") -> Iterator[TileBatch]:
        """Yield stacked ``(batch, S, S)`` dense crossbar blocks in
        streaming order, built by one vectorised scatter per batch.

        ``coefficients`` is aligned with the *original* edge order of
        the graph's adjacency (like :attr:`Tile.edge_ids` indexing);
        ``frontier`` restricts the scatter to edges from active sources
        and drops crossbar tiles left empty, exactly like
        :meth:`iter_subgraphs` drops subgraphs.  Duplicate coordinates
        are merged by ``combine`` — ``"add"`` sums parallel edges (MAC
        semantics, matching
        :meth:`~repro.graph.coo.COOMatrix.to_dense`), ``"min"`` keeps
        the lightest (relaxation semantics) and ``"max"`` the widest
        (bottleneck semantics).  The ``dense`` block of each yielded
        batch is a view into one reused scratch buffer (initialised to
        ``fill_value``), so consumers must finish with a batch before
        advancing the iterator.
        """
        if batch_size <= 0:
            raise PartitionError("batch_size must be positive")
        if combine not in ("add", "min", "max"):
            raise PartitionError(f"unknown combine mode {combine!r}")
        index = self._crossbar_index()
        values = np.asarray(coefficients, dtype=np.float64)[self._perm]
        ordinals = index.ordinal_of_edge
        rows = self._row_in_tile
        cols = index.col_in_crossbar
        if frontier is not None:
            keep = self._source_mask(frontier)
            values = values[keep]
            rows = rows[keep]
            cols = cols[keep]
            active, ordinals = np.unique(ordinals[keep],
                                         return_inverse=True)
        else:
            active = np.arange(index.row_base.size, dtype=np.int64)
        if active.size == 0:
            return
        row_bases = index.row_base[active]
        col_bases = index.col_base[active]
        # A subgraph "starts" at its first active crossbar; summing the
        # per-batch start counts therefore counts each active subgraph
        # exactly once, however batches split its crossbars.
        sub_start = run_starts(index.subgraph[active])
        sub_starts_before = np.concatenate(([0], np.cumsum(sub_start)))
        # Edges arrive sorted by streaming order, hence by ordinal:
        # every batch of crossbar tiles owns one contiguous edge range.
        counts = np.bincount(ordinals, minlength=active.size)
        starts = np.concatenate(([0], np.cumsum(counts)))

        s = self.config.crossbar_size
        if self._batch_buffer is None or \
                self._batch_buffer.shape[0] < min(batch_size, active.size):
            self._batch_buffer = np.empty((batch_size, s, s))
        scatter = {"add": np.add.at, "min": np.minimum.at,
                   "max": np.maximum.at}[combine]
        for base in range(0, active.size, batch_size):
            stop = min(base + batch_size, active.size)
            dense = self._batch_buffer[:stop - base]
            dense.fill(fill_value)
            span = slice(starts[base], starts[stop])
            scatter(dense, (ordinals[span] - base, rows[span],
                            cols[span]), values[span])
            yield TileBatch(
                dense=dense,
                row_bases=row_bases[base:stop],
                col_bases=col_bases[base:stop],
                edges=int(starts[stop] - starts[base]),
                subgraph_starts=int(sub_starts_before[stop]
                                    - sub_starts_before[base]),
            )

    # ------------------------------------------------------------------
    def mac_cells(self, coefficients: np.ndarray,
                  coeff_fmt: FixedPointFormat) -> MacCells:
        """The programmed cells of this graph's MAC matrix.

        ``coefficients`` is aligned with the original edge order, as
        for :meth:`iter_tile_batches`.  Parallel edges share an order id,
        so they are adjacent in streaming order; their coefficients sum
        in that order with the same ``np.add.at`` the tile scatter uses,
        and each sum is encoded once.  Cells whose code is zero are
        never programmed, so they hold no entry and their tiles and rows
        are not counted.
        """
        first = run_starts(self._gid)
        cell_of_edge = np.cumsum(first, dtype=np.int32) - 1
        sums = np.zeros(int(np.count_nonzero(first)))
        np.add.at(sums, cell_of_edge,
                  np.asarray(coefficients, dtype=np.float64)[self._perm])
        del cell_of_edge
        codes = coeff_fmt.encode(sums)
        programmed = codes != 0
        cells = np.flatnonzero(first)[programmed]
        # A (crossbar, column) segment is a run of equal gid // S: the
        # order within a subgraph is column-major.
        segment_starts = np.flatnonzero(
            run_starts(self._gid[cells] // self.config.crossbar_size))
        return MacCells(
            codes=codes[programmed].astype(
                np.min_scalar_type(coeff_fmt.max_code)),
            sources=self._src[cells].astype(np.int32),
            segment_starts=segment_starts,
            destinations=self._dst[cells[segment_starts]].astype(np.int32),
            events=self.cell_events(MappingPattern.PARALLEL_MAC,
                                    slice(None), cells),
        )

    def active_edges(self, coefficients: np.ndarray,
                     frontier: Optional[np.ndarray] = None
                     ) -> Tuple[object, np.ndarray, np.ndarray,
                                np.ndarray]:
        """``(active, weights, sources, destinations)`` of one pass's
        active-source edges, in streaming order.

        ``active`` selects those edges from the streaming order (all of
        them when ``frontier`` is None) and is what :meth:`cell_events`
        takes; ``coefficients`` is aligned with the original edge order.
        """
        if frontier is None:
            active = slice(None)
        else:
            active = np.flatnonzero(self._source_mask(frontier))
        weights = np.asarray(coefficients,
                             dtype=np.float64)[self._perm[active]]
        return active, weights, self._src[active], self._dst[active]

    def cell_events(self, pattern: MappingPattern, active,
                    stored) -> IterationEvents:
        """The event record the tile path counts for one pass.

        ``active`` selects the pass's edges from the streaming order and
        ``stored``, among those, the edges whose cell holds a value.
        Subgraphs count every active edge, as the tile scatter does;
        crossbar tiles and touched rows count stored cells only, as the
        engine's tile events do.
        """
        subgraphs = self._subgraph_of_edge[active]
        tiles = distinct_count(self._crossbar_of_edge[active][stored],
                               presorted=True)
        touched_rows = distinct_count(self._rowkey_of_edge[active][stored])
        mac = pattern is MappingPattern.PARALLEL_MAC
        presentations = tiles if mac else touched_rows
        return IterationEvents(
            edges=int(subgraphs.size),
            subgraphs=distinct_count(subgraphs, presorted=True),
            tiles=tiles,
            presentations=presentations,
            touched_rows=touched_rows,
            reduce_ops=presentations * self.config.crossbar_size,
            addop=not mac,
        )

    # ------------------------------------------------------------------
    def iteration_events(self, pattern: MappingPattern,
                         frontier: Optional[np.ndarray] = None,
                         work_factor: int = 1) -> IterationEvents:
        """Event counts of one iteration (the analytic path).

        ``work_factor`` multiplies presentations/reduces for algorithms
        that make several passes per iteration (collaborative filtering
        presents once per feature).  Programming work does *not* scale
        with it: the coefficients are static across passes, so tiles are
        written once per subgraph step regardless of how many vectors
        are driven through them.

        Distinct subgraphs, crossbar tiles and blocks are boundary
        counts: their per-edge ids are non-decreasing in streaming
        order (the module's ordering invariant), and a frontier mask
        keeps that order.  Touched row keys and destinations are
        counted on sorted copies; the streamer's own arrays are never
        sorted in place, because with no frontier the mask selects them
        whole.  None of this calls ``np.unique``, which hashes on numpy
        2.3 and later when no ``return_*`` flag is given.
        """
        if frontier is None:
            mask = slice(None)
            edges = int(self._gid.size)
        else:
            mask = self._source_mask(frontier)
            edges = int(np.count_nonzero(mask))
            if edges == 0:
                return IterationEvents()

        if self.config.skip_empty_subgraphs:
            subgraphs = distinct_count(self._subgraph_of_edge[mask],
                                       presorted=True)
            tiles = distinct_count(self._crossbar_of_edge[mask],
                                   presorted=True)
            touched_rows = distinct_count(self._rowkey_of_edge[mask])
        else:
            # Ablation: without sparsity skipping, every subgraph slot is
            # streamed and every crossbar/row in it pays program/compute.
            subgraphs = self.total_subgraph_slots
            tiles = subgraphs * self.config.logical_crossbars
            touched_rows = tiles * self.config.crossbar_size
        if pattern is MappingPattern.PARALLEL_MAC:
            presentations = tiles
        else:
            presentations = touched_rows
        presentations *= work_factor
        s = self.config.crossbar_size
        destinations = distinct_count(self._dst[mask])

        # Selective block scan (optimisation study, off by default —
        # the paper's controller streams every block): with per-block
        # activity metadata, blocks without any active-source edge need
        # not be read from memory ReRAM at all.
        if self.config.selective_block_scan and frontier is not None:
            blocks = self._block_of_edge[mask]
            active_blocks = blocks[run_starts(blocks)]
            scanned = int(self._block_edge_counts[active_blocks].sum())
        else:
            scanned = int(self._gid.size)
        return IterationEvents(
            edges=edges,
            scanned_edges=scanned,
            subgraphs=subgraphs,
            tiles=tiles,
            presentations=presentations,
            touched_rows=touched_rows,
            reduce_ops=presentations * s,
            apply_ops=destinations,
            addop=pattern is MappingPattern.PARALLEL_ADD_OP,
        )
