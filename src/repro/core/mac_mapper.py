"""Parallel-MAC mapping (Section 4.1): PageRank-style iterations.

One streaming-apply iteration: every non-empty subgraph is written to
the GEs, the source properties are driven once, and the bitline sums
accumulate into the destination register through the sALU's ``add``.
After the full scan the per-vertex ``apply`` step (e.g. PageRank's
teleport term) produces the new property vector.

A positive batch size on a clean engine
(:attr:`~repro.core.engine.GraphEngine.exact_mac_cells`) takes the cell
path: the partition's programmed cells (:class:`MacCells`, built once
per run by the caller or here) are contracted with one gather-multiply
and one segmented integer sum per pass, and each (crossbar, column)
sum lands in the accumulator in crossbar order.  Noisy or variational
engines, and scans restricted to a frontier, stack
``functional_batch_size`` non-empty ``S x S`` crossbar tiles per
:meth:`~repro.core.engine.GraphEngine.mac_batch` call instead
(vectorised scatter + one einsum per batch).  ``batch_size=0`` selects
the per-tile reference loop, which walks the same crossbar stream one
tile at a time.  All three are bit-identical — same duplicate-edge
sums, exact integer contractions, same accumulation order per column,
same RNG draw order — which the unit suite asserts.

:func:`run_mac_scan` is the scan alone, accumulating into a
caller-provided padded register: the partitioned-execution layer runs
one scan per partition (disk block, cluster stripe) of the same pass
and applies once at the end, so partitioned and whole-graph iterations
execute the identical crossbar stream.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Tuple

import numpy as np

from repro.algorithms.vertex_program import VertexProgram
from repro.core.cost import IterationEvents
from repro.core.engine import GraphEngine
from repro.core.streaming import MacCells, SubgraphStreamer
from repro.graph.graph import Graph

__all__ = ["run_mac_iteration", "run_mac_scan"]


def run_mac_scan(
    streamer: SubgraphStreamer,
    engine: GraphEngine,
    padded_inputs: np.ndarray,
    accum: np.ndarray,
    coefficients: Optional[np.ndarray],
    frontier: Optional[np.ndarray] = None,
    batch_size: Optional[int] = None,
    cells: Optional[MacCells] = None,
) -> IterationEvents:
    """Stream one graph (or partition) of MAC work into ``accum``.

    ``padded_inputs`` and ``accum`` are padded property registers of
    length ``padded_vertices + tile_cols`` shared across every scan of
    the same pass; the per-vertex ``apply`` step is the caller's job.
    ``cells`` are the streamer's :meth:`~SubgraphStreamer.mac_cells`
    for these coefficients, when the caller keeps them across passes;
    the cell path then never reads ``coefficients``, which may be None.
    Returns the scan's tile/edge events (``scanned_edges`` and
    ``apply_ops`` are pass-level quantities the caller charges).
    """
    cfg = streamer.config
    s = cfg.crossbar_size
    if batch_size is None:
        batch_size = cfg.functional_batch_size

    if batch_size > 0 and frontier is None and engine.exact_mac_cells:
        if cells is None:
            cells = streamer.mac_cells(coefficients, engine.coeff_fmt)
        # Segments are in crossbar order and ufunc.at applies them in
        # element order, so each column accumulates like the tile loop
        # (which also adds +0.0 for its empty columns).
        np.add.at(accum, cells.destinations,
                  engine.mac_cells(cells, padded_inputs))
        return replace(cells.events)

    events = IterationEvents()
    if batch_size > 0:
        span = np.arange(s)
        for batch in streamer.iter_tile_batches(
                coefficients, batch_size, frontier=frontier,
                fill_value=0.0, combine="add"):
            inputs = padded_inputs[batch.row_bases[:, None] + span]
            out, tile_events = engine.mac_batch(batch.dense, inputs)
            # ufunc.at applies updates in element order, so columns
            # shared between tiles accumulate exactly like the
            # per-tile loop does.
            np.add.at(accum, batch.col_bases[:, None] + span, out)
            events.merge(tile_events)
            events.edges += batch.edges
            events.subgraphs += batch.subgraph_starts
    else:
        for batch in streamer.iter_tile_batches(
                coefficients, 1, frontier=frontier,
                fill_value=0.0, combine="add"):
            row = int(batch.row_bases[0])
            col = int(batch.col_bases[0])
            inputs = padded_inputs[row:row + s]
            out, tile_events = engine.mac_tile(batch.dense[0], inputs)
            accum[col:col + s] += out
            events.merge(tile_events)
            events.edges += batch.edges
            events.subgraphs += batch.subgraph_starts
    return events


def run_mac_iteration(
    streamer: SubgraphStreamer,
    engine: GraphEngine,
    program: VertexProgram,
    graph: Graph,
    properties: np.ndarray,
    coefficients: np.ndarray,
    frontier: Optional[np.ndarray] = None,
    batch_size: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray, IterationEvents]:
    """Execute one parallel-MAC iteration functionally.

    Parameters
    ----------
    coefficients:
        Per-edge crossbar coefficients, aligned with the *original*
        edge order of ``graph.adjacency`` (``tile.edge_ids`` indexes
        into it).  Duplicate edges sum into their shared cell, matching
        :meth:`~repro.graph.coo.COOMatrix.to_dense`.
    batch_size:
        Tiles per batched engine call (clean engines take the cell
        path instead); ``None`` reads the config's
        ``functional_batch_size`` and ``0`` runs the per-tile loop.

    Returns ``(new_properties, changed_mask, events)``.
    """
    cfg = streamer.config
    n = graph.num_vertices
    padded = streamer.ordering.padded_vertices
    # Pad once so tiles at the matrix edge slice uniformly.
    padded_inputs = np.zeros(padded + cfg.tile_cols)
    padded_inputs[:n] = program.source_input(properties, graph)
    accum = np.zeros(padded + cfg.tile_cols)

    events = run_mac_scan(streamer, engine, padded_inputs, accum,
                          coefficients, frontier=frontier,
                          batch_size=batch_size)

    new_properties = program.apply(accum[:n], properties, graph)
    events.apply_ops += n
    events.scanned_edges = graph.num_edges
    changed = ~np.isclose(new_properties, properties,
                          rtol=0.0, atol=cfg.tolerance)
    return new_properties, changed, events
