"""Parallel-MAC mapping (Section 4.1): PageRank-style iterations.

One streaming-apply iteration: every non-empty subgraph is written to
the GEs, the source properties are driven once, and the bitline sums
accumulate into the destination register through the sALU's ``add``.
After the full scan the per-vertex ``apply`` step (e.g. PageRank's
teleport term) produces the new property vector.

A clean engine (:attr:`~repro.core.engine.GraphEngine.exact_mac_cells`)
takes the cell path: the partition's programmed cells
(:class:`MacCells`, built once per run by the caller or here) are
contracted with one gather-multiply and one segmented integer sum per
pass, and each (crossbar, column) sum lands in the accumulator in
crossbar order.  Noisy or variational engines stack
``functional_batch_size`` non-empty ``S x S`` crossbar tiles per
:meth:`~repro.core.engine.GraphEngine.mac_batch` call instead
(vectorised scatter + one einsum per batch).  Both are bit-identical —
same duplicate-edge sums, exact integer contractions, same
accumulation order per column — which the unit suite asserts against
the tile batches at a batch size of one.

:func:`run_mac_scan` is the scan alone, accumulating into a
caller-provided padded register: the partitioned-execution layer runs
one scan per partition (disk block, cluster stripe) of the same pass
and applies once at the end, so partitioned and whole-graph iterations
execute the identical crossbar stream.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

import numpy as np

from repro.core.cost import IterationEvents
from repro.core.engine import GraphEngine
from repro.core.streaming import MacCells, SubgraphStreamer

__all__ = ["run_mac_scan"]


def run_mac_scan(
    streamer: SubgraphStreamer,
    engine: GraphEngine,
    padded_inputs: np.ndarray,
    accum: np.ndarray,
    coefficients: Optional[np.ndarray],
    cells: Optional[MacCells] = None,
) -> IterationEvents:
    """Stream one graph (or partition) of MAC work into ``accum``.

    ``padded_inputs`` and ``accum`` are padded property registers of
    length ``padded_vertices + tile_cols`` shared across every scan of
    the same pass; the per-vertex ``apply`` step is the caller's job.
    ``coefficients`` are aligned with the partition's original edge
    order; parallel edges sum into their shared cell, matching
    :meth:`~repro.graph.coo.COOMatrix.to_dense`.  ``cells`` are the
    streamer's :meth:`~SubgraphStreamer.mac_cells` for these
    coefficients, when the caller keeps them across passes; the cell
    path then never reads ``coefficients``, which may be None.
    Returns the scan's tile/edge events (``scanned_edges`` and
    ``apply_ops`` are pass-level quantities the caller charges).
    """
    if engine.exact_mac_cells:
        if cells is None:
            cells = streamer.mac_cells(coefficients, engine.coeff_fmt)
        # Segments are in crossbar order and ufunc.at applies them in
        # element order, so each column accumulates like the tile
        # batches (which also add +0.0 for their empty columns).
        np.add.at(accum, cells.destinations,
                  engine.mac_cells(cells, padded_inputs))
        return replace(cells.events)

    cfg = streamer.config
    events = IterationEvents()
    span = np.arange(cfg.crossbar_size)
    for batch in streamer.iter_tile_batches(
            coefficients, cfg.functional_batch_size,
            fill_value=0.0, combine="add"):
        inputs = padded_inputs[batch.row_bases[:, None] + span]
        out, tile_events = engine.mac_batch(batch.dense, inputs)
        # ufunc.at applies updates in element order, so columns
        # shared between tiles accumulate in streaming order whatever
        # the batch size.
        np.add.at(accum, batch.col_bases[:, None] + span, out)
        events.merge(tile_events)
        events.edges += batch.edges
        events.subgraphs += batch.subgraph_starts
    return events
