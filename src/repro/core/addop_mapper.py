"""Parallel-add-op mapping (Section 4.2): SSSP/BFS relaxations.

One streaming-apply iteration: only subgraphs containing edges from
*active* sources are loaded; each active source row is presented in its
own time slot (one-hot wordline plus the bias row carrying
``dist(u)``), and the sALU's comparator array folds candidates into the
destination register with ``min`` (Figure 16 c3).  The iteration is
synchronous across subgraphs — destination updates become visible as
source values in the *next* iteration, exactly the semantics of the
frontier-driven Bellman-Ford reference.

A positive batch size on an engine without read noise
(:attr:`~repro.core.engine.GraphEngine.exact_addop_cells`) takes the
cell path: each active edge forms the tile path's saturating candidate
and one ``np.minimum.at`` (``np.maximum.at`` for widening) folds them
all into the register; min/max do not depend on order, and the
candidate is monotone in the weight, so this equals folding the merged
parallel edges cell by cell.  Tiles and touched rows are counted from
the active edges whose weight is stored (not the absent value).  Noisy
engines stack non-empty crossbar tiles into ``(batch, S, S)`` blocks
for :meth:`~repro.core.engine.GraphEngine.addop_batch`, and
``batch_size=0`` runs the per-tile loop; all three are bit-identical.
Parallel edges merge with ``min`` (``max`` for widening) in every path
— only the winning candidate survives the comparator anyway.

:func:`run_addop_scan` is the scan alone, folding into a
caller-provided padded register; the partitioned-execution layer runs
one scan per partition of the same pass, so partitioned and
whole-graph iterations execute the identical crossbar stream.  Columns
no edge reaches are never folded on the cell path, where the tile path
folds the identity into them: that is a no-op, because callers seed
``accum`` with properties on the identity's side.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.algorithms.vertex_program import MappingPattern, VertexProgram
from repro.core.cost import IterationEvents
from repro.core.engine import GraphEngine
from repro.core.streaming import SubgraphStreamer
from repro.graph.graph import Graph

__all__ = ["run_addop_iteration", "run_addop_scan"]


def run_addop_scan(
    streamer: SubgraphStreamer,
    engine: GraphEngine,
    padded_dist: np.ndarray,
    accum: np.ndarray,
    coefficients: np.ndarray,
    absent: float,
    frontier: Optional[np.ndarray] = None,
    batch_size: Optional[int] = None,
    reduce_op: str = "min",
) -> IterationEvents:
    """Stream one graph (or partition) of add-op work into ``accum``.

    ``padded_dist`` holds the pass's (old) source values and ``accum``
    the folded candidates, both padded to ``padded_vertices +
    tile_cols``; convergence/frontier bookkeeping is the caller's job.
    ``reduce_op`` selects the comparator polarity: ``"min"`` relaxes
    (SSSP/BFS/WCC), ``"max"`` widens (SSWP) — parallel edges merge with
    the same operation, since only the winning candidate survives the
    fold either way.
    """
    cfg = streamer.config
    s = cfg.crossbar_size
    if batch_size is None:
        batch_size = cfg.functional_batch_size

    fold_at = np.minimum.at if reduce_op == "min" else np.maximum.at
    fold = np.minimum if reduce_op == "min" else np.maximum
    if batch_size > 0 and engine.exact_addop_cells:
        active, weights, sources, destinations = streamer.active_edges(
            coefficients, frontier)
        candidates, stored = engine.addop_cells(
            weights, padded_dist[sources], absent, reduce_op)
        fold_at(accum, destinations, candidates)
        return streamer.cell_events(MappingPattern.PARALLEL_ADD_OP,
                                    active, stored)

    events = IterationEvents()
    all_rows = np.arange(s)
    if batch_size > 0:
        for batch in streamer.iter_tile_batches(
                coefficients, batch_size, frontier=frontier,
                fill_value=absent, combine=reduce_op):
            source_values = padded_dist[batch.row_bases[:, None]
                                        + all_rows]
            out, tile_events = engine.addop_batch(batch.dense,
                                                  source_values, absent,
                                                  reduce_op=reduce_op)
            fold_at(accum, batch.col_bases[:, None] + all_rows, out)
            events.merge(tile_events)
            events.edges += batch.edges
            events.subgraphs += batch.subgraph_starts
    else:
        for batch in streamer.iter_tile_batches(
                coefficients, 1, frontier=frontier,
                fill_value=absent, combine=reduce_op):
            row = int(batch.row_bases[0])
            col = int(batch.col_bases[0])
            source_values = padded_dist[row:row + s]
            # All-absent rows fold to the identity, so presenting every
            # row is equivalent to presenting only the active ones.
            out, tile_events = engine.addop_tile(batch.dense[0],
                                                 source_values,
                                                 all_rows, absent,
                                                 reduce_op=reduce_op)
            accum[col:col + s] = fold(accum[col:col + s], out)
            events.merge(tile_events)
            events.edges += batch.edges
            events.subgraphs += batch.subgraph_starts
    events.addop = True
    return events


def run_addop_iteration(
    streamer: SubgraphStreamer,
    engine: GraphEngine,
    program: VertexProgram,
    graph: Graph,
    properties: np.ndarray,
    coefficients: np.ndarray,
    frontier: Optional[np.ndarray] = None,
    batch_size: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray, IterationEvents]:
    """Execute one parallel-add-op iteration functionally.

    Returns ``(new_properties, changed_mask, events)``; the changed
    mask is the next iteration's frontier (the paper's active
    indicators).
    """
    cfg = streamer.config
    n = graph.num_vertices
    absent = float(program.reduce_identity)
    padded = streamer.ordering.padded_vertices

    padded_dist = np.full(padded + cfg.tile_cols, absent)
    padded_dist[:n] = properties
    accum = np.full(padded + cfg.tile_cols, absent)
    accum[:n] = properties

    events = run_addop_scan(streamer, engine, padded_dist, accum,
                            coefficients, absent, frontier=frontier,
                            batch_size=batch_size,
                            reduce_op=program.reduce_op)

    new_properties = accum[:n]
    changed = program.improved(new_properties, properties)
    events.apply_ops += int(changed.sum())
    events.scanned_edges = graph.num_edges
    events.addop = True
    return new_properties, changed, events
