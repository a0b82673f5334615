"""Parallel-add-op mapping (Section 4.2): SSSP/BFS relaxations.

One streaming-apply iteration: only subgraphs containing edges from
*active* sources are loaded; each active source row is presented in its
own time slot (one-hot wordline plus the bias row carrying
``dist(u)``), and the sALU's comparator array folds candidates into the
destination register with ``min`` (Figure 16 c3).  The iteration is
synchronous across subgraphs — destination updates become visible as
source values in the *next* iteration, exactly the semantics of the
frontier-driven Bellman-Ford reference.

An engine without read noise
(:attr:`~repro.core.engine.GraphEngine.exact_addop_cells`) takes the
cell path: each active edge forms the tile path's saturating candidate
and one ``np.minimum.at`` (``np.maximum.at`` for widening) folds them
all into the register; min/max do not depend on order, and the
candidate is monotone in the weight, so this equals folding the merged
parallel edges cell by cell.  Tiles and touched rows are counted from
the active edges whose weight is stored (not the absent value).  Noisy
engines stack ``functional_batch_size`` non-empty crossbar tiles into
``(batch, S, S)`` blocks for
:meth:`~repro.core.engine.GraphEngine.addop_batch`; the two are
bit-identical, which the unit suite asserts against the tile batches at
a batch size of one.  Parallel edges merge with ``min`` (``max`` for
widening) on both paths — only the winning candidate survives the
comparator anyway.

:func:`run_addop_scan` is the scan alone, folding into a
caller-provided padded register; the partitioned-execution layer runs
one scan per partition of the same pass, so partitioned and
whole-graph iterations execute the identical crossbar stream.  Columns
no edge reaches are never folded on the cell path, where the tile path
folds the identity into them: that is a no-op, because callers seed
``accum`` with properties on the identity's side.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.algorithms.vertex_program import MappingPattern
from repro.core.cost import IterationEvents
from repro.core.engine import GraphEngine
from repro.core.streaming import SubgraphStreamer

__all__ = ["run_addop_scan"]


def run_addop_scan(
    streamer: SubgraphStreamer,
    engine: GraphEngine,
    padded_dist: np.ndarray,
    accum: np.ndarray,
    coefficients: np.ndarray,
    absent: float,
    frontier: Optional[np.ndarray] = None,
    reduce_op: str = "min",
) -> IterationEvents:
    """Stream one graph (or partition) of add-op work into ``accum``.

    ``padded_dist`` holds the pass's (old) source values and ``accum``
    the folded candidates, both padded to ``padded_vertices +
    tile_cols``; convergence/frontier bookkeeping is the caller's job.
    ``frontier`` (boolean over vertices) restricts the scan to edges
    from active sources.  ``reduce_op`` selects the comparator
    polarity: ``"min"`` relaxes (SSSP/BFS/WCC), ``"max"`` widens
    (SSWP) — parallel edges merge with the same operation, since only
    the winning candidate survives the fold either way.
    """
    fold_at = np.minimum.at if reduce_op == "min" else np.maximum.at
    if engine.exact_addop_cells:
        active, weights, sources, destinations = streamer.active_edges(
            coefficients, frontier)
        candidates, stored = engine.addop_cells(
            weights, padded_dist[sources], absent, reduce_op)
        fold_at(accum, destinations, candidates)
        return streamer.cell_events(MappingPattern.PARALLEL_ADD_OP,
                                    active, stored)

    cfg = streamer.config
    events = IterationEvents()
    # All-absent rows fold to the identity, so presenting every row is
    # equivalent to presenting only the active ones.
    all_rows = np.arange(cfg.crossbar_size)
    for batch in streamer.iter_tile_batches(
            coefficients, cfg.functional_batch_size, frontier=frontier,
            fill_value=absent, combine=reduce_op):
        source_values = padded_dist[batch.row_bases[:, None] + all_rows]
        out, tile_events = engine.addop_batch(batch.dense, source_values,
                                              absent, reduce_op=reduce_op)
        fold_at(accum, batch.col_bases[:, None] + all_rows, out)
        events.merge(tile_events)
        events.edges += batch.edges
        events.subgraphs += batch.subgraph_starts
    events.addop = True
    return events
