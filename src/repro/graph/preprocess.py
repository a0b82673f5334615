"""Edge-list preprocessing for streaming-apply (Section 3.4, Eqs. 1-9).

GraphR requires the on-disk edge list to be ordered so that the edges of
consecutive subgraphs are contiguous: loading a block, then each
subgraph, is then purely sequential I/O.  The order is hierarchical:

1. blocks in column-major order over the ``(V/B)^2`` block grid (Eq. 2);
2. within a block, subgraph tiles of ``C x (C*N*G)`` in column-major
   order (Eqs. 5-6);
3. within a subgraph, entries in column-major order (Eq. 8).

Every edge ``(i, j)`` gets a **global order ID** ``I(i, j)`` that counts
*all* matrix positions (zeros included) preceding it in this traversal
(Eq. 9); sorting the edge list by ``I`` yields the streaming order.  We
implement the computation zero-based and fully vectorised.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.errors import PartitionError
from repro.graph.coo import COOMatrix
from repro.graph.partition import BlockPartition, SubgraphGrid, pad_to_multiple

__all__ = ["GraphROrdering", "global_order_id", "preprocess_edge_list"]


@dataclass(frozen=True)
class GraphROrdering:
    """The geometry that defines a streaming-apply traversal.

    Parameters mirror Figure 9 / Figure 12 of the paper:

    ``num_vertices``
        ``V`` — vertices in the whole graph (pre-padding).
    ``block_size``
        ``B`` — vertices per out-of-core block.
    ``crossbar_size``
        ``C`` — rows/columns of one ReRAM crossbar.
    ``crossbars_per_ge``
        ``N`` — crossbars in one graph engine.
    ``num_ges``
        ``G`` — graph engines in the node.
    """

    num_vertices: int
    block_size: int
    crossbar_size: int
    crossbars_per_ge: int = 1
    num_ges: int = 1

    def __post_init__(self) -> None:
        if min(self.num_vertices, self.block_size, self.crossbar_size,
               self.crossbars_per_ge, self.num_ges) <= 0:
            raise PartitionError("all ordering parameters must be positive")
        if self.block_size > pad_to_multiple(self.num_vertices,
                                             self.block_size):
            raise PartitionError("block larger than the padded graph")

    # -- derived geometry ------------------------------------------------
    @property
    def tile_rows(self) -> int:
        """Subgraph height ``C``."""
        return self.crossbar_size

    @property
    def tile_cols(self) -> int:
        """Subgraph width ``C*N*G``."""
        return self.crossbar_size * self.crossbars_per_ge * self.num_ges

    @property
    def padded_block(self) -> Tuple[int, int]:
        """Block dimensions padded to tile multiples."""
        return (
            pad_to_multiple(self.block_size, self.tile_rows),
            pad_to_multiple(self.block_size, self.tile_cols),
        )

    @property
    def padded_vertices(self) -> int:
        """``V`` padded to a multiple of ``B``."""
        return pad_to_multiple(self.num_vertices, self.block_size)

    @property
    def blocks_per_side(self) -> int:
        """Block-grid side length ``V/B`` (after padding)."""
        return self.padded_vertices // self.block_size

    @property
    def subgraph_grid(self) -> Tuple[int, int]:
        """Subgraph tiles per block ``(rows, cols)``."""
        pr, pc = self.padded_block
        return pr // self.tile_rows, pc // self.tile_cols

    @property
    def entries_per_subgraph(self) -> int:
        """Matrix positions (zeros included) in one subgraph tile."""
        return self.tile_rows * self.tile_cols

    @property
    def entries_per_block(self) -> int:
        """Matrix positions in one padded block."""
        pr, pc = self.padded_block
        return pr * pc

    def block_partition(self) -> BlockPartition:
        """The matching :class:`BlockPartition`."""
        return BlockPartition(self.num_vertices, self.block_size)

    def grid(self) -> SubgraphGrid:
        """The matching :class:`SubgraphGrid`."""
        return SubgraphGrid(self.block_size, self.crossbar_size,
                            self.crossbars_per_ge, self.num_ges)


def global_order_id(ordering: GraphROrdering, rows: np.ndarray,
                    cols: np.ndarray) -> np.ndarray:
    """Vectorised Eq. (9): global order ID of each coordinate pair.

    IDs are zero-based; the paper's formulas are one-based, the ordering
    they induce is identical.  Zeros count: two edges ``k`` positions
    apart in the traversal differ by exactly ``k`` in ID.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    if rows.shape != cols.shape:
        raise PartitionError("rows and cols must have equal length")
    if rows.size and (rows.min() < 0 or cols.min() < 0):
        raise PartitionError("negative coordinates")
    if rows.size and (rows.max() >= ordering.padded_vertices
                      or cols.max() >= ordering.padded_vertices):
        raise PartitionError("coordinate outside the padded matrix")

    b = ordering.block_size
    side = ordering.blocks_per_side
    tile_r, tile_c = ordering.tile_rows, ordering.tile_cols
    grid_r, grid_c = ordering.subgraph_grid

    # Eq. (1): block coordinates; Eq. (2): column-major block order.
    block_i = rows // b
    block_j = cols // b
    block_order = block_i + side * block_j

    # Eq. (4): coordinates relative to the block origin.
    in_block_i = rows - block_i * b
    in_block_j = cols - block_j * b

    # Eq. (5): subgraph tile coordinates; Eq. (6): column-major tile order.
    tile_i = in_block_i // tile_r
    tile_j = in_block_j // tile_c
    tile_order = tile_i + tile_j * grid_r

    # Eq. (7): coordinates relative to the tile origin; Eq. (8):
    # column-major order inside the tile.
    sub_i = in_block_i - tile_i * tile_r
    sub_j = in_block_j - tile_j * tile_c
    sub_order = sub_i + sub_j * tile_r

    # Eq. (9): compose the hierarchy.
    per_tile = ordering.entries_per_subgraph
    per_block = grid_r * grid_c * per_tile
    return block_order * per_block + tile_order * per_tile + sub_order


def preprocess_edge_list(coo: COOMatrix,
                         ordering: GraphROrdering) -> COOMatrix:
    """Sort an edge list into GraphR streaming order.

    Performed once in software, as in the paper (Figure 9).  The result
    is a :class:`COOMatrix` whose entries, read front to back, visit
    blocks, then subgraphs, then in-tile positions in column-major
    order.  Time ``O(E log E)``, space ``O(E)``.
    """
    if coo.shape[0] != coo.shape[1]:
        raise PartitionError("adjacency matrix must be square")
    if coo.shape[0] != ordering.num_vertices:
        raise PartitionError(
            f"matrix over {coo.shape[0]} vertices does not match ordering "
            f"over {ordering.num_vertices}"
        )
    ids = global_order_id(ordering, np.asarray(coo.rows), np.asarray(coo.cols))
    # Duplicate coordinates share an ID and keep their input order; with
    # distinct IDs the sorted order is unique, so a stable sort yields
    # the same permutation as any other.
    return coo.permuted(np.argsort(ids, kind="stable"))
