"""Block / subgraph partitioning (Sections 3.3-3.4, Figure 12).

GraphR partitions the ``|V| x |V|`` adjacency matrix twice:

* into **blocks** of ``B x B`` vertices — the unit loaded from disk into
  the node's memory ReRAM (out-of-core granularity);
* each block into **subgraphs** of ``C x (C*N*G)`` — the tile processed
  by all graph engines in one streaming-apply step (``C`` = crossbar
  size, ``N`` = crossbars per GE, ``G`` = GEs per node).

:class:`DualSlidingWindows` additionally models GridGraph's 2-D edge
grid (Figure 2b), which the CPU baseline streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

import numpy as np

from repro.errors import PartitionError
from repro.graph.coo import COOMatrix

__all__ = ["BlockPartition", "SubgraphGrid", "DualSlidingWindows",
           "ceil_div", "distinct_count", "pad_to_multiple", "run_starts"]


def ceil_div(a: int, b: int) -> int:
    """``ceil(a / b)`` on non-negative ints."""
    if b <= 0:
        raise PartitionError("divisor must be positive")
    return -(-a // b)


def pad_to_multiple(n: int, multiple: int) -> int:
    """Smallest value >= n that is a multiple of ``multiple``.

    The paper pads |V| with zero rows/columns so that B divides V and
    the subgraph tile divides B ("we can simply pad zeros ... these
    zeros do not correspond to actual edges").
    """
    return ceil_div(n, multiple) * multiple


def run_starts(values: np.ndarray) -> np.ndarray:
    """Boolean mask of the first element of each run of equal values.

    On a non-decreasing array every distinct value is one run, so
    ``values[run_starts(values)]`` equals ``np.unique(values)``.
    """
    starts = np.empty(values.shape, dtype=bool)
    starts[:1] = True
    np.not_equal(values[1:], values[:-1], out=starts[1:])
    return starts


def distinct_count(values: np.ndarray, presorted: bool = False) -> int:
    """Number of distinct values in a 1-D array, counted by sorting.

    ``presorted`` declares ``values`` non-decreasing, which makes the
    count a single boundary scan.  Otherwise a sorted *copy* is
    scanned; the caller's array is never reordered.  ``np.unique``
    without a ``return_*`` flag hashes on numpy 2.3 and later, which is
    far slower than sorting on large integer keys.
    """
    values = np.asarray(values)
    if not presorted:
        values = np.sort(values)
    return int(np.count_nonzero(run_starts(values)))


@dataclass(frozen=True)
class BlockPartition:
    """Partition of a ``V x V`` matrix into ``B x B`` vertex blocks.

    Blocks are enumerated in the paper's column-major global order
    (Section 3.4: ``B(0,0) -> B(1,0) -> B(0,1) -> B(1,1)``).
    """

    num_vertices: int
    block_size: int

    def __post_init__(self) -> None:
        if self.num_vertices <= 0:
            raise PartitionError("num_vertices must be positive")
        if self.block_size <= 0:
            raise PartitionError("block_size must be positive")

    @property
    def padded_vertices(self) -> int:
        """Vertex count after zero padding to a multiple of B."""
        return pad_to_multiple(self.num_vertices, self.block_size)

    @property
    def blocks_per_side(self) -> int:
        """Number of block rows (= block columns)."""
        return self.padded_vertices // self.block_size

    @property
    def num_blocks(self) -> int:
        """Total blocks in the grid."""
        return self.blocks_per_side ** 2

    def block_coords(self, i: int, j: int) -> Tuple[int, int]:
        """Block coordinates ``(Bi, Bj)`` of matrix entry ``(i, j)`` — Eq. (1)."""
        self._check_entry(i, j)
        return i // self.block_size, j // self.block_size

    def block_order(self, bi: int, bj: int) -> int:
        """Column-major global order of block ``(bi, bj)`` — Eq. (2).

        The paper's Eq. (2) prints ``IB = Bj + (V/B) * Bj``, an obvious
        typo for the column-major index ``Bi + (V/B) * Bj`` its own
        example sequence ``B(0,0) -> B(1,0) -> B(0,1) -> B(1,1)``
        requires; we implement the sequence.
        """
        side = self.blocks_per_side
        if not (0 <= bi < side and 0 <= bj < side):
            raise PartitionError(f"block ({bi}, {bj}) outside {side}x{side} grid")
        return bi + side * bj

    def block_of_entry(self, i: int, j: int) -> int:
        """Global block order of the block containing entry ``(i, j)``."""
        return self.block_order(*self.block_coords(i, j))

    def iter_blocks(self) -> Iterator[Tuple[int, int]]:
        """Yield ``(bi, bj)`` in global (column-major) order."""
        side = self.blocks_per_side
        for bj in range(side):
            for bi in range(side):
                yield bi, bj

    def block_submatrix(self, coo: COOMatrix, bi: int, bj: int) -> COOMatrix:
        """Extract block ``(bi, bj)`` from an adjacency COO matrix."""
        if coo.shape[0] != coo.shape[1] or coo.shape[0] != self.num_vertices:
            raise PartitionError(
                f"matrix shape {coo.shape} does not match partition over "
                f"{self.num_vertices} vertices"
            )
        b = self.block_size
        row_stop = min((bi + 1) * b, self.num_vertices)
        col_stop = min((bj + 1) * b, self.num_vertices)
        sub = coo.submatrix(bi * b, row_stop, bj * b, col_stop)
        # Re-shape to the full padded block so downstream tiling is uniform.
        return COOMatrix((b, b), sub.rows, sub.cols, sub.values)

    def _check_entry(self, i: int, j: int) -> None:
        if not (0 <= i < self.padded_vertices and 0 <= j < self.padded_vertices):
            raise PartitionError(
                f"entry ({i}, {j}) outside padded {self.padded_vertices}^2 matrix"
            )


@dataclass(frozen=True)
class SubgraphGrid:
    """Partition of one ``B x B`` block into ``C x (C*N*G)`` subgraphs.

    A subgraph is the tile consumed by all GEs in a single
    streaming-apply step: ``C`` source vertices tall (one crossbar of
    wordlines) and ``C*N*G`` destination vertices wide (bitlines across
    every crossbar of every GE).
    """

    block_size: int
    crossbar_size: int
    crossbars_per_ge: int
    num_ges: int

    def __post_init__(self) -> None:
        if min(self.block_size, self.crossbar_size, self.crossbars_per_ge,
               self.num_ges) <= 0:
            raise PartitionError("all partition parameters must be positive")
        if self.tile_cols > pad_to_multiple(self.block_size, self.tile_cols):
            raise PartitionError("subgraph tile wider than the padded block")

    @property
    def tile_rows(self) -> int:
        """Subgraph height ``C`` (source vertices)."""
        return self.crossbar_size

    @property
    def tile_cols(self) -> int:
        """Subgraph width ``C*N*G`` (destination vertices)."""
        return self.crossbar_size * self.crossbars_per_ge * self.num_ges

    @property
    def padded_block(self) -> Tuple[int, int]:
        """Block size padded so the tile divides it in both dimensions."""
        return (
            pad_to_multiple(self.block_size, self.tile_rows),
            pad_to_multiple(self.block_size, self.tile_cols),
        )

    @property
    def grid_shape(self) -> Tuple[int, int]:
        """``(tile_rows_count, tile_cols_count)`` of the subgraph grid."""
        rows, cols = self.padded_block
        return rows // self.tile_rows, cols // self.tile_cols

    @property
    def subgraphs_per_block(self) -> int:
        """Total subgraph tiles in one block."""
        r, c = self.grid_shape
        return r * c

    def subgraph_coords(self, i: int, j: int) -> Tuple[int, int]:
        """Tile coordinates of an in-block entry ``(i', j')`` — Eq. (5)."""
        rows, cols = self.padded_block
        if not (0 <= i < rows and 0 <= j < cols):
            raise PartitionError(
                f"entry ({i}, {j}) outside padded block {rows}x{cols}"
            )
        return i // self.tile_rows, j // self.tile_cols

    def subgraph_order(self, si: int, sj: int) -> int:
        """Column-major order of tile ``(si, sj)`` within the block — Eq. (6).

        Column-major matches GraphR's streaming-apply choice: all tiles
        over the same destination range are consecutive, so RegO holds
        one destination chunk at a time.
        """
        n_rows, n_cols = self.grid_shape
        if not (0 <= si < n_rows and 0 <= sj < n_cols):
            raise PartitionError(
                f"subgraph ({si}, {sj}) outside {n_rows}x{n_cols} grid"
            )
        return si + sj * n_rows

    def iter_subgraphs(self) -> Iterator[Tuple[int, int]]:
        """Yield tile coords ``(si, sj)`` in column-major order."""
        n_rows, n_cols = self.grid_shape
        for sj in range(n_cols):
            for si in range(n_rows):
                yield si, sj

    def tile_bounds(self, si: int, sj: int) -> Tuple[int, int, int, int]:
        """In-block ``(row_start, row_stop, col_start, col_stop)`` of a tile."""
        n_rows, n_cols = self.grid_shape
        if not (0 <= si < n_rows and 0 <= sj < n_cols):
            raise PartitionError(
                f"subgraph ({si}, {sj}) outside {n_rows}x{n_cols} grid"
            )
        return (
            si * self.tile_rows,
            (si + 1) * self.tile_rows,
            sj * self.tile_cols,
            (sj + 1) * self.tile_cols,
        )

    def nonempty_subgraph_count(self, block: COOMatrix) -> int:
        """Number of tiles of ``block`` that contain at least one edge.

        GraphR skips empty subgraphs entirely ("if the subgraph is
        empty, then GEs can move down to the next subgraph"), so this
        count — not the grid size — drives execution time.
        """
        if block.nnz == 0:
            return 0
        si = np.asarray(block.rows) // self.tile_rows
        sj = np.asarray(block.cols) // self.tile_cols
        return distinct_count(si * self.grid_shape[1] + sj)

    def occupancy_histogram(self, block: COOMatrix) -> np.ndarray:
        """Edges per non-empty tile, sorted descending (diagnostics)."""
        if block.nnz == 0:
            return np.zeros(0, dtype=np.int64)
        si = np.asarray(block.rows) // self.tile_rows
        sj = np.asarray(block.cols) // self.tile_cols
        _, counts = np.unique(si * self.grid_shape[1] + sj, return_counts=True)
        return np.sort(counts)[::-1]


@dataclass(frozen=True)
class DualSlidingWindows:
    """GridGraph's dual sliding windows (Figure 2b), used by the CPU model.

    Vertices are split into ``P`` chunks; edges into a ``P x P`` grid of
    blocks.  Streaming a destination-oriented column of blocks slides the
    source window over the chunks while the destination window stays put.
    """

    num_vertices: int
    num_chunks: int

    def __post_init__(self) -> None:
        if self.num_vertices <= 0 or self.num_chunks <= 0:
            raise PartitionError("num_vertices and num_chunks must be positive")
        if self.num_chunks > self.num_vertices:
            raise PartitionError("more chunks than vertices")

    @property
    def chunk_size(self) -> int:
        """Vertices per chunk (last chunk may be smaller)."""
        return ceil_div(self.num_vertices, self.num_chunks)

    def chunk_of(self, v: int) -> int:
        """Chunk index of vertex ``v``."""
        if not 0 <= v < self.num_vertices:
            raise PartitionError(f"vertex {v} out of range")
        return v // self.chunk_size

    def edge_grid_counts(self, coo: COOMatrix) -> np.ndarray:
        """``P x P`` array: number of edges in each (src_chunk, dst_chunk)
        grid cell."""
        if coo.shape != (self.num_vertices, self.num_vertices):
            raise PartitionError("matrix shape does not match the partition")
        p = self.num_chunks
        grid = np.zeros((p, p), dtype=np.int64)
        if coo.nnz:
            src = np.asarray(coo.rows) // self.chunk_size
            dst = np.asarray(coo.cols) // self.chunk_size
            np.add.at(grid, (src, dst), 1)
        return grid
