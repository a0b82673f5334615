"""Unit tests for block/subgraph partitioning (Sections 3.3-3.4)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PartitionError
from repro.graph.coo import COOMatrix
from repro.graph.partition import (
    BlockPartition,
    DualSlidingWindows,
    SubgraphGrid,
    ceil_div,
    distinct_count,
    pad_to_multiple,
    run_starts,
)


class TestHelpers:
    @pytest.mark.parametrize("a,b,expected", [
        (0, 4, 0), (1, 4, 1), (4, 4, 1), (5, 4, 2), (8, 3, 3)])
    def test_ceil_div(self, a, b, expected):
        assert ceil_div(a, b) == expected

    def test_ceil_div_bad_divisor(self):
        with pytest.raises(PartitionError):
            ceil_div(4, 0)

    @pytest.mark.parametrize("n,m,expected", [
        (0, 4, 0), (1, 4, 4), (4, 4, 4), (9, 4, 12)])
    def test_pad_to_multiple(self, n, m, expected):
        assert pad_to_multiple(n, m) == expected

    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(st.integers(min_value=-5, max_value=5),
                           max_size=30))
    def test_distinct_count_matches_unique(self, values):
        a = np.array(values, dtype=np.int64)
        before = a.copy()
        ordered = np.sort(a)
        assert distinct_count(a) == np.unique(a).size
        assert distinct_count(ordered, presorted=True) == np.unique(a).size
        assert np.array_equal(ordered[run_starts(ordered)], np.unique(a))
        assert np.array_equal(a, before)  # counted on a copy


class TestBlockPartition:
    def test_figure12_geometry(self):
        # V=64, B=32 -> 2x2 block grid.
        part = BlockPartition(64, 32)
        assert part.blocks_per_side == 2
        assert part.num_blocks == 4
        assert part.padded_vertices == 64

    def test_padding(self):
        part = BlockPartition(65, 32)
        assert part.padded_vertices == 96
        assert part.blocks_per_side == 3

    def test_column_major_order(self):
        part = BlockPartition(64, 32)
        # Paper: B(0,0) -> B(1,0) -> B(0,1) -> B(1,1).
        order = [part.block_order(bi, bj)
                 for bi, bj in [(0, 0), (1, 0), (0, 1), (1, 1)]]
        assert order == [0, 1, 2, 3]

    def test_iter_blocks_matches_order(self):
        part = BlockPartition(64, 32)
        visited = list(part.iter_blocks())
        assert [part.block_order(*b) for b in visited] == [0, 1, 2, 3]

    def test_block_coords(self):
        part = BlockPartition(64, 32)
        assert part.block_coords(5, 40) == (0, 1)
        assert part.block_of_entry(40, 5) == 1

    def test_entry_out_of_range(self):
        part = BlockPartition(64, 32)
        with pytest.raises(PartitionError):
            part.block_coords(64, 0)

    def test_block_order_out_of_range(self):
        with pytest.raises(PartitionError):
            BlockPartition(64, 32).block_order(2, 0)

    def test_block_submatrix(self, tiny_graph):
        part = BlockPartition(8, 4)
        block = part.block_submatrix(tiny_graph.adjacency, 0, 0)
        assert block.shape == (4, 4)
        dense = tiny_graph.adjacency.to_dense()[:4, :4]
        assert np.array_equal(block.to_dense(), dense)

    def test_block_submatrix_shape_mismatch(self, tiny_graph):
        part = BlockPartition(16, 4)
        with pytest.raises(PartitionError):
            part.block_submatrix(tiny_graph.adjacency, 0, 0)

    def test_invalid_params(self):
        with pytest.raises(PartitionError):
            BlockPartition(0, 4)
        with pytest.raises(PartitionError):
            BlockPartition(8, 0)


class TestSubgraphGrid:
    @pytest.fixture
    def grid(self):
        # Figure 12: C=4, N=2, G=2 -> tiles of 4 x 16 over a 32-block.
        return SubgraphGrid(block_size=32, crossbar_size=4,
                            crossbars_per_ge=2, num_ges=2)

    def test_tile_shape(self, grid):
        assert grid.tile_rows == 4
        assert grid.tile_cols == 16

    def test_grid_shape(self, grid):
        assert grid.grid_shape == (8, 2)
        assert grid.subgraphs_per_block == 16

    def test_column_major_subgraph_order(self, grid):
        visited = list(grid.iter_subgraphs())
        assert visited[0] == (0, 0)
        assert visited[1] == (1, 0)
        assert visited[8] == (0, 1)
        assert [grid.subgraph_order(*t) for t in visited] == list(range(16))

    def test_coords(self, grid):
        assert grid.subgraph_coords(5, 17) == (1, 1)

    def test_coords_out_of_range(self, grid):
        with pytest.raises(PartitionError):
            grid.subgraph_coords(32, 0)

    def test_tile_bounds(self, grid):
        assert grid.tile_bounds(1, 1) == (4, 8, 16, 32)

    def test_tile_bounds_out_of_range(self, grid):
        with pytest.raises(PartitionError):
            grid.tile_bounds(8, 0)

    def test_nonempty_count(self, grid):
        block = COOMatrix((32, 32), [0, 1, 5, 20], [0, 1, 20, 31],
                          [1, 1, 1, 1])
        # Tiles: (0,0) holds (0,0) & (1,1); (1,1) holds (5,20);
        # (5,1) holds (20,31).
        assert grid.nonempty_subgraph_count(block) == 3

    def test_nonempty_empty_block(self, grid):
        assert grid.nonempty_subgraph_count(COOMatrix.empty((32, 32))) == 0

    def test_occupancy_histogram(self, grid):
        block = COOMatrix((32, 32), [0, 1, 5], [0, 1, 20], [1, 1, 1])
        hist = grid.occupancy_histogram(block)
        assert np.array_equal(hist, [2, 1])

    def test_occupancy_empty(self, grid):
        assert grid.occupancy_histogram(COOMatrix.empty((32, 32))).size == 0

    def test_invalid_params(self):
        with pytest.raises(PartitionError):
            SubgraphGrid(32, 0, 2, 2)


class TestDualSlidingWindows:
    def test_chunking(self):
        win = DualSlidingWindows(100, 4)
        assert win.chunk_size == 25
        assert win.chunk_of(0) == 0
        assert win.chunk_of(99) == 3

    def test_chunk_out_of_range(self):
        with pytest.raises(PartitionError):
            DualSlidingWindows(100, 4).chunk_of(100)

    def test_edge_grid_counts(self, tiny_graph):
        win = DualSlidingWindows(8, 2)
        grid = win.edge_grid_counts(tiny_graph.adjacency)
        assert grid.shape == (2, 2)
        assert grid.sum() == tiny_graph.num_edges

    def test_grid_shape_mismatch(self, tiny_graph):
        win = DualSlidingWindows(16, 2)
        with pytest.raises(PartitionError):
            win.edge_grid_counts(tiny_graph.adjacency)

    def test_more_chunks_than_vertices(self):
        with pytest.raises(PartitionError):
            DualSlidingWindows(3, 5)
