"""Unit tests for the streaming-apply scheduler."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.vertex_program import MappingPattern
from repro.core.config import GraphRConfig
from repro.core.cost import IterationEvents
from repro.core.streaming import SubgraphStreamer
from repro.errors import PartitionError
from repro.graph.generators import rmat
from repro.graph.graph import Graph
from repro.graph.preprocess import global_order_id


@pytest.fixture
def cfg():
    return GraphRConfig(crossbar_size=4, crossbars_per_ge=8, num_ges=2,
                        mode="functional")


@pytest.fixture
def streamer(small_weighted_graph, cfg):
    return SubgraphStreamer(small_weighted_graph, cfg)


class TestTileIteration:
    def test_every_edge_appears_exactly_once(self, streamer,
                                              small_weighted_graph):
        seen = []
        for tile in streamer.iter_subgraphs():
            seen.extend(tile.edge_ids.tolist())
        assert sorted(seen) == list(range(small_weighted_graph.num_edges))

    def test_tiles_in_ascending_order(self, streamer):
        indices = [t.index for t in streamer.iter_subgraphs()]
        assert indices == sorted(indices)
        assert len(indices) == streamer.num_nonempty_subgraphs

    def test_local_coordinates_in_range(self, streamer, cfg):
        for tile in streamer.iter_subgraphs():
            assert np.all(tile.rows_local >= 0)
            assert np.all(tile.rows_local < cfg.tile_rows)
            assert np.all(tile.cols_local >= 0)
            assert np.all(tile.cols_local < cfg.tile_cols)

    def test_coordinates_reconstruct_edges(self, streamer,
                                           small_weighted_graph):
        """row_base + local row must equal the original source vertex."""
        src = np.asarray(small_weighted_graph.adjacency.rows)
        dst = np.asarray(small_weighted_graph.adjacency.cols)
        for tile in streamer.iter_subgraphs():
            assert np.array_equal(src[tile.edge_ids],
                                  tile.row_base + tile.rows_local)
            assert np.array_equal(dst[tile.edge_ids],
                                  tile.col_base + tile.cols_local)

    def test_frontier_filtering(self, streamer, small_weighted_graph):
        n = small_weighted_graph.num_vertices
        frontier = np.zeros(n, dtype=bool)
        frontier[0] = True
        src = np.asarray(small_weighted_graph.adjacency.rows)
        expected = int((src == 0).sum())
        got = sum(t.nnz for t in streamer.iter_subgraphs(frontier))
        assert got == expected

    def test_empty_frontier_yields_nothing(self, streamer,
                                           small_weighted_graph):
        frontier = np.zeros(small_weighted_graph.num_vertices, dtype=bool)
        assert list(streamer.iter_subgraphs(frontier)) == []

    def test_subgraph_origin_round_trip(self, streamer, cfg):
        for tile in streamer.iter_subgraphs():
            row, col = streamer.subgraph_origin(tile.index)
            assert (row, col) == (tile.row_base, tile.col_base)
            assert row % cfg.tile_rows == 0
            assert col % cfg.tile_cols == 0


class TestEvents:
    def test_full_iteration_counts(self, streamer, small_weighted_graph):
        events = streamer.iteration_events(MappingPattern.PARALLEL_MAC)
        assert events.edges == small_weighted_graph.num_edges
        assert events.scanned_edges == small_weighted_graph.num_edges
        assert events.subgraphs == streamer.num_nonempty_subgraphs
        assert events.tiles >= events.subgraphs
        assert events.presentations == events.tiles
        assert not events.addop

    def test_addop_presentations_are_rows(self, streamer):
        events = streamer.iteration_events(MappingPattern.PARALLEL_ADD_OP)
        assert events.presentations == events.touched_rows
        assert events.addop

    def test_frontier_reduces_counts(self, streamer,
                                     small_weighted_graph):
        n = small_weighted_graph.num_vertices
        frontier = np.zeros(n, dtype=bool)
        frontier[:4] = True
        full = streamer.iteration_events(MappingPattern.PARALLEL_MAC)
        partial = streamer.iteration_events(MappingPattern.PARALLEL_MAC,
                                            frontier=frontier)
        assert partial.edges <= full.edges
        assert partial.tiles <= full.tiles
        # Scans stay full: GraphR streams sequentially (Section 3.5).
        assert partial.scanned_edges == full.scanned_edges

    def test_empty_frontier_is_free(self, streamer,
                                    small_weighted_graph):
        frontier = np.zeros(small_weighted_graph.num_vertices, dtype=bool)
        events = streamer.iteration_events(MappingPattern.PARALLEL_MAC,
                                           frontier=frontier)
        assert events.edges == 0
        assert events.tiles == 0

    def test_bad_frontier_length(self, streamer):
        with pytest.raises(PartitionError):
            streamer.iteration_events(MappingPattern.PARALLEL_MAC,
                                      frontier=np.zeros(3, dtype=bool))

    def test_work_factor_scales_presentations_not_writes(self, streamer):
        one = streamer.iteration_events(MappingPattern.PARALLEL_MAC)
        many = streamer.iteration_events(MappingPattern.PARALLEL_MAC,
                                         work_factor=8)
        assert many.presentations == 8 * one.presentations
        assert many.edges == one.edges
        assert many.tiles == one.tiles

    def test_skip_disabled_counts_all_slots(self, small_weighted_graph):
        cfg = GraphRConfig(crossbar_size=4, crossbars_per_ge=8, num_ges=2,
                           skip_empty_subgraphs=False)
        streamer = SubgraphStreamer(small_weighted_graph, cfg)
        events = streamer.iteration_events(MappingPattern.PARALLEL_MAC)
        assert events.subgraphs == streamer.total_subgraph_slots
        assert events.tiles == (streamer.total_subgraph_slots
                                * cfg.logical_crossbars)


class TestFunctionalAnalyticConsistency:
    def test_event_counts_match_tile_walk(self, small_weighted_graph):
        """Analytic tile/subgraph counts must equal what the functional
        walk visits."""
        cfg = GraphRConfig(crossbar_size=4, crossbars_per_ge=8, num_ges=2)
        streamer = SubgraphStreamer(small_weighted_graph, cfg)
        events = streamer.iteration_events(MappingPattern.PARALLEL_MAC)

        s = cfg.crossbar_size
        tiles = set()
        rows = set()
        for tile in streamer.iter_subgraphs():
            for r, c in zip(tile.rows_local, tile.cols_local):
                key = (tile.index, c // s)
                tiles.add(key)
                rows.add((key, r))
        assert events.tiles == len(tiles)
        assert events.touched_rows == len(rows)

    def test_counts_scale_with_graph(self):
        cfg = GraphRConfig(crossbar_size=4, crossbars_per_ge=8, num_ges=2)
        small = SubgraphStreamer(rmat(6, 100, seed=1), cfg)
        large = SubgraphStreamer(rmat(6, 800, seed=1), cfg)
        se = small.iteration_events(MappingPattern.PARALLEL_MAC)
        le = large.iteration_events(MappingPattern.PARALLEL_MAC)
        assert le.tiles > se.tiles
        assert le.edges > se.edges


@st.composite
def _event_cases(draw):
    """A small graph, a geometry and one iteration's arguments."""
    n = draw(st.integers(min_value=1, max_value=24))
    vertex = st.integers(min_value=0, max_value=n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=60))
    # Repeat a prefix so parallel edges are common, not merely possible;
    # self-loops, sinks and isolated vertices arise from the draw.
    edges += edges[:draw(st.integers(min_value=0, max_value=len(edges)))]
    cfg = GraphRConfig(
        crossbar_size=draw(st.integers(min_value=1, max_value=4)),
        crossbars_per_ge=draw(st.sampled_from([4, 8, 12])),
        num_ges=draw(st.integers(min_value=1, max_value=3)),
        block_size=draw(st.one_of(
            st.none(), st.integers(min_value=1, max_value=10))),
        skip_empty_subgraphs=draw(st.booleans()),
        selective_block_scan=draw(st.booleans()),
    )
    random = np.array(draw(st.lists(st.booleans(), min_size=n,
                                    max_size=n)), dtype=bool)
    return (Graph.from_edges(edges, num_vertices=n), cfg,
            draw(st.sampled_from(list(MappingPattern))),
            draw(st.integers(min_value=1, max_value=4)), random)


def _oracle_events(graph, cfg, o, pattern, frontier, work_factor):
    """Brute-force :class:`IterationEvents` from Python sets over the
    raw edge list, keyed by :func:`global_order_id` under ordering
    ``o``."""
    src = np.asarray(graph.adjacency.rows)
    dst = np.asarray(graph.adjacency.cols)
    gids = global_order_id(o, src, dst)
    s = cfg.crossbar_size
    b = o.block_size
    per_tile = o.entries_per_subgraph
    subgraphs, tiles, rows, dests, blocks = set(), set(), set(), set(), set()
    block_edges = Counter()
    edges = 0
    for u, v, gid in zip(src.tolist(), dst.tolist(), gids.tolist()):
        block_edges[(u // b, v // b)] += 1
        if frontier is not None and not frontier[u]:
            continue
        edges += 1
        sub, pos = divmod(gid, per_tile)
        col, row = divmod(pos, s)
        subgraphs.add(sub)
        tiles.add((sub, col // s))
        rows.add((sub, col // s, row))
        dests.add(v)
        blocks.add((u // b, v // b))
    if frontier is not None and edges == 0:
        return IterationEvents()
    if cfg.skip_empty_subgraphs:
        n_sub, n_tiles, n_rows = len(subgraphs), len(tiles), len(rows)
    else:
        side = -(-graph.num_vertices // b)
        grid = -(-b // o.tile_rows) * -(-b // o.tile_cols)
        n_sub = side * side * grid
        n_tiles = n_sub * cfg.logical_crossbars
        n_rows = n_tiles * s
    addop = pattern is MappingPattern.PARALLEL_ADD_OP
    presentations = (n_rows if addop else n_tiles) * work_factor
    if cfg.selective_block_scan and frontier is not None:
        scanned = sum(block_edges[key] for key in blocks)
    else:
        scanned = graph.num_edges
    return IterationEvents(
        edges=edges, scanned_edges=scanned, subgraphs=n_sub,
        tiles=n_tiles, presentations=presentations, touched_rows=n_rows,
        reduce_ops=presentations * s, apply_ops=len(dests), addop=addop)


class TestEventOracle:
    @settings(max_examples=150, deadline=None)
    @given(case=_event_cases())
    def test_events_match_brute_force(self, case):
        """Every field of every branch equals the set-based count, and
        counting never reorders the streamer's own arrays."""
        graph, cfg, pattern, work_factor, random = case
        streamer = SubgraphStreamer(graph, cfg)
        for ids in (streamer._subgraph_of_edge, streamer._crossbar_of_edge,
                    streamer._block_of_edge):
            assert np.all(ids[1:] >= ids[:-1])

        n = graph.num_vertices
        frontiers = [None, np.zeros(n, dtype=bool), np.ones(n, dtype=bool),
                     random]
        for frontier in frontiers:
            expected = _oracle_events(graph, cfg, streamer.ordering,
                                      pattern, frontier, work_factor)
            got = streamer.iteration_events(pattern, frontier=frontier,
                                            work_factor=work_factor)
            fresh = SubgraphStreamer(graph, cfg).iteration_events(
                pattern, frontier=frontier, work_factor=work_factor)
            assert got == expected
            assert fresh == expected
