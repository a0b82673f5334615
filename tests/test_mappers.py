"""Direct unit tests for the MAC and add-op mappers, with hand-computed
expectations on tiny graphs.

MAC passes run through :class:`PartitionedFunctionalRunner` on one
whole-graph partition (properties after ``apply``, and the pass's
merged events); add-op passes start from hand-picked labels and
frontiers, so they drive :func:`run_addop_scan` directly (the folded
register and the scan's events)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.pagerank import PageRankProgram
from repro.algorithms.spmv import SpMVProgram
from repro.algorithms.sssp import INFINITY, SSSPProgram
from repro.core.addop_mapper import run_addop_scan
from repro.core.config import GraphRConfig
from repro.core.partitioned import (GraphPartition,
                                    PartitionedFunctionalRunner,
                                    engine_for_program)
from repro.core.streaming import SubgraphStreamer
from repro.graph.graph import Graph


@pytest.fixture
def cfg():
    return GraphRConfig(crossbar_size=4, crossbars_per_ge=8, num_ges=1)


def _mac_pass(cfg, program, graph, **program_kwargs):
    """One functional MAC pass: ``(new_properties, events)``."""
    whole = GraphPartition(index=0, graph=graph,
                           streamer=SubgraphStreamer(graph, cfg),
                           col_lo=0, col_hi=graph.num_vertices)
    runner = PartitionedFunctionalRunner(
        cfg, program, graph.num_vertices, graph_view=graph,
        out_degrees=graph.out_degrees(), partitions=lambda: (whole,))
    passes = []

    def charge(merged, per_partition):
        passes.append(merged)
        return 0.0

    result, _ = runner.run(charge, max_iterations=1, **program_kwargs)
    return result.values, passes[0]


def _addop_pass(cfg, program, graph, props, frontier):
    """One add-op scan from ``props``: ``(new_properties, changed,
    events)``."""
    n = graph.num_vertices
    absent = float(program.reduce_identity)
    streamer = SubgraphStreamer(graph, cfg)
    padded = np.full(streamer.ordering.padded_vertices + cfg.tile_cols,
                     absent)
    padded[:n] = props
    accum = padded.copy()
    events = run_addop_scan(
        streamer, engine_for_program(cfg, program), padded, accum,
        program.crossbar_coefficient(graph), absent, frontier=frontier,
        reduce_op=program.reduce_op)
    new_props = accum[:n]
    return new_props, program.improved(new_props, props), events


class TestMACMapper:
    def test_single_edge_propagation(self, cfg):
        # 0 -> 1 with outdeg(0)=1: rank flows damped to vertex 1.
        graph = Graph.from_edges([(0, 1)], num_vertices=4)
        program = PageRankProgram(damping=0.8)
        # Initial ranks are 0.25 each; the coefficient is 0.8.
        new_props, events = _mac_pass(cfg, program, graph)
        teleport = 0.2 / 4
        assert new_props[1] == pytest.approx(teleport + 0.8 * 0.25,
                                             abs=1e-3)
        assert new_props[0] == pytest.approx(teleport, abs=1e-3)
        assert events.edges == 1
        assert events.subgraphs == 1

    def test_spmv_star(self, cfg):
        # Star 0 -> {1,2,3}: each gets x0 * (1/3).
        graph = Graph.from_edges([(0, 1), (0, 2), (0, 3)],
                                 num_vertices=4)
        new_props, _ = _mac_pass(cfg, SpMVProgram(), graph,
                                 x=np.array([3.0, 0.0, 0.0, 0.0]))
        assert np.allclose(new_props[1:], 1.0, atol=1e-2)

    def test_events_scanned_edges_set(self, cfg, small_graph):
        _, events = _mac_pass(cfg, SpMVProgram(), small_graph)
        assert events.scanned_edges == small_graph.num_edges
        assert events.edges == small_graph.num_edges


class TestAddOpMapper:
    def test_single_relaxation(self, cfg):
        # 0 -> 1 weight 5, dist(0)=0: one iteration gives dist(1)=5.
        graph = Graph.from_edges([(0, 1, 5.0)], num_vertices=4,
                                 weighted=True)
        program = SSSPProgram(source=0)
        props = program.initial_properties(graph)
        new_props, changed, events = _addop_pass(
            cfg, program, graph, props, frontier=props != INFINITY)
        assert new_props[1] == 5.0
        assert changed[1]
        assert not changed[0]
        assert events.addop

    def test_two_paths_take_minimum(self, cfg):
        # 0 -> 2 direct (10) vs precomputed shorter label at 2.
        graph = Graph.from_edges([(0, 2, 10.0)], num_vertices=4,
                                 weighted=True)
        program = SSSPProgram(source=0)
        props = np.array([0.0, INFINITY, 4.0, INFINITY])
        frontier = np.array([True, False, False, False])
        new_props, changed, _ = _addop_pass(cfg, program, graph, props,
                                            frontier)
        # 0 + 10 = 10 loses against the existing 4.
        assert new_props[2] == 4.0
        assert not changed[2]

    def test_inactive_sources_do_nothing(self, cfg):
        graph = Graph.from_edges([(0, 1, 2.0), (2, 3, 1.0)],
                                 num_vertices=4, weighted=True)
        program = SSSPProgram(source=0)
        props = np.array([0.0, INFINITY, 0.0, INFINITY])
        frontier = np.array([True, False, False, False])
        new_props, changed, events = _addop_pass(cfg, program, graph,
                                                 props, frontier)
        assert new_props[1] == 2.0
        assert new_props[3] == INFINITY   # source 2 inactive
        assert events.edges == 1

    def test_empty_frontier_is_identity(self, cfg, small_weighted_graph):
        program = SSSPProgram(source=0)
        props = program.initial_properties(small_weighted_graph)
        frontier = np.zeros(small_weighted_graph.num_vertices,
                            dtype=bool)
        new_props, changed, events = _addop_pass(
            cfg, program, small_weighted_graph, props, frontier)
        assert np.array_equal(new_props, props)
        assert not changed.any()
        assert events.edges == 0
