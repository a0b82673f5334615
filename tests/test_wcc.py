"""Tests for weakly connected components (extension algorithm)."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.algorithms.vertex_program import MappingPattern
from repro.algorithms.wcc import WCCProgram, component_sizes, wcc_reference
from repro.core.accelerator import GraphR
from repro.core.config import GraphRConfig
from repro.errors import GraphFormatError
from repro.graph.generators import chain_graph, rmat
from repro.graph.graph import Graph


class TestReference:
    def test_two_components(self):
        graph = Graph.from_edges([(0, 1), (1, 2), (3, 4)],
                                 num_vertices=5)
        result = wcc_reference(graph)
        assert result.converged
        sizes = component_sizes(result.values)
        assert sizes == {0: 3, 3: 2}

    def test_chain_single_component(self, path_graph):
        result = wcc_reference(path_graph)
        assert np.all(result.values == 0)

    def test_matches_networkx(self, small_graph):
        result = wcc_reference(small_graph)
        g = nx.DiGraph()
        g.add_nodes_from(range(small_graph.num_vertices))
        g.add_edges_from(
            (int(s), int(d)) for s, d, _ in small_graph.adjacency)
        nx_components = list(nx.weakly_connected_components(g))
        ours = component_sizes(result.values)
        assert sorted(ours.values()) == sorted(
            len(c) for c in nx_components)

    def test_directed_propagation_differs(self):
        # 1 -> 0: forward-only propagation cannot relabel 0's source.
        graph = Graph.from_edges([(1, 0)], num_vertices=2)
        sym = wcc_reference(graph, symmetrize=True)
        directed = wcc_reference(graph, symmetrize=False)
        assert np.array_equal(sym.values, [0, 0])
        assert np.array_equal(directed.values, [0, 1])

    def test_trace_has_frontiers(self, small_graph):
        result = wcc_reference(small_graph)
        assert result.trace.frontiers is not None
        assert result.trace.frontiers[0].all()

    def test_trace_counts_the_mirrored_edge_set(self):
        """A reciprocal pair plus a parallel edge: mirrored and
        deduplicated that is 2 edges, directed it is 3.  The CPU and
        GPU baselines charge from this trace."""
        graph = Graph.from_edges([(0, 1), (1, 0), (0, 1)], num_vertices=2)
        sym = wcc_reference(graph)
        directed = wcc_reference(graph, symmetrize=False)
        assert graph.symmetrized().num_edges == 2
        assert sym.trace.active_edges == [2, 1]
        assert directed.trace.active_edges == [3, 1]
        for result in (sym, directed):
            assert np.array_equal(result.values, [0, 0])
            assert result.trace.active_vertices == [2, 1]
            assert result.converged

    def test_iteration_cap(self, path_graph):
        result = wcc_reference(path_graph, max_iterations=1)
        assert result.iterations == 1
        assert not result.converged


class TestProgram:
    def test_descriptor(self):
        program = WCCProgram()
        assert program.pattern is MappingPattern.PARALLEL_ADD_OP
        assert program.reduce_op == "min"
        assert program.needs_active_list

    def test_initial_labels_are_ids(self, small_graph):
        labels = WCCProgram().initial_properties(small_graph)
        assert np.array_equal(labels,
                              np.arange(small_graph.num_vertices))

    def test_coefficients_zero(self, small_graph):
        coeffs = WCCProgram().crossbar_coefficient(small_graph)
        assert np.all(coeffs == 0.0)

    def test_too_many_vertices_rejected(self):
        big = Graph.from_edges([(0, 1)], num_vertices=1 << 16)
        with pytest.raises(GraphFormatError):
            WCCProgram().initial_properties(big)


class TestOnAccelerator:
    def test_functional_wcc_matches_reference(self):
        graph = rmat(5, 60, seed=13).symmetrized()
        cfg = GraphRConfig(crossbar_size=4, crossbars_per_ge=8,
                           num_ges=2, max_iterations=100)
        result, stats = GraphR(cfg).run("wcc", graph, mode="functional")
        reference = wcc_reference(graph, symmetrize=False)
        assert np.array_equal(result.values, reference.values)
        assert stats.seconds > 0

    def test_analytic_wcc(self):
        graph = rmat(6, 150, seed=2)
        cfg = GraphRConfig(mode="analytic")
        result, stats = GraphR(cfg).run("wcc", graph)
        assert stats.extra["mode"] == "analytic"
        assert component_sizes(result.values)


class TestSymmetrized:
    def test_every_edge_mirrored(self, small_graph):
        sym = small_graph.symmetrized()
        dense = sym.adjacency.to_dense()
        assert np.array_equal(dense > 0, (dense > 0).T)

    def test_weights_min_merged(self):
        graph = Graph.from_edges([(0, 1, 5.0), (1, 0, 2.0)],
                                 num_vertices=2, weighted=True)
        sym = graph.symmetrized()
        assert sym.adjacency.to_dense()[0, 1] == 2.0
        assert sym.adjacency.to_dense()[1, 0] == 2.0
