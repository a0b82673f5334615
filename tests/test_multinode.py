"""Tests for the multi-node GraphR extension."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.pagerank import pagerank_reference
from repro.core.accelerator import GraphR
from repro.core.config import GraphRConfig
from repro.core.multinode import MultiNodeConfig, MultiNodeGraphR
from repro.errors import ConfigError
from repro.graph.generators import rmat


@pytest.fixture
def graph():
    return rmat(8, 3000, seed=17, weighted=True, name="cluster-test")


class TestConfig:
    def test_defaults(self):
        cfg = MultiNodeConfig()
        assert cfg.num_nodes == 4
        assert cfg.node.mode == "analytic"

    def test_invalid(self):
        with pytest.raises(ConfigError):
            MultiNodeConfig(num_nodes=0)
        with pytest.raises(ConfigError):
            MultiNodeConfig(link_bandwidth_bps=0)

    def test_repr(self):
        assert "nodes=4" in repr(MultiNodeGraphR())

    def test_sparsity_ablation_rejected(self, graph):
        cluster = MultiNodeGraphR(MultiNodeConfig(
            num_nodes=2,
            node=GraphRConfig(mode="analytic",
                              skip_empty_subgraphs=False)))
        with pytest.raises(ConfigError, match="skip_empty_subgraphs"):
            cluster.run("pagerank", graph, max_iterations=2)


class TestPartitioning:
    def test_stripes_cover_vertex_space(self, graph):
        cluster = MultiNodeGraphR(MultiNodeConfig(num_nodes=3))
        stripes = cluster._stripes(graph)
        assert stripes[0][0] == 0
        assert stripes[-1][1] == graph.num_vertices
        for (_, hi), (lo, _) in zip(stripes, stripes[1:]):
            assert hi == lo

    def test_node_graphs_partition_edges(self, graph):
        cluster = MultiNodeGraphR(MultiNodeConfig(num_nodes=4))
        stripes = cluster._stripes(graph)
        total = sum(cluster._node_graph(graph, s).num_edges
                    for s in stripes)
        assert total == graph.num_edges

    def test_node_graph_keeps_global_ids(self, graph):
        cluster = MultiNodeGraphR(MultiNodeConfig(num_nodes=4))
        stripe = cluster._stripes(graph)[2]
        sub = cluster._node_graph(graph, stripe)
        assert sub.num_vertices == graph.num_vertices
        dst = np.asarray(sub.adjacency.cols)
        assert np.all((dst >= stripe[0]) & (dst < stripe[1]))


class TestExecution:
    def test_values_match_reference(self, graph):
        cluster = MultiNodeGraphR(MultiNodeConfig(num_nodes=4))
        result, stats = cluster.run("pagerank", graph, max_iterations=5)
        reference = pagerank_reference(graph, max_iterations=5)
        assert np.allclose(result.values, reference.values)
        assert stats.platform == "graphr-multinode"
        assert stats.extra["num_nodes"] == 4

    def test_exchange_charged_per_iteration(self, graph):
        cluster = MultiNodeGraphR(MultiNodeConfig(num_nodes=2))
        _, stats = cluster.run("pagerank", graph, max_iterations=5)
        per_round = (graph.num_vertices * 4
                     / cluster.config.link_bandwidth_bps
                     + cluster.config.link_latency_s)
        assert stats.latency.seconds_of("exchange") \
            == pytest.approx(5 * per_round)

    def test_active_list_algorithm(self, graph):
        cluster = MultiNodeGraphR(MultiNodeConfig(num_nodes=4))
        result, stats = cluster.run("sssp", graph, source=0)
        from repro.algorithms.sssp import sssp_reference
        reference = sssp_reference(graph, source=0)
        assert np.array_equal(result.values, reference.values)
        assert stats.iterations == reference.iterations

    def test_scaling_helps_compute_bound_runs(self):
        """With the exchange nearly free, more nodes must not be slower
        than one node on a compute-heavy workload."""
        dense = rmat(7, 6000, seed=3, name="dense")
        fast_link = MultiNodeConfig(num_nodes=8,
                                    link_bandwidth_bps=1e12,
                                    link_latency_s=0.0)
        one = MultiNodeGraphR(MultiNodeConfig(
            num_nodes=1, link_bandwidth_bps=1e12, link_latency_s=0.0))
        eight = MultiNodeGraphR(fast_link)
        _, s1 = one.run("pagerank", dense, max_iterations=5)
        _, s8 = eight.run("pagerank", dense, max_iterations=5)
        assert s8.seconds <= s1.seconds

    def test_single_node_matches_graphr_order_of_magnitude(self, graph):
        """One multinode stripe ~ a single GraphR node (same cost
        model, plus exchange)."""
        single = GraphR(GraphRConfig(mode="analytic"))
        _, mono = single.run("pagerank", graph, max_iterations=5)
        cluster = MultiNodeGraphR(MultiNodeConfig(num_nodes=1))
        _, multi = cluster.run("pagerank", graph, max_iterations=5)
        assert multi.seconds == pytest.approx(mono.seconds, rel=0.5)

    def test_functional_stripes_set_up_once(self, graph, monkeypatch):
        """Stripes are one fixed list, so each stripe's coefficients
        (and cells) are built on the first pass and reused after it."""
        from repro.algorithms.pagerank import PageRankProgram

        calls = []
        original = PageRankProgram.edge_coefficients

        def counting(self, *args, **kwargs):
            calls.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(PageRankProgram, "edge_coefficients",
                            counting)
        cluster = MultiNodeGraphR(MultiNodeConfig(
            num_nodes=3, node=GraphRConfig(mode="functional")))
        result, stats = cluster.run("pagerank", graph, max_iterations=4)
        assert stats.extra["mode"] == "multinode-functional"
        assert result.iterations == 4
        assert len(calls) == stats.extra["num_nodes"] == 3
