"""Partitioned-execution equivalence: block-streamed out-of-core and
multi-node runs against the in-memory single node.

The contracts under test:

* out-of-core runs are **bit-identical** to in-memory runs — values,
  seconds and the compute-side energy/latency ledgers — in both
  analytic and functional modes, with and without active lists, while
  holding at most one block's edges in memory;
* multi-node runs produce bit-identical values and identical
  event-linear energy *counts* (timing legitimately differs: nodes
  overlap and exchange properties);
* the deployment spec participates in the runtime's content keys and
  executes through the batch runner.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.registry import resolve_program
from repro.core.accelerator import GraphR
from repro.core.config import GraphRConfig
from repro.core.multinode import MultiNodeConfig, MultiNodeGraphR
from repro.core.outofcore import OutOfCoreRunner, prepare_on_disk
from repro.core.partitioned import (DeploymentSpec,
                                    PartitionedFunctionalRunner,
                                    partition_by_destination)
from repro.errors import ConfigError, JobError
from repro.graph.generators import rmat
from repro.graph.graph import Graph
from repro.graph.preprocess import GraphROrdering, preprocess_edge_list
from repro.runtime import BatchRunner, Job

#: Small node so the 128-vertex fixture spans many subgraphs.
CONFIG = dict(crossbar_size=4, crossbars_per_ge=8, num_ges=2,
              block_size=16)


@pytest.fixture(scope="module")
def graph():
    # 128 vertices / block 16 -> 8 blocks per side (64 blocks).
    return rmat(7, 900, seed=19, weighted=True, name="part")


@pytest.fixture(scope="module")
def analytic_disk(graph, tmp_path_factory):
    directory = tmp_path_factory.mktemp("blocks-analytic")
    prepare_on_disk(graph, directory, GraphRConfig(mode="analytic",
                                                   **CONFIG))
    return directory


def preprocessed(graph, config):
    """The deployment input: ``graph``'s edge list in streaming order."""
    ordering = GraphROrdering(
        num_vertices=graph.num_vertices,
        block_size=config.effective_block_size(graph.num_vertices),
        crossbar_size=config.crossbar_size,
        crossbars_per_ge=config.logical_crossbars_per_ge,
        num_ges=config.num_ges)
    return Graph(adjacency=preprocess_edge_list(graph.adjacency, ordering),
                 name=graph.name, weighted=graph.weighted)


def compute_energy(stats, exclude=("disk", "internode_links")):
    return {k: v for k, v in stats.energy.breakdown().items()
            if k not in exclude}


class TestOutOfCoreAnalyticEquivalence:
    """Streamed kernels == reference on the same preprocessed input."""

    @pytest.mark.parametrize("algorithm,kwargs", [
        ("pagerank", {"max_iterations": 5}),
        ("spmv", {}),
        ("sssp", {"source": 0}),
        ("bfs", {"source": 0}),
        ("wcc", {}),
        ("kcore", {"k": 3}),
        ("sswp", {"source": 0}),
        ("ppr", {"source": 0, "max_iterations": 5}),
    ])
    def test_bit_identical_to_in_memory(self, graph, analytic_disk,
                                        algorithm, kwargs):
        config = GraphRConfig(mode="analytic", **CONFIG)
        runner = OutOfCoreRunner(analytic_disk, config)
        ooc_result, ooc_stats = runner.run(algorithm, **kwargs)
        # The deployment input is the preprocessed (ordered) edge list;
        # the in-memory comparison run consumes the same input.
        in_memory, mem_stats = GraphR(config).run(
            algorithm, preprocessed(graph, config), **kwargs)
        assert np.array_equal(ooc_result.values, in_memory.values)
        assert ooc_result.iterations == in_memory.iterations
        assert ooc_stats.seconds == mem_stats.seconds
        assert ooc_stats.iterations == mem_stats.iterations
        assert compute_energy(ooc_stats) == compute_energy(mem_stats)
        assert dict(ooc_stats.latency.breakdown()) \
            == dict(mem_stats.latency.breakdown())

    @pytest.mark.parametrize("algorithm,kwargs", [
        ("sssp", {"source": 0}),
        ("bfs", {"source": 0}),
        ("sswp", {"source": 0}),
        ("kcore", {"k": 3}),
    ])
    def test_min_algorithms_match_original_order_too(self, graph,
                                                     analytic_disk,
                                                     algorithm, kwargs):
        """min/max-reduction is order-independent (and k-core's unit
        sums are exact integers), so streamed values also equal the
        reference on the *unordered* original graph."""
        config = GraphRConfig(mode="analytic", **CONFIG)
        runner = OutOfCoreRunner(analytic_disk, config)
        ooc_result, _ = runner.run(algorithm, **kwargs)
        in_memory, _ = GraphR(config).run(algorithm, graph, **kwargs)
        assert np.array_equal(ooc_result.values, in_memory.values)


class TestOutOfCoreFunctionalEquivalence:
    """Partitioned tile stream == whole-graph tile stream."""

    @pytest.mark.parametrize("algorithm,kwargs", [
        ("pagerank", {"max_iterations": 5}),
        ("spmv", {}),
        ("sssp", {"source": 0}),
        ("bfs", {"source": 0}),
        ("kcore", {"k": 3}),
        ("sswp", {"source": 0}),
        ("ppr", {"source": 0, "max_iterations": 5}),
    ])
    def test_bit_identical_to_in_memory(self, graph, tmp_path,
                                        algorithm, kwargs):
        config = GraphRConfig(mode="functional", **CONFIG)
        prepare_on_disk(graph, tmp_path, config)
        runner = OutOfCoreRunner(tmp_path, config)
        ooc_result, ooc_stats = runner.run(algorithm, **kwargs)
        in_memory, mem_stats = GraphR(config).run(algorithm, graph,
                                                  **kwargs)
        assert np.array_equal(ooc_result.values, in_memory.values)
        assert ooc_stats.seconds == mem_stats.seconds
        assert ooc_stats.iterations == mem_stats.iterations
        assert compute_energy(ooc_stats) == compute_energy(mem_stats)

    def test_noise_and_variation_share_rng_stream(self, graph,
                                                  tmp_path):
        """Blocks stream tiles in the global order, so the engine's
        noise/variation draws line up exactly with an in-memory run."""
        config = GraphRConfig(mode="functional", noise_sigma=0.02,
                              programming_sigma=0.05, seed=3, **CONFIG)
        prepare_on_disk(graph, tmp_path, config)
        ooc_result, _ = OutOfCoreRunner(tmp_path, config).run(
            "pagerank", max_iterations=4)
        in_memory, _ = GraphR(config).run("pagerank", graph,
                                          max_iterations=4)
        assert np.array_equal(ooc_result.values, in_memory.values)


class TestResidency:
    """The out-of-core promise: O(block) residency, not O(graph)."""

    def test_at_least_eight_blocks_per_side(self, analytic_disk):
        runner = OutOfCoreRunner(analytic_disk,
                                 GraphRConfig(mode="analytic", **CONFIG))
        assert runner.manifest.blocks_per_side >= 8

    @pytest.mark.parametrize("mode", ["analytic", "functional"])
    def test_peak_residency_is_one_block(self, graph, analytic_disk,
                                         mode):
        config = GraphRConfig(mode=mode, **CONFIG)
        runner = OutOfCoreRunner(analytic_disk, config)
        _, stats = runner.run("pagerank", max_iterations=3)
        bound = 2 * stats.extra["max_block_edges"]
        # The node's figure: at most two blocks live at once (it still
        # holds block k while k+1 loads).
        peak = stats.extra["peak_edge_residency"]
        assert 0 < peak <= bound
        # O(block), not O(graph): far below the whole edge list.
        assert peak < graph.num_edges / 4
        # The host's measured figure: at most two chunks, each no
        # larger than the largest block.
        assert 0 < runner.peak_edge_residency <= bound
        assert runner.peak_edge_residency < graph.num_edges / 4

    @staticmethod
    def _node_peak(directory, config, algorithm, **kwargs):
        _, stats = OutOfCoreRunner(directory, config).run(algorithm,
                                                          **kwargs)
        return stats.extra["peak_edge_residency"]

    def test_single_block_multi_pass_holds_the_block_twice(self, graph,
                                                           tmp_path):
        """One block: an analytic run of several passes still holds the
        last pass's block while the next pass loads it again."""
        geometry = dict(CONFIG, block_size=None)
        prepare_on_disk(graph, tmp_path, GraphRConfig(**geometry))
        analytic = GraphRConfig(mode="analytic", **geometry)
        functional = GraphRConfig(mode="functional", **geometry)
        e = graph.num_edges
        assert self._node_peak(tmp_path, analytic, "pagerank",
                               max_iterations=3) == 2 * e
        assert self._node_peak(tmp_path, analytic, "spmv") == e
        assert self._node_peak(tmp_path, functional, "pagerank",
                               max_iterations=3) == e

    def test_wrap_term_can_be_the_peak(self, tmp_path):
        """Blocks (0, 0) and (1, 1) are heavy, the two between them
        light: only the pass-to-pass handover pairs the heavy ones."""
        heavy_a = [(i, j, 1.0) for i in range(3) for j in range(3)]
        heavy_b = [(i, j, 1.0) for i in range(4, 7) for j in range(4, 7)]
        graph = Graph.from_edges(heavy_a + [(5, 0, 1.0), (0, 5, 1.0)]
                                 + heavy_b, num_vertices=8,
                                 weighted=True, name="wrap")
        geometry = dict(CONFIG, block_size=4)
        manifest = prepare_on_disk(graph, tmp_path,
                                   GraphRConfig(**geometry))
        assert manifest.blocks_per_side == 2
        analytic = GraphRConfig(mode="analytic", **geometry)
        functional = GraphRConfig(mode="functional", **geometry)
        # Block edge counts 9, 1, 1, 9: neighbours pair to 10 at most,
        # the wrap to 18.
        assert self._node_peak(tmp_path, analytic, "pagerank",
                               max_iterations=3) == 18
        assert self._node_peak(tmp_path, analytic, "spmv") == 10
        assert self._node_peak(tmp_path, functional, "pagerank",
                               max_iterations=3) == 10

    def test_counter_tracks_streaming(self, analytic_disk):
        runner = OutOfCoreRunner(analytic_disk,
                                 GraphRConfig(mode="analytic", **CONFIG))
        seen = 0
        for partition in runner.iter_partitions():
            assert runner._resident_edges == partition.graph.num_edges
            seen += partition.graph.num_edges
        del partition
        assert runner._resident_edges == 0
        assert seen == runner.manifest.num_edges

    def test_counter_exposes_hoarding_consumers(self, analytic_disk):
        """The counter tracks garbage collection, so retaining blocks
        (the pre-fix full reassembly) shows up as O(graph) residency."""
        runner = OutOfCoreRunner(analytic_disk,
                                 GraphRConfig(mode="analytic", **CONFIG))
        hoard = list(runner.iter_partitions())
        assert runner._resident_edges == runner.manifest.num_edges
        del hoard
        assert runner._resident_edges == 0


class TestChunkPlanInvariance:
    """Chunks only regroup one stream: one block per chunk, the default
    plan and one chunk for the whole shard give identical results."""

    @pytest.mark.parametrize("mode,algorithm,kwargs,noisy", [
        ("analytic", "pagerank", {"max_iterations": 3}, False),
        ("analytic", "sssp", {"source": 0}, False),
        ("analytic", "bfs", {"source": 0}, False),
        ("functional", "pagerank", {"max_iterations": 3}, False),
        ("functional", "pagerank", {"max_iterations": 3}, True),
        ("functional", "sssp", {"source": 0}, False),
        ("functional", "sssp", {"source": 0}, True),
        ("functional", "bfs", {"source": 0}, True),
    ])
    def test_every_plan_gives_the_same_result(self, analytic_disk, mode,
                                              algorithm, kwargs, noisy):
        device = dict(noise_sigma=0.02, programming_sigma=0.05,
                      seed=3) if noisy else {}
        config = GraphRConfig(mode=mode, **device, **CONFIG)
        blocks = OutOfCoreRunner(analytic_disk, config).manifest \
            .blocks_per_side ** 2
        plans = {"per-block": np.arange(blocks + 1),
                 "default": None,
                 "one-chunk": np.array([0, blocks])}
        outcomes = {}
        for name, bounds in plans.items():
            runner = OutOfCoreRunner(analytic_disk, config)
            if bounds is None:
                assert 2 < runner.chunk_bounds.size < blocks + 1
            else:
                runner.chunk_bounds = bounds
            result, stats = runner.run(algorithm, **kwargs)
            outcomes[name] = (result.values.tobytes(),
                              stats.identity_dict())
        assert outcomes["default"] == outcomes["per-block"]
        assert outcomes["one-chunk"] == outcomes["per-block"]


class TestFunctionalCoefficientCache:
    """Persistent partitions on the MAC cell path keep their cells, not
    their coefficients; the tile path keeps the coefficients."""

    @pytest.mark.parametrize("noisy", [False, True])
    def test_cells_replace_the_coefficient_cache(self, graph, noisy,
                                                 monkeypatch):
        device = dict(noise_sigma=0.02, seed=3) if noisy else {}
        config = GraphRConfig(mode="functional", **device, **CONFIG)
        program, _, init_kwargs = resolve_program("pagerank", {})
        calls = []
        real = program.edge_coefficients

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(program, "edge_coefficients", counting)
        partitions = partition_by_destination(
            graph, [(0, 48), (48, 96), (96, graph.num_vertices)], config)
        runner = PartitionedFunctionalRunner(
            config, program, graph.num_vertices, graph_view=graph,
            out_degrees=graph.out_degrees(),
            partitions=lambda: partitions, persistent_partitions=True)
        assert runner.cell_path is not noisy
        result, _ = runner.run(lambda merged, per: 0.0,
                               max_iterations=4, **init_kwargs)
        assert result.iterations == 4
        assert len(calls) == len(partitions)
        if noisy:
            assert set(runner._coeff_cache) == {0, 1, 2}
        else:
            assert runner._coeff_cache == {}
            assert set(runner._cell_cache) == {0, 1, 2}


class TestSinkFrontierPass:
    """Regression: a pass whose frontier holds only sinks (zero active
    edges) charges nothing on the single node — partitioned runs must
    mirror that early return, not bill a sequential scan."""

    @pytest.fixture
    def sink_graph(self):
        from repro.graph.graph import Graph
        # BFS from 0 ends with frontier {5}; vertex 5 has no out-edges.
        return Graph.from_edges([(0, 1), (0, 2), (2, 5)],
                                num_vertices=32, name="sinky")

    def test_out_of_core_matches_in_memory(self, sink_graph, tmp_path):
        config = GraphRConfig(crossbar_size=4, crossbars_per_ge=8,
                              num_ges=2, block_size=8, mode="analytic")
        prepare_on_disk(sink_graph, tmp_path, config)
        runner = OutOfCoreRunner(tmp_path, config)
        ooc_result, ooc_stats = runner.run("bfs", source=0)
        in_memory, mem_stats = GraphR(config).run("bfs", sink_graph,
                                                  source=0)
        assert np.array_equal(ooc_result.values, in_memory.values)
        assert ooc_stats.seconds == mem_stats.seconds
        assert compute_energy(ooc_stats) == compute_energy(mem_stats)

    def test_multi_node_matches_in_memory(self, sink_graph):
        config = GraphRConfig(crossbar_size=4, crossbars_per_ge=8,
                              num_ges=2, block_size=8, mode="analytic")
        cluster = MultiNodeGraphR(MultiNodeConfig(num_nodes=4,
                                                  node=config))
        _, clu_stats = cluster.run("bfs", sink_graph, source=0)
        _, mem_stats = GraphR(config).run("bfs", sink_graph, source=0)
        assert dict(clu_stats.energy.counts()) \
            == dict(mem_stats.energy.counts())


class TestMultiNodeEquivalence:
    """Block-aligned stripes: cluster work == single-node work."""

    @pytest.mark.parametrize("mode,algorithm,kwargs", [
        ("analytic", "pagerank", {"max_iterations": 5}),
        ("analytic", "sssp", {"source": 0}),
        ("analytic", "kcore", {"k": 3}),
        ("analytic", "sswp", {"source": 0}),
        ("analytic", "ppr", {"source": 0, "max_iterations": 5}),
        ("functional", "pagerank", {"max_iterations": 5}),
        ("functional", "sssp", {"source": 0}),
        ("functional", "bfs", {"source": 0}),
        ("functional", "kcore", {"k": 3}),
        ("functional", "sswp", {"source": 0}),
        ("functional", "ppr", {"source": 0, "max_iterations": 5}),
    ])
    def test_values_and_event_counts_match_single_node(self, graph,
                                                       mode, algorithm,
                                                       kwargs):
        node_cfg = GraphRConfig(mode=mode, **CONFIG)
        cluster = MultiNodeGraphR(MultiNodeConfig(num_nodes=4,
                                                  node=node_cfg))
        clu_result, clu_stats = cluster.run(algorithm, graph, **kwargs)
        mem_result, mem_stats = GraphR(node_cfg).run(algorithm, graph,
                                                     **kwargs)
        assert np.array_equal(clu_result.values, mem_result.values)
        assert clu_stats.iterations == mem_stats.iterations
        # Event-linear energy counts sum exactly across disjoint
        # stripes (joules can differ in the last ulp from charge
        # grouping; static ADC burn legitimately differs per node).
        assert dict(clu_stats.energy.counts()) \
            == dict(mem_stats.energy.counts())
        assert clu_stats.extra["mode"] == f"multinode-{mode}"

    def test_stripes_align_to_block_columns(self, graph):
        cluster = MultiNodeGraphR(MultiNodeConfig(
            num_nodes=4, node=GraphRConfig(mode="analytic", **CONFIG)))
        for lo, hi in cluster._stripes(graph):
            assert lo % CONFIG["block_size"] == 0
        assert cluster._stripes(graph)[-1][1] == graph.num_vertices

    def test_unaligned_stripes_still_split_evenly(self, graph):
        """Without a block size the vertex split stays linspace."""
        cluster = MultiNodeGraphR(MultiNodeConfig(
            num_nodes=3, node=GraphRConfig(mode="analytic")))
        stripes = cluster._stripes(graph)
        assert stripes[0][0] == 0
        assert stripes[-1][1] == graph.num_vertices
        widths = [hi - lo for lo, hi in stripes]
        assert max(widths) - min(widths) <= 1


class TestMultiNodeCFFeatureCount:
    """Regression: CF must charge the feature count it computes with
    (pre-fix, the cost path read the default-constructed program)."""

    def test_feature_count_scales_cluster_work(self):
        graph = rmat(6, 400, seed=5, name="cf-grid")
        cluster = MultiNodeGraphR(MultiNodeConfig(num_nodes=2))
        _, few = cluster.run("cf", graph, features=4, epochs=1)
        _, many = cluster.run("cf", graph, features=16, epochs=1)
        # 4x the features = 4x the presentations (hence conversions)
        # per pass; pre-fix both runs charged the registry default.
        assert many.energy.counts()["adc"] \
            == 4 * few.energy.counts()["adc"]


class TestDeploymentSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            DeploymentSpec(kind="quantum")

    def test_round_trip(self):
        spec = DeploymentSpec(kind="multi-node", num_nodes=8,
                              link_bandwidth_bps=32e9)
        assert DeploymentSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            DeploymentSpec.from_dict({"kind": "single", "nodes": 2})

    def test_single_spec_is_the_default_key(self):
        plain = Job(algorithm="pagerank", dataset="WV")
        single = Job(algorithm="pagerank", dataset="WV",
                     deployment=DeploymentSpec(kind="single"))
        assert plain.content_key() == single.content_key()

    def test_deployment_changes_content_key(self):
        plain = Job(algorithm="pagerank", dataset="WV")
        ooc = Job(algorithm="pagerank", dataset="WV",
                  deployment=DeploymentSpec(kind="out-of-core"))
        two = Job(algorithm="pagerank", dataset="WV",
                  deployment=DeploymentSpec(kind="multi-node",
                                            num_nodes=2))
        four = Job(algorithm="pagerank", dataset="WV",
                   deployment=DeploymentSpec(kind="multi-node",
                                             num_nodes=4))
        keys = {plain.content_key(), ooc.content_key(),
                two.content_key(), four.content_key()}
        assert len(keys) == 4

    def test_jobfile_entry_round_trip(self):
        job = Job(algorithm="pagerank", dataset="WV",
                  deployment=DeploymentSpec(kind="multi-node",
                                            num_nodes=2))
        assert Job.from_dict(job.to_dict()) == job

    def test_baseline_platform_rejects_deployment(self):
        with pytest.raises(JobError):
            Job(algorithm="bfs", dataset="WV", platform="cpu",
                deployment=DeploymentSpec(kind="out-of-core"))


class TestDeploymentExecution:
    """Deployment jobs run end to end through the batch runtime."""

    def test_batch_runner_fans_deployment_grid(self, tmp_path):
        runner = BatchRunner(cache_dir=tmp_path)
        config = GraphRConfig(mode="analytic", block_size=2048)
        jobs = [
            runner.make_job("pagerank", "WV", max_iterations=3),
            runner.make_job("pagerank", "WV", config=config,
                            deployment=DeploymentSpec(kind="out-of-core"),
                            max_iterations=3),
            runner.make_job("pagerank", "WV",
                            deployment=DeploymentSpec(kind="multi-node",
                                                      num_nodes=2),
                            max_iterations=3),
        ]
        results = runner.run_jobs(jobs)
        assert all(result.ok for result in results)
        single, ooc, multi = (result.unwrap() for result in results)
        assert ooc.extra["deployment"] == "out-of-core"
        assert ooc.extra["peak_edge_residency"] \
            <= 2 * ooc.extra["max_block_edges"]
        assert multi.extra["num_nodes"] == 2
        assert single.iterations == ooc.iterations == multi.iterations
        # Warm rerun answers every deployment from the cache.
        rerun = runner.run_jobs(jobs)
        assert all(result.from_cache for result in rerun)
