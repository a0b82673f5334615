"""Tests for the explicit out-of-core workflow (Figure 9)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.accelerator import GraphR
from repro.core.config import GraphRConfig
from repro.core.outofcore import (
    OutOfCoreRunner,
    plan_chunks,
    prepare_on_disk,
)
from repro.core.streaming import SubgraphStreamer
from repro.errors import ConfigError, ConvergenceError, GraphFormatError
from repro.graph.generators import rmat
from repro.graph.graph import Graph
from repro.graph.preprocess import GraphROrdering, preprocess_edge_list

#: Every file of a packed shard.
SHARD_FILES = ["degrees.i64", "dst.i32", "manifest.json", "offsets.i64",
               "src.i32", "values.f64"]


@pytest.fixture
def graph():
    return rmat(6, 250, seed=19, weighted=True, name="ooc")


@pytest.fixture
def config():
    return GraphRConfig(crossbar_size=4, crossbars_per_ge=8, num_ges=2,
                        block_size=16, mode="analytic")


def ordered_edges(graph, config):
    """The edge list in streaming order, as ``preprocess_edge_list``
    emits it."""
    ordering = GraphROrdering(
        num_vertices=graph.num_vertices,
        block_size=config.effective_block_size(graph.num_vertices),
        crossbar_size=config.crossbar_size,
        crossbars_per_ge=config.logical_crossbars_per_ge,
        num_ges=config.num_ges)
    return preprocess_edge_list(graph.adjacency, ordering)


class TestPrepare:
    def test_manifest_written(self, graph, config, tmp_path):
        manifest = prepare_on_disk(graph, tmp_path, config)
        assert manifest.num_edges == graph.num_edges
        assert manifest.block_size == 16
        assert manifest.blocks_per_side == 4
        # One packed shard, not one file per block.
        assert sorted(p.name for p in tmp_path.iterdir()) == SHARD_FILES
        payload = json.loads((tmp_path / "manifest.json").read_text())
        assert payload["nonempty_subgraphs"] == manifest.nonempty_subgraphs
        assert payload["max_block_edges"] == manifest.max_block_edges
        e = graph.num_edges
        assert (tmp_path / "src.i32").stat().st_size == 4 * e
        assert (tmp_path / "dst.i32").stat().st_size == 4 * e
        assert (tmp_path / "values.f64").stat().st_size == 8 * e

    def test_blocks_partition_edges(self, graph, config, tmp_path):
        manifest = prepare_on_disk(graph, tmp_path, config)
        src = np.fromfile(tmp_path / "src.i32", dtype="<i4")
        dst = np.fromfile(tmp_path / "dst.i32", dtype="<i4")
        values = np.fromfile(tmp_path / "values.f64", dtype="<f8")
        offsets = np.fromfile(tmp_path / "offsets.i64", dtype="<i8")
        # The columns are the preprocessed edge list, in order.
        ordered = ordered_edges(graph, config)
        assert np.array_equal(src, ordered.rows)
        assert np.array_equal(dst, ordered.cols)
        assert np.array_equal(values, ordered.values)
        # Block k (column-major) owns [offsets[k], offsets[k + 1]).
        side, block = manifest.blocks_per_side, manifest.block_size
        assert offsets.size == side * side + 1
        owner = np.repeat(np.arange(side * side), np.diff(offsets))
        assert np.array_equal(owner, src // block + side * (dst // block))
        assert np.diff(offsets).max() == manifest.max_block_edges
        assert np.array_equal(
            np.fromfile(tmp_path / "degrees.i64", dtype="<i8"),
            graph.out_degrees())

    def test_whole_graph_block(self, graph, tmp_path):
        config = GraphRConfig(crossbar_size=4, crossbars_per_ge=8,
                              num_ges=2, mode="analytic")
        manifest = prepare_on_disk(graph, tmp_path, config)
        assert manifest.blocks_per_side == 1
        assert manifest.max_block_edges == graph.num_edges
        assert list(np.fromfile(tmp_path / "offsets.i64",
                                dtype="<i8")) == [0, graph.num_edges]

    def test_empty_blocks_count_one_subgraph_each(self, tmp_path):
        """A hand-built shard with empty blocks: the census keeps the
        per-block streamers' figure, one subgraph per empty block."""
        # 4 x 4 blocks of 8 vertices; only blocks (0, 0), (1, 0) and
        # (3, 3) hold edges, so 13 blocks are empty.
        graph = Graph.from_edges(
            [(0, 1, 1.0), (1, 2, 2.0), (7, 0, 1.0), (9, 3, 1.0),
             (30, 31, 4.0), (25, 24, 1.0)],
            num_vertices=32, name="sparse", weighted=True)
        config = GraphRConfig(crossbar_size=4, crossbars_per_ge=4,
                              num_ges=1, block_size=8, mode="analytic")
        manifest = prepare_on_disk(graph, tmp_path, config)
        streamer = SubgraphStreamer(graph, config)
        assert manifest.nonempty_subgraphs \
            == streamer.num_nonempty_subgraphs + 13
        assert manifest.max_block_edges == 3
        runner = OutOfCoreRunner(tmp_path, config)
        result, stats = runner.run("sssp", source=0)
        assert stats.extra["nonempty_subgraphs"] \
            == manifest.nonempty_subgraphs
        in_memory, mem_stats = GraphR(config).run("sssp", graph, source=0)
        assert np.array_equal(result.values, in_memory.values)
        assert stats.seconds == mem_stats.seconds

    def test_vertex_ids_must_fit_int32(self, tmp_path):
        from repro.graph.coo import COOMatrix

        n = 2 ** 31
        huge = Graph(adjacency=COOMatrix((n, n), [0], [1]), name="huge")
        with pytest.raises(ConfigError, match="int32"):
            prepare_on_disk(huge, tmp_path, GraphRConfig(block_size=1024))


class TestPlanChunks:
    def test_greedy_runs_within_the_bound(self):
        counts = np.array([3, 0, 0, 4, 1, 2, 0, 5, 5, 0])
        offsets = np.concatenate(([0], np.cumsum(counts)))
        bounds = plan_chunks(offsets, 5)
        assert bounds[0] == 0 and bounds[-1] == counts.size
        assert (np.diff(bounds) >= 1).all()
        edges = np.diff(offsets[bounds])
        assert (edges <= 5).all()
        # Greedy: the next chunk's first block would not have fit.
        for chunk in range(bounds.size - 2):
            assert edges[chunk] + counts[bounds[chunk + 1]] > 5
        assert list(bounds) == [0, 3, 5, 7, 8, 10]

    def test_small_bound_still_advances(self):
        offsets = np.array([0, 4, 8, 8, 12])
        assert list(plan_chunks(offsets, 0)) == [0, 1, 2, 3, 4]
        assert list(plan_chunks(offsets, 4)) == [0, 1, 3, 4]
        assert list(plan_chunks(offsets, 100)) == [0, 4]

    def test_default_plan_groups_blocks(self, graph, config, tmp_path):
        manifest = prepare_on_disk(graph, tmp_path, config)
        bounds = OutOfCoreRunner(tmp_path, config).chunk_bounds
        assert 1 < bounds.size - 1 < manifest.blocks_per_side ** 2


class TestRunner:
    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            OutOfCoreRunner(tmp_path)

    def test_results_match_in_memory(self, graph, config, tmp_path):
        prepare_on_disk(graph, tmp_path, config)
        runner = OutOfCoreRunner(tmp_path, config)
        ooc_result, ooc_stats = runner.run("sssp", source=0)
        in_memory, mem_stats = GraphR(config).run("sssp", graph,
                                                  source=0)
        assert np.array_equal(ooc_result.values, in_memory.values)
        assert ooc_stats.seconds == pytest.approx(mem_stats.seconds)

    @pytest.mark.parametrize("algorithm", ["pagerank", "ppr"])
    def test_zero_budget_raises_like_in_memory(self, graph, config,
                                               tmp_path, algorithm):
        """No pass can converge within a budget of 0 iterations."""
        kwargs = dict(max_iterations=0, raise_on_divergence=True)
        with pytest.raises(ConvergenceError, match="in 0 iterations"):
            GraphR(config).run(algorithm, graph, **kwargs)
        prepare_on_disk(graph, tmp_path, config)
        runner = OutOfCoreRunner(tmp_path, config)
        with pytest.raises(ConvergenceError, match="in 0 iterations"):
            runner.run(algorithm, **kwargs)

    def test_disk_time_reported_separately(self, graph, config,
                                           tmp_path):
        prepare_on_disk(graph, tmp_path, config)
        runner = OutOfCoreRunner(tmp_path, config)
        _, stats = runner.run("pagerank", max_iterations=5)
        assert stats.extra["disk_seconds"] > 0
        assert stats.extra["seconds_with_disk"] \
            == pytest.approx(stats.seconds + stats.extra["disk_seconds"])
        # Disk I/O is excluded from the paper-comparable time.
        assert stats.extra["seconds_with_disk"] > stats.seconds

    def test_disk_energy_charged(self, graph, config, tmp_path):
        prepare_on_disk(graph, tmp_path, config)
        runner = OutOfCoreRunner(tmp_path, config)
        _, stats = runner.run("pagerank", max_iterations=5)
        assert stats.energy.energy_of("disk") > 0

    def test_block_count_recorded(self, graph, config, tmp_path):
        prepare_on_disk(graph, tmp_path, config)
        runner = OutOfCoreRunner(tmp_path, config)
        _, stats = runner.run("spmv")
        assert stats.extra["blocks"] == runner.manifest.blocks_per_side ** 2

    def test_cf_unsupported_with_clear_error(self, graph, config,
                                             tmp_path):
        prepare_on_disk(graph, tmp_path, config)
        runner = OutOfCoreRunner(tmp_path, config)
        with pytest.raises(ConfigError, match="collaborative filtering"):
            runner.run("cf", epochs=1)

    def test_unknown_mode_rejected(self, graph, config, tmp_path):
        prepare_on_disk(graph, tmp_path, config)
        runner = OutOfCoreRunner(tmp_path, config)
        with pytest.raises(ConfigError, match="mode"):
            runner.run("pagerank", mode="quantum", max_iterations=2)

    def test_sparsity_ablation_rejected(self, graph, tmp_path):
        """Per-partition streamers each count the whole grid's empty
        slots, so the no-skip ablation is single-node only."""
        config = GraphRConfig(crossbar_size=4, crossbars_per_ge=8,
                              num_ges=2, block_size=16,
                              mode="analytic",
                              skip_empty_subgraphs=False)
        prepare_on_disk(graph, tmp_path, config)
        runner = OutOfCoreRunner(tmp_path, config)
        with pytest.raises(ConfigError, match="skip_empty_subgraphs"):
            runner.run("pagerank", max_iterations=2)


class TestModeHonoured:
    """Regression: a functional-mode config must run functionally
    (pre-fix, ``run`` hardcoded ``mode="analytic"`` and silently
    misreported the execution mode)."""

    def test_functional_config_runs_functionally(self, graph, tmp_path):
        config = GraphRConfig(crossbar_size=4, crossbars_per_ge=8,
                              num_ges=2, block_size=16,
                              mode="functional")
        prepare_on_disk(graph, tmp_path, config)
        runner = OutOfCoreRunner(tmp_path, config)
        _, stats = runner.run("pagerank", max_iterations=3)
        assert stats.extra["mode"] == "functional"
        # Functional runs show their device work in the ledgers.
        assert stats.energy.energy_of("crossbar_read") > 0

    def test_mode_argument_overrides_config(self, graph, config,
                                            tmp_path):
        prepare_on_disk(graph, tmp_path, config)
        runner = OutOfCoreRunner(tmp_path, config)
        _, stats = runner.run("pagerank", mode="functional",
                              max_iterations=3)
        assert stats.extra["mode"] == "functional"

    def test_auto_resolves_like_the_accelerator(self, graph, tmp_path):
        config = GraphRConfig(crossbar_size=4, crossbars_per_ge=8,
                              num_ges=2, block_size=16, mode="auto")
        prepare_on_disk(graph, tmp_path, config)
        runner = OutOfCoreRunner(tmp_path, config)
        _, stats = runner.run("pagerank", max_iterations=3)
        assert stats.extra["mode"] == "functional"
        budget_zero = GraphRConfig(crossbar_size=4, crossbars_per_ge=8,
                                   num_ges=2, block_size=16,
                                   mode="auto",
                                   functional_tile_budget=0)
        _, stats = OutOfCoreRunner(tmp_path, budget_zero).run(
            "pagerank", max_iterations=3)
        assert stats.extra["mode"] == "analytic"


class TestBlockIntegrity:
    """A corrupt shard must be rejected when it opens or when the chunk
    holding the damage is read, never silently loaded."""

    def _nonempty_block(self, directory):
        """``(start, stop)`` edge range of the first block holding more
        than one edge."""
        offsets = np.fromfile(directory / "offsets.i64", dtype="<i8")
        block = int(np.flatnonzero(np.diff(offsets) > 1)[0])
        return int(offsets[block]), int(offsets[block + 1])

    def _shift_sources(self, directory, shift):
        start, stop = self._nonempty_block(directory)
        src = np.fromfile(directory / "src.i32", dtype="<i4")
        src[start:stop] += shift
        src.tofile(directory / "src.i32")

    def _rewrite_table(self, directory, filename, edit):
        table = np.fromfile(directory / filename, dtype="<i8")
        edit(table).astype("<i8").tofile(directory / filename)

    def test_out_of_bounds_edges_rejected(self, graph, config,
                                          tmp_path):
        prepare_on_disk(graph, tmp_path, config)
        runner = OutOfCoreRunner(tmp_path, config)
        # Shift one block's sources into the neighbouring block row:
        # the offsets, sizes and degree sum still match the manifest.
        self._shift_sources(tmp_path, runner.manifest.block_size)
        with pytest.raises(GraphFormatError, match="outside block"):
            runner.run("pagerank", max_iterations=2)

    def test_functional_pass_validates_too(self, graph, config, tmp_path):
        prepare_on_disk(graph, tmp_path, config)
        self._shift_sources(tmp_path, config.block_size)
        runner = OutOfCoreRunner(tmp_path, config)
        with pytest.raises(GraphFormatError, match="outside block"):
            runner.run("pagerank", mode="functional", max_iterations=2)

    def test_missing_edges_rejected(self, graph, config, tmp_path):
        """A truncated column file fails at open."""
        prepare_on_disk(graph, tmp_path, config)
        dst = np.fromfile(tmp_path / "dst.i32", dtype="<i4")
        dst[:-1].tofile(tmp_path / "dst.i32")
        with pytest.raises(GraphFormatError, match=r"dst\.i32: \d+ bytes"):
            OutOfCoreRunner(tmp_path, config)

    def test_non_monotone_offsets_rejected(self, graph, config,
                                           tmp_path):
        prepare_on_disk(graph, tmp_path, config)

        def overtake(offsets):
            # An interior offset past its successor; both ends intact.
            offsets[1] = offsets[2] + 1
            return offsets

        self._rewrite_table(tmp_path, "offsets.i64", overtake)
        with pytest.raises(GraphFormatError, match="are not monotone"):
            OutOfCoreRunner(tmp_path, config)

    def test_offsets_must_end_at_num_edges(self, graph, config,
                                           tmp_path):
        prepare_on_disk(graph, tmp_path, config)

        def short(offsets):
            offsets[-1] -= 1
            return offsets

        self._rewrite_table(tmp_path, "offsets.i64", short)
        with pytest.raises(GraphFormatError,
                           match=r"offsets span \[0, \d+\], manifest says"):
            OutOfCoreRunner(tmp_path, config)

    @pytest.mark.parametrize("edit", ["length", "sum"])
    def test_bad_degree_table_rejected(self, graph, config, tmp_path,
                                       edit):
        prepare_on_disk(graph, tmp_path, config)

        def damage(degrees):
            if edit == "length":
                return degrees[:-1]
            degrees[0] += 1
            return degrees

        self._rewrite_table(tmp_path, "degrees.i64", damage)
        message = (r"degrees\.i64: \d+ entries, expected" if edit == "length"
                   else "degrees sum to")
        with pytest.raises(GraphFormatError, match=message):
            OutOfCoreRunner(tmp_path, config)

    def test_other_layout_rejected(self, graph, config, tmp_path):
        prepare_on_disk(graph, tmp_path, config)
        path = tmp_path / "manifest.json"
        payload = json.loads(path.read_text())
        payload["layout"] = 1
        path.write_text(json.dumps(payload))
        with pytest.raises(GraphFormatError, match="shard layout 1,"):
            OutOfCoreRunner(tmp_path, config)
