"""Functional engine paths: bit-equivalence with the per-tile oracle.

Every positive batch size must produce results and event counts
*bit-identical* to the per-tile reference loop (``batch_size=0``) —
across mapping patterns, batch sizes, frontiers, and with
noise/variation enabled.  Clean engines take the cell path (programmed
cells contracted with one segmented integer sum, add-op candidates
folded edge by edge); noisy and variational ones stack dense
``(B, S, S)`` tiles (vectorised scatter + one einsum per stack).  The
clean parameters of the controller test and the hypothesis oracle below
compare the cell path with the oracle; the others compare the tile
batches.  This file also carries the regression tests for the
correctness bugs the batching work exposed: duplicate-edge loss in the
MAC scatter and correlated noise/variation RNG streams.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms.registry import get_program
from repro.algorithms.spmv import SpMVProgram
from repro.algorithms.sssp import INFINITY, SSSPProgram
from repro.core.addop_mapper import run_addop_iteration, run_addop_scan
from repro.core.config import GraphRConfig
from repro.core.controller import Controller
from repro.core.engine import GraphEngine
from repro.core.mac_mapper import run_mac_iteration, run_mac_scan
from repro.core.partitioned import partition_by_destination
from repro.core.streaming import SubgraphStreamer
from repro.graph.coo import COOMatrix
from repro.graph.generators import erdos_renyi, rmat
from repro.graph.graph import Graph
from repro.reram.fixed_point import FixedPointFormat

BATCH_SIZES = (1, 3, 64, 10_000)

ALGORITHMS = [
    ("pagerank", {}),
    ("spmv", {}),
    ("bfs", {"source": 0}),
    ("sssp", {"source": 0}),
    ("wcc", {}),
    ("kcore", {"k": 3}),
    ("sswp", {"source": 0}),
    ("ppr", {"source": 0}),
]

NONIDEALITIES = [
    {},                                             # clean
    {"noise_sigma": 0.5},                           # read noise
    {"programming_sigma": 0.08, "ir_drop_alpha": 0.1},   # variation
    {"noise_sigma": 0.5, "programming_sigma": 0.08},     # both
]


def _config(batch_size, **overrides):
    return GraphRConfig(crossbar_size=4, crossbars_per_ge=8, num_ges=2,
                        max_iterations=40,
                        functional_batch_size=batch_size, **overrides)


def _run(graph, algorithm, kwargs, batch_size, **overrides):
    program = get_program(algorithm, **kwargs)
    controller = Controller(_config(batch_size, **overrides), graph,
                            program)
    return controller.run_functional(**kwargs)


class TestControllerEquivalence:
    @pytest.mark.parametrize("algorithm,kwargs", ALGORITHMS)
    @pytest.mark.parametrize("overrides", NONIDEALITIES,
                             ids=["clean", "noise", "variation", "both"])
    def test_batched_matches_per_tile(self, algorithm, kwargs,
                                      overrides):
        graph = rmat(6, 200, seed=12, weighted=True)
        reference, ref_stats = _run(graph, algorithm, kwargs, 0,
                                    **overrides)
        for batch_size in BATCH_SIZES:
            result, stats = _run(graph, algorithm, kwargs, batch_size,
                                 **overrides)
            assert np.array_equal(result.values, reference.values), \
                f"values diverge at batch_size={batch_size}"
            assert result.iterations == reference.iterations
            assert stats.to_dict() == ref_stats.to_dict(), \
                f"stats diverge at batch_size={batch_size}"

    def test_blocked_graph_equivalence(self):
        graph = erdos_renyi(48, 300, seed=2)
        a, sa = _run(graph, "pagerank", {}, 0, block_size=16)
        b, sb = _run(graph, "pagerank", {}, 7, block_size=16)
        assert np.array_equal(a.values, b.values)
        assert sa.to_dict() == sb.to_dict()


class TestMapperEquivalence:
    @pytest.fixture
    def cfg(self):
        return _config(8)

    def test_frontier_restricted_addop_batches(self, cfg,
                                               small_weighted_graph):
        """Partial frontiers must restrict batched add-op work exactly
        like the per-tile loop's active-list filtering."""
        graph = small_weighted_graph
        program = SSSPProgram(source=0)
        streamer = SubgraphStreamer(graph, cfg)
        fmt = FixedPointFormat(16, 0)
        coeffs = program.crossbar_coefficient(graph)
        rng = np.random.default_rng(3)
        props = rng.integers(0, 40, graph.num_vertices).astype(float)
        props[rng.random(graph.num_vertices) < 0.5] = INFINITY
        frontier = props != INFINITY
        outs = []
        for batch_size in (0, 1, 5, 1000):
            engine = GraphEngine(cfg, coeff_fmt=fmt, input_fmt=fmt)
            outs.append(run_addop_iteration(
                streamer, engine, program, graph, props, coeffs,
                frontier=frontier, batch_size=batch_size))
        for new_props, changed, events in outs[1:]:
            assert np.array_equal(new_props, outs[0][0])
            assert np.array_equal(changed, outs[0][1])
            assert events == outs[0][2]

    def test_mac_iteration_events_match(self, cfg, small_graph):
        program = SpMVProgram()
        streamer = SubgraphStreamer(small_graph, cfg)
        fmt = FixedPointFormat(16, 8)
        props = program.initial_properties(small_graph)
        coeffs = program.crossbar_coefficient(small_graph)
        per_tile = run_mac_iteration(
            streamer, GraphEngine(cfg, coeff_fmt=fmt, input_fmt=fmt),
            program, small_graph, props, coeffs, batch_size=0)
        batched = run_mac_iteration(
            streamer, GraphEngine(cfg, coeff_fmt=fmt, input_fmt=fmt),
            program, small_graph, props, coeffs, batch_size=6)
        assert np.array_equal(per_tile[0], batched[0])
        assert per_tile[2] == batched[2]
        assert batched[2].edges == small_graph.num_edges


class TestDuplicateEdges:
    """Regression: the MAC scatter used to keep only the last value of
    duplicate coordinates, while :meth:`COOMatrix.to_dense` (and the
    references) sum them."""

    @pytest.fixture
    def multigraph(self):
        edges = [(0, 1, 0.25), (0, 1, 0.5), (0, 1, 0.125),  # triplicate
                 (1, 2, 0.5), (1, 2, 0.25),                 # duplicate
                 (2, 3, 0.5), (3, 0, 0.5)]
        return Graph.from_edges(edges, num_vertices=4, weighted=True,
                                name="multi")

    @pytest.mark.parametrize("batch_size", [0, 2, 64])
    def test_functional_spmv_matches_dense(self, multigraph, batch_size):
        cfg = _config(batch_size)
        program = SpMVProgram()
        streamer = SubgraphStreamer(multigraph, cfg)
        fmt = FixedPointFormat(16, 8)
        engine = GraphEngine(cfg, coeff_fmt=fmt, input_fmt=fmt)
        x = np.array([1.0, 2.0, 4.0, 8.0])
        coeffs = program.crossbar_coefficient(multigraph)
        new_props, _, _ = run_mac_iteration(
            streamer, engine, program, multigraph, x, coeffs,
            batch_size=batch_size)
        dense = np.zeros((4, 4))
        np.add.at(dense, (np.asarray(multigraph.adjacency.rows),
                          np.asarray(multigraph.adjacency.cols)), coeffs)
        expected = program.source_input(x, multigraph) @ dense
        # Exact up to the 16.8 fixed-point quantisation of each cell.
        assert np.allclose(new_props, expected, atol=8 * 2.0 ** -9)
        # The triplicated cell carries the *sum* of its coefficients
        # ((0.25 + 0.5 + 0.125) / outdeg 3); last-write-wins would have
        # kept only 0.125 / 3.
        assert new_props[1] == pytest.approx(0.875 / 3, abs=2.0 ** -8)

    @pytest.mark.parametrize("batch_size", [0, 2])
    def test_addop_duplicates_take_minimum(self, multigraph, batch_size):
        """Parallel relaxations through parallel edges keep the
        lightest weight — matching the reference's edge-wise relax."""
        cfg = _config(batch_size)
        program = SSSPProgram(source=0)
        streamer = SubgraphStreamer(multigraph, cfg)
        fmt = FixedPointFormat(16, 0)
        engine = GraphEngine(cfg, coeff_fmt=fmt, input_fmt=fmt)
        edges = [(0, 1, 9.0), (0, 1, 2.0), (0, 1, 5.0)]
        g = Graph.from_edges(edges, num_vertices=4, weighted=True)
        streamer = SubgraphStreamer(g, cfg)
        props = np.array([0.0, INFINITY, INFINITY, INFINITY])
        coeffs = program.crossbar_coefficient(g)
        new_props, _, _ = run_addop_iteration(
            streamer, engine, program, g, props, coeffs,
            frontier=props != INFINITY, batch_size=batch_size)
        assert new_props[1] == 2.0


class TestRNGIndependence:
    """Regression: read noise and programming variation used to share
    the raw config seed, correlating their draws."""

    def test_noise_and_variation_streams_differ(self):
        cfg = _config(8, noise_sigma=1.0, programming_sigma=0.1)
        engine = GraphEngine(cfg)
        # The variation field must not equal what a generator seeded
        # with the raw config seed would draw (the old coupling).
        coupled = np.random.default_rng(cfg.seed).lognormal(
            mean=0.0, sigma=cfg.programming_sigma, size=(4, 4))
        actual = engine._variation.effective_gain((4, 4))
        assert not np.allclose(actual, coupled)
        # And the noise stream must not replay the raw-seed stream.
        raw = np.random.default_rng(cfg.seed).normal(0.0, 1.0, 16)
        fresh = GraphEngine(cfg)._rng.normal(0.0, 1.0, 16)
        assert not np.allclose(fresh, raw)

    def test_engine_runs_stay_deterministic(self, small_graph):
        results = []
        for _ in range(2):
            result, stats = _run(small_graph, "pagerank", {}, 16,
                                 noise_sigma=0.3,
                                 programming_sigma=0.05)
            results.append((result.values, stats.to_dict()))
        assert np.array_equal(results[0][0], results[1][0])
        assert results[0][1] == results[1][1]


class TestBatchScatter:
    def test_batches_reconstruct_adjacency(self, small_graph):
        """Scattered batches, reassembled, equal the dense adjacency."""
        cfg = _config(16)
        streamer = SubgraphStreamer(small_graph, cfg)
        coeffs = np.asarray(small_graph.adjacency.values, dtype=float)
        dense = np.zeros((streamer.ordering.padded_vertices,
                          streamer.ordering.padded_vertices))
        total_edges = 0
        total_subgraphs = 0
        for batch in streamer.iter_tile_batches(coeffs, 16):
            for i in range(batch.count):
                r = int(batch.row_bases[i])
                c = int(batch.col_bases[i])
                s = cfg.crossbar_size
                dense[r:r + s, c:c + s] += batch.dense[i]
            total_edges += batch.edges
            total_subgraphs += batch.subgraph_starts
        n = small_graph.num_vertices
        assert np.array_equal(dense[:n, :n],
                              small_graph.adjacency.to_dense())
        assert total_edges == small_graph.num_edges
        assert total_subgraphs == streamer.num_nonempty_subgraphs

    def test_frontier_batches_match_filtered_graph(self,
                                                   small_weighted_graph):
        cfg = _config(8)
        graph = small_weighted_graph
        streamer = SubgraphStreamer(graph, cfg)
        coeffs = np.asarray(graph.adjacency.values, dtype=float)
        frontier = np.zeros(graph.num_vertices, dtype=bool)
        frontier[:graph.num_vertices // 3] = True
        dense = np.zeros((streamer.ordering.padded_vertices,
                          streamer.ordering.padded_vertices))
        for batch in streamer.iter_tile_batches(coeffs, 8,
                                                frontier=frontier):
            for i in range(batch.count):
                r = int(batch.row_bases[i])
                c = int(batch.col_bases[i])
                s = cfg.crossbar_size
                dense[r:r + s, c:c + s] += batch.dense[i]
        rows = np.asarray(graph.adjacency.rows)
        keep = frontier[rows]
        expected = np.zeros_like(dense)
        np.add.at(expected, (rows[keep],
                             np.asarray(graph.adjacency.cols)[keep]),
                  coeffs[keep])
        assert np.array_equal(dense, expected)

    def test_empty_frontier_yields_nothing(self, small_graph):
        cfg = _config(8)
        streamer = SubgraphStreamer(small_graph, cfg)
        coeffs = np.ones(small_graph.num_edges)
        frontier = np.zeros(small_graph.num_vertices, dtype=bool)
        assert list(streamer.iter_tile_batches(coeffs, 8,
                                               frontier=frontier)) == []

    def test_bad_batch_size_rejected(self, small_graph):
        from repro.errors import PartitionError
        streamer = SubgraphStreamer(small_graph, _config(8))
        with pytest.raises(PartitionError):
            next(streamer.iter_tile_batches(
                np.ones(small_graph.num_edges), 0))


class TestWidthGuard:
    """The cell path is exact only while a crossbar column of codes sums
    below 2**53; wider formats must keep the tile path."""

    def test_wide_codes_match_the_per_tile_oracle(self):
        # Eight sources, each with one edge into vertex 0 of the same
        # crossbar: every column sum adds eight products near 2**64.
        top = float(2 ** 32 - 1)
        edges = [(i, 0, top - 12345.0 * i) for i in range(8)]
        edges += [(8, 9, top), (9, 8, 3.0)]
        graph = Graph.from_edges(edges, num_vertices=10, weighted=True)
        x = np.array([top - 999.0 * i for i in range(10)])
        outputs = []
        for batch_size in (0, 256):
            config = GraphRConfig(data_bits=32, frac_bits=0,
                                  mode="functional",
                                  functional_batch_size=batch_size)
            controller = Controller(config, graph, SpMVProgram())
            assert not controller.engine.exact_mac_cells
            result, stats = controller.run_functional(x=x)
            outputs.append((result.values, stats.to_dict()))
        assert np.array_equal(outputs[0][0].view(np.uint64),
                              outputs[1][0].view(np.uint64))
        assert outputs[0][1] == outputs[1][1]
        assert outputs[0][0][0] > 2.0 ** 64

    def test_sixteen_bit_formats_take_the_cell_path(self):
        config = GraphRConfig(mode="functional")
        engine = GraphEngine(config)
        assert engine.exact_mac_cells and engine.exact_addop_cells
        noisy = GraphEngine(config.with_overrides(noise_sigma=0.1))
        assert not noisy.exact_mac_cells and not noisy.exact_addop_cells
        varied = GraphEngine(config.with_overrides(programming_sigma=0.1))
        assert not varied.exact_mac_cells and varied.exact_addop_cells


# ----------------------------------------------------------------------
# Hypothesis oracle: the cell path against the per-tile loop
# ----------------------------------------------------------------------
@st.composite
def _cell_cases(draw):
    """A small multigraph (parallel edges, self-loops, sinks, isolated
    vertices), a geometry and 1-3 destination partitions, some of which
    may hold no edge."""
    n = draw(st.integers(1, 20))
    count = draw(st.integers(0, 50))
    # Destinations stay below ``reach``, so upper stripes may be empty.
    reach = draw(st.integers(1, n))
    src = draw(st.lists(st.integers(0, n - 1), min_size=count,
                        max_size=count))
    dst = draw(st.lists(st.integers(0, reach - 1), min_size=count,
                        max_size=count))
    config = GraphRConfig(
        crossbar_size=draw(st.integers(1, 4)),
        crossbars_per_ge=4 * draw(st.integers(1, 3)),
        num_ges=draw(st.integers(1, 3)),
        block_size=draw(st.sampled_from([None, 2, 3, 5, 8])),
        mode="functional")
    cuts = sorted(draw(st.lists(st.integers(1, n), max_size=2,
                                unique=True)))
    bounds = list(zip([0] + cuts, cuts + [n]))
    bounds = [(lo, hi) for lo, hi in bounds if lo < hi]
    graph = Graph(adjacency=COOMatrix((n, n), src, dst,
                                      np.ones(count)),
                  name="cells")
    return graph, config, bounds, draw(st.randoms(use_true_random=False))


def _scan_all(graph, config, bounds, coefficients, scan):
    """Run ``scan(streamer, partition_coefficients)`` over each
    destination partition in order; returns the partition events."""
    dst = np.asarray(graph.adjacency.cols)
    events = []
    for partition in partition_by_destination(graph, bounds, config):
        mask = (dst >= partition.col_lo) & (dst < partition.col_hi)
        events.append(scan(partition.streamer, coefficients[mask]))
    return events


def _forbid_tiles(engine):
    def tiles(*args, **kwargs):
        raise AssertionError("the cell path must not build dense tiles")
    engine.mac_batch = engine.addop_batch = tiles
    return engine


def _padded_length(graph, config):
    block = config.effective_block_size(graph.num_vertices)
    return -(-graph.num_vertices // block) * block + config.tile_cols


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=_cell_cases(), frac_bits=st.sampled_from([0, 3, 8, 15]))
def test_mac_cells_match_per_tile_oracle(case, frac_bits):
    graph, config, bounds, rnd = case
    fmt = FixedPointFormat(16, frac_bits)
    # Quarter steps: some cells encode to zero alone but not summed
    # with their parallel edges; a few saturate the format.
    quarters = [rnd.choice([0, 1, 1, 2, 3, 5, 9, 40, 4 * 70000])
                for _ in range(graph.num_edges)]
    coefficients = np.array(quarters, dtype=float) * fmt.scale / 4
    length = _padded_length(graph, config)
    inputs = np.zeros(length)
    inputs[:graph.num_vertices] = [
        rnd.choice([0.0, 1.0, 2.5, 7.25, 300.0]) * rnd.random()
        for _ in range(graph.num_vertices)]

    def run(batch_size):
        engine = GraphEngine(config, coeff_fmt=fmt, input_fmt=fmt)
        if batch_size:
            assert engine.exact_mac_cells
            _forbid_tiles(engine)
        accum = np.zeros(length)
        events = _scan_all(
            graph, config, bounds, coefficients,
            lambda streamer, coeffs: run_mac_scan(
                streamer, engine, inputs, accum, coeffs,
                batch_size=batch_size))
        return accum, events

    oracle_accum, oracle_events = run(0)
    cell_accum, cell_events = run(256)
    assert np.array_equal(cell_accum.view(np.uint64),
                          oracle_accum.view(np.uint64))
    assert cell_events == oracle_events


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=_cell_cases(), reduce_op=st.sampled_from(["min", "max"]),
       frontier_kind=st.sampled_from(["none", "empty", "full", "random"]))
def test_addop_cells_match_per_tile_oracle(case, reduce_op,
                                           frontier_kind):
    graph, config, bounds, rnd = case
    n = graph.num_vertices
    fmt = FixedPointFormat(16, 0)
    if reduce_op == "min":
        absent = 60.0
        # Weights at or past the identity are absent cells.
        pool = [0.0, 1.0, 2.0, 7.0, 30.0, absent, absent + 5.0]
    else:
        absent = 0.0
        pool = [-3.0, 0.0, 1.0, 4.0, 9.0, 50.0]
    coefficients = np.array([rnd.choice(pool)
                             for _ in range(graph.num_edges)])
    # Properties sit on the identity's side, as the runner seeds them.
    properties = np.array([rnd.choice([0.0, 3.0, 11.0, 45.0, 60.0])
                           for _ in range(n)])
    length = _padded_length(graph, config)
    padded = np.full(length, absent)
    padded[:n] = properties
    frontier = {"none": None,
                "empty": np.zeros(n, dtype=bool),
                "full": np.ones(n, dtype=bool),
                "random": np.array([rnd.random() < 0.5
                                    for _ in range(n)], dtype=bool),
                }[frontier_kind]

    def run(batch_size):
        engine = GraphEngine(config, coeff_fmt=fmt, input_fmt=fmt)
        if batch_size:
            assert engine.exact_addop_cells
            _forbid_tiles(engine)
        accum = padded.copy()
        events = _scan_all(
            graph, config, bounds, coefficients,
            lambda streamer, coeffs: run_addop_scan(
                streamer, engine, padded, accum, coeffs, absent,
                frontier=frontier, batch_size=batch_size,
                reduce_op=reduce_op))
        return accum, events

    oracle_accum, oracle_events = run(0)
    cell_accum, cell_events = run(256)
    assert np.array_equal(cell_accum.view(np.uint64),
                          oracle_accum.view(np.uint64))
    assert cell_events == oracle_events


def test_edgeless_partition_counts_no_subgraph():
    """An empty stripe streams nothing on either path (its streamer's
    ``num_nonempty_subgraphs`` reads 1, which must not leak in)."""
    graph = Graph.from_edges([(0, 1, 1.0), (2, 1, 1.0)], num_vertices=8,
                             weighted=True)
    config = _config(4)
    empty = partition_by_destination(graph, [(4, 8)], config)[0]
    fmt = FixedPointFormat(16, 8)
    for batch_size in (0, 4):
        engine = GraphEngine(config, coeff_fmt=fmt, input_fmt=fmt)
        length = _padded_length(graph, config)
        events = run_mac_scan(empty.streamer, engine, np.ones(length),
                              np.zeros(length), np.zeros(0),
                              batch_size=batch_size)
        assert events.subgraphs == 0 and events.tiles == 0
