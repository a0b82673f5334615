"""Tests for the small-world and preferential-attachment generators,
variation wiring in the engine, selective scan, and calibration bands."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.vertex_program import MappingPattern
from repro.core.config import GraphRConfig
from repro.core.engine import GraphEngine
from repro.core.streaming import SubgraphStreamer
from repro.errors import ConfigError, GraphFormatError
from repro.experiments.calibration import BANDS, PAPER, Band
from repro.graph.generators import barabasi_albert, rmat, watts_strogatz


class TestWattsStrogatz:
    def test_no_rewiring_is_ring_lattice(self):
        g = watts_strogatz(20, 2, rewire_p=0.0, seed=1)
        assert g.num_edges == 40
        deg = g.out_degrees()
        assert np.all(deg == 2)

    def test_rewiring_changes_structure(self):
        regular = watts_strogatz(50, 3, 0.0, seed=2)
        rewired = watts_strogatz(50, 3, 0.8, seed=2)
        assert regular.adjacency != rewired.adjacency

    def test_no_self_loops(self):
        g = watts_strogatz(40, 4, 0.5, seed=3)
        assert not np.any(np.asarray(g.adjacency.rows)
                          == np.asarray(g.adjacency.cols))

    def test_deterministic(self):
        a = watts_strogatz(30, 2, 0.3, seed=9)
        b = watts_strogatz(30, 2, 0.3, seed=9)
        assert a.adjacency == b.adjacency

    def test_invalid_params(self):
        with pytest.raises(GraphFormatError):
            watts_strogatz(0, 2, 0.1)
        with pytest.raises(GraphFormatError):
            watts_strogatz(10, 10, 0.1)
        with pytest.raises(GraphFormatError):
            watts_strogatz(10, 2, 1.5)


class TestBarabasiAlbert:
    def test_edge_count(self):
        g = barabasi_albert(100, 3, seed=1)
        assert g.num_edges == (100 - 3) * 3

    def test_hub_formation(self):
        g = barabasi_albert(300, 2, seed=4)
        in_deg = g.in_degrees()
        assert in_deg.max() > 10 * max(1.0, np.median(in_deg))

    def test_targets_are_distinct_per_vertex(self):
        g = barabasi_albert(50, 3, seed=2)
        src = np.asarray(g.adjacency.rows)
        dst = np.asarray(g.adjacency.cols)
        for v in range(3, 50):
            targets = dst[src == v]
            assert np.unique(targets).size == targets.size

    def test_invalid_params(self):
        with pytest.raises(GraphFormatError):
            barabasi_albert(3, 3)
        with pytest.raises(GraphFormatError):
            barabasi_albert(10, 0)


class TestEngineVariation:
    def test_variation_perturbs_mac(self, rng):
        cfg = GraphRConfig(crossbar_size=4, crossbars_per_ge=8,
                           num_ges=2)
        varied = cfg.with_overrides(programming_sigma=0.2)
        tile = rng.random((4, 8)) * 0.1
        inputs = rng.random(4) * 0.1
        clean, _ = GraphEngine(cfg).mac_batch(tile[None], inputs[None])
        noisy, _ = GraphEngine(varied).mac_batch(tile[None], inputs[None])
        assert not np.allclose(clean, noisy)

    def test_ir_drop_reduces_sums(self, rng):
        cfg = GraphRConfig(crossbar_size=4, crossbars_per_ge=8,
                           num_ges=2)
        dropped = cfg.with_overrides(ir_drop_alpha=0.3)
        tile = np.full((4, 8), 0.1)
        inputs = np.full(4, 0.1)
        clean, _ = GraphEngine(cfg).mac_batch(tile[None], inputs[None])
        lossy, _ = GraphEngine(dropped).mac_batch(tile[None],
                                                  inputs[None])
        assert np.all(lossy <= clean + 1e-12)
        assert lossy.sum() < clean.sum()

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            GraphRConfig(programming_sigma=-1.0)
        with pytest.raises(ConfigError):
            GraphRConfig(ir_drop_alpha=1.0)


class TestSelectiveScan:
    def test_selective_scan_reduces_scanned_edges(self):
        graph = rmat(7, 800, seed=6)
        base = GraphRConfig(crossbar_size=4, crossbars_per_ge=8,
                            num_ges=2, block_size=32)
        on = SubgraphStreamer(graph,
                              base.with_overrides(
                                  selective_block_scan=True))
        off = SubgraphStreamer(graph, base)
        frontier = np.zeros(graph.num_vertices, dtype=bool)
        frontier[0] = True
        e_on = on.iteration_events(MappingPattern.PARALLEL_ADD_OP,
                                   frontier=frontier)
        e_off = off.iteration_events(MappingPattern.PARALLEL_ADD_OP,
                                     frontier=frontier)
        assert e_on.scanned_edges < e_off.scanned_edges
        assert e_on.edges == e_off.edges

    def test_full_frontier_scans_everything(self):
        graph = rmat(6, 300, seed=6)
        cfg = GraphRConfig(crossbar_size=4, crossbars_per_ge=8,
                           num_ges=2, block_size=16,
                           selective_block_scan=True)
        streamer = SubgraphStreamer(graph, cfg)
        frontier = np.ones(graph.num_vertices, dtype=bool)
        events = streamer.iteration_events(
            MappingPattern.PARALLEL_ADD_OP, frontier=frontier)
        assert events.scanned_edges == graph.num_edges


class TestCalibrationConstants:
    def test_paper_numbers_present(self):
        assert PAPER.speedup_geomean_vs_cpu == 16.01
        assert PAPER.energy_max_vs_cpu == 217.88
        assert PAPER.speedup_vs_pim_high == 4.12

    def test_bands_contain_paper_values(self):
        assert BANDS["speedup_geomean_vs_cpu"].contains(
            PAPER.speedup_geomean_vs_cpu)
        assert BANDS["energy_geomean_vs_cpu"].contains(
            PAPER.energy_geomean_vs_cpu)
        assert BANDS["speedup_vs_gpu"].contains(PAPER.speedup_vs_gpu_low)
        assert BANDS["speedup_vs_pim"].contains(PAPER.speedup_vs_pim_high)

    def test_band_logic(self):
        band = Band(1.0, 2.0)
        assert band.contains(1.5)
        assert not band.contains(0.5)
        assert not band.contains(2.5)
