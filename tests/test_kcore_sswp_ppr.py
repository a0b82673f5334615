"""The three beyond-Table-2 workloads: k-core, SSWP and personalized
PageRank.

Covers the satellite contract for each: reference correctness against
an independent oracle, reference-vs-accelerator equivalence,
batched-vs-loop bit-identity, active-list convergence on disconnected
graphs, and registry/job plumbing (the deployment-parity matrix lives
in ``test_partitioned.py``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.kcore import (INIT, REMOVED, KCoreProgram,
                                    core_membership, kcore_reference)
from repro.algorithms.ppr import PPRProgram, ppr_reference
from repro.algorithms.registry import (get_program, run_reference,
                                       weighted_algorithms)
from repro.algorithms.sswp import (UNBOUNDED, SSWPProgram,
                                   sswp_reference,
                                   widest_path_reference)
from repro.algorithms.vertex_program import MappingPattern
from repro.core.accelerator import GraphR
from repro.core.config import GraphRConfig
from repro.errors import GraphFormatError
from repro.graph.generators import rmat
from repro.graph.graph import Graph


def functional_config(batch_size=64, **overrides):
    return GraphRConfig(crossbar_size=4, crossbars_per_ge=8, num_ges=2,
                        mode="functional", max_iterations=80,
                        functional_batch_size=batch_size, **overrides)


@pytest.fixture(scope="module")
def weighted_graph():
    return rmat(6, 220, seed=17, weighted=True, name="w64")


@pytest.fixture
def disconnected_graph():
    """Two components plus isolated vertices: a dense-ish clique side
    and a stub path, with vertices 10..15 touching nothing."""
    edges = [(0, 1, 3.0), (1, 2, 5.0), (2, 0, 2.0), (0, 2, 7.0),
             (1, 0, 4.0), (2, 1, 6.0),
             (5, 6, 1.0), (6, 7, 2.0)]
    return Graph.from_edges(edges, num_vertices=16, weighted=True,
                            name="disco")


def peel_oracle(graph: Graph, k: int) -> np.ndarray:
    """Classic order-independent peeling on in-support."""
    src = np.asarray(graph.adjacency.rows)
    dst = np.asarray(graph.adjacency.cols)
    alive = np.ones(graph.num_vertices, dtype=bool)
    while True:
        support = np.zeros(graph.num_vertices)
        np.add.at(support, dst[alive[src]], 1.0)
        drop = alive & (support < k)
        if not drop.any():
            return alive
        alive &= ~drop


class TestKCoreReference:
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_matches_peeling_oracle(self, weighted_graph, k):
        result = kcore_reference(weighted_graph, k=k)
        assert result.converged
        assert np.array_equal(core_membership(result.values),
                              peel_oracle(weighted_graph, k))

    def test_core_support_is_alive_in_support(self, weighted_graph):
        result = kcore_reference(weighted_graph, k=3)
        core = core_membership(result.values)
        src = np.asarray(weighted_graph.adjacency.rows)
        dst = np.asarray(weighted_graph.adjacency.cols)
        support = np.zeros(weighted_graph.num_vertices)
        np.add.at(support, dst[core[src]], 1.0)
        assert np.array_equal(result.values[core], support[core])
        assert np.all(result.values[core] >= 3)
        assert np.all(result.values[~core] == REMOVED)

    def test_disconnected_graph_converges(self, disconnected_graph):
        result = kcore_reference(disconnected_graph, k=2)
        assert result.converged
        core = core_membership(result.values)
        # The triangle is a 2-core (every vertex has 2 in-edges); the
        # path and the isolated vertices peel away entirely.
        assert np.array_equal(np.flatnonzero(core), [0, 1, 2])
        # The trace's last frontier is empty (the confirming pass).
        assert not result.trace.frontiers[-1].any()

    def test_first_pass_fires_everyone(self, disconnected_graph):
        result = kcore_reference(disconnected_graph, k=2)
        assert result.trace.frontiers[0].all()
        assert result.trace.active_vertices[0] == \
            disconnected_graph.num_vertices

    def test_k_validation(self, disconnected_graph):
        with pytest.raises(GraphFormatError):
            kcore_reference(disconnected_graph, k=0)
        with pytest.raises(GraphFormatError):
            KCoreProgram(k=-1)

    def test_program_descriptor(self):
        program = get_program("kcore", k=4)
        assert program.pattern is MappingPattern.PARALLEL_MAC
        assert program.reduce_op == "add"
        assert program.needs_active_list
        assert program.k == 4


class TestSSWPReference:
    def test_matches_widest_path_oracle(self, weighted_graph):
        result = sswp_reference(weighted_graph, source=0)
        oracle = widest_path_reference(weighted_graph, source=0)
        assert result.converged
        assert np.array_equal(result.values, oracle.values)

    def test_source_width_unbounded(self, weighted_graph):
        result = sswp_reference(weighted_graph, source=3)
        assert result.values[3] == UNBOUNDED

    def test_disconnected_vertices_stay_width_zero(self,
                                                   disconnected_graph):
        result = sswp_reference(disconnected_graph, source=0)
        assert result.converged
        # Only the triangle is reachable from 0.
        assert np.all(result.values[[1, 2]] > 0)
        assert np.all(result.values[3:] == 0.0)
        # Widest into 1: direct 0->1 has width 3, but 0->2->1 carries
        # min(7, 6) = 6.
        assert result.values[1] == 6.0

    def test_rejects_nonpositive_weights(self):
        graph = Graph.from_edges([(0, 1, 0.0)], num_vertices=2,
                                 weighted=True)
        with pytest.raises(GraphFormatError):
            sswp_reference(graph, source=0)

    def test_rejects_bad_source(self, disconnected_graph):
        with pytest.raises(GraphFormatError):
            sswp_reference(disconnected_graph, source=99)

    def test_program_descriptor(self):
        program = get_program("sswp", source=2)
        assert program.pattern is MappingPattern.PARALLEL_ADD_OP
        assert program.reduce_op == "max"
        assert program.needs_active_list
        assert program.reduce_identity == 0.0

    def test_dual_of_sssp_on_a_chain(self):
        """On a chain the bottleneck is the minimum edge weight seen."""
        edges = [(0, 1, 9.0), (1, 2, 4.0), (2, 3, 7.0)]
        graph = Graph.from_edges(edges, num_vertices=4, weighted=True)
        result = sswp_reference(graph, source=0)
        assert list(result.values) == [UNBOUNDED, 9.0, 4.0, 4.0]


class TestPPRReference:
    def test_restart_mass_concentrates_near_source(self, weighted_graph):
        result = ppr_reference(weighted_graph, source=0)
        assert result.converged
        assert result.values[0] >= 1.0 - 0.85  # at least the restart

    def test_matches_linear_recurrence(self):
        """PPR satisfies p = r M p + (1-r) e_s at the fixpoint."""
        graph = rmat(5, 120, seed=4, name="ppr32")
        damping = 0.85
        result = ppr_reference(graph, source=2, damping=damping,
                               tolerance=1e-12, max_iterations=500)
        n = graph.num_vertices
        src = np.asarray(graph.adjacency.rows)
        dst = np.asarray(graph.adjacency.cols)
        deg = np.maximum(graph.out_degrees().astype(float), 1.0)
        m = np.zeros((n, n))
        np.add.at(m, (dst, src), 1.0 / deg[src])
        restart = np.zeros(n)
        restart[2] = 1.0 - damping
        fixpoint = damping * m @ result.values + restart
        assert np.allclose(result.values, fixpoint, atol=1e-10)

    def test_different_sources_rank_differently(self, weighted_graph):
        a = ppr_reference(weighted_graph, source=0)
        b = ppr_reference(weighted_graph, source=7)
        assert not np.array_equal(a.values, b.values)

    def test_rejects_bad_parameters(self, disconnected_graph):
        with pytest.raises(GraphFormatError):
            ppr_reference(disconnected_graph, source=99)
        with pytest.raises(ValueError):
            PPRProgram(damping=1.5)

    def test_program_descriptor(self):
        program = get_program("ppr", source=1, damping=0.7)
        assert program.pattern is MappingPattern.PARALLEL_MAC
        assert not program.needs_active_list
        assert program.damping == 0.7
        assert program.unit_interval_coefficients


class TestAcceleratorEquivalence:
    """Reference vs functional device chain, and every batch size vs
    the tile path at a batch size of one."""

    def test_kcore_functional_is_exact(self, weighted_graph):
        reference = kcore_reference(weighted_graph, k=3)
        result, stats = GraphR(functional_config()).run(
            "kcore", weighted_graph, k=3)
        assert np.array_equal(result.values, reference.values)
        assert result.iterations == reference.iterations

    def test_sswp_functional_is_exact(self, weighted_graph):
        reference = sswp_reference(weighted_graph, source=0)
        result, _ = GraphR(functional_config()).run(
            "sswp", weighted_graph, source=0)
        assert np.array_equal(result.values, reference.values)
        assert result.iterations == reference.iterations

    def test_ppr_functional_within_quantisation(self, weighted_graph):
        reference = ppr_reference(weighted_graph, source=0)
        result, _ = GraphR(functional_config()).run(
            "ppr", weighted_graph, source=0)
        assert np.max(np.abs(result.values - reference.values)) <= 5e-2

    @pytest.mark.parametrize("algorithm,kwargs", [
        ("kcore", {"k": 3}),
        ("sswp", {"source": 0}),
        ("ppr", {"source": 0}),
    ])
    def test_batched_matches_per_tile(self, weighted_graph, algorithm,
                                      kwargs, forced_tiles):
        with forced_tiles():
            loop, loop_stats = GraphR(functional_config(1)).run(
                algorithm, weighted_graph, **kwargs)
        for batch_size in (1, 7, 512):
            batched, stats = GraphR(functional_config(batch_size)).run(
                algorithm, weighted_graph, **kwargs)
            assert np.array_equal(batched.values, loop.values)
            assert stats.to_dict() == loop_stats.to_dict()

    def test_kcore_functional_disconnected(self, disconnected_graph):
        reference = kcore_reference(disconnected_graph, k=2)
        result, _ = GraphR(functional_config()).run(
            "kcore", disconnected_graph, k=2)
        assert np.array_equal(result.values, reference.values)

    def test_sswp_functional_disconnected(self, disconnected_graph):
        reference = sswp_reference(disconnected_graph, source=0)
        result, _ = GraphR(functional_config()).run(
            "sswp", disconnected_graph, source=0)
        assert np.array_equal(result.values, reference.values)


class TestRuntimePlumbing:
    def test_registry_dispatch(self, weighted_graph):
        for algorithm, kwargs in (("kcore", {"k": 2}),
                                  ("sswp", {"source": 0}),
                                  ("ppr", {"source": 0})):
            result = run_reference(algorithm, weighted_graph, **kwargs)
            assert result.algorithm == algorithm

    def test_sswp_defaults_to_weighted_datasets(self):
        from repro.runtime import Job
        assert "sswp" in weighted_algorithms()
        assert Job("sswp", "WV").resolved_weighted
        assert not Job("kcore", "WV").resolved_weighted
        assert not Job("ppr", "WV").resolved_weighted

    def test_jobs_carry_distinct_content_keys(self):
        from repro.runtime import Job
        keys = {Job("kcore", "WV",
                    run_kwargs={"k": k}).content_key()
                for k in (2, 3, 4)}
        keys |= {Job("ppr", "WV",
                     run_kwargs={"source": s}).content_key()
                 for s in (0, 1)}
        assert len(keys) == 5

    def test_batch_runner_runs_all_three(self, tmp_path):
        from repro.runtime import BatchRunner
        runner = BatchRunner(cache_dir=tmp_path)
        jobs = [
            runner.make_job("kcore", "WV", k=2),
            runner.make_job("sswp", "WV", source=0),
            runner.make_job("ppr", "WV", source=0, max_iterations=5),
        ]
        results = runner.run_jobs(jobs)
        assert all(result.ok for result in results)
        rerun = runner.run_jobs(jobs)
        assert all(result.from_cache for result in rerun)

    def test_baseline_platforms_run_the_new_workloads(self,
                                                      weighted_graph):
        from repro.baselines import CPUPlatform, GPUPlatform
        for platform in (CPUPlatform(), GPUPlatform()):
            for algorithm, kwargs in (("kcore", {"k": 2}),
                                      ("sswp", {"source": 0}),
                                      ("ppr", {"source": 0})):
                result, stats = platform.run(algorithm, weighted_graph,
                                             **kwargs)
                assert stats.seconds > 0
