"""Tests for the BatchRunner facade and its harness integration."""

from __future__ import annotations

import pytest

from repro.core.config import GraphRConfig
from repro.errors import ConfigError, JobError
from repro.experiments.harness import ExperimentRunner
from repro.runtime import scheduler as scheduler_module
from repro.runtime.job import Job
from repro.runtime.runner import BatchRunner


def counting_execute_job(counter):
    """Wrap the real per-job executor with an invocation counter."""
    real = scheduler_module.execute_job

    def wrapper(job, cache_dir=None, **kwargs):
        counter.append(job)
        return real(job, cache_dir=cache_dir, **kwargs)

    return wrapper


class TestBatchRunner:
    def test_run_convenience(self):
        stats = BatchRunner().run("spmv", "WV")
        assert stats.platform == "graphr"
        assert stats.seconds > 0

    def test_run_raises_on_failure(self):
        with pytest.raises(JobError):
            BatchRunner().run("sssp", "WV", source=10 ** 9)

    def test_duplicate_jobs_execute_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(scheduler_module, "execute_job",
                            counting_execute_job(calls))
        job = Job("spmv", "WV")
        results = BatchRunner().run_jobs([job, job, Job("spmv", "wv")])
        assert len(calls) == 1
        assert all(r.ok for r in results)
        assert all(r.stats.to_dict() == results[0].stats.to_dict()
                   for r in results)

    def test_cache_hit_short_circuits_the_simulator(self, tmp_path,
                                                    monkeypatch):
        calls = []
        monkeypatch.setattr(scheduler_module, "execute_job",
                            counting_execute_job(calls))
        first = BatchRunner(cache_dir=tmp_path)
        warm = first.run("pagerank", "WV", max_iterations=3)
        assert len(calls) == 1

        second = BatchRunner(cache_dir=tmp_path)
        cached = second.run("pagerank", "WV", max_iterations=3)
        assert len(calls) == 1          # simulator never invoked again
        assert second.cache_stats()["hits"] == 1
        assert cached.to_dict() == warm.to_dict()

    def test_config_change_invalidates(self, tmp_path):
        runner = BatchRunner(cache_dir=tmp_path)
        runner.run("spmv", "WV")
        runner.run("spmv", "WV",
                   config=GraphRConfig(mode="analytic", num_ges=8))
        assert runner.cache_stats()["misses"] == 2
        assert runner.cache_stats()["stores"] == 2

    def test_failed_jobs_never_cached(self, tmp_path):
        runner = BatchRunner(cache_dir=tmp_path)
        job = Job("sssp", "WV", run_kwargs={"source": 10 ** 9})
        assert not runner.run_jobs([job])[0].ok
        assert runner.cache_stats()["stores"] == 0
        assert len(runner.cache) == 0

    def test_functional_jobs_cache_bit_identical(self, tmp_path):
        """Functional-mode runs (batched engine, seeded noise) must
        round-trip the cache bit-exactly, and the batch size must not
        leak into the results."""
        config = GraphRConfig(mode="functional", noise_sigma=0.2,
                              max_iterations=5)
        job = Job("pagerank", "WV", config=config,
                  run_kwargs={"max_iterations": 5})
        first = BatchRunner(cache_dir=tmp_path)
        fresh = first.run_jobs([job])[0]
        assert fresh.ok and not fresh.from_cache
        assert fresh.stats.extra["mode"] == "functional"

        second = BatchRunner(cache_dir=tmp_path)
        cached = second.run_jobs([job])[0]
        assert cached.from_cache
        assert cached.stats.to_dict() == fresh.stats.to_dict()

        # A different batch size re-simulates (config key changes) but
        # must land on bit-identical stats.
        rebatched = BatchRunner(cache_dir=tmp_path).run_jobs([Job(
            "pagerank", "WV",
            config=config.with_overrides(functional_batch_size=7),
            run_kwargs={"max_iterations": 5})])[0]
        assert not rebatched.from_cache
        assert rebatched.stats.identity_dict() == \
            fresh.stats.identity_dict()

    def test_parallel_functional_matches_serial(self):
        config = GraphRConfig(mode="functional", max_iterations=3)
        jobs = [Job("pagerank", "WV", config=config,
                    run_kwargs={"max_iterations": 3}),
                Job("bfs", "WV", config=config,
                    run_kwargs={"source": 0})]
        serial = BatchRunner().run_jobs(jobs)
        parallel = BatchRunner(workers=2).run_jobs(jobs)
        for s, p in zip(serial, parallel):
            # identity_dict: wall-clock trace telemetry differs per
            # execution; every simulated value must not.
            assert p.stats.identity_dict() == s.stats.identity_dict()


class TestHarnessIntegration:
    CELLS = [("spmv", "WV"), ("bfs", "WV"), ("pagerank", "WV")]

    def test_prefetch_batches_the_grid(self, monkeypatch):
        calls = []
        monkeypatch.setattr(scheduler_module, "execute_job",
                            counting_execute_job(calls))
        runner = ExperimentRunner()
        rows = runner.compare_cells("cpu", self.CELLS)
        assert len(rows) == 3
        assert len(calls) == 6          # 3 graphr + 3 cpu runs
        runner.compare_cells("cpu", self.CELLS)
        assert len(calls) == 6          # memoised within the runner

    def test_unknown_platform_still_config_error(self):
        with pytest.raises(ConfigError):
            ExperimentRunner().stats("tpu", "pagerank", "WV")

    def test_harness_config_reaches_external_batch_runner(self):
        """The harness config must win even when the BatchRunner (with
        its own default config) is supplied by the caller."""
        config = GraphRConfig(mode="analytic", num_ges=4)
        via_runner = ExperimentRunner(
            config=config, batch_runner=BatchRunner()).stats(
                "graphr", "spmv", "WV")
        direct = ExperimentRunner(config=config).stats(
            "graphr", "spmv", "WV")
        assert via_runner.identity_dict() == direct.identity_dict()

    def test_second_figure_run_hits_cache_only(self, tmp_path,
                                               monkeypatch):
        """The fig17 acceptance path in miniature: re-running a figure
        grid with the same --cache-dir performs zero simulator
        invocations the second time."""
        calls = []
        monkeypatch.setattr(scheduler_module, "execute_job",
                            counting_execute_job(calls))
        first = ExperimentRunner(cache_dir=tmp_path)
        warm = first.compare_cells("cpu", self.CELLS)
        executed = len(calls)
        assert executed == 6

        second = ExperimentRunner(cache_dir=tmp_path)
        rows = second.compare_cells("cpu", self.CELLS)
        assert len(calls) == executed   # zero new simulator runs
        cache = second.runner.cache_stats()
        assert cache["hits"] == 6
        assert cache["misses"] == 0
        for fresh, cached in zip(warm, rows):
            assert cached.graphr.to_dict() == fresh.graphr.to_dict()
            assert cached.baseline.to_dict() == fresh.baseline.to_dict()
            assert cached.speedup == fresh.speedup
            assert cached.energy_saving == fresh.energy_saving

    def test_parallel_harness_matches_serial(self):
        serial = ExperimentRunner().compare_cells("cpu", self.CELLS)
        parallel = ExperimentRunner(workers=3).compare_cells(
            "cpu", self.CELLS)
        for s, p in zip(serial, parallel):
            assert p.graphr.identity_dict() == s.graphr.identity_dict()
            assert p.baseline.identity_dict() == \
                s.baseline.identity_dict()


class TestSweepsThroughRuntime:
    def test_dataset_code_sweep_uses_cache(self, tmp_path):
        from repro.experiments.sweeps import geometry_sweep

        runner = BatchRunner(cache_dir=tmp_path)
        points = geometry_sweep("WV", crossbar_sizes=(4, 8),
                                ge_counts=(16,),
                                run_kwargs={"max_iterations": 2},
                                runner=runner)
        again = geometry_sweep("WV", crossbar_sizes=(4, 8),
                               ge_counts=(16,),
                               run_kwargs={"max_iterations": 2},
                               runner=runner)
        assert points == again
        assert runner.cache_stats()["hits"] == 2
