"""Telemetry must be invisible to results.

The observability layer (metrics, tracing, logging) may never perturb
what the simulator computes: content keys must not change, cached
payloads must round-trip, and a run executed with telemetry disabled
must produce bit-identical simulated values to one executed with it
enabled — across every deployment path.
"""

from __future__ import annotations

import pytest

from repro.core.config import GraphRConfig
from repro.core.partitioned import DeploymentSpec
from repro.obs import metrics, tracing
from repro.runtime import BatchRunner
from repro.runtime.job import Job


@pytest.fixture
def telemetry_off():
    """Disable tracing and metrics for the duration of one test."""
    tracing.set_enabled(False)
    metrics.set_enabled(False)
    yield
    tracing.set_enabled(True)
    metrics.set_enabled(True)


DEPLOYMENTS = [
    pytest.param(None, None, id="single-node"),
    pytest.param(DeploymentSpec(kind="out-of-core"),
                 GraphRConfig(mode="analytic", block_size=64),
                 id="out-of-core"),
    pytest.param(DeploymentSpec(kind="multi-node", num_nodes=2), None,
                 id="multi-node"),
    pytest.param(None, GraphRConfig(mode="analytic"),
                 id="single-node-analytic"),
    pytest.param(DeploymentSpec(kind="multi-node", num_nodes=2),
                 GraphRConfig(mode="analytic"), id="multi-node-analytic"),
]


def _span_names(node):
    """Every span name in one serialized trace tree."""
    yield node["name"]
    for child in node.get("children", ()):
        yield from _span_names(child)


def _sweep_paths(node):
    """The ``path`` of every ``sweep`` span in one trace tree."""
    if node["name"] == "sweep":
        yield node.get("meta", {}).get("path")
    for child in node.get("children", ()):
        yield from _sweep_paths(child)


class TestContentKeys:
    def test_key_is_independent_of_telemetry_state(self):
        job = Job("pagerank", "WV",
                  run_kwargs={"max_iterations": 2})
        enabled_key = job.content_key()
        tracing.set_enabled(False)
        metrics.set_enabled(False)
        try:
            disabled_key = job.content_key()
        finally:
            tracing.set_enabled(True)
            metrics.set_enabled(True)
        assert enabled_key == disabled_key

    def test_trace_never_enters_the_key(self, tmp_path):
        # Two runs of the same job carry different wall-clock traces;
        # the cache must still identify them as the same work.
        runner = BatchRunner(cache_dir=tmp_path / "cache")
        first = runner.run("spmv", "WV")
        result = runner.run_jobs(
            [runner.make_job("spmv", "WV")])[0]
        assert result.from_cache
        # The cached payload round-trips exactly — trace included.
        assert result.stats.to_dict() == first.to_dict()


class TestBitIdenticalValues:
    @pytest.mark.parametrize("deployment,config", DEPLOYMENTS)
    def test_disabled_telemetry_matches_enabled(self, deployment,
                                                config, tmp_path):
        def run(tag):
            runner = BatchRunner(cache_dir=tmp_path / tag)
            return runner.run("pagerank", "WV", config=config,
                              deployment=deployment,
                              max_iterations=3)

        traced = run("enabled")
        assert "trace" in traced.extra
        names = set(_span_names(traced.extra["trace"]))
        assert "charge" in names
        assert "merge" not in names

        tracing.set_enabled(False)
        metrics.set_enabled(False)
        try:
            plain = run("disabled")
        finally:
            tracing.set_enabled(True)
            metrics.set_enabled(True)
        assert "trace" not in plain.extra

        # Strip the (wall-clock) trace; everything simulated must be
        # bit-identical.
        assert traced.identity_dict() == plain.identity_dict()

    def test_sweep_span_names_the_pass_path(self, tmp_path):
        """Clean functional runs sweep programmed cells; noisy ones
        keep the dense tile batches, and their sweeps say so."""
        def sweep_paths(config):
            runner = BatchRunner(cache_dir=tmp_path / str(config.noise_sigma))
            stats = runner.run("pagerank", "WV", config=config,
                               max_iterations=2)
            return set(_sweep_paths(stats.extra["trace"]))

        clean = GraphRConfig(mode="functional")
        assert sweep_paths(clean) == {"cells"}
        noisy = clean.with_overrides(noise_sigma=0.5)
        assert sweep_paths(noisy) == {"tiles"}

    def test_direct_engine_runs_carry_no_trace(self):
        # Library users calling execute_job outside the job runtime
        # never get a root span, so their stats are untouched.
        from repro.runtime.scheduler import execute_job

        stats = execute_job(Job("spmv", "WV"))
        assert "trace" not in stats.extra


class TestDisabledRuntimePaths:
    def test_batch_runtime_with_telemetry_off(self, telemetry_off):
        stats = BatchRunner().run("bfs", "WV", source=0)
        assert "trace" not in stats.extra
        assert stats.seconds > 0

    def test_identity_dict_strips_only_the_trace(self):
        stats = BatchRunner().run("spmv", "WV")
        full = stats.to_dict()
        identity = stats.identity_dict()
        assert "trace" in full["extra"]
        assert "trace" not in identity["extra"]
        trimmed = dict(full, extra={k: v
                                    for k, v in full["extra"].items()
                                    if k != "trace"})
        assert identity == trimmed
