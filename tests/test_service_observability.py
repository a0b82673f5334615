"""Observability behaviours of the simulation service: extended
health, Prometheus exposition, the TTL-memoised cache inventory, and
span trees persisted through the whole submit→done pipeline."""

from __future__ import annotations

import json
import time
import urllib.request

import pytest

from repro.obs import metrics
from repro.service import (ServiceClient, SimulationService,
                           serve_in_thread)

ENTRY = {"algorithm": "pagerank", "dataset": "WV",
         "run_kwargs": {"max_iterations": 3}}


def drain(service: SimulationService, timeout: float = 90.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        counts = service.store.counts()
        if counts["queued"] == 0 and counts["running"] == 0:
            return
        time.sleep(0.05)
    raise AssertionError(f"queue did not drain: "
                         f"{service.store.counts()}")


@pytest.fixture
def fresh_registry():
    """Swap in an empty process-global registry for one test.

    The prometheus assertions below check absolute counts; without
    this, metrics accumulated by earlier tests in the same pytest
    process leak into the exposition.
    """
    with metrics.use_registry(metrics.MetricsRegistry()) as registry:
        yield registry


@pytest.fixture
def service(tmp_path, fresh_registry):
    service = SimulationService(tmp_path / "svc" / "jobs.db",
                                workers=1)
    service.start()
    yield service
    service.stop()


@pytest.fixture
def served(tmp_path, fresh_registry):
    service = SimulationService(tmp_path / "svc" / "jobs.db",
                                workers=1)
    service.start()
    server = serve_in_thread(service)
    client = ServiceClient(server.url, poll_interval_s=0.05)
    yield service, server, client
    server.shutdown()
    service.stop()


class TestHealth:
    def test_healthy_state(self, service):
        health = service.health()
        assert health["status"] == "ok"
        assert health["degraded"] is False
        assert health["queue_depth"] == 0
        assert health["workers"] == {"total": 1, "busy": 0}
        assert health["recent_crashes"] == 0
        assert health["uptime_s"] >= 0.0

    def test_queue_depth_reflects_backlog(self, tmp_path):
        service = SimulationService(tmp_path / "jobs.db", workers=0)
        service.start()
        try:
            service.submit([ENTRY])
            assert service.health()["queue_depth"] == 1
        finally:
            service.stop()

    def test_degraded_flips_on_climbing_crashes(self, service):
        supervisor = service.supervisor
        for _ in range(supervisor.degraded_crash_threshold):
            supervisor._note_crash()
        health = service.health()
        assert health["degraded"] is True
        assert health["status"] == "degraded"
        assert health["recent_crashes"] == \
            supervisor.degraded_crash_threshold

    def test_degraded_clears_once_the_window_slides(self, service):
        supervisor = service.supervisor
        supervisor.degraded_window_s = 0.05
        for _ in range(supervisor.degraded_crash_threshold):
            supervisor._note_crash()
        assert supervisor.degraded()
        time.sleep(0.1)
        assert not supervisor.degraded()
        assert service.health()["status"] == "ok"

    def test_http_health_carries_the_detail(self, served):
        service, server, _ = served
        with urllib.request.urlopen(server.url + "/v1/health",
                                    timeout=10) as response:
            payload = json.loads(response.read().decode())
        assert payload["ok"] is True  # pre-existing liveness contract
        assert payload["status"] == "ok"
        assert payload["degraded"] is False
        assert "queue_depth" in payload
        assert payload["workers"]["total"] == 1


class TestPrometheusEndpoint:
    def test_exposition_content_type_and_movement(self, served):
        service, server, client = served
        submissions = client.submit([ENTRY])
        client.wait_for([s["id"] for s in submissions], timeout_s=90)

        url = server.url + "/v1/metrics?format=prometheus"
        with urllib.request.urlopen(url, timeout=10) as response:
            content_type = response.headers["Content-Type"]
            text = response.read().decode()
        assert content_type == \
            "text/plain; version=0.0.4; charset=utf-8"
        assert "# TYPE repro_jobs_completed_total counter" in text
        assert "repro_jobs_completed_total 1" in text
        # The execution-latency histogram counted the job.
        assert "repro_job_execute_seconds_count 1" in text
        # And the queue-wait histogram was fed from store timestamps.
        assert "repro_scheduler_queue_wait_seconds_count 1" in text

    def test_json_stays_the_default(self, served):
        _, server, _ = served
        with urllib.request.urlopen(server.url + "/v1/metrics",
                                    timeout=10) as response:
            assert response.headers["Content-Type"] == \
                "application/json"
            payload = json.loads(response.read().decode())
        assert "queue_depth" in payload
        assert "cache" in payload

    def test_unknown_format_is_400(self, served):
        import urllib.error

        _, server, _ = served
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(
                server.url + "/v1/metrics?format=xml", timeout=10)
        assert err.value.code == 400


class TestInventoryMemo:
    def test_repeated_polls_walk_the_disk_once(self, service,
                                               monkeypatch):
        walks = {"count": 0}
        real_entries = service.cache.entries

        def counting_entries():
            walks["count"] += 1
            return real_entries()

        monkeypatch.setattr(service.cache, "entries",
                            counting_entries)
        for _ in range(10):
            service.metrics()
        assert walks["count"] == 1

    def test_expired_memo_rewalks(self, service, monkeypatch):
        walks = {"count": 0}
        real_entries = service.cache.entries

        def counting_entries():
            walks["count"] += 1
            return real_entries()

        monkeypatch.setattr(service.cache, "entries",
                            counting_entries)
        service.inventory_ttl_s = 0.0
        service.metrics()
        service.metrics()
        assert walks["count"] == 2

    def test_inventory_numbers_are_fresh_after_ttl(self, service):
        service.inventory_ttl_s = 0.0
        before = service.metrics()["cache"]["entries"]
        service.submit([ENTRY])
        drain(service)
        after = service.metrics()["cache"]["entries"]
        assert after == before + 1


class TestPersistedTraces:
    def test_service_job_carries_a_full_span_tree(self, service):
        submission = service.submit([ENTRY])[0]
        drain(service)
        detail = service.job_detail(submission["id"])
        assert detail["state"] == "done"
        trace = detail["stats"]["extra"]["trace"]

        assert trace["name"] == "job"
        assert trace["correlation_id"] == submission["key"][:12]

        names = set()

        def visit(node):
            names.add(node["name"])
            for child in node.get("children", ()):
                visit(child)

        visit(trace)
        # The acceptance bar: at least four distinct phase spans
        # survive the worker pipe, the queue-wait injection and the
        # result cache.
        phases = names & {"queue-wait", "prepare", "attach",
                          "shard-build", "shard-attach",
                          "scan-metadata", "reference", "sweep",
                          "charge", "iteration"}
        assert len(phases) >= 4, names
        assert "queue-wait" in names  # injected from store timestamps
        # queue-wait is the tree's first child: the submit→done story
        # reads in order.
        assert trace["children"][0]["name"] == "queue-wait"

    def test_trace_survives_cache_round_trip(self, service):
        submission = service.submit([ENTRY])[0]
        drain(service)
        first = service.job_detail(submission["id"])["stats"]
        again = service.submit([ENTRY])[0]
        assert again["from_cache"]
        second = service.job_detail(again["id"])["stats"]
        assert second == first
