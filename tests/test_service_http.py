"""Tests for the HTTP API and the ServiceClient (incl. as a sweep
backend)."""

from __future__ import annotations

import json
import socket
import urllib.error
import urllib.request

import pytest

from repro.errors import JobError
from repro.hw.stats import RunStats
from repro.runtime import BatchRunner
from repro.runtime.job import Job
from repro.service import (ServiceClient, SimulationService,
                           serve_in_thread)

ENTRIES = [
    {"algorithm": "spmv", "dataset": "WV"},
    {"algorithm": "bfs", "dataset": "WV", "platform": "cpu",
     "run_kwargs": {"source": 0}},
    {"algorithm": "pagerank", "dataset": "WV",
     "run_kwargs": {"max_iterations": 3}},
]


@pytest.fixture
def served(tmp_path):
    service = SimulationService(tmp_path / "svc" / "jobs.db",
                                workers=2)
    service.start()
    server = serve_in_thread(service)
    client = ServiceClient(server.url, poll_interval_s=0.05)
    yield service, server, client
    server.shutdown()
    service.stop()


@pytest.fixture
def queue_only(tmp_path):
    service = SimulationService(tmp_path / "q" / "jobs.db", workers=0)
    service.start()
    server = serve_in_thread(service)
    client = ServiceClient(server.url, poll_interval_s=0.05)
    yield service, server, client
    server.shutdown()
    service.stop()


class TestAPI:
    def test_health(self, served):
        _, _, client = served
        assert client.health()

    def test_submit_poll_result_matches_batch(self, served):
        _, _, client = served
        submissions = client.submit(ENTRIES)
        details = client.wait_for([s["id"] for s in submissions],
                                  timeout_s=90)
        assert [d["state"] for d in details] == ["done"] * 3

        batch = BatchRunner().run_jobs(
            [Job.from_dict(entry) for entry in ENTRIES])
        for detail, expected in zip(details, batch):
            # identity_dict: the service run and the local batch run
            # each record their own wall-clock trace; every simulated
            # value must still match exactly.
            assert RunStats.from_dict(detail["stats"]).identity_dict() \
                == expected.stats.identity_dict()

    def test_resubmit_served_from_cache_immediately(self, served):
        _, _, client = served
        submissions = client.submit(ENTRIES[:1])
        client.wait_for([submissions[0]["id"]], timeout_s=90)
        again = client.submit(ENTRIES[:1])
        assert again[0]["state"] == "done"
        assert again[0]["from_cache"]

    def test_single_entry_body(self, served):
        service, server, _ = served
        request = urllib.request.Request(
            server.url + "/v1/jobs",
            data=json.dumps(ENTRIES[0]).encode(),
            headers={"Content-Type": "application/json"},
            method="POST")
        with urllib.request.urlopen(request, timeout=10) as response:
            assert response.status == 202
            payload = json.loads(response.read().decode())
        assert len(payload["submissions"]) == 1

    def test_listing_and_state_filter(self, queue_only):
        _, _, client = queue_only
        client.submit(ENTRIES)
        assert len(client.jobs()) == 3
        assert len(client.jobs(state="queued")) == 3
        assert client.jobs(state="done") == []
        with pytest.raises(JobError):  # 400 with the store's message
            client.jobs(state="exploded")

    def test_unknown_job_is_404(self, served):
        _, _, client = served
        with pytest.raises(JobError) as err:
            client.job("jdeadbeef")
        assert "404" in str(err.value)

    def test_cancel_flow(self, queue_only):
        _, _, client = queue_only
        submission = client.submit(ENTRIES[:1])[0]
        assert client.cancel(submission["id"])
        assert client.job(submission["id"])["state"] == "cancelled"
        with pytest.raises(JobError) as err:  # no longer queued
            client.cancel(submission["id"])
        assert "409" in str(err.value)

    def test_malformed_body_is_400(self, served):
        _, server, _ = served
        request = urllib.request.Request(
            server.url + "/v1/jobs", data=b"not json{",
            headers={"Content-Type": "application/json"},
            method="POST")
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=10)
        assert err.value.code == 400

    def test_negative_content_length_is_400(self, queue_only):
        """``rfile.read(-1)`` would wait for the client to hang up; the
        socket timeout turns such a hang into a failure."""
        _, server, _ = queue_only
        with socket.create_connection(server.server_address[:2],
                                      timeout=5) as sock:
            sock.sendall(b"POST /v1/jobs HTTP/1.1\r\n"
                         b"Host: localhost\r\n"
                         b"Content-Type: application/json\r\n"
                         b"Content-Length: -1\r\n\r\n")
            status_line = sock.makefile("rb").readline()
        assert status_line.split()[1] == b"400"

    def test_invalid_job_entry_is_400(self, served):
        _, _, client = served
        with pytest.raises(JobError) as err:
            client.submit([{"algorithm": "dfs", "dataset": "WV"}])
        assert "400" in str(err.value)

    def test_unknown_route_is_404(self, served):
        _, server, _ = served
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(server.url + "/v2/nope", timeout=10)
        assert err.value.code == 404

    def test_metrics_endpoint(self, served):
        _, _, client = served
        submissions = client.submit(ENTRIES)
        client.wait_for([s["id"] for s in submissions], timeout_s=90)
        metrics = client.metrics()
        assert metrics["queue_depth"] == 0
        assert metrics["workers"]["total"] == 2
        assert metrics["jobs"]["completed"] == 3
        assert "hit_rate" in metrics["cache"]

    def test_unreachable_service_raises_joberror(self):
        client = ServiceClient("http://127.0.0.1:1", timeout_s=0.5)
        assert not client.health()
        with pytest.raises(JobError):
            client.metrics()


class TestSocketInheritance:
    def test_forked_worker_does_not_hold_the_port(self, tmp_path):
        """An orphaned worker (daemon SIGKILLed mid-job) must not keep
        the HTTP port bound: children close the inherited listening
        socket right after fork, so a restarted daemon can bind."""
        import sys

        from repro.runtime.scheduler import WorkerProcess
        from repro.service.http import ServiceHTTPServer

        if sys.platform != "linux":
            pytest.skip("fd inheritance is a fork-platform concern")

        service = SimulationService(tmp_path / "jobs.db", workers=0)
        service.start()
        first = ServiceHTTPServer(("127.0.0.1", 0), service)
        port = first.server_address[1]
        worker = WorkerProcess()  # forked while the socket is bound
        try:
            first.server_close()  # parent's fd gone; child's remains?
            # Rebinding succeeds only once the child has run its
            # after-fork hook and closed its copy — retry briefly to
            # let the freshly forked process reach it.
            import time

            deadline = time.monotonic() + 10.0
            while True:
                try:
                    second = ServiceHTTPServer(("127.0.0.1", port),
                                               service)
                    break
                except OSError:
                    if time.monotonic() >= deadline:
                        raise
                    time.sleep(0.05)
            second.server_close()
        finally:
            worker.stop()
            service.stop()


class TestClientBackend:
    def test_run_jobs_matches_batch_runner(self, served):
        _, _, client = served
        jobs = [Job.from_dict(entry) for entry in ENTRIES]
        remote = client.run_jobs(jobs, timeout_s=90)
        local = BatchRunner().run_jobs(jobs)
        for via_service, via_batch in zip(remote, local):
            assert via_service.ok
            # identity_dict: service and batch executions carry their
            # own wall-clock traces; the simulated values must match.
            assert via_service.stats.identity_dict() == \
                via_batch.stats.identity_dict()

    def test_run_jobs_surfaces_failures(self, served):
        _, _, client = served
        result = client.run_jobs([Job(
            "sssp", "WV", run_kwargs={"source": 10 ** 9})],
            timeout_s=90)[0]
        assert not result.ok
        with pytest.raises(JobError):
            result.unwrap()

    def test_run_convenience(self, served):
        _, _, client = served
        stats = client.run("spmv", "WV")
        assert stats.identity_dict() == BatchRunner().run(
            "spmv", "WV").identity_dict()

    def test_sweep_through_service_matches_batch(self, served):
        from repro.experiments.sweeps import geometry_sweep

        _, _, client = served
        via_service = geometry_sweep(
            "WV", crossbar_sizes=(4, 8), ge_counts=(16,),
            run_kwargs={"max_iterations": 2}, runner=client)
        via_batch = geometry_sweep(
            "WV", crossbar_sizes=(4, 8), ge_counts=(16,),
            run_kwargs={"max_iterations": 2}, runner=BatchRunner())
        assert via_service == via_batch

    def test_wait_for_timeout(self, queue_only):
        _, _, client = queue_only
        submission = client.submit(ENTRIES[:1])[0]  # never executes
        with pytest.raises(JobError) as err:
            client.wait_for([submission["id"]], timeout_s=0.3)
        assert "timed out" in str(err.value)
