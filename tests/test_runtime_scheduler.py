"""Tests for the batch scheduler and its warm worker pool."""

from __future__ import annotations

import os
import sys

import pytest

from repro.errors import JobError
from repro.runtime import scheduler as scheduler_module
from repro.runtime.job import Job
from repro.runtime.scheduler import JobResult, Scheduler

JOBS = [
    Job("spmv", "WV"),
    Job("bfs", "WV", run_kwargs={"source": 0}),
    Job("pagerank", "WV", run_kwargs={"max_iterations": 3}),
    Job("spmv", "WV", platform="cpu"),
]


class TestSerial:
    def test_order_and_success(self):
        results = Scheduler(workers=1).run(JOBS)
        assert [r.job for r in results] == JOBS
        assert all(r.ok for r in results)
        assert results[3].stats.platform == "cpu"

    def test_empty_batch(self):
        assert Scheduler().run([]) == []

    def test_bad_worker_count(self):
        with pytest.raises(JobError):
            Scheduler(workers=0)


class TestErrorCapture:
    def test_one_failure_does_not_kill_the_batch(self):
        jobs = [Job("spmv", "WV"),
                Job("sssp", "WV", run_kwargs={"source": 10 ** 9}),
                Job("bfs", "WV", run_kwargs={"source": 0})]
        results = Scheduler(workers=1).run(jobs)
        assert results[0].ok and results[2].ok
        assert not results[1].ok
        assert results[1].error  # carries the worker traceback
        with pytest.raises(JobError):
            results[1].unwrap()

    def test_pool_survives_worker_exception(self):
        jobs = [Job("spmv", "WV"),
                Job("sssp", "WV", run_kwargs={"source": 10 ** 9}),
                Job("bfs", "WV", run_kwargs={"source": 0})]
        results = Scheduler(workers=3).run(jobs)
        assert [r.ok for r in results] == [True, False, True]


class TestParallel:
    def test_parallel_matches_serial_bit_for_bit(self):
        serial = Scheduler(workers=1).run(JOBS)
        parallel = Scheduler(workers=4).run(JOBS)
        for s, p in zip(serial, parallel):
            assert s.job == p.job
            # identity_dict: everything simulated, minus the wall-clock
            # trace telemetry two executions can never share.
            assert p.stats.identity_dict() == s.stats.identity_dict()


def crashing_execute_payload(marker_algorithm, crash_flag_path=None):
    """An execute_payload that kills its worker process on one
    algorithm.  With ``crash_flag_path``, it crashes only until the
    flag file exists (crash once, then succeed)."""
    real = scheduler_module.execute_payload

    def wrapper(payload, cache_dir=None, **kwargs):
        if payload["algorithm"] == marker_algorithm:
            if crash_flag_path is None or not os.path.exists(
                    crash_flag_path):
                if crash_flag_path is not None:
                    with open(crash_flag_path, "w") as flag:
                        flag.write("crashed once")
                os._exit(42)  # simulate segfault/OOM kill
        return real(payload, cache_dir=cache_dir, **kwargs)

    return wrapper


@pytest.mark.skipif(sys.platform != "linux",
                    reason="crash injection relies on fork inheriting "
                           "the monkeypatched module")
class TestCrashRecovery:
    """Worker crashes are retryable and bounded; deterministic
    JobErrors fail fast — and JobResult tells them apart."""

    def test_crash_is_retried_then_reported(self, monkeypatch):
        monkeypatch.setattr(scheduler_module, "execute_payload",
                            crashing_execute_payload("spmv"))
        jobs = [Job("spmv", "WV"),
                Job("bfs", "WV", run_kwargs={"source": 0})]
        results = Scheduler(workers=2, max_crash_retries=2).run(jobs)
        crashed, healthy = results
        assert not crashed.ok
        assert crashed.crashed
        assert crashed.attempts == 3        # 1 try + 2 retries
        assert "crashed" in crashed.error
        assert healthy.ok
        assert not healthy.crashed
        assert healthy.attempts == 1

    def test_crash_once_then_succeed(self, monkeypatch, tmp_path):
        flag = tmp_path / "crashed-once"
        monkeypatch.setattr(
            scheduler_module, "execute_payload",
            crashing_execute_payload("spmv", str(flag)))
        jobs = [Job("spmv", "WV"),
                Job("bfs", "WV", run_kwargs={"source": 0})]
        results = Scheduler(workers=2).run(jobs)
        assert all(result.ok for result in results)
        assert results[0].attempts == 2     # crashed, then recovered
        assert results[1].attempts == 1
        # The recovered result is the real one.
        clean = Scheduler(workers=1).run([jobs[0]])[0]
        assert results[0].stats.identity_dict() == \
            clean.stats.identity_dict()

    def test_deterministic_failure_is_never_retried(self):
        jobs = [Job("sssp", "WV", run_kwargs={"source": 10 ** 9}),
                Job("spmv", "WV")]
        results = Scheduler(workers=2, max_crash_retries=2).run(jobs)
        assert not results[0].ok
        assert not results[0].crashed       # a JobError, not a crash
        assert results[0].attempts == 1
        assert results[1].ok

    def test_zero_retry_budget(self, monkeypatch):
        monkeypatch.setattr(scheduler_module, "execute_payload",
                            crashing_execute_payload("spmv"))
        jobs = [Job("spmv", "WV"),
                Job("bfs", "WV", run_kwargs={"source": 0})]
        results = Scheduler(workers=2, max_crash_retries=0).run(jobs)
        assert not results[0].ok
        assert results[0].attempts == 1
        assert results[1].ok

    def test_bad_retry_budget_rejected(self):
        with pytest.raises(JobError):
            Scheduler(workers=2, max_crash_retries=-1)


class TestJobResult:
    def test_unwrap_success(self):
        result = Scheduler().run([Job("spmv", "WV")])[0]
        assert result.unwrap().seconds > 0

    def test_unwrap_without_stats(self):
        empty = JobResult(job=Job("spmv", "WV"))
        assert not empty.ok
        with pytest.raises(JobError):
            empty.unwrap()


#: Run in a fresh interpreter, whose heap holds no holes yet: frees
#: ``argv[1]`` 100 kB blocks (under glibc's mmap threshold, so
#: heap-allocated) that small live blocks pin below the top, then prints
#: resident anonymous memory before and after the worker's trimmer.
_PINNED_HEAP = """
import sys

from repro.runtime.scheduler import _heap_trimmer

def anon_mb():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("RssAnon:"):
                return int(line.split()[1]) / 1024

block, pin = 100_000, 2000  # names, so no constant folding shares them
blocks, pins = [], []
for _ in range(int(sys.argv[1])):
    blocks.append(b"x" * block)
    pins.append(b"y" * pin)
del blocks
pinned = anon_mb()
_heap_trimmer()()
print(pinned, anon_mb(), len(pins))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads the process's resident memory")
@pytest.mark.parametrize("blocks,released", [(1000, True), (200, False)])
def test_trimmer_hands_large_pinned_free_heap_back(blocks, released):
    """Freed heap blocks that live blocks keep from the top of the heap
    stay resident until the worker's trimmer releases them — once they
    exceed the 64 MB of free heap a worker keeps."""
    import ctypes
    import subprocess

    try:
        ctypes.CDLL(None).mallinfo2
    except AttributeError:
        pytest.skip("the C library is not glibc 2.33 or later")
    out = subprocess.run([sys.executable, "-c", _PINNED_HEAP,
                          str(blocks)],
                         capture_output=True, text=True, check=True,
                         timeout=60).stdout
    pinned, trimmed, _ = (float(x) for x in out.split())
    if released:
        assert pinned - trimmed > 60
    else:
        assert pinned - trimmed < 5
