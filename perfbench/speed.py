"""Host-speed calibration of the end-to-end timings.

A shared host's single-thread speed drifts by up to 1.9x as its
neighbours' load comes and goes: it flips between a fast and a slow mode
every second or so, and for spells of minutes it can stay slow
throughout.  A slow spell stretches every timing of a run alike, and no
number of samples inside one run averages out a spell that outlasts it.
So each run also times a fixed piece of work, the *calibration
kernel*, at idle moments inside the window of each timing (around every
set-up, before and after each cold round, through the warm window,
between service slices), and reports each timing at the reference
speed, at which the kernel takes :data:`REFERENCE_S`:

    reported = measured * REFERENCE_S / kernel's 10th percentile
                                        in the timing's window

The kernel runs pinned to each core in turn, because the cores change
mode independently; the statistic is the mean of the cores' 10th
percentiles.  A core's 10th percentile is its fast-mode time: it holds
still while the core flips modes, and it rises when a slow spell covers
the whole window.  A timing made by one process alone (a batch
workload's warm resubmissions, which the parent answers from the cache)
is pinned to one core with :func:`pinned`, and the kernel of its window
runs on that core only.  (The kernel's mean would also follow the
share of a run spent in the slow mode, but the kernel cannot run beside
the workload without slowing it, and its mean over the idle moments
tracks the workload's own windows worse than the fast-mode time does.)

The slow mode costs memory-bound code more than code that stays in the
core's own caches: a pure-Python arithmetic loop slows by about 1.5x,
random reads over a few megabytes by 3x.  So the kernel does what a warm
job does, at the same size: it decodes about 100 KB of JSON, encodes it
again with sorted keys and hashes it.  It slows by about 1.9x, as warm
resubmissions of the grids do.

A change to the simulator moves the measured timing and leaves the
kernel alone, so the reported figure moves with it.  The raw figures
and the kernel's statistics are printed on the line before the result.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import statistics
import time
from typing import Dict, Iterator, List

#: Entries of the kernel's JSON document (about 100 KB).
KERNEL_ENTRIES = 3000
#: The kernel's fast-mode time on the host the bounds were set on (2-core
#: Xeon at 2.1 GHz, Python 3.11): reported timings are at this speed.
REFERENCE_S = 0.005

_DOCUMENT = json.dumps({f"key{i}": [i * 0.5, f"value{i}", {"index": i}]
                        for i in range(KERNEL_ENTRIES)})


def kernel_s() -> float:
    """One timed run of the calibration kernel."""
    began = time.perf_counter()
    decoded = json.loads(_DOCUMENT)
    hashlib.sha256(json.dumps(decoded, sort_keys=True).encode()).digest()
    return time.perf_counter() - began


def sample(samples: List[list], count: int = 2) -> None:
    """Append ``count`` kernel timings per core to ``samples``, each as
    ``[core, seconds]`` (core -1 where pinning is unavailable)."""
    if not hasattr(os, "sched_setaffinity"):
        samples.extend([-1, kernel_s()] for _ in range(count))
        return
    cores = os.sched_getaffinity(0)
    try:
        for core in sorted(cores):
            os.sched_setaffinity(0, {core})
            samples.extend([core, kernel_s()] for _ in range(count))
    finally:
        os.sched_setaffinity(0, cores)


@contextlib.contextmanager
def pinned() -> Iterator[None]:
    """Run the calling thread on one core (the lowest it may use)."""
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    cores = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cores)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cores)


def _p10(values: List[float]) -> float:
    ordered = sorted(values)
    return ordered[-(-len(ordered) // 10) - 1]


def summary(samples: List[list]) -> Dict[str, object]:
    """Per core, the kernel's 10th percentile and median; and the
    sample count."""
    by_core: Dict[int, List[float]] = {}
    for core, seconds in samples:
        by_core.setdefault(int(core), []).append(seconds)
    return {"p10": {core: _p10(values)
                    for core, values in sorted(by_core.items())},
            "p50": {core: statistics.median(values)
                    for core, values in sorted(by_core.items())},
            "samples": len(samples)}


def slowdown(samples: List[list]) -> float:
    """How much slower than the reference speed the host ran: the mean
    of the cores' 10th percentiles over :data:`REFERENCE_S`."""
    return statistics.fmean(summary(samples)["p10"].values()) / REFERENCE_S
