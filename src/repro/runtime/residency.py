"""Shared-memory dataset residency: the attach side of prepare/attach/compute.

Every worker used to regenerate its dataset analog in-process, so a
pool of N workers serving the same handful of graphs held N private
copies and paid N generation costs.  This module gives prepared
datasets a *resident* form: one immutable, content-keyed
``multiprocessing.shared_memory`` segment per ``(dataset, weighted,
seed)`` triple, published once by whichever worker gets there first
and mapped read-only by everyone else.  Out-of-core jobs read their
already content-keyed shard from disk chunk by chunk instead (see
:mod:`repro.core.outofcore`); this module owns the in-memory COO
arrays.

Segment layout (all little-endian)::

    offset 0   8-byte magic  — written LAST, doubles as the ready flag
    offset 8   u64 header length
    offset 16  u64 payload base (64-aligned)
    offset 24  JSON header: dataset metadata + per-array dtype/count/offset
    payload    the COO arrays (rows, cols, values), each 64-aligned

Because the magic is written last, a reader attaching mid-build sees
"not ready", never a torn artifact.  Builds are serialized by a tiny
claim segment (``<name>.lck`` — creating it with ``create=True`` is
the atomic claim); losers poll for the ready flag and fall back to a
private in-process build if the builder vanishes, so residency can
only ever add sharing, never block progress.

Lifecycle is owned explicitly: CPython < 3.13 registers every attach
with the ``resource_tracker`` (which would unlink segments at process
exit and spam leak warnings), so every handle is untracked right after
creation and ownership moves to either the batch scheduler (unlink at
end of batch) or the service supervisor's :class:`ResidentSetManager`
(refcount pins, LRU eviction under a byte budget, orphan sweeps after
worker crashes).  POSIX semantics make eviction safe under in-flight
jobs: unlinking removes the name, the memory lives until the last
worker unmaps.

Results are bit-identical with residency on or off: the segment holds
the exact bytes of the generated arrays and the attach path rebuilds
the same frozen :class:`~repro.graph.graph.Graph` around read-only
views of them.
"""

from __future__ import annotations

import atexit
import itertools
import json
import os
import shutil
import struct
import sys
import tempfile
import threading
import time
from collections import OrderedDict
from multiprocessing import shared_memory
from pathlib import Path
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.errors import ResidencyError
from repro.obs import logsetup, metrics, tracing

__all__ = ["SEGMENT_PREFIX", "ResidentSetManager", "SegmentNotReady",
           "attach_graph", "cleanup_segments", "ensure_dataset",
           "host_resident_stats", "list_host_segments",
           "process_shard_root", "publish_graph", "residency_supported",
           "segment_for", "unlink_segment"]

log = logsetup.get_logger(__name__)

#: Every resident segment (and claim lock) starts with this.
SEGMENT_PREFIX = "repro-ds-"
_LOCK_SUFFIX = ".lck"
_MAGIC = b"RPRODS01"
_ALIGN = 64
_HEADER_OFFSET = 24
#: A not-ready segment or claim lock older than this is presumed
#: orphaned by a dead builder and may be swept.
STALE_GRACE_S = 60.0
#: How long an attach-side loser waits for the claimed build before
#: falling back to a private in-process build.
_BUILD_WAIT_S = 120.0
#: Per-process cap on memoized attached graphs (LRU).  Eviction only
#: drops *references*; numpy views keep the mapping alive until the
#: caller is done, so this bounds bookkeeping, not correctness.
_LOCAL_LIMIT = 8

_SHM_DIR = Path("/dev/shm")


class SegmentNotReady(RuntimeError):
    """The segment exists but its ready magic is not written yet."""


def residency_supported() -> bool:
    """Shared-memory residency rides on fork + /dev/shm: Linux only
    (matching the scheduler's fork-based warm pool)."""
    return sys.platform == "linux"


def segment_for(code: str, weighted: bool, seed: int) -> str:
    """Deterministic segment name for one dataset analog.

    Callers that know a job can derive the name *before* the job runs
    — the supervisor pins it ahead of dispatch on exactly this.
    """
    from repro.graph.datasets import artifact_key

    return SEGMENT_PREFIX + artifact_key(code, weighted, seed)[:24]


def _untrack(shm: shared_memory.SharedMemory) -> None:
    """Detach ``shm`` from the resource tracker (CPython < 3.13
    registers attaches too, and would unlink the segment when *any*
    attaching process exits).  Lifecycle is managed explicitly here."""
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker quirks are best-effort
        pass


def _abandon_handle(shm: shared_memory.SharedMemory) -> None:
    """Drop the handle's claim on its mapping without closing it.

    numpy views exported from ``shm.buf`` make ``close()`` raise
    ``BufferError`` for as long as they live — including at GC time,
    where the failing ``__del__`` would print ignored-exception noise.
    The views keep the mapping alive on their own and unmap it when
    the last one dies, so the handle can simply forget: close the fd
    and clear its references.
    """
    try:
        if shm._fd >= 0:
            os.close(shm._fd)
    except OSError:  # pragma: no cover - fd already gone
        pass
    shm._fd = -1
    shm._buf = None
    shm._mmap = None


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def _plan_segment(graph) -> Tuple[bytes, int, int,
                                  List[Tuple[str, np.ndarray, int]]]:
    """Header bytes, payload base, total size and (key, array, offset)
    placements for ``graph``'s COO arrays."""
    adj = graph.adjacency
    arrays = [("rows", np.ascontiguousarray(adj.rows)),
              ("cols", np.ascontiguousarray(adj.cols)),
              ("values", np.ascontiguousarray(adj.values))]
    placements: List[Tuple[str, np.ndarray, int]] = []
    specs = []
    offset = 0
    for key, arr in arrays:
        offset = _align(offset)
        specs.append({"key": key, "dtype": arr.dtype.str,
                      "count": int(arr.shape[0]), "offset": offset})
        placements.append((key, arr, offset))
        offset += arr.nbytes
    header = json.dumps({
        "dataset": graph.name,
        "weighted": bool(graph.weighted),
        "scale_factor": graph.scale_factor,
        "num_vertices": int(graph.num_vertices),
        "arrays": specs,
    }, sort_keys=True, separators=(",", ":")).encode()
    base = _align(_HEADER_OFFSET + len(header))
    total = max(base + offset, base + 1)  # shm segments cannot be empty
    return header, base, total, placements


def publish_graph(name: str, graph) -> Optional[shared_memory.SharedMemory]:
    """Create and fill segment ``name`` with ``graph``; mark it ready.

    Returns the (untracked) handle, or ``None`` when the segment
    already exists — the caller should attach instead.
    """
    header, base, total, placements = _plan_segment(graph)
    try:
        shm = shared_memory.SharedMemory(name=name, create=True,
                                         size=total)
    except FileExistsError:
        return None
    try:
        _untrack(shm)
        buf = shm.buf
        buf[8:16] = struct.pack("<Q", len(header))
        buf[16:24] = struct.pack("<Q", base)
        buf[_HEADER_OFFSET:_HEADER_OFFSET + len(header)] = header
        for _, arr, offset in placements:
            start = base + offset
            buf[start:start + arr.nbytes] = arr.tobytes()
        buf[0:8] = _MAGIC  # ready flag last: attachers never see a torn build
    except BaseException:
        # The segment has no owner process: abandoned here (OOM while
        # filling, KeyboardInterrupt...) it would outlive us as an
        # unready name that every attacher trips over until reboot.
        try:
            shm.close()
        except BufferError:  # pragma: no cover - no views exported yet
            pass
        unlink_segment(name)
        raise
    return shm


def attach_graph(name: str):
    """Attach segment ``name`` and rebuild its graph around read-only
    views of the shared arrays (zero copy).

    Returns ``(shm, graph)``; raises ``FileNotFoundError`` when the
    segment does not exist and :class:`SegmentNotReady` when the build
    has not published its magic yet.  The returned handle must stay
    referenced as long as the graph is used.
    """
    from repro.graph.coo import COOMatrix
    from repro.graph.graph import Graph

    shm = shared_memory.SharedMemory(name=name)
    _untrack(shm)
    buf = shm.buf
    if bytes(buf[0:8]) != _MAGIC:
        raise SegmentNotReady(name)
    header_len = struct.unpack("<Q", bytes(buf[8:16]))[0]
    base = struct.unpack("<Q", bytes(buf[16:24]))[0]
    meta = json.loads(
        bytes(buf[_HEADER_OFFSET:_HEADER_OFFSET + header_len]).decode())
    arrays: Dict[str, np.ndarray] = {}
    for spec in meta["arrays"]:
        arr = np.frombuffer(buf, dtype=np.dtype(spec["dtype"]),
                            count=spec["count"],
                            offset=base + spec["offset"])
        arr.flags.writeable = False
        arrays[spec["key"]] = arr
    n = meta["num_vertices"]
    graph = Graph(
        adjacency=COOMatrix((n, n), arrays["rows"], arrays["cols"],
                            arrays["values"]),
        name=meta["dataset"],
        weighted=meta["weighted"],
        scale_factor=meta["scale_factor"],
    )
    _abandon_handle(shm)
    return shm, graph


# ----------------------------------------------------------------------
# Per-process attach memo and the ensure_dataset entry point
# ----------------------------------------------------------------------
class _Resident(NamedTuple):
    shm: shared_memory.SharedMemory
    graph: object
    nbytes: int


#: name -> attached segment, LRU-bounded.  Evicting only drops our
#: references; the mapping unwinds once every view of it is gone.
_LOCAL: "OrderedDict[str, _Resident]" = OrderedDict()


def _local_remember(name: str, shm, graph, nbytes: int) -> None:
    _LOCAL[name] = _Resident(shm, graph, nbytes)
    _LOCAL.move_to_end(name)
    while len(_LOCAL) > _LOCAL_LIMIT:
        _LOCAL.popitem(last=False)


def _log_resident(resident_log, name: str, nbytes: int, action: str,
                  dataset: str) -> None:
    if resident_log is not None:
        resident_log.append({"name": name, "bytes": int(nbytes),
                             "action": action, "dataset": dataset})


def _claim_build(name: str) -> Optional[shared_memory.SharedMemory]:
    """Atomically claim the build of ``name`` (create the lock
    segment).  ``None`` means another process holds the claim."""
    try:
        lock = shared_memory.SharedMemory(name=name + _LOCK_SUFFIX,
                                          create=True, size=1)
    except FileExistsError:
        return None
    try:
        _untrack(lock)
    except BaseException:
        # A claim lock abandoned before hand-off (KeyboardInterrupt
        # between create and untrack) would stall every other builder
        # for the full stale-claim grace period.
        unlink_segment(name + _LOCK_SUFFIX)
        raise
    return lock


def _release_claim(lock: shared_memory.SharedMemory) -> None:
    try:
        lock.close()
    except BufferError:  # pragma: no cover - no views are ever exported
        pass
    # Unlink through the filesystem, not SharedMemory.unlink(): the
    # handle was already untracked at claim time, and unlink() would
    # send the resource tracker a second unregister for a name it no
    # longer knows (a KeyError traceback in the tracker process).
    unlink_segment(lock._name.lstrip("/"))


def _segment_age_s(name: str) -> Optional[float]:
    try:
        return time.time() - (_SHM_DIR / name).stat().st_mtime
    except OSError:
        return None


def _steal_stale_claim(name: str) -> Optional[shared_memory.SharedMemory]:
    """If the current claim lock is older than the grace period its
    builder is presumed dead: remove the lock (and any half-written
    segment) and try to claim again."""
    age = _segment_age_s(name + _LOCK_SUFFIX)
    if age is None or age < STALE_GRACE_S:
        return None
    unlink_segment(name + _LOCK_SUFFIX)
    if not _segment_ready(name):
        unlink_segment(name)
    return _claim_build(name)


def _attach_ready(name: str) -> Optional[Tuple[object, int]]:
    """Attach ``name`` if it exists and is ready; memoize locally.

    Every successful shared-memory attach counts here, whichever
    ``ensure_dataset`` path reached it — the "one build, N attaches"
    story must hold across all the race interleavings.
    """
    try:
        shm, graph = attach_graph(name)
    except (FileNotFoundError, SegmentNotReady):
        return None
    _local_remember(name, shm, graph, shm.size)
    metrics.get_registry().counter(
        "repro_dataset_attaches_total",
        "Dataset graphs served by attaching a resident segment").inc()
    return graph, shm.size


def ensure_dataset(code: str, weighted: bool, seed: int,
                   share: bool = False,
                   resident_log: Optional[list] = None):
    """Prepare-or-attach one dataset analog; the pipeline's entry point.

    With ``share=False`` (or off-Linux) this is the classic in-process
    path: a warm per-process cache hit traces as ``attach``, a cold
    generation as ``prepare``.  With ``share=True`` the graph comes
    from (or is published into) the host-wide shared-memory segment,
    and every action is reported into ``resident_log`` so the owner of
    the resident set can adopt/account the segments.
    """
    from repro.graph import datasets

    registry = metrics.get_registry()
    if not (share and residency_supported()):
        if datasets.cached(code, weighted, seed):
            with tracing.span("attach", dataset=code,
                              source="process-cache"):
                return datasets.dataset(code, weighted=weighted,
                                        seed=seed)
        with tracing.span("prepare", dataset=code):
            return datasets.dataset(code, weighted=weighted, seed=seed)

    name = segment_for(code, weighted, seed)
    resident = _LOCAL.get(name)
    if resident is not None:
        _LOCAL.move_to_end(name)
        with tracing.span("attach", dataset=code, source="resident"):
            registry.counter(
                "repro_dataset_attaches_total",
                "Dataset graphs served by attaching a resident "
                "segment").inc()
            _log_resident(resident_log, name, resident.nbytes,
                          "attach", code)
        return resident.graph

    with tracing.span("attach", dataset=code, source="shm") as span:
        attached = _attach_ready(name)
        if attached is not None:
            graph, nbytes = attached
            _log_resident(resident_log, name, nbytes, "attach", code)
            return graph
        if span is not None:
            span.annotate(cold=True)

    lock = _claim_build(name)
    if lock is None:
        lock = _steal_stale_claim(name)
    if lock is not None:
        try:
            # Lost-then-won race: the previous claimer may have
            # published between our attach miss and our claim.
            attached = _attach_ready(name)
            if attached is not None:
                graph, nbytes = attached
                _log_resident(resident_log, name, nbytes, "attach",
                              code)
                return graph
            with tracing.span("prepare", dataset=code, publish=True):
                built = datasets.dataset(code, weighted=weighted,
                                         seed=seed, use_cache=False)
                shm = publish_graph(name, built)
            if shm is None:  # someone published first after all
                attached = _attach_ready(name)
                if attached is not None:
                    graph, nbytes = attached
                    _log_resident(resident_log, name, nbytes,
                                  "attach", code)
                    return graph
                return built  # ready flag still unwritten: use ours
            del built  # the shm copy replaces the private one
            shm2, graph = attach_graph(name)
            _local_remember(name, shm2, graph, shm2.size)
            _log_resident(resident_log, name, shm2.size,
                          "build-publish", code)
            return graph
        finally:
            _release_claim(lock)

    # Another process is building: wait for the ready flag.
    deadline = time.monotonic() + _BUILD_WAIT_S
    while time.monotonic() < deadline:
        with tracing.span("attach", dataset=code, source="shm-wait"):
            attached = _attach_ready(name)
        if attached is not None:
            graph, nbytes = attached
            _log_resident(resident_log, name, nbytes, "attach", code)
            return graph
        if not (_SHM_DIR / (name + _LOCK_SUFFIX)).exists() \
                and not (_SHM_DIR / name).exists():
            break  # builder died before publishing anything
        time.sleep(0.05)
    # Progress over sharing: build privately, leave publication to a
    # future job.
    log.warning("residency wait for %s expired; building privately",
                name)
    with tracing.span("prepare", dataset=code, fallback=True):
        graph = datasets.dataset(code, weighted=weighted, seed=seed)
    _log_resident(resident_log, name, 0, "local", code)
    return graph


# ----------------------------------------------------------------------
# Host-side inventory and cleanup
# ----------------------------------------------------------------------
def _segment_ready(name: str) -> bool:
    try:
        with (_SHM_DIR / name).open("rb") as fh:
            return fh.read(8) == _MAGIC
    except OSError:
        return False


def list_host_segments(include_locks: bool = False
                       ) -> List[Tuple[str, int, float]]:
    """``(name, bytes, mtime)`` of every resident segment on the host
    (empty off-Linux)."""
    if not _SHM_DIR.is_dir():  # pragma: no cover - non-Linux hosts
        return []
    out = []
    for path in sorted(_SHM_DIR.glob(SEGMENT_PREFIX + "*")):
        if not include_locks and path.name.endswith(_LOCK_SUFFIX):
            continue
        try:
            stat = path.stat()
        except OSError:
            continue
        out.append((path.name, stat.st_size, stat.st_mtime))
    return out


def host_resident_stats() -> Dict[str, int]:
    """Gauge-style summary of the host's resident segments."""
    segments = list_host_segments()
    return {"resident_segments": len(segments),
            "resident_bytes": sum(size for _, size, _ in segments)}


def unlink_segment(name: str) -> bool:
    """Remove segment ``name`` from the host namespace.  Safe while
    mapped: POSIX frees the memory on the last unmap."""
    try:
        (_SHM_DIR / name).unlink()
        return True
    except OSError:
        return False


def cleanup_segments(names: Iterable[str]) -> None:
    """Unlink segments and their claim locks (batch-scheduler exit)."""
    for name in names:
        unlink_segment(name)
        unlink_segment(name + _LOCK_SUFFIX)


# ----------------------------------------------------------------------
# Out-of-core scratch shards for cache-less runs
# ----------------------------------------------------------------------
_SCRATCH: Tuple[Optional[str], Optional[int]] = (None, None)


def _purge_scratch(path: str, owner_pid: int) -> None:
    # Forked children inherit the registration; only the owner removes.
    if os.getpid() == owner_pid:
        shutil.rmtree(path, ignore_errors=True)


def process_shard_root() -> str:
    """A per-process shard cache root for ``cache_dir=None`` runs.

    Out-of-core jobs without a cache directory used to re-shard into a
    fresh temp dir on every execution; routing them through one
    process-lifetime root makes repeat runs warm (and gets counted by
    the shard build/reuse metrics).  Removed at process exit via both
    ``atexit`` (main process) and ``multiprocessing.util.Finalize``
    (forked workers).
    """
    global _SCRATCH
    path, pid = _SCRATCH
    if path is None or pid != os.getpid() or not os.path.isdir(path):
        import multiprocessing.util

        path = tempfile.mkdtemp(prefix="repro-scratch-")
        owner = os.getpid()
        atexit.register(_purge_scratch, path, owner)
        multiprocessing.util.Finalize(None, _purge_scratch,
                                      args=(path, owner),
                                      exitpriority=100)
        _SCRATCH = (path, owner)
    return path


# ----------------------------------------------------------------------
# The supervisor-owned resident set
# ----------------------------------------------------------------------
class ResidentSetManager:
    """Refcounted owner of the host's resident segments.

    The service supervisor pins a job's expected segment before
    dispatch and unpins it after, adopts whatever segments the worker
    reports (``outcome["resident"]``), evicts least-recently-used
    *unpinned* segments once the pool exceeds ``max_bytes``, and
    sweeps segments orphaned by worker crashes (a builder that died
    mid-publish leaves a not-ready segment and a stale claim lock).

    ``max_bytes=0`` means unbounded.  Thread-safe: slot threads call
    in concurrently.
    """

    def __init__(self, max_bytes: int = 0) -> None:
        if max_bytes < 0:
            raise ResidencyError("max_bytes must be >= 0")
        self.max_bytes = int(max_bytes)
        self._lock = threading.Lock()
        self._segments: Dict[str, Dict[str, int]] = {}
        self._pins: Dict[str, int] = {}
        self._tick = itertools.count()
        self.evictions = 0
        self.orphans_swept = 0

    # -- accounting ----------------------------------------------------
    def _publish_gauges(self) -> None:
        registry = metrics.get_registry()
        registry.gauge(
            "repro_resident_segments",
            "Shared-memory dataset segments tracked by the resident "
            "set").set(self.segment_count)
        registry.gauge(
            "repro_resident_bytes",
            "Bytes pinned in tracked shared-memory dataset "
            "segments").set(self.total_bytes)

    @property
    def segment_count(self) -> int:
        with self._lock:
            return len(self._segments)

    @property
    def total_bytes(self) -> int:
        with self._lock:
            return sum(entry["bytes"]
                       for entry in self._segments.values())

    def as_dict(self) -> Dict[str, int]:
        with self._lock:
            return {
                "resident_segments": len(self._segments),
                "resident_bytes": sum(entry["bytes"]
                                      for entry in self._segments.values()),
            }

    # -- pinning -------------------------------------------------------
    def pin(self, name: str) -> None:
        """Protect ``name`` from eviction while a job that needs it is
        in flight (the segment need not exist yet)."""
        with self._lock:
            self._pins[name] = self._pins.get(name, 0) + 1
            entry = self._segments.get(name)
            if entry is not None:
                entry["last_used"] = next(self._tick)

    def unpin(self, name: str) -> None:
        with self._lock:
            count = self._pins.get(name, 0) - 1
            if count > 0:
                self._pins[name] = count
            else:
                self._pins.pop(name, None)

    def pinned(self, name: str) -> bool:
        with self._lock:
            return self._pins.get(name, 0) > 0

    # -- adoption ------------------------------------------------------
    def _adopt(self, name: str, nbytes: int) -> None:
        if nbytes <= 0:
            try:
                nbytes = (_SHM_DIR / name).stat().st_size
            except OSError:
                return  # vanished already; nothing to track
        self._segments[name] = {"bytes": int(nbytes),
                                "last_used": next(self._tick)}

    def observe(self, report: Optional[Iterable[Dict[str, object]]]
                ) -> None:
        """Fold a worker's resident log into the tracked set, then
        enforce the byte budget."""
        if not report:
            return
        with self._lock:
            for entry in report:
                action = entry.get("action")
                name = entry.get("name")
                if not name or action == "local":
                    continue
                self._adopt(str(name), int(entry.get("bytes") or 0))
        self.evict_to_budget()
        self._publish_gauges()

    # -- eviction and sweeping -----------------------------------------
    def evict_to_budget(self) -> List[str]:
        """Unlink LRU unpinned segments until the pool fits
        ``max_bytes``.  In-flight attachments keep their mapping —
        unlink only removes the name."""
        if not self.max_bytes:
            return []
        evicted: List[str] = []
        with self._lock:
            while sum(e["bytes"] for e in self._segments.values()) \
                    > self.max_bytes:
                victims = sorted(
                    (name for name in self._segments
                     if self._pins.get(name, 0) == 0),
                    key=lambda name: self._segments[name]["last_used"])
                if not victims:
                    break  # everything pinned: over budget but safe
                victim = victims[0]
                del self._segments[victim]
                evicted.append(victim)
        for name in evicted:
            unlink_segment(name)
            metrics.get_registry().counter(
                "repro_resident_evictions_total",
                "Resident segments unlinked to fit the byte "
                "budget").inc()
            log.info("evicted resident segment %s", name)
        if evicted:
            with self._lock:
                self.evictions += len(evicted)
            self._publish_gauges()
        return evicted

    def sweep_orphans(self) -> List[str]:
        """Reconcile with the host after a worker crash.

        Ready-but-untracked segments are adopted (a crash between
        publish and report must not leak them); not-ready segments and
        claim locks older than the stale grace are removed — their
        builder died mid-write.
        """
        removed: List[str] = []
        for name, nbytes, mtime in list_host_segments(
                include_locks=True):
            if name.endswith(_LOCK_SUFFIX):
                if time.time() - mtime >= STALE_GRACE_S:
                    if unlink_segment(name):
                        removed.append(name)
                continue
            if _segment_ready(name):
                with self._lock:
                    if name not in self._segments:
                        self._adopt(name, nbytes)
                continue
            if time.time() - mtime >= STALE_GRACE_S \
                    and not self.pinned(name):
                if unlink_segment(name):
                    removed.append(name)
        if removed:
            with self._lock:
                self.orphans_swept += len(removed)
            metrics.get_registry().counter(
                "repro_resident_orphans_swept_total",
                "Orphaned segments/locks removed after worker "
                "crashes").inc(len(removed))
        self.evict_to_budget()
        self._publish_gauges()
        return removed

    def shutdown(self) -> None:
        """Unlink every tracked segment, then purge anything left
        under the prefix (claim locks included) — a cleanly stopped
        service leaves /dev/shm as it found it."""
        with self._lock:
            tracked = list(self._segments)
            self._segments.clear()
            self._pins.clear()
        for name in tracked:
            unlink_segment(name)
        for name, _, _ in list_host_segments(include_locks=True):
            unlink_segment(name)
        self._publish_gauges()
