"""Content-addressed, on-disk cache of completed simulation runs.

Completed :class:`~repro.hw.stats.RunStats` are persisted as JSON under
``<cache_dir>/<key[:2]>/<key>.json`` where ``key`` is the owning job's
:meth:`~repro.runtime.job.Job.content_key`.  The payload embeds the
job's canonical dictionary so a lookup can verify it really belongs to
the requesting job (guarding against truncated writes, hand-edited
files or a future format change) before trusting it.

The same directory hosts prepared out-of-core block shards under
``<cache_dir>/shards/<digest>/`` (see :mod:`repro.runtime.shards`).
Shard directories are part of the cache's disk footprint: they are
counted in :meth:`ResultCache.total_bytes`, evicted oldest-mtime-first
alongside result entries by :meth:`ResultCache.prune`, and removed by
:meth:`ResultCache.clear` — a long-lived service can therefore bound
its *entire* cache directory, not just the result files.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.errors import CacheError
from repro.hw.stats import RunStats
from repro.obs import metrics
from repro.runtime.job import Job

__all__ = ["ResultCache", "CacheStats", "CacheEntry",
           "CACHE_FORMAT_VERSION"]

#: Bump when the persisted payload shape changes; stale entries are
#: treated as misses and rewritten.
CACHE_FORMAT_VERSION = 1


@dataclass
class CacheStats:
    """Hit/miss counters of one :class:`ResultCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    invalidations: int = 0

    @property
    def lookups(self) -> int:
        """Total ``get`` calls."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 when never queried)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, object]:
        """JSON-safe counter snapshot."""
        return {"hits": self.hits, "misses": self.misses,
                "stores": self.stores,
                "invalidations": self.invalidations,
                "hit_rate": self.hit_rate}


@dataclass(frozen=True)
class CacheEntry:
    """One persisted artifact — a result file or a prepared shard
    directory — as seen by the inspection API."""

    key: str
    path: Path
    bytes: int
    mtime: float
    #: ``"result"`` for a stats file, ``"shard"`` for a block directory.
    kind: str = "result"

    def as_dict(self) -> Dict[str, object]:
        """JSON-safe row for CLI / metrics output."""
        return {"key": self.key, "path": str(self.path),
                "bytes": self.bytes, "mtime": self.mtime,
                "kind": self.kind}


def _tree_bytes(directory: Path) -> int:
    """Recursive file-size total of one directory (0 if it vanished)."""
    total = 0
    for root, _, files in os.walk(directory):
        for name in files:
            try:
                total += (Path(root) / name).stat().st_size
            except OSError:
                continue  # pruned concurrently
    return total


#: A scratch build older than this is abandoned even if its pid number
#: is occupied — pids get recycled, and no real shard build takes an
#: hour, so the age cutoff bounds the leak a lucky recycle would cause.
_SCRATCH_GRACE_S = 3600.0


def _scratch_in_use(name: str, mtime: float) -> bool:
    """Whether a ``<digest>.tmp.<pid>`` scratch directory still belongs
    to a live builder: its pid must be running *and* the directory must
    be recent (False for malformed names)."""
    if time.time() - mtime > _SCRATCH_GRACE_S:
        return False
    _, _, pid_text = name.rpartition(".")
    try:
        pid = int(pid_text)
    except ValueError:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        pass  # e.g. EPERM: the pid exists but belongs to someone else
    return True


class ResultCache:
    """Persists one ``RunStats`` JSON file per job content key."""

    def __init__(self, cache_dir: Union[str, Path]) -> None:
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.stats = CacheStats()
        # A published shard's contents are immutable (and deterministic
        # per digest), so its tree walk is memoised by name — metrics
        # polls must not re-stat every file of every shard on each
        # request, and reuse touching the dir mtime must not invalidate
        # the memo.
        self._shard_sizes: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def path_for(self, job: Job) -> Path:
        """Cache file of one job (two-level fan-out keeps directories
        small on big sweeps)."""
        key = job.content_key()
        return self.cache_dir / key[:2] / f"{key}.json"

    def _load(self, job: Job) -> Optional[RunStats]:
        """Read one entry without touching the counters.

        *Any* unusable entry — unreadable, wrong version, foreign job,
        malformed stats — is a miss to be recomputed, never an error:
        the cache must not be able to break a run it only accelerates.
        """
        path = self.path_for(job)
        try:
            payload = json.loads(path.read_text())
            if (not isinstance(payload, dict)
                    or payload.get("version") != CACHE_FORMAT_VERSION
                    or payload.get("job") != job.canonical_dict()):
                raise CacheError("stale or foreign cache entry")
            return RunStats.from_dict(payload["stats"])
        except Exception:  # noqa: BLE001 - corrupt entries become misses
            return None

    def get(self, job: Job) -> Optional[RunStats]:
        """The cached stats of ``job``, or ``None`` on a miss
        (counted)."""
        registry = metrics.get_registry()
        stats = self._load(job)
        if stats is None:
            self.stats.misses += 1
            registry.counter("repro_cache_misses_total",
                             "Result-cache lookups that missed").inc()
        else:
            self.stats.hits += 1
            registry.counter("repro_cache_hits_total",
                             "Result-cache lookups that hit").inc()
            try:
                # A hit refreshes the entry's mtime so prune's
                # oldest-first order sees reuse — hot results age like
                # hot shards, not like their write date.
                os.utime(self.path_for(job))
            except OSError:
                pass
        return stats

    def peek(self, job: Job) -> Optional[RunStats]:
        """Like :meth:`get` but without counting a hit or miss.

        For observation paths (status polling, result serving) that
        must not skew the hit-rate the metrics report — the counters
        are meant to measure *dedup*, not polling frequency.
        """
        return self._load(job)

    def put(self, job: Job, stats: RunStats) -> Path:
        """Persist one finished run; returns the file written."""
        path = self.path_for(job)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "version": CACHE_FORMAT_VERSION,
            "job": job.canonical_dict(),
            "stats": stats.to_dict(),
        }
        # Write-then-rename so a crashed writer never leaves a torn
        # file a later reader would half-trust; the tmp name is
        # per-process so concurrent writers of the same key cannot
        # rename each other's half-written files.  Keys stay in payload
        # order: the ledger breakdowns' insertion order is part of what
        # makes reconstructed totals bit-identical.
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(payload, indent=2))
        tmp.replace(path)
        self.stats.stores += 1
        metrics.get_registry().counter(
            "repro_cache_stores_total",
            "Finished runs persisted to the result cache").inc()
        return path

    def invalidate(self, job: Job) -> bool:
        """Drop one job's entry; ``True`` if a file was removed."""
        path = self.path_for(job)
        try:
            path.unlink()
        except OSError:
            return False
        self.stats.invalidations += 1
        return True

    def clear(self) -> int:
        """Drop every artifact — result files *and* prepared shard
        directories; returns the number removed (each shard directory
        counts once)."""
        removed = 0
        for entry in sorted(self.cache_dir.glob("*/*.json")):
            try:
                entry.unlink()
                removed += 1
            except OSError:
                pass
        for shard in self.shard_entries():
            shutil.rmtree(shard.path, ignore_errors=True)
            if not shard.path.exists():
                removed += 1
        self.stats.invalidations += removed
        self._sweep_empty_dirs()
        return removed

    # ------------------------------------------------------------------
    def entries(self) -> List[CacheEntry]:
        """Every result entry, oldest mtime first.

        Only the two-level ``<key[:2]>/<key>.json`` result files are
        listed here; prepared shard directories have their own
        inventory (:meth:`shard_entries`) and both feed
        :meth:`total_bytes` / :meth:`prune`.
        """
        metrics.get_registry().counter(
            "repro_cache_inventory_walks_total",
            "Full result-directory listings (each one stats every "
            "entry — pollers should hit the daemon's TTL memo "
            "instead)").inc()
        found = []
        # sorted(): directory order is filesystem-dependent, and ties
        # on mtime below break by whatever order this scan produced.
        for path in sorted(self.cache_dir.glob("*/*.json")):
            try:
                meta = path.stat()
            except OSError:
                continue  # pruned concurrently
            found.append(CacheEntry(key=path.stem, path=path,
                                    bytes=meta.st_size,
                                    mtime=meta.st_mtime))
        found.sort(key=lambda entry: (entry.mtime, entry.key))
        return found

    def shard_entries(self) -> List[CacheEntry]:
        """Every prepared shard directory, oldest mtime first.

        Includes abandoned ``*.tmp.<pid>`` scratch directories from
        dead (or hour-stale) builders — they consume the same disk and
        are reclaimed by the same eviction; a fresh scratch directory
        whose builder is still running is in active use and stays
        invisible.
        """
        root = self.cache_dir / "shards"
        found = []
        seen = set()
        if root.is_dir():
            for path in sorted(root.iterdir()):
                if not path.is_dir():
                    continue
                try:
                    meta = path.stat()
                except OSError:
                    continue  # pruned concurrently
                if ".tmp." in path.name \
                        and _scratch_in_use(path.name, meta.st_mtime):
                    continue
                seen.add(path.name)
                size = self._shard_sizes.get(path.name)
                if size is None:
                    size = _tree_bytes(path)
                    self._shard_sizes[path.name] = size
                found.append(CacheEntry(key=path.name, path=path,
                                        bytes=size,
                                        mtime=meta.st_mtime,
                                        kind="shard"))
        for stale in set(self._shard_sizes) - seen:
            # pop, not del: concurrent metrics polls race this sweep.
            self._shard_sizes.pop(stale, None)
        found.sort(key=lambda entry: (entry.mtime, entry.key))
        return found

    def total_bytes(self) -> int:
        """Bytes held by all artifacts (results plus shard dirs)."""
        total = (sum(entry.bytes for entry in self.entries())
                 + sum(entry.bytes for entry in self.shard_entries()))
        metrics.get_registry().gauge(
            "repro_cache_resident_bytes",
            "Bytes held by cache artifacts after the last prune").set(
                total)
        return total

    def _sweep_empty_dirs(self) -> None:
        """Remove fan-out/shard directories eviction emptied, so a
        prune-to-zero leaves the cache directory itself empty."""
        for child in sorted(self.cache_dir.iterdir()):
            if child.is_dir():
                try:
                    child.rmdir()
                except OSError:
                    pass  # still holds entries

    def prune(self, max_bytes: int) -> List[CacheEntry]:
        """Evict oldest-mtime-first until at most ``max_bytes`` remain.

        Result entries and prepared shard directories share one
        eviction order (shard reuse refreshes the directory mtime, so
        hot shards age like hot results; scratch dirs of live builders
        are skipped).  Returns the evicted entries (possibly empty).
        Eviction is size-bounding, not correctness-affecting: a pruned
        job simply re-simulates (and re-shards) on its next
        submission.  Note that a shard evicted *while a job is
        streaming it* fails that one run — prune an active service's
        cache to a bound above its working set, or when it is idle.
        """
        if max_bytes < 0:
            raise CacheError("max_bytes must be >= 0")
        entries = sorted(self.entries() + self.shard_entries(),
                         key=lambda entry: (entry.mtime, entry.key))
        total = sum(entry.bytes for entry in entries)
        evicted: List[CacheEntry] = []
        for entry in entries:
            if total <= max_bytes:
                break
            if entry.kind == "shard":
                shutil.rmtree(entry.path, ignore_errors=True)
                if entry.path.exists():
                    continue  # raced with a concurrent builder
            else:
                try:
                    entry.path.unlink()
                except OSError:
                    continue  # raced with another pruner: already gone
            total -= entry.bytes
            evicted.append(entry)
            self.stats.invalidations += 1
        if evicted:
            registry = metrics.get_registry()
            registry.counter(
                "repro_cache_evictions_total",
                "Artifacts removed by size-bound pruning").inc(
                    len(evicted))
            registry.gauge(
                "repro_cache_resident_bytes",
                "Bytes held by cache artifacts after the last prune"
            ).set(total)
            self._sweep_empty_dirs()
        return evicted

    def __len__(self) -> int:
        return sum(1 for _ in self.cache_dir.glob("*/*.json"))

    def __repr__(self) -> str:
        return (f"ResultCache({str(self.cache_dir)!r}, entries={len(self)}, "
                f"hits={self.stats.hits}, misses={self.stats.misses})")
