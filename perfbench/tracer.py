"""Per-layer span recorder for the traced benchmark pass.

:func:`install` wraps public functions of the simulator at the name
their caller looks up (``repro.core.controller.run_reference``, a method
on its class, ...).  Every call becomes a span whose parent is the
innermost open span of the same thread.  When a span closes its
duration is folded into per-name totals, and its *self* time (duration
minus what its direct children covered) is kept apart, so the self
times of all spans under a job add up to that job's traced time.

Worker processes forked after :func:`install` inherit the wrappers.
Each one appends its totals to ``<out_dir>/spans-<pid>.jsonl`` after
every job payload; :func:`load` merges the files of every process.

A hook whose target no longer exists is skipped; :func:`missing_hooks`
names it, and the benchmark counts each as a failure, so a refactor of
the simulator never passes off a layer it no longer times as a layer
that got faster.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

#: Span names whose every duration is kept (the rest keep sums only).
SAMPLED = ("runtime.job", "service.submit", "service.poll")


class Tracer:
    """Span totals of one process (reset in every forked child)."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = Path(out_dir)
        #: The process that installed the wrappers; forks flush per job.
        self.owner_pid = os.getpid()
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self.pid = os.getpid()
        self._lock = threading.Lock()
        self._local = threading.local()
        #: name -> [calls, total_s, self_s]
        self.spans: Dict[str, List[float]] = {}
        #: name -> every span duration (only for :data:`SAMPLED`)
        self.samples: Dict[str, List[float]] = {}
        #: free-form counts observed at span boundaries (edges, tiles ...)
        self.counts: Dict[str, float] = {}

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        children = [0.0]
        stack.append(children)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][0] += duration
            with self._lock:
                entry = self.spans.setdefault(name, [0, 0.0, 0.0])
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - children[0]
                if name in SAMPLED:
                    self.samples.setdefault(name, []).append(duration)

    def flush(self) -> None:
        """Append this process's totals to its file and start afresh."""
        with self._lock:
            record = {"spans": self.spans, "samples": self.samples,
                      "counts": self.counts}
            self.spans, self.samples, self.counts = {}, {}, {}
        if not (record["spans"] or record["counts"]):
            return
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{os.getpid()}.jsonl"
        with path.open("a") as fh:
            fh.write(json.dumps(record) + "\n")


def _resolve(module: str, attr: str):
    """``(owner, name)`` of a dotted attribute, or ``None`` if gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, name, None)):
        return None
    return owner, name


def _patch(tracer: Tracer, module: str, attr: str, span: str,
           observe: Optional[Callable] = None,
           skip: Optional[Callable] = None) -> bool:
    """Replace ``module.attr`` by a spanning wrapper.

    ``observe(tracer, result, args, kwargs)`` records counts after the
    call; ``skip(args, kwargs)`` lets a call through unrecorded.
    """
    found = _resolve(module, attr)
    if found is None:
        return False
    owner, name = found
    fn = getattr(owner, name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if skip is not None and skip(args, kwargs):
            return fn(*args, **kwargs)
        result = tracer.call(span, fn, *args, **kwargs)
        if observe is not None:
            observe(tracer, result, args, kwargs)
        return result

    setattr(owner, name, wrapper)
    return True


def _patch_generator(tracer: Tracer, module: str, attr: str, span: str,
                     observe: Callable) -> bool:
    """Wrap a generator function so that each ``next()`` is one span:
    the consumer's work between items stays outside the span."""
    found = _resolve(module, attr)
    if found is None:
        return False
    owner, name = found
    fn = getattr(owner, name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        items = fn(*args, **kwargs)
        while True:
            try:
                item = tracer.call(span, next, items)
            except StopIteration:
                return
            observe(tracer, item)
            yield item

    setattr(owner, name, wrapper)
    return True


def _flush_after(tracer: Tracer, module: str, attr: str) -> None:
    """Flush a forked worker's totals after each job payload."""
    found = _resolve(module, attr)
    if found is None:
        return
    owner, name = found
    fn = getattr(owner, name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        finally:
            if os.getpid() != tracer.owner_pid:
                tracer.flush()

    setattr(owner, name, wrapper)


# ----------------------------------------------------------------------
# Observers: counts taken where the work happens.
def _edges(tracer, events, args, kwargs):
    tracer.count("streaming.edges", getattr(events, "edges", 0))


def _tiles(tracer, batch):
    tracer.count("streaming.tiles", getattr(batch, "count", 0))


def _engine_tiles(tracer, result, args, kwargs):
    tiles = args[1] if len(args) > 1 else None
    tracer.count("engine.tiles", getattr(tiles, "shape", (0,))[0])


def _cache_outcome(tracer, result, args, kwargs):
    tracer.count("runtime.cache_gets")
    if result is not None:
        tracer.count("runtime.cache_hits")


def _warm_dataset(args, kwargs) -> bool:
    """A memoised :func:`repro.graph.datasets.dataset` call is no build."""
    from repro.graph import datasets

    if not kwargs.get("use_cache", True):
        return False
    code = args[0] if args else kwargs.get("code")
    weighted = args[1] if len(args) > 1 else kwargs.get("weighted", False)
    seed = args[2] if len(args) > 2 else kwargs.get("seed", 7)
    try:
        return bool(datasets.cached(code, weighted, seed))
    except (AttributeError, TypeError):
        return False


#: (module, attribute, span name) of every plain hook.
HOOKS = (
    ("repro.runtime.scheduler", "execute_job", "runtime.job"),
    ("repro.runtime.residency", "ensure_dataset", "runtime.attach"),
    ("repro.runtime.cache", "ResultCache.put", "runtime.cache_put"),
    # The service serves a done job's stats through peek, not get.
    ("repro.runtime.cache", "ResultCache.peek", "runtime.cache_get"),
    ("repro.core.streaming", "SubgraphStreamer.__init__", "streaming.build"),
    ("repro.core.partitioned", "run_mac_scan", "mapper.scan"),
    ("repro.core.partitioned", "run_addop_scan", "mapper.scan"),
    ("repro.core.controller", "run_reference", "algorithms.reference"),
    ("repro.core.multinode", "run_reference", "algorithms.reference"),
    ("repro.core.cost", "CostModel.charge_iteration", "cost.charge"),
    ("repro.runtime.shards", "prepared_block_dir", "outofcore.prepare"),
    ("repro.runtime.shards", "prepare_on_disk", "outofcore.shard_build"),
    ("repro.core.outofcore", "OutOfCoreRunner.run", "outofcore.run"),
    ("repro.core.multinode", "partition_by_destination",
     "multinode.partition"),
    ("repro.service.client", "ServiceClient.submit", "service.submit"),
    ("repro.service.client", "ServiceClient.job", "service.poll"),
)


#: (wrapper, module, attribute, span name, options) of the other hooks.
SPECIAL_HOOKS = (
    (_patch, "repro.runtime.cache", "ResultCache.get", "runtime.cache_get",
     {"observe": _cache_outcome}),
    (_patch, "repro.graph.datasets", "dataset", "graph.build",
     {"skip": _warm_dataset}),
    (_patch, "repro.core.streaming", "SubgraphStreamer.iteration_events",
     "streaming.events", {"observe": _edges}),
    (_patch, "repro.core.engine", "GraphEngine.mac_batch", "engine.mac",
     {"observe": _engine_tiles}),
    (_patch, "repro.core.engine", "GraphEngine.addop_batch", "engine.addop",
     {"observe": _engine_tiles}),
    (_patch_generator, "repro.core.streaming",
     "SubgraphStreamer.iter_tile_batches", "streaming.scatter",
     {"observe": _tiles}),
)
#: Where a forked worker flushes its totals.
FLUSH_HOOK = ("repro.runtime.scheduler", "execute_payload")


def install(out_dir: Path) -> Tracer:
    """Wrap every hooked function; returns the process's tracer."""
    tracer = Tracer(out_dir)
    for module, attr, span in HOOKS:
        _patch(tracer, module, attr, span)
    for patch, module, attr, span, options in SPECIAL_HOOKS:
        patch(tracer, module, attr, span, **options)
    _flush_after(tracer, *FLUSH_HOOK)
    return tracer


def missing_hooks() -> List[str]:
    """``module.attr`` of every hook whose target does not exist."""
    targets = [(module, attr) for module, attr, _ in HOOKS]
    targets += [(module, attr) for _, module, attr, _, _ in SPECIAL_HOOKS]
    targets.append(FLUSH_HOOK)
    return [f"{module}.{attr}" for module, attr in targets
            if _resolve(module, attr) is None]


def load(out_dir: Path) -> Dict[str, dict]:
    """Merge the span files of every traced process."""
    spans: Dict[str, List[float]] = {}
    samples: Dict[str, List[float]] = {}
    counts: Dict[str, float] = {}
    for path in sorted(Path(out_dir).glob("spans-*.jsonl")):
        for line in path.read_text().splitlines():
            record = json.loads(line)
            for name, (calls, total, own) in record["spans"].items():
                entry = spans.setdefault(name, [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += total
                entry[2] += own
            for name, values in record["samples"].items():
                samples.setdefault(name, []).extend(values)
            for name, value in record["counts"].items():
                counts[name] = counts.get(name, 0) + value
    return {"spans": spans, "samples": samples, "counts": counts}
