"""Prepared-shard reuse for out-of-core jobs.

:func:`~repro.core.outofcore.prepare_on_disk` is deterministic: the
packed shard (streaming-ordered edge columns, per-block offsets,
out-degrees and manifest) depends only on the dataset analog (code,
seed, weighting) and the parts of the
:class:`~repro.core.config.GraphRConfig` that shape the preprocessing
order (block size and crossbar geometry).  Re-sharding the same graph
for every out-of-core job is therefore pure waste — this module keys
finished shard directories by those inputs and keeps them under
``<cache_dir>/shards/<digest>/`` so repeated jobs stream straight from
the existing shard.

Publication is atomic: a shard is built in a per-process scratch
directory and renamed into place only after its manifest (written
last) exists, so readers never see a half-built shard and concurrent
builders race harmlessly — the loser discards its identical copy.
The reader (:class:`~repro.core.outofcore.OutOfCoreRunner`) validates
the layout once when it opens a shard and checks each chunk's edges as
it reads them.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from pathlib import Path
from typing import Callable, Union

from repro.core.config import GraphRConfig
from repro.core.outofcore import LAYOUT_VERSION
from repro.core.outofcore import _MANIFEST as MANIFEST_NAME
from repro.core.outofcore import prepare_on_disk
from repro.graph.graph import Graph
from repro.obs import metrics, tracing

__all__ = ["SHARD_LAYOUT_VERSION", "shard_key", "prepared_block_dir"]

#: The on-disk layout :func:`prepare_on_disk` writes, part of every
#: key: after a layout change old shards are simply never matched again
#: (prune the cache dir to reclaim the space).  Version 2 is one packed,
#: streaming-ordered shard; version 1 was one file per block.
SHARD_LAYOUT_VERSION = LAYOUT_VERSION


def shard_key(dataset: str, dataset_seed: int, weighted: bool,
              config: GraphRConfig) -> str:
    """Stable digest naming one prepared shard directory.

    Covers everything :func:`prepare_on_disk` reads: the dataset analog
    identity plus the config fields that shape the block/subgraph
    ordering.  Cost-model knobs deliberately stay out — they change
    what a run *charges*, not what lands on disk.
    """
    payload = {
        "layout_version": SHARD_LAYOUT_VERSION,
        "dataset": dataset,
        "dataset_seed": dataset_seed,
        "weighted": bool(weighted),
        "block_size": config.block_size,
        "crossbar_size": config.crossbar_size,
        "crossbars_per_ge": config.logical_crossbars_per_ge,
        "num_ges": config.num_ges,
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def prepared_block_dir(graph: Union[Graph, Callable[[], Graph]],
                       config: GraphRConfig,
                       cache_root: Union[str, Path], *,
                       dataset: str, dataset_seed: int,
                       weighted: bool) -> Path:
    """A complete shard directory for ``(dataset, config)``.

    Returns the cached shard when one exists (a present manifest means
    the rename-after-build completed), otherwise shards the graph into
    a scratch directory and atomically publishes it.  ``graph`` may be
    a zero-argument callable returning the graph — it is invoked only
    on a cold build, so a warm shard never materializes the dataset at
    all (the pipeline's warm prepare is manifest-check plus attach).
    """
    root = Path(cache_root) / "shards"
    final = root / shard_key(dataset, dataset_seed, weighted, config)
    registry = metrics.get_registry()
    if (final / MANIFEST_NAME).exists():
        registry.counter(
            "repro_shard_reuses_total",
            "Out-of-core jobs served by an existing shard").inc()
        with tracing.span("shard-attach", reused=True,
                          shard=final.name[:12]):
            try:
                # Refresh the mtime so the cache's oldest-mtime-first
                # eviction sees reuse: without this a day-one shard hit
                # by every job would still be pruned before idle
                # newcomers.
                os.utime(final)
            except OSError:
                pass
        return final
    registry.counter(
        "repro_shard_builds_total",
        "Out-of-core shard directories built from scratch").inc()
    root.mkdir(parents=True, exist_ok=True)
    if callable(graph):
        graph = graph()
    scratch = final.with_name(f"{final.name}.tmp.{os.getpid()}")
    with tracing.span("shard-build", shard=final.name[:12]):
        if scratch.exists():
            shutil.rmtree(scratch)
        try:
            prepare_on_disk(graph, scratch, config)
        except BaseException:
            # A failed build must not orphan its scratch: the cache's
            # in-use grace period would shield the dead builder's
            # leftovers from eviction for an hour.
            shutil.rmtree(scratch, ignore_errors=True)
            raise
    try:
        scratch.replace(final)
    except OSError:
        # Lost the publication race: another process renamed its
        # (bit-identical) copy first.  Use theirs, drop ours.
        if not (final / MANIFEST_NAME).exists():
            raise
        shutil.rmtree(scratch, ignore_errors=True)
    return final
