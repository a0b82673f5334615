"""Command-line interface: ``python -m repro <command>`` (or the
``repro`` console script).

Commands
--------
``run ALGORITHM DATASET``
    Simulate one workload on a chosen platform and print the stats.
``batch JOBFILE``
    Execute a JSON job file through the parallel batch runtime.
``serve``
    Run the persistent simulation service (job queue daemon + HTTP
    API) until SIGINT/SIGTERM.
``submit JOBFILE``
    Submit a job file to a running service (``--wait`` blocks until
    the batch drains and prints the results).
``status [JOB_ID]``
    One job's status, or a listing (``--state`` filters).
``result JOB_ID``
    A finished job's stats.
``cache {stats,prune}``
    Inspect or size-bound a result-cache directory.
``figures [fig17|fig18|fig19|fig20|fig21|all]``
    Regenerate the paper's figures as text.
``tables [1|2|3]``
    Print the paper's tables.
``datasets``
    List the Table 3 dataset analogs.
``lint [PATHS...]``
    Check the repository invariants (REP1xx/REP2xx rules); exits 1 on
    findings.

``run`` and ``figures`` accept ``--workers N`` (process-pool size) and
``--cache-dir PATH`` (persistent result cache); ``run``, ``batch`` and
``datasets`` accept ``--json`` for machine-consumable output.  ``run``
also picks the deployment scenario: ``--deployment
single|out-of-core|multi-node`` with ``--block-size`` (out-of-core
``B``) and ``--num-nodes`` (cluster size); ``batch`` job files carry
the same ``deployment`` object per entry for deployment-grid sweeps.
The service commands (``submit``/``status``/``result``) take ``--url``
(default ``http://127.0.0.1:8750``) to reach the daemon.  ``run``,
``batch`` and ``serve`` accept ``--log-level`` and ``--log-json`` to
surface the telemetry log stream (correlation-id stamped, optionally
JSON lines).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.errors import ReproError
from repro.runtime import BatchRunner, load_jobfile

__all__ = ["main", "build_parser"]

#: Default address of the ``repro serve`` daemon.
DEFAULT_SERVICE_URL = "http://127.0.0.1:8750"


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree of the ``repro`` command."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GraphR (HPCA 2018) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    from repro.algorithms.registry import list_algorithms

    run = sub.add_parser("run", help="simulate one workload")
    # Derived from the registry, so a newly registered algorithm is
    # immediately runnable (pre-fix the list was hardcoded here and
    # silently went stale).
    run.add_argument("algorithm", choices=list(list_algorithms()))
    run.add_argument("dataset", help="Table 3 code, e.g. WV")
    run.add_argument("--platform", default="graphr",
                     choices=["graphr", "cpu", "gpu", "pim"])
    run.add_argument("--iterations", type=int, default=None,
                     help="iteration budget for iterative algorithms "
                          "(default: 20 for pagerank/ppr; frontier "
                          "algorithms run to convergence)")
    run.add_argument("--source", type=int, default=0,
                     help="source vertex for BFS/SSSP/SSWP and the "
                          "PPR restart vertex")
    run.add_argument("--epochs", type=int, default=3,
                     help="training epochs for CF")
    run.add_argument("--k", type=int, default=2,
                     help="core threshold for k-core decomposition")
    run.add_argument("--mode", default=None,
                     choices=["auto", "functional", "analytic"],
                     help="GraphR execution mode (default: the "
                          "runtime's analytic-mode configuration)")
    run.add_argument("--batch-size", type=int, default=None,
                     help="subgraph tiles per batched functional "
                          "engine call (0 = per-tile loop)")
    run.add_argument("--deployment", default=None,
                     choices=["single", "out-of-core", "multi-node"],
                     help="GraphR deployment scenario (default: "
                          "in-memory single node)")
    run.add_argument("--num-nodes", type=int, default=4,
                     help="cluster size for --deployment multi-node")
    run.add_argument("--block-size", type=int, default=None,
                     help="out-of-core block size B in vertices "
                          "(default: the whole graph as one block)")
    _add_runtime_flags(run)
    _add_logging_flags(run)
    run.add_argument("--json", action="store_true",
                     help="print the run's stats as JSON")

    batch = sub.add_parser("batch",
                           help="execute a JSON job file in parallel")
    batch.add_argument("jobfile", help="path to the job file (JSON)")
    _add_runtime_flags(batch)
    _add_logging_flags(batch)
    batch.add_argument("--json", action="store_true",
                       help="print every result (and cache stats) as "
                            "JSON")

    serve = sub.add_parser("serve",
                           help="run the persistent simulation service")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8750,
                       help="HTTP port (default: 8750; 0 = ephemeral)")
    serve.add_argument("--workers", type=int, default=2,
                       help="warm worker processes (default: 2)")
    serve.add_argument("--db", default=".repro-service/jobs.db",
                       help="SQLite job-store path "
                            "(default: .repro-service/jobs.db)")
    serve.add_argument("--cache-dir", default=None,
                       help="result-cache directory "
                            "(default: <db dir>/cache)")
    serve.add_argument("--job-timeout", type=float, default=None,
                       help="per-job wall-clock budget in seconds "
                            "(default: unbounded)")
    serve.add_argument("--resident-bytes", type=int, default=None,
                       help="cap the shared-memory resident dataset "
                            "pool at this many bytes (default: "
                            "unbounded; LRU segments are evicted "
                            "over the cap)")
    _add_logging_flags(serve)

    submit = sub.add_parser("submit",
                            help="submit a job file to the service")
    submit.add_argument("jobfile", help="path to the job file (JSON)")
    submit.add_argument("--priority", type=int, default=0,
                        help="queue priority (higher runs first)")
    submit.add_argument("--wait", action="store_true",
                        help="block until every job is terminal and "
                             "print the results")
    submit.add_argument("--timeout", type=float, default=None,
                        help="give up waiting after this many seconds")
    _add_service_flags(submit)

    status = sub.add_parser("status",
                            help="job status (one id) or job listing")
    status.add_argument("id", nargs="?", default=None,
                        help="job id; omit to list jobs")
    status.add_argument("--state", default=None,
                        choices=["queued", "running", "done", "failed",
                                 "cancelled"],
                        help="restrict the listing to one state")
    _add_service_flags(status)

    result = sub.add_parser("result",
                            help="fetch a finished job's stats")
    result.add_argument("id", help="job id")
    _add_service_flags(result)

    cache = sub.add_parser("cache",
                           help="inspect or prune a result cache")
    cache_sub = cache.add_subparsers(dest="cache_command",
                                     required=True)
    cache_stats = cache_sub.add_parser(
        "stats", help="entry count and total bytes")
    cache_stats.add_argument("--cache-dir", required=True,
                             help="result-cache directory")
    cache_stats.add_argument("--json", action="store_true",
                             help="print the inventory as JSON")
    cache_prune = cache_sub.add_parser(
        "prune", help="evict oldest entries down to a size bound")
    cache_prune.add_argument("--cache-dir", required=True,
                             help="result-cache directory")
    cache_prune.add_argument("--max-bytes", type=int, required=True,
                             help="keep at most this many bytes")
    cache_prune.add_argument("--json", action="store_true",
                             help="print the evicted entries as JSON")

    figures = sub.add_parser("figures", help="regenerate paper figures")
    figures.add_argument("which", nargs="?", default="all",
                         choices=["fig17", "fig18", "fig19", "fig20",
                                  "fig21", "all"])
    _add_runtime_flags(figures)

    tables = sub.add_parser("tables", help="print paper tables")
    tables.add_argument("which", nargs="?", default="all",
                        choices=["1", "2", "3", "all"])

    datasets = sub.add_parser("datasets", help="list dataset analogs")
    datasets.add_argument("--json", action="store_true",
                          help="print the dataset table as JSON")

    lint = sub.add_parser(
        "lint",
        help="check repository invariants (REP1xx/REP2xx rules)",
        description="AST-based invariant checks: determinism, "
                    "filesystem ordering, content-key completeness, "
                    "shared-memory lifecycle, telemetry purity, error "
                    "taxonomy, plus the REP2xx concurrency family "
                    "(lock discipline, fork safety, blocking "
                    "timeouts, finalizer safety, claim protocol).  "
                    "Exits 1 on findings, 2 on misuse.")
    lint.add_argument("paths", nargs="*",
                      help="package dirs or .py files to lint "
                           "(default: the installed repro package)")
    lint.add_argument("--select", action="append", default=[],
                      metavar="RULES",
                      help="run only these comma-separated rule IDs "
                           "or family prefixes, e.g. REP2 "
                           "(repeatable)")
    lint.add_argument("--ignore", action="append", default=[],
                      metavar="RULES",
                      help="skip these comma-separated rule IDs or "
                           "family prefixes (repeatable)")
    lint.add_argument("--format", choices=["text", "json", "sarif"],
                      default=None,
                      help="report format (default: text)")
    lint.add_argument("--json", action="store_true",
                      help="emit the machine-readable report "
                           "(alias for --format json)")
    lint.add_argument("--list-rules", action="store_true",
                      help="list registered rules and exit")
    return parser


def _add_runtime_flags(command: argparse.ArgumentParser) -> None:
    command.add_argument("--workers", type=int, default=1,
                         help="process-pool size (default: 1, serial)")
    command.add_argument("--cache-dir", default=None,
                         help="persistent result-cache directory")


def _add_logging_flags(command: argparse.ArgumentParser) -> None:
    command.add_argument("--log-level", default=None,
                         choices=["DEBUG", "INFO", "WARNING", "ERROR"],
                         help="surface the repro log stream at this "
                              "level (default: silent)")
    command.add_argument("--log-json", action="store_true",
                         help="emit log lines as JSON objects")


def _setup_logging(args: argparse.Namespace) -> None:
    """Apply --log-level/--log-json when the command carries them."""
    level = getattr(args, "log_level", None)
    json_lines = getattr(args, "log_json", False)
    if level is not None or json_lines:
        from repro.obs import setup_logging
        setup_logging(level=level or "INFO", json_lines=json_lines)


def _add_service_flags(command: argparse.ArgumentParser) -> None:
    command.add_argument("--url", default=DEFAULT_SERVICE_URL,
                         help=f"service base URL "
                              f"(default: {DEFAULT_SERVICE_URL})")
    command.add_argument("--json", action="store_true",
                         help="machine-consumable output")


def _service_client(args: argparse.Namespace):
    from repro.service import ServiceClient
    return ServiceClient(args.url)


def _batch_runner(args: argparse.Namespace) -> BatchRunner:
    return BatchRunner(workers=args.workers, cache_dir=args.cache_dir)


def _run_command(args: argparse.Namespace) -> int:
    from repro.experiments.persistence import stats_to_dict

    kwargs: dict = {}
    if args.algorithm in ("bfs", "sssp", "sswp", "ppr"):
        kwargs["source"] = args.source
    elif args.algorithm == "cf":
        kwargs["epochs"] = args.epochs
    elif args.algorithm == "kcore":
        kwargs["k"] = args.k
    if args.algorithm in ("pagerank", "ppr"):
        # The dense power iterations always carry a budget (their
        # references default to 100, far past the shipped benchmarks).
        kwargs["max_iterations"] = (20 if args.iterations is None
                                    else args.iterations)
    elif args.iterations is not None \
            and args.algorithm in ("bfs", "sssp", "sswp", "kcore",
                                   "wcc"):
        # Frontier algorithms run to convergence unless the user
        # explicitly bounds them (an unconditional default of 20 would
        # silently truncate deep graphs).
        kwargs["max_iterations"] = args.iterations

    config = None
    if args.mode is not None or args.batch_size is not None \
            or args.block_size is not None:
        from repro.core.config import GraphRConfig
        # Seed from the runtime's analytic-mode default so that
        # --batch-size alone tunes the batch without silently flipping
        # the execution mode to auto.
        overrides: dict = {"mode": args.mode or "analytic"}
        if args.batch_size is not None:
            overrides["functional_batch_size"] = args.batch_size
        if args.block_size is not None:
            overrides["block_size"] = args.block_size
        config = GraphRConfig(**overrides)

    deployment = None
    if args.deployment is not None:
        from repro.core.partitioned import DeploymentSpec
        deployment = DeploymentSpec(kind=args.deployment,
                                    num_nodes=args.num_nodes)

    runner = _batch_runner(args)
    stats = runner.run(args.algorithm, args.dataset,
                       platform=args.platform, config=config,
                       deployment=deployment, **kwargs)
    if args.json:
        print(json.dumps(stats_to_dict(stats), indent=2))
        return 0
    print(stats.summary())
    print("energy breakdown (J):")
    for component, joules in stats.energy.breakdown().items():
        print(f"  {component:20s} {joules:.6e}")
    return 0


def _batch_command(args: argparse.Namespace) -> int:
    from repro.experiments.persistence import stats_to_dict
    from repro.experiments.report import render_table

    jobs = load_jobfile(args.jobfile)
    runner = _batch_runner(args)
    results = runner.run_jobs(jobs)
    failures = [r for r in results if not r.ok]

    if args.json:
        print(json.dumps({
            "results": [
                {
                    "job": result.job.to_dict(),
                    "key": result.job.content_key(),
                    "ok": result.ok,
                    "from_cache": result.from_cache,
                    "error": result.error,
                    "stats": (stats_to_dict(result.stats)
                              if result.ok else None),
                }
                for result in results
            ],
            "cache": runner.cache_stats(),
        }, indent=2))
        return 1 if failures else 0

    header = ["job", "status", "seconds", "joules", "iterations"]
    body = []
    for result in results:
        if result.ok:
            status = "cached" if result.from_cache else "ok"
            body.append([result.job.label(), status,
                         f"{result.stats.seconds:.4g}",
                         f"{result.stats.joules:.4g}",
                         str(result.stats.iterations)])
        else:
            body.append([result.job.label(), "FAILED", "-", "-", "-"])
    print(render_table(header, body))
    cache = runner.cache_stats()
    print(f"{len(results)} job(s), {len(failures)} failed; cache: "
          f"{cache['hits']} hit(s), {cache['misses']} miss(es)")
    for result in failures:
        print(f"\n{result.job.label()} failed:\n{result.error}",
              file=sys.stderr)
    return 1 if failures else 0


def _serve_command(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.service import SimulationService, serve_in_thread

    from repro.errors import JobError

    service = SimulationService(
        db_path=args.db, cache_dir=args.cache_dir,
        workers=args.workers, job_timeout_s=args.job_timeout,
        resident_bytes=args.resident_bytes)
    requeued = service.start()
    try:
        server = serve_in_thread(service, host=args.host,
                                 port=args.port)
    except OSError as exc:
        service.stop(drain=False)
        raise JobError(f"cannot bind {args.host}:{args.port}: "
                       f"{exc}") from exc
    line = (f"repro service listening on {server.url} — "
            f"{args.workers} worker(s), db {service.db_path}, "
            f"cache {service.cache.cache_dir}")
    if requeued:
        line += f"; requeued {len(requeued)} interrupted job(s)"
    print(line, flush=True)

    stop = threading.Event()

    def _signal(signum, frame):  # noqa: ARG001 - signal API
        stop.set()

    signal.signal(signal.SIGINT, _signal)
    signal.signal(signal.SIGTERM, _signal)
    try:
        while not stop.wait(0.5):
            pass
    finally:
        server.shutdown()
        service.stop(drain=False)
        print("repro service stopped", flush=True)
    return 0


def _submit_command(args: argparse.Namespace) -> int:
    from repro.experiments.report import render_table

    jobs = load_jobfile(args.jobfile)
    client = _service_client(args)
    submissions = client.submit(jobs, priority=args.priority)
    if not args.wait:
        if args.json:
            print(json.dumps({"submissions": submissions}, indent=2))
        else:
            for submission in submissions:
                suffix = " (served from cache)" \
                    if submission["from_cache"] else ""
                print(f"{submission['id']}  {submission['state']}"
                      f"{suffix}")
        return 0

    details = client.wait_for([s["id"] for s in submissions],
                              timeout_s=args.timeout)
    failures = [d for d in details if d["state"] != "done"]
    if args.json:
        for submission, detail in zip(submissions, details):
            detail["from_cache"] = submission["from_cache"]
        print(json.dumps({"jobs": details}, indent=2))
        return 1 if failures else 0

    header = ["job", "id", "status", "seconds", "joules", "iterations"]
    body = []
    for submission, detail in zip(submissions, details):
        spec = detail["spec"]
        label = (f"{spec.get('platform', 'graphr')}:"
                 f"{spec['algorithm']}:{spec['dataset']}")
        stats = detail.get("stats")
        if detail["state"] == "done" and stats:
            status = "cached" if submission["from_cache"] else "done"
            body.append([label, detail["id"], status,
                         f"{stats['seconds']:.4g}",
                         f"{stats['joules']:.4g}",
                         str(stats['iterations'])])
        else:
            body.append([label, detail["id"], detail["state"].upper(),
                         "-", "-", "-"])
    print(render_table(header, body))
    for detail in failures:
        print(f"\n{detail['id']} ended {detail['state']}:"
              f"\n{detail.get('error') or '(no error recorded)'}",
              file=sys.stderr)
    return 1 if failures else 0


def _status_command(args: argparse.Namespace) -> int:
    from repro.experiments.report import render_table

    client = _service_client(args)
    if args.id is not None:
        detail = client.job(args.id)
        if args.json:
            print(json.dumps(detail, indent=2))
        else:
            spec = detail["spec"]
            print(f"{detail['id']}: {spec.get('platform', 'graphr')}:"
                  f"{spec['algorithm']}:{spec['dataset']} — "
                  f"{detail['state']} "
                  f"(attempts={detail['attempts']}, "
                  f"priority={detail['priority']})")
            if detail.get("error"):
                print(detail["error"], file=sys.stderr)
        return 0
    listing = client.jobs(state=args.state)
    if args.json:
        print(json.dumps({"jobs": listing}, indent=2))
        return 0
    header = ["id", "job", "state", "attempts", "priority"]
    body = [[detail["id"],
             f"{detail['spec'].get('platform', 'graphr')}:"
             f"{detail['spec']['algorithm']}:"
             f"{detail['spec']['dataset']}",
             detail["state"], str(detail["attempts"]),
             str(detail["priority"])]
            for detail in listing]
    print(render_table(header, body))
    print(f"{len(listing)} job(s)")
    return 0


def _result_command(args: argparse.Namespace) -> int:
    from repro.errors import JobError
    from repro.hw.stats import RunStats

    detail = _service_client(args).job(args.id)
    if detail["state"] != "done":
        raise JobError(f"job {args.id} is {detail['state']}, "
                       f"not done"
                       + (f": {detail['error']}"
                          if detail.get("error") else ""))
    stats = detail.get("stats")
    if not stats:
        raise JobError(f"job {args.id} finished but its result left "
                       f"the cache; resubmit to recompute")
    if args.json:
        print(json.dumps(stats, indent=2))
        return 0
    reconstructed = RunStats.from_dict(stats)
    print(reconstructed.summary())
    print("energy breakdown (J):")
    for component, joules in reconstructed.energy.breakdown().items():
        print(f"  {component:20s} {joules:.6e}")
    return 0


def _cache_command(args: argparse.Namespace) -> int:
    from repro.runtime.cache import ResultCache
    from repro.runtime.residency import host_resident_stats

    cache = ResultCache(args.cache_dir)
    if args.cache_command == "stats":
        entries = cache.entries()
        shards = cache.shard_entries()
        result_bytes = sum(entry.bytes for entry in entries)
        shard_bytes = sum(entry.bytes for entry in shards)
        # Host-wide, not per-cache-dir: shared-memory segments live in
        # /dev/shm, one namespace per machine.
        resident = host_resident_stats()
        # oldest/newest span the combined inventory — the same order
        # prune evicts in, so "oldest" really is the first victim.
        combined = sorted(entries + shards,
                          key=lambda entry: (entry.mtime, entry.key))
        if args.json:
            print(json.dumps({
                "cache_dir": str(cache.cache_dir),
                "entries": len(entries),
                "result_bytes": result_bytes,
                "shard_count": len(shards),
                "shard_bytes": shard_bytes,
                "total_bytes": result_bytes + shard_bytes,
                "resident_segments": resident["resident_segments"],
                "resident_bytes": resident["resident_bytes"],
                "oldest": combined[0].as_dict() if combined else None,
                "newest": combined[-1].as_dict() if combined else None,
            }, indent=2))
        else:
            print(f"{cache.cache_dir}: {len(entries)} entr"
                  f"{'y' if len(entries) == 1 else 'ies'}, "
                  f"{result_bytes} bytes; {len(shards)} shard "
                  f"dir{'' if len(shards) == 1 else 's'}, "
                  f"{shard_bytes} bytes "
                  f"({result_bytes + shard_bytes} bytes total); "
                  f"{resident['resident_segments']} resident "
                  f"segment{'' if resident['resident_segments'] == 1 else 's'}, "
                  f"{resident['resident_bytes']} bytes in shared "
                  f"memory")
        return 0
    evicted = cache.prune(args.max_bytes)
    freed = sum(entry.bytes for entry in evicted)
    if args.json:
        print(json.dumps({
            "evicted": [entry.as_dict() for entry in evicted],
            "freed_bytes": freed,
            "remaining_bytes": cache.total_bytes(),
        }, indent=2))
    else:
        print(f"evicted {len(evicted)} entr"
              f"{'y' if len(evicted) == 1 else 'ies'} "
              f"({freed} bytes); {cache.total_bytes()} bytes remain")
    return 0


def _figures_command(args: argparse.Namespace) -> int:
    from repro.experiments import (ExperimentRunner, figure17, figure18,
                                   figure19, figure20, figure21)
    builders = {"fig17": figure17, "fig18": figure18, "fig19": figure19,
                "fig20": figure20, "fig21": figure21}
    wanted = builders if args.which == "all" else \
        {args.which: builders[args.which]}
    runner = ExperimentRunner(batch_runner=_batch_runner(args))
    for builder in wanted.values():
        print(builder(runner).describe())
        print()
    return 0


def _tables_command(args: argparse.Namespace) -> int:
    from repro.experiments import table1, table2, table3
    builders = {"1": table1, "2": table2,
                "3": lambda: table3(generate=False)}
    wanted = builders if args.which == "all" else \
        {args.which: builders[args.which]}
    for builder in wanted.values():
        _, text = builder()
        print(text)
        print()
    return 0


def _datasets_command(args: argparse.Namespace) -> int:
    from repro.graph.datasets import PAPER_DATASETS, list_datasets
    if args.json:
        print(json.dumps([
            {
                "code": code,
                "full_name": PAPER_DATASETS[code].full_name,
                "paper_vertices": PAPER_DATASETS[code].paper_vertices,
                "paper_edges": PAPER_DATASETS[code].paper_edges,
                "bipartite": PAPER_DATASETS[code].bipartite,
            }
            for code in list_datasets()
        ], indent=2))
        return 0
    for code in list_datasets():
        spec = PAPER_DATASETS[code]
        print(f"{code}: {spec.full_name} — paper |V|="
              f"{spec.paper_vertices:,}, |E|={spec.paper_edges:,}")
    return 0


def _split_rules(values: Sequence[str]) -> List[str]:
    rules: List[str] = []
    for value in values:
        rules.extend(part.strip() for part in value.split(",")
                     if part.strip())
    return rules


def _lint_command(args: argparse.Namespace) -> int:
    from repro.analysis import list_rules, run_lint
    from repro.analysis.reporting import (render_json, render_sarif,
                                          render_text)

    if args.list_rules:
        for entry in list_rules():
            print(f"{entry['rule']}  {entry['summary']}")
        return 0
    paths = [Path(p) for p in args.paths]
    if not paths:
        import repro

        paths = [Path(repro.__file__).parent]
    result = run_lint(paths,
                      select=_split_rules(args.select),
                      ignore=_split_rules(args.ignore))
    fmt = args.format or ("json" if args.json else "text")
    renderers = {"text": render_text, "json": render_json,
                 "sarif": render_sarif}
    print(renderers[fmt](result))
    return 0 if result.ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "run": _run_command,
        "batch": _batch_command,
        "serve": _serve_command,
        "submit": _submit_command,
        "status": _status_command,
        "result": _result_command,
        "cache": _cache_command,
        "figures": _figures_command,
        "tables": _tables_command,
        "datasets": _datasets_command,
        "lint": _lint_command,
    }
    try:
        _setup_logging(args)
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
