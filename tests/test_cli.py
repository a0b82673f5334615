"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "pagerank", "WV"])
        assert args.platform == "graphr"
        # None means "no explicit budget": pagerank/ppr fall back to
        # 20, frontier algorithms run to convergence.
        assert args.iterations is None

    def test_run_options(self):
        args = build_parser().parse_args(
            ["run", "sssp", "AZ", "--platform", "cpu", "--source", "5"])
        assert args.platform == "cpu"
        assert args.source == 5

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "dfs", "WV"])

    def test_run_choices_track_the_registry(self):
        """Regression: the choices were hardcoded, so registry
        additions silently never surfaced on the CLI."""
        from repro.algorithms.registry import list_algorithms
        run_action = None
        for action in build_parser()._subparsers._group_actions:
            run_action = action.choices["run"]._actions
        choices = next(a.choices for a in run_action
                       if a.dest == "algorithm")
        assert tuple(choices) == list_algorithms()

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_datasets_listing(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "WikiVote" in out and "Netflix" in out

    def test_tables(self, capsys):
        assert main(["tables", "2"]) == 0
        out = capsys.readouterr().out
        assert "processEdge" in out

    def test_run_graphr(self, capsys):
        assert main(["run", "spmv", "WV"]) == 0
        out = capsys.readouterr().out
        assert "[graphr] spmv on WV" in out
        assert "crossbar_write" in out

    def test_run_cpu_platform(self, capsys):
        assert main(["run", "bfs", "WV", "--platform", "cpu"]) == 0
        out = capsys.readouterr().out
        assert "[cpu] bfs on WV" in out

    def test_run_pagerank_iterations(self, capsys):
        assert main(["run", "pagerank", "WV", "--iterations", "3"]) == 0
        out = capsys.readouterr().out
        assert "3 iterations" in out

    def test_explicit_iterations_bound_frontier_algorithms(self,
                                                           capsys):
        """Regression: --iterations used to be silently dropped for
        every algorithm except pagerank/ppr."""
        for algorithm in ("sswp", "kcore"):
            assert main(["run", algorithm, "WV",
                         "--iterations", "2", "--json"]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["iterations"] == 2, algorithm

    def test_default_runs_frontier_algorithms_to_convergence(self,
                                                             capsys):
        assert main(["run", "sswp", "WV", "--json"]) == 0
        bounded = json.loads(capsys.readouterr().out)
        assert bounded["iterations"] > 2

    def test_run_multi_node_deployment(self, capsys):
        assert main(["run", "pagerank", "WV", "--iterations", "3",
                     "--deployment", "multi-node",
                     "--num-nodes", "2"]) == 0
        out = capsys.readouterr().out
        assert "[graphr-multinode] pagerank on WV" in out

    def test_run_out_of_core_deployment(self, capsys):
        assert main(["run", "sssp", "WV", "--deployment", "out-of-core",
                     "--block-size", "2048", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["extra"]["deployment"] == "out-of-core"
        assert 0 < payload["extra"]["peak_edge_residency"] \
            <= 2 * payload["extra"]["max_block_edges"]
        assert payload["extra"]["blocks"] == 16


class TestRuntimeCommands:
    def test_run_json(self, capsys):
        assert main(["run", "spmv", "WV", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["platform"] == "graphr"
        assert payload["seconds"] > 0
        assert "crossbar_write" in payload["energy_breakdown"]

    @pytest.mark.parametrize("batch_size", ["0", "-1"])
    def test_nonpositive_batch_size_is_an_error_exit(self, capsys,
                                                     batch_size):
        assert main(["run", "pagerank", "WV", "--mode", "functional",
                     "--batch-size", batch_size]) == 2
        err = capsys.readouterr().err
        assert "error: functional_batch_size must be positive" in err
        assert "Traceback" not in err

    def test_run_cached(self, capsys, tmp_path):
        args = ["run", "spmv", "WV", "--json",
                "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(args) == 0
        second = json.loads(capsys.readouterr().out)
        assert second == first

    def test_datasets_json(self, capsys):
        assert main(["datasets", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert {entry["code"] for entry in payload} == \
            {"WV", "SD", "AZ", "WG", "LJ", "OK", "NF"}

    def test_batch_command(self, capsys, tmp_path):
        jobfile = tmp_path / "jobs.json"
        jobfile.write_text(json.dumps({
            "jobs": [
                {"algorithm": "spmv", "dataset": "WV"},
                {"algorithm": "bfs", "dataset": "WV", "platform": "cpu",
                 "run_kwargs": {"source": 0}},
            ],
        }))
        cache = tmp_path / "cache"
        argv = ["batch", str(jobfile), "--cache-dir", str(cache),
                "--json"]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["results"]) == 2
        assert all(r["ok"] for r in payload["results"])
        assert payload["cache"]["stores"] == 2

        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(r["from_cache"] for r in payload["results"])
        assert payload["cache"]["hits"] == 2

    def test_batch_reports_failures(self, capsys, tmp_path):
        jobfile = tmp_path / "jobs.json"
        jobfile.write_text(json.dumps(
            [{"algorithm": "sssp", "dataset": "WV",
              "run_kwargs": {"source": 10 ** 9}}]))
        assert main(["batch", str(jobfile)]) == 1
        captured = capsys.readouterr()
        assert "FAILED" in captured.out

    def test_bad_jobfile_is_an_error_exit(self, capsys, tmp_path):
        assert main(["batch", str(tmp_path / "absent.json")]) == 2
        assert "error:" in capsys.readouterr().err


class TestCacheCommands:
    def warm(self, tmp_path):
        cache = tmp_path / "cache"
        assert main(["run", "spmv", "WV", "--cache-dir", str(cache),
                     "--json"]) == 0
        return cache

    def test_cache_stats(self, capsys, tmp_path):
        cache = self.warm(tmp_path)
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", str(cache),
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entries"] == 1
        assert payload["total_bytes"] > 0
        assert payload["oldest"]["key"] == payload["newest"]["key"]

    def test_cache_prune(self, capsys, tmp_path):
        cache = self.warm(tmp_path)
        capsys.readouterr()
        assert main(["cache", "prune", "--cache-dir", str(cache),
                     "--max-bytes", "0", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["evicted"]) == 1
        assert payload["remaining_bytes"] == 0
        assert main(["cache", "stats", "--cache-dir", str(cache)]) == 0
        assert "0 entries" in capsys.readouterr().out

    def test_cache_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache"])

    def test_cache_stats_and_prune_cover_shards(self, capsys, tmp_path):
        """An out-of-core run leaves a prepared shard directory; stats
        must report it and prune --max-bytes 0 must reclaim it."""
        cache = tmp_path / "cache"
        assert main(["run", "pagerank", "WV", "--iterations", "2",
                     "--deployment", "out-of-core",
                     "--block-size", "2048",
                     "--cache-dir", str(cache), "--json"]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", str(cache),
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entries"] == 1
        assert payload["shard_count"] == 1
        assert payload["shard_bytes"] > 0
        assert payload["total_bytes"] == \
            payload["result_bytes"] + payload["shard_bytes"]
        assert main(["cache", "prune", "--cache-dir", str(cache),
                     "--max-bytes", "0", "--json"]) == 0
        pruned = json.loads(capsys.readouterr().out)
        assert pruned["remaining_bytes"] == 0
        kinds = {entry["kind"] for entry in pruned["evicted"]}
        assert kinds == {"result", "shard"}
        # The cache directory is left truly empty, shards/ included.
        assert list(cache.iterdir()) == []


class TestServiceCLI:
    """Parser coverage plus one live serve/submit/status/result loop
    (the HTTP server runs in-thread; the daemon's workers are real
    processes)."""

    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 8750
        assert args.workers == 2
        assert args.db == ".repro-service/jobs.db"

    def test_submit_parser(self):
        args = build_parser().parse_args(
            ["submit", "jobs.json", "--wait", "--priority", "3",
             "--url", "http://127.0.0.1:9999"])
        assert args.wait and args.priority == 3
        assert args.url == "http://127.0.0.1:9999"

    def test_unreachable_service_is_an_error_exit(self, capsys,
                                                  tmp_path):
        jobfile = tmp_path / "jobs.json"
        jobfile.write_text(json.dumps(
            [{"algorithm": "spmv", "dataset": "WV"}]))
        assert main(["submit", str(jobfile),
                     "--url", "http://127.0.0.1:1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_submit_status_result_against_live_service(self, capsys,
                                                       tmp_path):
        from repro.service import SimulationService, serve_in_thread

        service = SimulationService(tmp_path / "svc" / "jobs.db",
                                    workers=2)
        service.start()
        server = serve_in_thread(service)
        try:
            jobfile = tmp_path / "jobs.json"
            jobfile.write_text(json.dumps({
                "jobs": [
                    {"algorithm": "spmv", "dataset": "WV"},
                    {"algorithm": "bfs", "dataset": "WV",
                     "platform": "cpu",
                     "run_kwargs": {"source": 0}},
                ],
            }))
            argv = ["submit", str(jobfile), "--url", server.url,
                    "--wait", "--json"]
            assert main(argv) == 0
            details = json.loads(capsys.readouterr().out)["jobs"]
            assert [d["state"] for d in details] == ["done", "done"]

            # Bit-identical to the batch runtime on the same job file.
            cache = tmp_path / "batch-cache"
            assert main(["batch", str(jobfile), "--cache-dir",
                         str(cache), "--json"]) == 0
            batch = json.loads(capsys.readouterr().out)["results"]
            from repro.hw.stats import RunStats
            for via_service, via_batch in zip(details, batch):
                # identity_dict: each execution carries its own
                # wall-clock trace; the simulated values must match.
                assert RunStats.from_dict(
                    via_service["stats"]).identity_dict() == \
                    RunStats.from_dict(
                        via_batch["stats"]).identity_dict()

            # A warm resubmit is served from cache.
            assert main(argv) == 0
            details = json.loads(capsys.readouterr().out)["jobs"]
            assert all(d["from_cache"] for d in details)

            assert main(["status", "--url", server.url,
                         "--json"]) == 0
            listing = json.loads(capsys.readouterr().out)["jobs"]
            assert len(listing) == 2

            job_id = details[0]["id"]
            assert main(["status", job_id, "--url", server.url]) == 0
            assert "done" in capsys.readouterr().out
            assert main(["result", job_id, "--url", server.url,
                         "--json"]) == 0
            stats = json.loads(capsys.readouterr().out)
            assert stats == details[0]["stats"]
        finally:
            server.shutdown()
            service.stop()
