"""Tests for the command-line interface."""

import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.engine import CATALOG


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure1_defaults(self):
        args = build_parser().parse_args(["figure1"])
        assert args.k == 3 and not args.arrows

    def test_run_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "nonsense"])

    def test_sweep_choices_match_catalog(self):
        action = next(
            a
            for a in build_parser()._subparsers._group_actions[0]
            .choices["sweep"]
            ._actions
            if a.dest == "algorithm"
        )
        assert sorted(action.choices) == sorted(CATALOG)

    def test_sweep_defaults(self):
        # The engine and check level stay unset: the batch default is
        # filled in one place (repro.engine.spec.batch_execution), and
        # the check level is the engine's own, as for stats and trace.
        args = build_parser().parse_args(["sweep", "bfs"])
        assert args.engine is None and args.check is None
        assert args.cache is None and args.workers is None

    def test_stats_defaults(self):
        args = build_parser().parse_args(["stats", "broadcast"])
        assert args.n == 16 and args.engine is None
        assert args.links == 0 and not args.profile

    def test_trace_defaults(self):
        args = build_parser().parse_args(["trace", "bfs"])
        assert args.limit == 40 and args.sample == 1
        assert args.jsonl is None

    def test_stats_choices_match_catalog(self):
        for command in ("run", "stats", "trace"):
            action = next(
                a
                for a in build_parser()._subparsers._group_actions[0]
                .choices[command]
                ._actions
                if a.dest == "algorithm"
            )
            assert sorted(action.choices) == sorted(CATALOG)


class TestCommands:
    def test_figure1(self, capsys):
        assert main(["figure1", "--k", "4", "--arrows"]) == 0
        out = capsys.readouterr().out
        assert "Ring MM" in out
        assert "delta(k-is) <= delta(k-ds)" in out

    def test_miniature(self, capsys):
        assert main(["miniature"]) == 0
        out = capsys.readouterr().out
        assert "separates" in out and "yes" in out

    @pytest.mark.parametrize("theorem", ["2", "4", "8"])
    def test_counting(self, theorem, capsys):
        assert main(["counting", "--theorem", theorem, "--sizes", "256"]) == 0
        assert "yes" in capsys.readouterr().out

    @pytest.mark.parametrize("algo", sorted(CATALOG))
    def test_run_algorithms(self, algo, capsys):
        assert main(["run", algo, "--n", "12", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "output:" in out and "rounds:" in out

    @pytest.mark.parametrize(
        "algo, output, rounds",
        [
            ("subgraph", "[True, [21, 1, 0]]", 14),
            ("kds", "[False, None]", 12),
            ("kvc", "[False, None]", 1),
            ("kis", "[True, [0, 4]]", 11),
            (
                "bfs",
                "[0, 1, 1, 1, 2, 2, 2, 3, 2, 3, 2, 1, 2, 1, 2, 1, "
                "2, 2, 1, 2, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2]",
                5,
            ),
        ],
    )
    def test_run_keeps_the_hand_dispatched_numbers(
        self, algo, output, rounds, capsys
    ):
        # What `repro run` printed at this point before it ran catalog
        # points (subgraph was spelled triangle, tuples were not lists).
        assert main(
            ["run", algo, "--n", "32", "--p", "0.3", "--k", "2", "--seed", "0"]
        ) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == [f"output: {output}", f"rounds: {rounds}"]

    @pytest.mark.parametrize("algo", ["mst", "maxis", "median"])
    def test_run_without_a_catalog_entry_exits_2(self, algo, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", algo])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_run_kds(self, capsys):
        assert main(["run", "kds", "--n", "10", "--k", "2"]) == 0
        assert "rounds:" in capsys.readouterr().out

    def test_run_with_fast_engine(self, capsys):
        assert main(["run", "subgraph", "--n", "12", "--engine", "fast"]) == 0
        assert "rounds:" in capsys.readouterr().out

    def test_predict_prints_extrapolation_table(self, capsys):
        assert main(["predict", "broadcast", "--n", "1000000"]) == 0
        out = capsys.readouterr().out
        assert "closed-form extrapolation" in out
        assert "1000000" in out and "ceiling" in out

    def test_predict_unknown_algorithm_hints(self, capsys):
        assert main(["predict", "sortign"]) == 2
        err = capsys.readouterr().err
        assert "did you mean 'sorting'" in err

    def test_closed_stdout_exits_without_traceback(self, tmp_path, monkeypatch):
        # ``repro predict ... | head``: the reader is gone before the
        # first write.  main() returns instead of raising, with the
        # descriptor pointed at the null device for the exit flush.
        fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)

        class ClosedPipe(io.TextIOBase):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def fileno(self):
                return fd

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        try:
            assert main(["predict", "broadcast", "--n", "1000"]) == 1
            assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
        finally:
            os.close(fd)

    def test_predict_without_algorithm_or_validate(self, capsys):
        assert main(["predict"]) == 2
        assert "needs an algorithm" in capsys.readouterr().err

    def test_predict_validate_single_algorithm(self, capsys):
        code = main(
            ["predict", "dolev", "--validate", "--ns", "8", "11",
             "--engines", "reference"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "symbolic gate" in out and "checks exact" in out

    def test_predict_validate_markdown(self, capsys):
        code = main(
            ["predict", "fanout", "--validate", "--ns", "8",
             "--engines", "reference", "--markdown"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "## Symbolic cost gate" in out and "| fanout |" in out

    def test_sweep_prints_table_and_fit(self, capsys):
        code = main(
            ["sweep", "subgraph", "--ns", "8", "16", "--seeds", "2",
             "--workers", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sweep: subgraph" in out
        assert "fitted exponents" in out

    @pytest.mark.parametrize("command", ["sweep", "stats", "trace"])
    def test_removed_shards_flag_exits_2(self, command, capsys):
        with pytest.raises(SystemExit) as info:
            main([command, "fanout", "--engine", "columnar", "--shards", "2"])
        assert info.value.code == 2
        assert "unrecognized arguments: --shards 2" in capsys.readouterr().err

    def test_sweep_single_n_skips_fit(self, capsys):
        assert main(["sweep", "bfs", "--ns", "8", "--workers", "1"]) == 0
        assert "need >= 2 distinct n" in capsys.readouterr().out

    def test_sweep_cache_round_trip(self, capsys, tmp_path):
        argv = ["sweep", "bfs", "--ns", "8", "--seeds", "1", "--workers", "1",
                "--cache", str(tmp_path)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "cache: 0 hit(s), 1 miss(es)" in out
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "yes" in out  # the cached column on the second run
        assert "cache: 1 hit(s), 0 miss(es)" in out

    def test_stats_cache_round_trip(self, capsys, tmp_path):
        argv = ["stats", "bfs", "--n", "8", "--cache", str(tmp_path)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "per-round metrics: bfs" in out
        assert "cache: 0 hit(s), 1 miss(es)" in out
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "per-round metrics: bfs" in out  # served from the cache
        assert "cache: 1 hit(s), 0 miss(es)" in out

    def test_stats_cache_shared_with_sweep(self, capsys, tmp_path):
        assert main(
            ["sweep", "bfs", "--ns", "8", "--seeds", "1", "--workers", "1",
             "--cache", str(tmp_path)]
        ) == 0
        capsys.readouterr()
        assert main(["stats", "bfs", "--n", "8", "--cache", str(tmp_path)]) == 0
        assert "cache: 1 hit(s), 0 miss(es)" in capsys.readouterr().out

    def test_stats_links_hits_a_cache_warmed_by_an_observer_spec_sweep(
        self, capsys, tmp_path
    ):
        from repro.engine import RunCache, catalog_factory, run_sweep

        observer = {"observer": "metrics", "links": True, "profile": False}
        (warm,) = run_sweep(
            catalog_factory,
            [{"algorithm": "bfs", "n": 8, "seed": 0}],
            workers=1,
            execution={"observer": observer},
            cache=RunCache(tmp_path),
        )
        assert not warm.from_cache and warm.result.metrics.busiest_links(1)
        argv = ["stats", "bfs", "--n", "8", "--links", "3", "--cache", str(tmp_path)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "busiest links (top 3)" in out
        assert "cache: 1 hit(s), 0 miss(es)" in out

    def test_stats_resilient_is_cached_under_its_own_key(self, capsys, tmp_path):
        from repro.engine import RunCache, catalog_factory
        from repro.engine.pool import _point_key
        from repro.engine.spec import ExecutionSpec, batch_execution

        argv = ["stats", "bfs", "--resilient", "--fault-plan", "drop=0.2,seed=1",
                "--cache", str(tmp_path)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "resilience: retransmits" in out
        assert "cache: 0 hit(s), 1 miss(es)" in out
        assert main(argv) == 0
        assert "cache: 1 hit(s), 0 miss(es)" in capsys.readouterr().out
        # The unwrapped point misses: the wrap is part of the key.
        assert main(argv[:2] + argv[3:]) == 0
        assert "cache: 0 hit(s), 1 miss(es)" in capsys.readouterr().out
        cache = RunCache(tmp_path)
        desc = batch_execution(
            ExecutionSpec(fault_plan="drop=0.2,seed=1")
        ).describe()
        point = {"algorithm": "bfs", "n": 16, "seed": 0}
        wrapped = _point_key(
            cache, catalog_factory, {**point, "resilient": True}, desc
        )
        assert wrapped != _point_key(cache, catalog_factory, point, desc)
        assert len(list(tmp_path.rglob("*.pkl"))) == 2

    def test_stats_profile_from_cache_is_labelled(self, capsys, tmp_path):
        argv = ["stats", "bfs", "--n", "8", "--profile", "--cache", str(tmp_path)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "phase profile (wall clock)" in out
        assert main(argv) == 0
        out = capsys.readouterr().out
        # The second run replays the first run's timings; say so.
        assert "phase profile (wall clock, from cache)" in out
        assert "cache: 1 hit(s), 0 miss(es)" in out

    @pytest.mark.parametrize("command", ["stats", "sweep"])
    def test_fault_plan_typo_exits_2_with_a_hint(self, command, capsys):
        size = ["--ns", "8"] if command == "sweep" else ["--n", "8"]
        assert main([command, "bfs", *size, "--fault-plan", "dorp=0.1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad fault-plan spec entry 'dorp=0.1'")
        assert "did you mean 'drop'" in err
        assert "Traceback" not in err

    def test_trace_bad_sample_exits_2(self, capsys):
        assert main(["trace", "bfs", "--n", "8", "--sample", "0"]) == 2
        err = capsys.readouterr().err
        assert err == "error: sample must be >= 1, got 0\n"

    def test_stats_run_error_exits_2_without_traceback(self, capsys):
        argv = ["stats", "sorting", "--n", "8", "--fault-plan", "duplicate=0.1,seed=1"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: sweep point 0")
        assert "EncodingError" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["stats", "kds", "--n", "8", "--k=-1"], "kds needs k >= 1, got k=-1"),
            (["predict", "kds", "--n", "100", "--k=-1"], "kds needs k >= 1, got k=-1"),
            (["trace", "kds", "--n", "8", "--k", "0"], "kds needs k >= 1, got k=0"),
            (["predict", "kds", "--k", "0"], "kds needs k >= 1, got k=0"),
            (["stats", "kvc", "--k=-1"], "kvc needs k >= 0, got k=-1"),
            (["run", "kds", "--n", "8", "--k", "0"], "needs k >= 1, got k=0"),
        ],
        ids=["stats-kds", "predict-kds", "trace-kds", "predict-kds-0", "stats-kvc",
             "run-kds"],
    )
    def test_out_of_range_k_exits_2(self, argv, message):
        # In a child process with a deadline, so a command that spins
        # fails the test instead of hanging the suite.
        root = Path(__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ")
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_stats_fault_and_link_tables_agree_across_engines(self, capsys):
        argv = ["stats", "fanout", "--n", "8", "--links", "5",
                "--fault-plan", "drop=0.2,seed=1"]
        tables = {}
        for engine in ("fast", "columnar"):
            assert main([*argv, "--engine", engine]) == 0
            title, _, rest = capsys.readouterr().out.partition("\n")
            assert f"{engine} engine" in title
            tables[engine] = rest
        assert "busiest links (top 5)" in tables["fast"]
        assert "faults: drop" in tables["fast"]
        assert tables["fast"] == tables["columnar"]

    def test_stats_prints_per_round_table(self, capsys):
        assert main(["stats", "broadcast", "--n", "32"]) == 0
        out = capsys.readouterr().out
        assert "per-round metrics: broadcast" in out
        assert "max_load_bits" in out
        assert "run totals" in out
        assert "routed payload load" in out

    def test_stats_links_and_profile(self, capsys):
        assert (
            main(
                ["stats", "bfs", "--n", "9", "--links", "3", "--profile",
                 "--engine", "reference"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "busiest links (top 3)" in out
        assert "phase profile" in out
        assert "validate" in out  # the reference engine's extra phase

    def test_trace_prints_event_table(self, capsys):
        assert main(["trace", "bfs", "--n", "9", "--limit", "20"]) == 0
        out = capsys.readouterr().out
        assert "trace: bfs" in out
        assert "run_end" in out

    def test_trace_jsonl(self, capsys, tmp_path):
        path = tmp_path / "trace.jsonl"
        assert (
            main(["trace", "bfs", "--n", "9", "--jsonl", str(path)]) == 0
        )
        assert "wrote" in capsys.readouterr().out
        import json

        records = [
            json.loads(line)
            for line in path.read_text().strip().splitlines()
        ]
        assert records[0]["kind"] == "run_start"
        assert records[-1]["kind"] == "run_end"

    def test_bench_list(self, capsys):
        assert main(["bench", "list"]) == 0
        out = capsys.readouterr().out
        assert "benchmark suite" in out
        assert "fanout/fast" in out and "columnar-fanout" in out

    def test_bench_run_writes_artifact(self, capsys, tmp_path):
        out_path = tmp_path / "BENCH_dev.json"
        code = main(
            ["bench", "run", "--quick", "--only", "codec/bool-row",
             "--repeats", "1", "--warmup", "0", "--out", str(out_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "bench: 1 workloads" in out
        assert out_path.exists()
        import json

        assert "codec/bool-row" in json.loads(out_path.read_text())["results"]

    def test_bench_run_unknown_workload_lists_valid_names(
        self, capsys, tmp_path
    ):
        code = main(
            ["bench", "run", "--only", "nope/bogus",
             "--out", str(tmp_path / "b.json")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown workload(s)" in err
        assert "codec/bool-row" in err  # the valid names are listed
        assert not (tmp_path / "b.json").exists()

    def test_bench_compare_ok_round_trip(self, capsys, tmp_path):
        out_path = tmp_path / "b.json"
        main(
            ["bench", "run", "--quick", "--only", "codec/bool-row",
             "--repeats", "1", "--warmup", "0", "--out", str(out_path)]
        )
        capsys.readouterr()
        code = main(
            ["bench", "compare", str(out_path), str(out_path), "--markdown"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Benchmark ratchet" in out and "stable" in out

    def test_bench_update_baseline_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "update-baseline"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_demo_unknown_rejected(self):
        with pytest.raises(SystemExit):
            main(["demo", "nope"])

    def test_demo_quickstart(self, capsys):
        assert main(["demo", "quickstart"]) == 0
        assert "triangle detection" in capsys.readouterr().out
