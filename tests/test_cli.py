"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main

FAST = ["--scale", "0.12", "--visits", "2000", "--benchmarks", "epic"]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_subcommands_exist(self):
        parser = build_parser()
        for command in (
            "table2",
            "table3",
            "table4",
            "fig5",
            "fig6",
            "fig7",
            "dilation",
            "explore",
            "benchmarks",
        ):
            args = parser.parse_args([command])
            assert args.command == command

    def test_common_options_per_subcommand(self):
        args = build_parser().parse_args(
            ["dilation", "--scale", "0.5", "--visits", "123"]
        )
        assert args.scale == 0.5
        assert args.visits == 123

    @pytest.mark.parametrize(
        "flag,bad",
        [
            ("--visits", "0"),
            ("--visits", "-3"),
            ("--visits", "many"),
            ("--scale", "-1"),
            ("--scale", "0"),
            ("--scale", "big"),
        ],
    )
    def test_out_of_range_workload_flags_rejected(self, flag, bad, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", flag, bad])
        err = capsys.readouterr().err
        assert flag in err

    @pytest.mark.parametrize(
        "extra,message",
        [
            (["--sets", "3"], "infeasible cache configuration"),
            (["--sample-intervals", "2", "--sample-warmup", "-1"], "sample"),
        ],
    )
    def test_invalid_sweep_job_is_a_clean_exit(self, extra, message):
        with pytest.raises(SystemExit, match=message):
            main(["sweep", *FAST, *extra])


class TestCommands:
    def test_benchmarks_listing(self, capsys):
        assert main(["benchmarks"]) == 0
        out = capsys.readouterr().out
        assert "085.gcc" in out and "unepic" in out

    def test_dilation(self, capsys):
        assert main(["dilation", *FAST]) == 0
        out = capsys.readouterr().out
        assert "epic" in out
        assert "6332=" in out

    def test_table3(self, capsys):
        assert main(["table3", *FAST]) == 0
        out = capsys.readouterr().out
        assert "Text Dilation" in out

    def test_table2(self, capsys):
        assert main(["table2", *FAST]) == 0
        out = capsys.readouterr().out
        assert "Relative Data Cache Miss Rates" in out

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit, match="unknown benchmarks"):
            main(["dilation", "--benchmarks", "176.gcc"])

    def test_report_from_results_dir(self, capsys, tmp_path):
        (tmp_path / "table3.txt").write_text("Text Dilation\n")
        assert main(["report", "--results", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Reproduction run report" in out
        assert "Text Dilation" in out

    def test_report_to_file(self, capsys, tmp_path):
        (tmp_path / "table3.txt").write_text("Text Dilation\n")
        output = tmp_path / "report.md"
        assert main(
            ["report", "--results", str(tmp_path), "--output", str(output)]
        ) == 0
        assert output.exists()
        assert "written to" in capsys.readouterr().out

    def test_errors_command(self, capsys):
        assert main(["errors", *FAST]) == 0
        out = capsys.readouterr().out
        assert "estimated/icache" in out
        assert "median" in out


class TestMaxWorkers:
    def test_parser_accepts_max_workers(self):
        args = build_parser().parse_args(
            ["explore", "--max-workers", "2"]
        )
        assert args.max_workers == 2
        # Sweep commands share the common options.
        args = build_parser().parse_args(["table2", "--max-workers", "3"])
        assert args.max_workers == 3

    def test_default_is_serial(self):
        assert build_parser().parse_args(["explore"]).max_workers is None

    def test_settings_carry_max_workers(self):
        from repro.cli import _settings

        args = build_parser().parse_args(
            ["table2", "--max-workers", "4"]
        )
        assert _settings(args).max_workers == 4

    def test_explore_runs_with_max_workers(
        self, capsys, monkeypatch, tiny_pipeline
    ):
        """The explore command reaches the parallel-priming path."""
        import repro.experiments.runner as runner
        import repro.service.jobs as jobs
        from repro.explore.spec import (
            CacheDesignSpace,
            ProcessorDesignSpace,
            SystemDesignSpace,
        )

        space = SystemDesignSpace(
            processors=ProcessorDesignSpace(
                int_units=(1, 2), float_units=(1,), memory_units=(1,),
                branch_units=(1,),
            ),
            icache=CacheDesignSpace(
                sizes_kb=(0.5, 1), assocs=(1,), line_sizes=(16, 32)
            ),
            dcache=CacheDesignSpace(
                sizes_kb=(0.5, 1), assocs=(1,), line_sizes=(16,)
            ),
            unified=CacheDesignSpace(
                sizes_kb=(8,), assocs=(2,), line_sizes=(32,)
            ),
        )
        monkeypatch.setattr(jobs, "_system_space", lambda overrides: space)
        monkeypatch.setattr(
            runner, "get_pipeline", lambda bench, settings: tiny_pipeline
        )
        assert main(["explore", *FAST, "--max-workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "Pareto frontier for epic" in out
        assert "cost=" in out

    def test_table2_with_max_workers(self, capsys):
        """A sweep command accepts --max-workers end to end."""
        assert main(["table2", *FAST, "--max-workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "Relative Data Cache Miss Rates" in out

    @pytest.mark.parametrize("bad", ["0", "-1", "nope"])
    def test_non_positive_max_workers_rejected(self, bad, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table2", "--max-workers", bad])
        err = capsys.readouterr().err
        assert "positive integer" in err or "invalid int" in err


class TestExecutorOptions:
    def test_timeout_and_retries_parse(self):
        args = build_parser().parse_args(
            ["table2", "--job-timeout", "1.5", "--job-retries", "3"]
        )
        assert args.job_timeout == 1.5
        assert args.job_retries == 3

    def test_settings_build_policy(self):
        from repro.cli import _settings

        args = build_parser().parse_args(
            ["table2", "--max-workers", "2", "--job-timeout", "9",
             "--job-retries", "1"]
        )
        policy = _settings(args).executor_policy()
        assert policy.max_workers == 2
        assert policy.timeout == 9
        assert policy.retries == 1

    def test_zero_retries_accepted(self):
        args = build_parser().parse_args(["table2", "--job-retries", "0"])
        assert args.job_retries == 0

    @pytest.mark.parametrize(
        "flag,bad",
        [
            ("--job-retries", "-1"),
            ("--job-retries", "1.5"),
            ("--job-timeout", "0"),
            ("--job-timeout", "-5"),
            ("--job-timeout", "soon"),
        ],
    )
    def test_out_of_range_policy_flags_rejected(self, flag, bad, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", flag, bad])
        err = capsys.readouterr().err
        assert flag in err


class TestExploreAllBenchmarks:
    def _patch_tiny(self, monkeypatch, tiny_pipeline):
        import repro.experiments.runner as runner
        import repro.service.jobs as jobs
        from repro.explore.spec import (
            CacheDesignSpace,
            ProcessorDesignSpace,
            SystemDesignSpace,
        )

        space = SystemDesignSpace(
            processors=ProcessorDesignSpace(
                int_units=(1,), float_units=(1,), memory_units=(1,),
                branch_units=(1,),
            ),
            icache=CacheDesignSpace(
                sizes_kb=(0.5,), assocs=(1,), line_sizes=(16,)
            ),
            dcache=CacheDesignSpace(
                sizes_kb=(0.5,), assocs=(1,), line_sizes=(16,)
            ),
            unified=CacheDesignSpace(
                sizes_kb=(8,), assocs=(2,), line_sizes=(32,)
            ),
        )
        monkeypatch.setattr(jobs, "_system_space", lambda overrides: space)
        monkeypatch.setattr(
            runner, "get_pipeline", lambda bench, settings: tiny_pipeline
        )

    def test_explore_walks_every_requested_benchmark(
        self, capsys, monkeypatch, tiny_pipeline
    ):
        """Regression: explore used to evaluate only the first benchmark."""
        self._patch_tiny(monkeypatch, tiny_pipeline)
        assert main(
            ["explore", "--scale", "0.12", "--visits", "2000",
             "--benchmarks", "epic", "unepic"]
        ) == 0
        out = capsys.readouterr().out
        assert "Pareto frontier for epic" in out
        assert "Pareto frontier for unepic" in out


class TestJournalFlag:
    def test_journal_file_written(self, capsys, tmp_path):
        from repro.experiments.runner import clear_pipeline_cache

        clear_pipeline_cache()  # force fresh simulation passes
        path = tmp_path / "journal.jsonl"
        assert main(["table2", *FAST, "--journal", str(path)]) == 0
        assert "[journal]" in capsys.readouterr().err
        from repro.runtime import RunJournal

        journal = RunJournal.load(path)
        events = {e["event"] for e in journal.events}
        assert "run_start" in events and "run_end" in events
        assert journal.select("pass")  # simulations were journaled

    def test_report_includes_journal_section(self, capsys, tmp_path):
        from repro.runtime import RunJournal

        with RunJournal(tmp_path / "journal.jsonl") as journal:
            journal.record("pass", role="sweep", wall_s=0.5, where="serial")
            journal.record("retry", key="32", attempt=0, error="boom")
        (tmp_path / "table3.txt").write_text("Text Dilation\n")
        assert main(
            ["report", "--results", str(tmp_path),
             "--journal", str(tmp_path / "journal.jsonl")]
        ) == 0
        out = capsys.readouterr().out
        assert "Run journal" in out
        assert "1 retries" in out


class TestRunsDb:
    """``--runs-db``: the sweep runs against a persistent store."""

    def test_rows_match_output_and_rerun_is_served_from_store(
        self, capsys, tmp_path, monkeypatch
    ):
        from repro.analytics.runs import get_run_rows, list_runs
        from repro.runtime import RunJournal
        from repro.service.store import ResultStore

        db = tmp_path / "runs.sqlite"
        argv = ["sweep", *FAST, "--runs-db", str(db), "--journal"]
        assert main([*argv, str(tmp_path / "first.jsonl")]) == 0
        first = capsys.readouterr()
        assert "[runs] recorded" in first.err
        store = ResultStore(db)
        (run,) = list_runs(store)
        assert run["kind"] == "sweep" and run["benchmark"] == "epic"
        printed = {
            tuple(int(v) for v in line.split()[:4])
            for line in first.out.splitlines()[2:]
        }
        recorded = {
            (row["line_size"], row["sets"], row["assoc"], int(row["misses"]))
            for row in get_run_rows(store, run["id"])
        }
        assert len(printed) == 27
        assert recorded == printed

        def no_front_end(*args, **kwargs):
            raise AssertionError("a served rerun built a pipeline")

        # The rerun needs neither the trace nor its length from the
        # front end: both results and trace length are in the store.
        monkeypatch.setattr(
            "repro.experiments.runner.get_pipeline", no_front_end
        )
        second_journal = tmp_path / "second.jsonl"
        assert main([*argv, str(second_journal)]) == 0
        assert capsys.readouterr().out == first.out
        journal = RunJournal.load(second_journal)
        (dedup,) = journal.select("service_dedup")
        assert dedup["from_store"] == 27 and dedup["simulated"] == 0
        assert not journal.select("pass")
        assert len(list_runs(store)) == 2


class TestBrokenPipe:
    def test_closed_reader_exits_quietly(self):
        """``repro benchmarks | head -1`` must not print a traceback."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "benchmarks"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        proc.stdout.close()  # the reader goes away before any output
        err = proc.stderr.read().decode()
        proc.wait(timeout=60)
        proc.stderr.close()
        assert "Traceback" not in err
        assert "BrokenPipeError" not in err
