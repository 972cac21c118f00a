"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.model.serialization import system_to_json
from repro.synth import figure4_system
from repro.synth.corpus import CorpusSpec, generate_corpus


class TestAnalyze:
    def test_default_system(self, capsys):
        assert main(["analyze"]) == 0
        out = capsys.readouterr().out
        assert "sigma_c" in out and "sigma_d" in out
        assert "weakly-hard" in out

    def test_single_chain_with_dmm(self, capsys):
        assert main(["analyze", "--chain", "sigma_c", "--k", "3"]) == 0
        out = capsys.readouterr().out
        assert "dmm(3) = 3" in out

    def test_system_from_file(self, tmp_path, capsys):
        path = tmp_path / "system.json"
        path.write_text(system_to_json(figure4_system()))
        assert main(["analyze", "--system", str(path),
                     "--chain", "sigma_d"]) == 0
        assert "schedulable" in capsys.readouterr().out


@pytest.mark.parametrize("argv, named", [
    (["analyze", "--system", "missing.json"], "missing.json"),
    (["analyze", "--chain", "sigma_zz"], "sigma_zz"),
    (["simulate", "--system", "missing.json"], "missing.json"),
], ids=["analyze-file", "analyze-chain", "simulate-file"])
def test_bad_input_exits_2(tmp_path, monkeypatch, argv, named, capsys):
    """A missing system file or an unknown chain is a clean ``error:
    ...`` naming it and exit 2, not a traceback."""
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert named in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


class TestSimulate:
    def test_runs_and_prints_gantt(self, capsys):
        assert main(["simulate", "--horizon", "1000"]) == 0
        out = capsys.readouterr().out
        assert "max latency" in out
        assert "tau_c^3" in out  # gantt row labels

    @pytest.mark.parametrize("horizon", ["nan", "-5", "inf", "0"])
    def test_bad_horizon_is_a_usage_error(self, horizon, capsys):
        assert main(["simulate", "--horizon", horizon]) == 2
        captured = capsys.readouterr()
        assert "error: horizon must be finite and > 0" in captured.err
        assert captured.out == ""


class TestExperiments:
    def test_table1(self, capsys):
        assert main(["experiment", "table1"]) == 0
        out = capsys.readouterr().out
        assert "331" in out and "175" in out

    def test_table2_shows_both_modes(self, capsys):
        assert main(["experiment", "table2"]) == 0
        out = capsys.readouterr().out
        assert "printed parameters" in out
        assert "calibrated" in out
        assert "dmm(76) = 4" in out
        assert "dmm(250) = 5" in out

    def test_figure5_small_sample(self, capsys):
        assert main(["--calibrated", "experiment", "figure5",
                     "--samples", "12", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "dmm_sigma_c(10) over 12 priority assignments" in out
        assert "dmm_sigma_d(10)" in out


class TestBatch:
    def test_summary_table(self, capsys):
        assert main(["batch", "--random", "4", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "sample-0000" in out
        assert "cache hit rate" in out

    def test_json_deterministic_across_workers(self, capsys):
        """Acceptance: a 50-system random sweep exports identical JSON
        with --workers 1 and --workers 2."""
        args = ["--calibrated", "batch", "--random", "50", "--seed",
                "2017", "--json"]
        assert main(args + ["--workers", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(args + ["--workers", "2"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel
        payload = json.loads(serial)
        assert payload["job_count"] == 100  # 50 systems x 2 chains
        assert set(payload["status_counts"]) <= {
            "schedulable", "weakly-hard", "no-guarantee", "error"}

    def test_json_to_file(self, tmp_path, capsys):
        target = tmp_path / "batch.json"
        assert main(["batch", "--random", "3", "--json",
                     "--output", str(target)]) == 0
        payload = json.loads(target.read_text())
        assert payload["job_count"] == 6

    def test_system_files(self, tmp_path, capsys):
        path = tmp_path / "system.json"
        path.write_text(system_to_json(figure4_system()))
        assert main(["batch", "--system", str(path),
                     "--chain", "sigma_c", "--k", "3"]) == 0
        out = capsys.readouterr().out
        assert "dmm(3)=3" in out

    def test_timings_variant_includes_workers(self, capsys):
        assert main(["batch", "--random", "2", "--json",
                     "--timings"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["workers"] == 1
        assert "cache" in payload

    def test_timings_stderr_tagged_with_job_ids(self, capsys):
        """Per-job timing lines come from the parent, in submission
        order, tagged with the job id — attributable and never
        interleaved, whatever the worker count."""
        assert main(["batch", "--random", "3", "--seed", "5", "--json",
                     "--timings", "--workers", "2"]) == 0
        err = capsys.readouterr().err
        lines = [line for line in err.splitlines()
                 if line.startswith("[job ")]
        assert len(lines) == 6  # 3 systems x 2 chains
        for index, line in enumerate(lines):
            assert line.startswith(f"[job {index:04d}] ")
            assert line.rstrip().endswith("s") and "/" in line
        # The summary line carries the merged jobs-cache counters,
        # followed by the aggregated packing counters.
        assert "[jobs 0h/6m/0d]" in err.splitlines()[-2]
        assert err.splitlines()[-1].startswith("packing: resolves ")
        assert "resolves" in err.splitlines()[-1]

    def test_cache_dir_warm_parallel_rerun_identical(self, tmp_path,
                                                     capsys):
        cache = tmp_path / "cache"
        args = ["batch", "--random", "4", "--seed", "3", "--json",
                "--cache-dir", str(cache)]
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert main(args + ["--workers", "2"]) == 0
        warm = capsys.readouterr().out
        assert warm == cold
        assert list(cache.rglob("*.bin"))

    def test_no_cache_export_identical(self, capsys):
        args = ["batch", "--random", "3", "--seed", "9", "--json"]
        assert main(args) == 0
        cached = capsys.readouterr().out
        assert main(args + ["--no-cache"]) == 0
        assert capsys.readouterr().out == cached

    def test_exhaustive_export_identical(self, capsys):
        args = ["batch", "--random", "3", "--seed", "17", "--json"]
        assert main(args) == 0
        pruned = capsys.readouterr().out
        assert main(args + ["--exhaustive"]) == 0
        assert capsys.readouterr().out == pruned

    @pytest.mark.parametrize("argv", [
        ["batch", "--workers", "0"], ["shard", "--shards", "0"]])
    def test_no_worker_is_a_usage_error(self, argv, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: need at least one worker: --workers N and/or "
            "--worker URL\n")

    def test_corpus_and_system_are_exclusive(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            main(["shard", "--corpus", str(tmp_path), "--system",
                  "missing.json", "--workers", "1"])
        assert info.value.code == 2
        assert "not allowed with argument --corpus" in \
            capsys.readouterr().err

    def test_limit_needs_corpus(self, capsys):
        assert main(["batch", "--random", "2", "--limit", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --limit applies only to --corpus\n"
        assert captured.out == ""

    @pytest.mark.parametrize("source", ["corpus", "system"])
    @pytest.mark.parametrize("flag", ["--random", "--seed"])
    def test_sweep_flags_with_other_input_exit_2(self, tmp_path, source,
                                                 flag, capsys):
        """--random and --seed shape only the random sweep: given with
        --corpus or --system they exit 2, not silently dropped."""
        if source == "corpus":
            generate_corpus(CorpusSpec(count=2, seed=2017),
                            str(tmp_path / "corpus"))
            inputs = ["--corpus", str(tmp_path / "corpus")]
        else:
            path = tmp_path / "system.json"
            path.write_text(system_to_json(figure4_system()))
            inputs = ["--system", str(path)]
        assert main(["batch"] + inputs + ["--json"]) == 0
        capsys.readouterr()
        assert main(["batch"] + inputs + [flag, "5", "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: {flag} applies only without --corpus and --system\n")
        assert captured.out == ""

    @pytest.mark.parametrize("flags, named", [
        (["--chunk-size", "1", "-v", "--retries", "9"], "--chunk-size"),
        (["--chunk-size", "1"], "--chunk-size"),
        (["-v"], "--verbose"),
        (["--verbose"], "--verbose"),
        (["--timeout", "5"], "--timeout"),
        (["--retries", "9"], "--retries"),
        (["--retry-delay", "0.5"], "--retry-delay")])
    @pytest.mark.parametrize("topology", [[], ["--workers", "1"]],
                             ids=["default", "workers-1"])
    def test_worker_flags_in_process_exit_2(self, flags, named, topology,
                                            capsys):
        """The worker-only flags cannot act on the in-process run (one
        local worker, no URL): each exits 2 naming the flag.  Only a
        URL's client reads --timeout."""
        args = ["batch", "--random", "2"] + topology + flags
        assert main(args) == 2
        captured = capsys.readouterr()
        where = ("a --worker URL" if named == "--timeout"
                 else "--workers N > 1 or a --worker URL")
        assert captured.err == f"error: {named} applies only with {where}\n"
        assert captured.out == ""

    def test_timeout_without_url_exits_2(self, capsys):
        """Local worker processes have no timeout: --timeout without a
        --worker URL exits 2 on every topology."""
        assert main(["batch", "--random", "2", "--workers", "2",
                     "--timeout", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: --timeout applies only with a --worker URL\n")
        assert captured.out == ""

    def test_worker_flags_act_on_workers(self, capsys):
        args = ["batch", "--random", "2", "--json"]
        assert main(args) == 0
        serial = capsys.readouterr().out
        flags = ["--workers", "2", "--chunk-size", "1", "-v", "--retries",
                 "9", "--retry-delay", "0.01"]
        assert main(args + flags) == 0
        captured = capsys.readouterr()
        assert captured.out == serial
        assert captured.err.count(" done in ") == 4

    def test_system_files_load_in_workers(self, tmp_path, capsys):
        """--system files are parsed in the parent, then fanned out;
        exports stay identical to the serial reference and labeled by
        path."""
        paths = []
        for index, calibrated in enumerate((False, True)):
            path = tmp_path / f"sys{index}.json"
            path.write_text(system_to_json(
                figure4_system(calibrated=calibrated)))
            paths.append(str(path))
        args = (["batch", "--system"] + paths +
                ["--json", "--cache-dir", str(tmp_path / "cache")])
        assert main(args) == 0
        serial = capsys.readouterr().out
        assert main(args + ["--workers", "2"]) == 0
        assert capsys.readouterr().out == serial
        payload = json.loads(serial)
        assert payload["job_count"] == 4
        assert payload["jobs"][0]["label"] == paths[0]


class TestCacheCommand:
    def _warm_cache(self, tmp_path):
        cache = tmp_path / "cache"
        assert main(["batch", "--random", "2", "--seed", "5", "--json",
                     "--cache-dir", str(cache)]) == 0
        return cache

    def test_reports_per_category_sizes(self, tmp_path, capsys):
        cache = self._warm_cache(tmp_path)
        (cache / "busy_time" / "ab").mkdir(parents=True)
        (cache / "busy_time" / "ab" / "old.bin").write_bytes(b"x")
        capsys.readouterr()
        assert main(["cache", str(cache)]) == 0
        out = capsys.readouterr().out
        assert "entries" in out and "size" in out
        # Whole job results only: 2 systems x 2 chains, and an old
        # artifact directory is neither counted nor reported.
        rows = [line.split() for line in out.splitlines()[2:]]
        assert [row[:2] for row in rows] == [["jobs", "4"]]

    def test_prune_older_than_zero_empties_the_store(self, tmp_path,
                                                     capsys):
        cache = self._warm_cache(tmp_path)
        assert list(cache.rglob("*.bin"))
        capsys.readouterr()
        assert main(["cache", str(cache),
                     "--prune-older-than", "0s"]) == 0
        out = capsys.readouterr().out
        assert "pruned" in out
        assert not list(cache.rglob("*.bin"))

    def test_prune_with_large_age_keeps_everything(self, tmp_path,
                                                   capsys):
        cache = self._warm_cache(tmp_path)
        before = sorted(cache.rglob("*.bin"))
        capsys.readouterr()
        assert main(["cache", str(cache),
                     "--prune-older-than", "90d"]) == 0
        assert sorted(cache.rglob("*.bin")) == before

    def test_bad_age_is_a_usage_error(self, tmp_path, capsys):
        cache = self._warm_cache(tmp_path)
        capsys.readouterr()
        assert main(["cache", str(cache),
                     "--prune-older-than", "soonish"]) == 2
        assert "bad --prune-older-than" in capsys.readouterr().err

    def test_age_syntax(self):
        from repro.cli import parse_age
        assert parse_age("45") == 45
        assert parse_age("45s") == 45
        assert parse_age("30m") == 1800
        assert parse_age("12h") == 43200
        assert parse_age("2d") == 172800
        assert parse_age("1w") == 604800
        with pytest.raises(ValueError):
            parse_age("-3h")
        with pytest.raises(ValueError):
            parse_age("")
        # float() accepts these, but as prune cutoffs they are either
        # destructive (nan compares False everywhere) or meaningless.
        for poison in ("nan", "inf", "-inf", "nand"):
            with pytest.raises(ValueError):
                parse_age(poison)

    def test_nan_age_rejected_before_touching_the_store(self, tmp_path,
                                                        capsys):
        cache = self._warm_cache(tmp_path)
        before = sorted(cache.rglob("*.bin"))
        capsys.readouterr()
        assert main(["cache", str(cache),
                     "--prune-older-than", "nan"]) == 2
        assert sorted(cache.rglob("*.bin")) == before

    def test_missing_directory_is_not_created(self, tmp_path, capsys):
        missing = tmp_path / "no-such-cache"
        assert main(["cache", str(missing)]) == 2
        assert "no cache directory" in capsys.readouterr().err
        assert not missing.exists()

    def test_inspecting_a_foreign_directory_leaves_it_untouched(
            self, tmp_path, capsys):
        """``repro cache`` on an existing non-cache directory must not
        plant category subdirectories in it."""
        foreign = tmp_path / "home"
        foreign.mkdir()
        (foreign / "unrelated.txt").write_text("hands off")
        assert main(["cache", str(foreign)]) == 0
        capsys.readouterr()
        assert sorted(p.name for p in foreign.iterdir()) == ["unrelated.txt"]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "figure9"])

    @pytest.mark.parametrize("command", [
        ["analyze"], ["experiment", "table2"], ["batch"], ["shard"]])
    @pytest.mark.parametrize("value", ["0", "-1", "2.5", "ten"])
    def test_bad_window_size_is_a_usage_error(self, command, value,
                                              capsys):
        with pytest.raises(SystemExit) as info:
            main(command + ["--k", "3", value])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument --k: window sizes must be integers >= 1, " \
            f"got {value!r}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, flag, minimum", [
        (["batch"], "--workers", 0),
        (["serve"], "--workers", 1),
        (["shard-worker"], "--workers", 1),
        (["shard"], "--chunk-size", 1),
        (["shard"], "--limit", 0),
        (["corpus", "verify", "corpus-dir"], "--limit", 0),
        (["batch"], "--random", 0),
        (["shard"], "--random", 0)])
    def test_bad_count_is_a_usage_error(self, command, flag, minimum,
                                        capsys):
        for value in (str(minimum - 1), "-5", "2.5", "ten"):
            with pytest.raises(SystemExit) as info:
                main(command + [flag, value])
            assert info.value.code == 2
            err = capsys.readouterr().err
            assert f"error: argument {flag}: must be an integer >= " \
                f"{minimum}, got {value!r}" in err
            assert "Traceback" not in err

    @pytest.mark.parametrize("argv, flag, expected", [
        (["batch", "--random", "2", "--workers", "2", "--retries", "0"],
         "--retries", "must be an integer >= 1, got '0'"),
        (["batch", "--random", "2", "--workers", "2", "--retry-delay", "-1"],
         "--retry-delay", "must be a finite number >= 0, got '-1'"),
        (["batch", "--random", "2", "--workers", "2", "--retry-delay", "nan"],
         "--retry-delay", "must be a finite number >= 0, got 'nan'"),
        (["batch", "--random", "2", "--workers", "2", "--timeout", "0"],
         "--timeout", "must be a finite number > 0, got '0'"),
        (["analyze", "--server", "http://127.0.0.1:9", "--retries", "0"],
         "--retries", "must be an integer >= 1, got '0'"),
        (["analyze", "--server", "http://127.0.0.1:9", "--timeout", "0"],
         "--timeout", "must be a finite number > 0, got '0'"),
        (["analyze", "--server", "http://127.0.0.1:9", "--timeout", "nan"],
         "--timeout", "must be a finite number > 0, got 'nan'"),
    ], ids=["batch-retries-0", "batch-retry-delay-negative",
            "batch-retry-delay-nan", "batch-timeout-0", "analyze-retries-0",
            "analyze-timeout-0", "analyze-timeout-nan"])
    def test_bad_client_number_is_a_usage_error(self, argv, flag, expected,
                                                capsys):
        """The client flags have the floors ``RetryPolicy`` and
        ``ServiceClient`` enforce; below them argparse exits 2 naming
        the flag, before any request is sent."""
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument {flag}: {expected}" in err
        assert "Traceback" not in err

    def test_backend_option_is_gone(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["batch", "--backend", "greedy"])
        assert info.value.code == 2
        assert "unrecognized arguments: --backend" in capsys.readouterr().err


class TestReport:
    def test_report_to_stdout(self, capsys):
        assert main(["report", "--samples", "15"]) == 0
        out = capsys.readouterr().out
        assert "# Reproduction report" in out
        assert "## Table II" in out

    def test_report_to_file(self, tmp_path, capsys):
        target = tmp_path / "report.md"
        assert main(["report", "--samples", "15",
                     "--output", str(target)]) == 0
        assert target.read_text().startswith("# Reproduction report")
