"""Tests for the parallel batch runner and the analysis cache.

Covers the four properties the runner guarantees:

* determinism — serial and parallel runs export byte-identical JSON;
* cache correctness — cache-served job results equal cold ones on
  random systems, with LRU recency in the in-process front;
* system files — ``run_paths`` parses files in the parent and runs
  them like ``run_systems``, for any worker count;
* error propagation — analysis failures are data, everything else
  (missing chains, unreadable files, failing shard chunks) raises in
  the parent, naming the job or file.

The persistent disk backend has its own differential suite in
``test_cache_differential.py``.
"""

import json
import math
import random

import pytest

from repro.model.serialization import system_to_json
from repro.runner import (
    AnalysisCache,
    AnalysisJob,
    BatchExecutionError,
    BatchRunner,
    execute_job,
    run_chain_job,
)
from repro.synth import (
    GeneratorConfig,
    figure4_system,
    generate_feasible_system,
    labeled_random_systems,
)


def small_sweep(count=10, seed=7):
    base = figure4_system(calibrated=True)
    labeled = labeled_random_systems(base, count, seed)
    return [label for label, _ in labeled], [s for _, s in labeled]


class TestDeterminism:
    def test_serial_and_parallel_json_identical(self):
        labels, systems = small_sweep(10)
        serial = BatchRunner(workers=1).run_systems(
            systems, ["sigma_c", "sigma_d"], labels=labels
        )
        parallel = BatchRunner(workers=2).run_systems(
            systems, ["sigma_c", "sigma_d"], labels=labels
        )
        assert serial.to_json() == parallel.to_json()
        assert len(serial) == 20

    def test_serial_rerun_identical(self):
        labels, systems = small_sweep(5)
        first = BatchRunner(workers=1).run_systems(systems, labels=labels)
        second = BatchRunner(workers=1).run_systems(systems, labels=labels)
        assert first.to_json() == second.to_json()

    def test_deterministic_export_hides_timings(self):
        labels, systems = small_sweep(2)
        batch = BatchRunner(workers=1).run_systems(systems, labels=labels)
        det = batch.to_dict()
        full = batch.to_dict(deterministic=False)
        assert "wall_time" not in det and "cache" not in det
        assert full["wall_time"] >= 0 and full["workers"] == 1
        for job in det["jobs"]:
            assert "elapsed" not in job

    def test_order_follows_submission(self):
        labels, systems = small_sweep(6)
        batch = BatchRunner(workers=2).run_systems(
            systems, ["sigma_c"], labels=labels
        )
        assert [job.label for job in batch.jobs] == labels


class TestCacheCorrectness:
    def sample_systems(self, count=4, seed=13):
        rng = random.Random(seed)
        config = GeneratorConfig(chains=3, overload_chains=1, utilization=0.55)
        return [generate_feasible_system(rng, config) for _ in range(count)]

    def test_cached_equals_cold_on_random_systems(self):
        ks = (1, 5, 10, 50)
        for system in self.sample_systems():
            for chain in system.typical_chains:
                if not chain.has_deadline:
                    continue
                cold = run_chain_job(system, chain.name, ks=ks)
                cache = AnalysisCache()
                warm_up = run_chain_job(system, chain.name, ks=ks, cache=cache)
                cached = run_chain_job(system, chain.name, ks=ks, cache=cache)
                assert cached.to_dict() == cold.to_dict() == warm_up.to_dict()
                assert warm_up.cache == {
                    "jobs": {"hits": 0, "misses": 1, "disk_hits": 0}
                }
                assert cached.cache == {
                    "jobs": {"hits": 1, "misses": 0, "disk_hits": 0}
                }
                assert cache.stats().entries == 1

    def test_cache_distinguishes_system_content(self):
        system = figure4_system(calibrated=False)
        other = figure4_system(calibrated=True)
        assert system.content_digest() != other.content_digest()
        cache = AnalysisCache()
        a = run_chain_job(system, "sigma_c", ks=(250,), cache=cache)
        b = run_chain_job(other, "sigma_c", ks=(250,), cache=cache)
        # Calibration changes the overload curves, hence the DMM tail;
        # the second system's job is a miss, never the first's result.
        assert a.dmm[250] != b.dmm[250]
        assert cache.stats().misses == 2 and cache.stats().hits == 0

    def test_identical_content_shares_digest(self):
        one = figure4_system()
        two = figure4_system()
        assert one is not two
        assert one.content_digest() == two.content_digest()

    def test_maxsize_bounds_entries(self):
        cache = AnalysisCache(maxsize=3)
        for index in range(10):
            cache.store(("key", index), index)
        assert cache.stats().entries == 3

    def test_lookup_refreshes_lru_order(self):
        cache = AnalysisCache(maxsize=2)
        cache.store("a", 1)
        cache.store("b", 2)
        assert cache.lookup("a") == (1, False)  # refresh "a"
        cache.store("c", 3)  # evicts "b", not "a"
        assert cache.lookup("a") == (1, False)
        assert cache.lookup("b") == (None, False)
        assert cache.lookup("c") == (3, False)

    def test_counters_track_disk_hits_field(self):
        cache = AnalysisCache()
        assert cache.stats_dict() == {
            "jobs": {"hits": 0, "misses": 0, "disk_hits": 0, "entries": 0}
        }

    def test_runner_batch_warm_cache_hits(self):
        """Re-running identical jobs through one runner hits the cache."""
        labels, systems = small_sweep(3)
        runner = BatchRunner(workers=1)
        first = runner.run_systems(systems, ["sigma_c"], labels=labels)
        second = runner.run_systems(systems, ["sigma_c"], labels=labels)
        assert first.to_json() == second.to_json()
        assert second.cache_hit_rate > first.cache_hit_rate
        assert second.cache_hit_rate > 0.9

    def test_repeated_analyze_is_served_from_jobs(self):
        """The opt layer's in-process primitive goes through the result
        cache: a revisited candidate is one ``jobs`` hit, equal to the
        first evaluation."""
        system = figure4_system(calibrated=True)
        runner = BatchRunner(workers=1, ks=(3, 76))
        first = runner.analyze(system, "sigma_c")
        second = runner.analyze(system, "sigma_c")
        assert second.to_dict() == first.to_dict()
        assert first.label == second.label == system.name
        assert first.cache["jobs"]["misses"] == 1
        assert second.cache["jobs"]["hits"] == 1
        stats = runner.cache.stats()
        assert (stats.hits, stats.misses, stats.entries) == (1, 1, 1)

    def test_use_cache_false_disables_memoization(self):
        labels, systems = small_sweep(2)
        runner = BatchRunner(workers=1, use_cache=False)
        assert runner.cache is None
        batch = runner.run_systems(systems, ["sigma_c"], labels=labels)
        assert batch.cache_stats == {}
        assert batch.cache_hit_rate == 0.0


class TestWorkerSideLoading:
    """System files: parsed in the parent, then run like systems."""

    def write_systems(self, tmp_path, count=3, seed=7):
        labels, systems = small_sweep(count, seed)
        paths = []
        for label, system in zip(labels, systems):
            path = tmp_path / f"{label}.json"
            path.write_text(system_to_json(system))
            paths.append(str(path))
        return paths, systems

    def test_run_paths_matches_run_systems(self, tmp_path):
        paths, systems = self.write_systems(tmp_path)
        by_paths = BatchRunner(workers=1).run_paths(paths)
        by_systems = BatchRunner(workers=1).run_systems(systems, labels=paths)
        assert by_paths.to_json() == by_systems.to_json()

    def test_run_paths_parallel_identical(self, tmp_path):
        paths, _ = self.write_systems(tmp_path, count=4)
        serial = BatchRunner(workers=1).run_paths(paths, ["sigma_c"])
        parallel = BatchRunner(workers=2).run_paths(paths, ["sigma_c"])
        assert serial.to_json() == parallel.to_json()
        assert [job.label for job in serial.jobs] == paths

    def test_named_chains_fan_out_per_file_and_chain(self, tmp_path):
        """Explicit chains run as one job per (file, chain), byte-
        identically over shard workers and in-process."""
        paths, _ = self.write_systems(tmp_path, count=2)
        fanned = BatchRunner(workers=2).run_paths(paths, ["sigma_c", "sigma_d"])
        reference = BatchRunner(workers=1).run_paths(paths, ["sigma_c", "sigma_d"])
        assert fanned.to_json() == reference.to_json()

    def test_missing_file_raises_with_job(self, tmp_path):
        missing = str(tmp_path / "absent.json")
        with pytest.raises(BatchExecutionError) as excinfo:
            BatchRunner(workers=1).run_paths([missing])
        assert missing in str(excinfo.value)

    def test_invalid_json_raises_parallel(self, tmp_path):
        paths, _ = self.write_systems(tmp_path, count=2)
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(BatchExecutionError) as excinfo:
            BatchRunner(workers=2).run_paths(paths + [str(bad)])
        assert str(bad) in str(excinfo.value)


class TestErrorPropagation:
    def test_analysis_error_is_data(self):
        system = figure4_system()
        # sigma_a is an overload chain: TWCA raises NotAnalyzable, which
        # must surface as an error *result*, not an exception.
        job = AnalysisJob.from_system(system, "sigma_a")
        result = execute_job(job)
        assert result.status == "error"
        assert "NotAnalyzable" in result.error
        assert result.dmm == {}

    def test_missing_chain_raises_serial(self):
        system = figure4_system()
        job = AnalysisJob.from_system(system, "sigma_zz")
        with pytest.raises(BatchExecutionError) as excinfo:
            BatchRunner(workers=1).run([job])
        assert "sigma_zz" in str(excinfo.value)
        assert isinstance(excinfo.value.cause, KeyError)

    def test_missing_chain_raises_parallel(self):
        system = figure4_system()
        good = AnalysisJob.from_system(system, "sigma_c")
        bad = AnalysisJob.from_system(system, "sigma_zz")
        with pytest.raises(BatchExecutionError) as excinfo:
            BatchRunner(workers=2).run([good, bad, good])
        assert excinfo.value.job is bad

    def test_corrupt_system_json_raises(self):
        job = AnalysisJob(system_json="{not json", chain_name="x")
        with pytest.raises(BatchExecutionError):
            BatchRunner(workers=1).run([job])

    def test_errors_listed_on_result(self):
        system = figure4_system()
        jobs = [
            AnalysisJob.from_system(system, "sigma_c"),
            AnalysisJob.from_system(system, "sigma_a"),
        ]
        batch = BatchRunner(workers=1).run(jobs)
        assert len(batch.errors) == 1
        assert batch.status_counts["error"] == 1


class TestJobsAndResults:
    def test_job_digest_stable_and_content_sensitive(self):
        system = figure4_system()
        job1 = AnalysisJob.from_system(system, "sigma_c")
        job2 = AnalysisJob.from_system(figure4_system(), "sigma_c")
        job3 = AnalysisJob.from_system(system, "sigma_d")
        assert job1.digest == job2.digest
        assert job1.digest != job3.digest

    def test_job_roundtrips_system(self):
        system = figure4_system()
        job = AnalysisJob.from_system(system, "sigma_c")
        clone = job.system()
        assert clone.content_digest() == system.content_digest()

    def test_jobs_for_defaults_to_deadline_chains(self):
        system = figure4_system()
        jobs = BatchRunner().jobs_for([system])
        assert sorted(job.chain_name for job in jobs) == ["sigma_c", "sigma_d"]

    def test_result_json_is_strict(self):
        """Exported JSON must reparse (no Infinity/NaN literals)."""
        labels, systems = small_sweep(2)
        batch = BatchRunner().run_systems(systems, labels=labels)
        payload = json.loads(batch.to_json())
        assert payload["job_count"] == len(batch)
        for job in payload["jobs"]:
            assert job["wcl"] is None or math.isfinite(job["wcl"])

    def test_summary_mentions_counts(self):
        labels, systems = small_sweep(2)
        batch = BatchRunner().run_systems(systems, labels=labels)
        text = batch.summary()
        assert "jobs" in text and "cache hit rate" in text
        assert labels[0] in text

    def test_worker_validation(self):
        with pytest.raises(ValueError):
            BatchRunner(workers=0)
        with pytest.raises(ValueError):
            AnalysisCache(maxsize=0)
