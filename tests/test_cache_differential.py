"""Differential tests for the persistent cross-process AnalysisCache.

The contract under test: for the same job list, the batch export is
byte-identical across every execution shape —

* serial vs. parallel (any worker count),
* cold vs. warm persistent cache (in-process and on-disk),
* pristine vs. corrupted/poisoned on-disk entries (detected, dropped,
  recomputed — never trusted),
* live systems vs. system files (``run_paths``),

and the merged cross-process ``CacheStats`` account exactly for every
lookup of every job.

``REPRO_CACHE_DIR`` (used by CI) points the shared-directory tests at a
persistent location so a second pytest run exercises the warm path; the
assertions here hold whether that directory starts cold or warm.
"""

import json
import os
import random
from pathlib import Path

from repro.model.serialization import system_from_json, system_to_json
from repro.runner import (
    AnalysisCache,
    BatchRunner,
    CacheStats,
    DiskStore,
    PersistentAnalysisCache,
    job_result_key,
    merge_stats,
    run_chain_job,
)
from repro.runner.diskcache import decode_entry, encode_entry, key_digest
from repro.synth import GeneratorConfig, generate_feasible_system

KS = (1, 5, 10)


def synth_systems(count=4, seed=101):
    """Seeded random synth systems (deterministic across runs)."""
    rng = random.Random(seed)
    config = GeneratorConfig(chains=3, overload_chains=1, utilization=0.55)
    return [generate_feasible_system(rng, config) for _ in range(count)]


def corrupt_entries(root: Path):
    """Damage every on-disk entry, cycling through the three faces of
    corruption: emptied, truncated mid-payload, and bit-flipped."""
    paths = sorted(root.glob("*/??/*.bin"))
    assert paths, f"no cache entries under {root}"
    for index, path in enumerate(paths):
        blob = path.read_bytes()
        if index % 3 == 0:
            path.write_bytes(b"")
        elif index % 3 == 1:
            path.write_bytes(blob[: max(1, len(blob) - 7)])
        else:
            flipped = bytearray(blob)
            flipped[-1] ^= 0xFF
            path.write_bytes(bytes(flipped))
    return len(paths)


class TestDifferentialExports:
    """Batch JSON must be byte-identical across {serial, parallel xN} x
    {cold, warm disk, corrupted-entry-on-disk}."""

    def test_export_matrix_byte_identical(self, tmp_path):
        systems = synth_systems()
        reference = (
            BatchRunner(workers=1, use_cache=False, ks=KS)
            .run_systems(systems)
            .to_json()
        )
        for workers in (1, 2, 3):
            cache_dir = tmp_path / f"cache-{workers}"
            for state in ("cold", "warm", "corrupted"):
                if state == "corrupted":
                    corrupt_entries(cache_dir)
                runner = BatchRunner(workers=workers, cache_dir=cache_dir, ks=KS)
                exported = runner.run_systems(systems).to_json()
                assert exported == reference, (workers, state)

    def test_worker_side_loading_matches_parent_parsing(self, tmp_path):
        systems = synth_systems(3, seed=202)
        paths = []
        for index, system in enumerate(systems):
            path = tmp_path / f"system-{index}.json"
            path.write_text(system_to_json(system))
            paths.append(str(path))
        reference = (
            BatchRunner(workers=1, use_cache=False, ks=KS)
            .run_systems(systems, labels=paths)
            .to_json()
        )
        cache_dir = tmp_path / "cache"
        for workers in (1, 2):
            for _state in ("cold", "warm"):
                runner = BatchRunner(workers=workers, cache_dir=cache_dir, ks=KS)
                assert runner.run_paths(paths).to_json() == reference

    def test_shared_cache_dir_stable_across_invocations(self, tmp_path):
        """The CI cold/warm job runs this twice against one
        REPRO_CACHE_DIR; the export must not depend on what the
        directory already contains."""
        root = os.environ.get("REPRO_CACHE_DIR")
        cache_dir = Path(root) / "differential" if root else tmp_path / "shared"
        systems = synth_systems(3, seed=303)
        golden = (
            BatchRunner(workers=1, use_cache=False, ks=KS)
            .run_systems(systems)
            .to_json()
        )
        batch = BatchRunner(workers=2, cache_dir=cache_dir, ks=KS).run_systems(
            systems
        )
        assert batch.to_json() == golden
        # Whatever this invocation found cold, the next finds on disk.
        rerun = BatchRunner(workers=2, cache_dir=cache_dir, ks=KS).run_systems(
            systems
        )
        assert rerun.to_json() == golden
        assert rerun.cache_stats["jobs"]["misses"] == 0


class TestWarmAcceptance:
    def test_warm_duplicated_sweep_recomputes_nothing(self, tmp_path):
        """Acceptance: a duplicated system list against a warm
        --cache-dir analyzes nothing — every job is served whole from
        the ``jobs`` result cache (zero misses) — and its export is
        byte-identical to the cold serial run."""
        systems = synth_systems(3, seed=404)
        duplicated = systems + systems
        cache_dir = tmp_path / "cache"
        cold = BatchRunner(workers=1, cache_dir=cache_dir, ks=KS).run_systems(
            duplicated
        )
        warm = BatchRunner(workers=3, cache_dir=cache_dir, ks=KS).run_systems(
            duplicated
        )
        assert warm.to_json() == cold.to_json()
        assert warm.cache_stats["jobs"]["misses"] == 0
        assert warm.job_hits == len(warm.jobs)

    def test_duplicates_deduplicate_within_one_cold_batch(self, tmp_path):
        """Content-identical jobs share whole results through the store
        even in the *first* run: a triplicated sweep misses exactly as
        often as the unique sweep alone, and the duplicates are served
        from the ``jobs`` category.  (Serial execution keeps the count
        deterministic; racing parallel workers may duplicate a miss in
        flight, which costs work but never correctness.)"""
        systems = synth_systems(2, seed=505)
        duplicated = systems + systems + systems
        cache_dir = tmp_path / "cache"
        batch = BatchRunner(workers=1, cache_dir=cache_dir, ks=KS).run_systems(
            duplicated
        )
        unique = BatchRunner(workers=1, cache_dir=tmp_path / "u", ks=KS).run_systems(
            systems
        )
        assert (
            batch.cache_stats["jobs"]["misses"]
            == unique.cache_stats["jobs"]["misses"]
            == len(unique.jobs)
        )
        assert batch.job_hits == 2 * len(unique.jobs)
        assert unique.job_hits == 0


class TestCorruptionHandling:
    def test_poisoned_entries_detected_and_recomputed(self, tmp_path):
        system = synth_systems(1, seed=606)[0]
        chain = next(c for c in system.typical_chains if c.has_deadline)
        cache_dir = tmp_path / "cache"
        cache = PersistentAnalysisCache(cache_dir)
        fresh = run_chain_job(system, chain.name, ks=KS, cache=cache)
        damaged = corrupt_entries(cache_dir)
        again = PersistentAnalysisCache(cache_dir)
        recomputed = run_chain_job(system, chain.name, ks=KS, cache=again)
        assert recomputed.to_dict() == fresh.to_dict()
        # Every damaged entry consulted was detected, not trusted.
        assert again.disk.corrupt_dropped > 0
        assert again.disk.corrupt_dropped <= damaged
        assert again.stats().disk_hits == 0
        assert recomputed.cache["jobs"]["misses"] == 1

    def test_garbage_files_are_dropped_and_replaced(self, tmp_path):
        store = DiskStore(tmp_path)
        store.store(("digest", "sigma", 1), {"value": 1})
        path = store.path_for(("digest", "sigma", 1))
        assert path.parent.parent == tmp_path / "jobs"
        path.write_bytes(b"not a cache entry at all")
        assert store.load(("digest", "sigma", 1)) is None
        assert store.corrupt_dropped == 1
        assert not path.exists()
        store.store(("digest", "sigma", 1), {"value": 2})
        assert store.load(("digest", "sigma", 1)) == {"value": 2}

    def test_frame_round_trip_and_rejection(self):
        value = {"total": 12.5, "names": ("a", "b")}
        blob = encode_entry(value)
        assert decode_entry(blob) == value
        for bad in (b"", blob[:10], blob[:-1], b"x" + blob, blob[:-3] + b"zzz"):
            try:
                decode_entry(bad)
            except ValueError:
                continue
            raise AssertionError(f"accepted corrupt frame {bad[:20]!r}")


class TestRoundTripProperty:
    def test_serialized_round_trip_shares_cache_with_equal_results(self):
        """Guards ``content_digest()`` against fields it silently
        ignores: a round-tripped system shares the original's digest,
        so it *will* be served the original's cached ``JobResult`` —
        which must equal the clone's own fresh analysis."""
        for seed in (11, 12, 13):
            system = synth_systems(1, seed=seed)[0]
            clone = system_from_json(system_to_json(system))
            assert clone.content_digest() == system.content_digest()
            for chain in system.typical_chains:
                if not chain.has_deadline:
                    continue
                cold = run_chain_job(clone, chain.name, ks=KS)
                cache = AnalysisCache()
                run_chain_job(system, chain.name, ks=KS, cache=cache)
                served = run_chain_job(clone, chain.name, ks=KS, cache=cache)
                assert served.cache["jobs"]["hits"] == 1
                assert served.to_dict() == cold.to_dict()

    def test_key_digest_stable_for_primitive_tuples(self):
        key = ("deadbeef", "sigma_c", (1, 10, 100))
        assert key_digest(key) == key_digest(("deadbeef",) + key[1:])
        assert key_digest(key) != key_digest(key[:-1] + ((1, 10),))
        system = synth_systems(1, seed=21)[0]
        clone = system_from_json(system_to_json(system))
        params = (system.typical_chains[0].name, (1, 10))
        digests = {key_digest(job_result_key(s, *params)) for s in (system, clone)}
        assert len(digests) == 1


class TestStatsAccounting:
    def test_merged_stats_sum_per_job_lookups(self, tmp_path):
        """Hits + misses merged across processes equal the summed
        per-job lookup records: one lookup per job."""
        systems = synth_systems(3, seed=707)
        batch = BatchRunner(
            workers=2, cache_dir=tmp_path / "cache", ks=KS
        ).run_systems(systems + systems)
        totals = {}
        for job in batch.jobs:
            assert job.cache, "worker jobs must report their lookup"
            merge_stats(totals, job.cache)
        assert totals == batch.cache_stats
        assert list(batch.cache_stats) == ["jobs"]
        stats = batch.cache_stats["jobs"]
        assert stats["hits"] + stats["misses"] == len(batch.jobs)
        assert 0 <= stats["disk_hits"] <= stats["hits"]

    def test_hit_rate_zero_lookup_edge(self):
        assert CacheStats().hit_rate == 0.0
        assert CacheStats().lookups == 0
        assert CacheStats(hits=3, misses=1).hit_rate == 0.75
        empty = BatchRunner(workers=1).run([])
        assert empty.cache_hit_rate == 0.0
        assert json.loads(empty.to_json())["job_count"] == 0

    def test_disk_hits_after_front_eviction(self, tmp_path):
        """A tiny LRU front spills to disk and promotes back, counting
        the promotion as hit + disk_hit."""
        cache = PersistentAnalysisCache(tmp_path, maxsize=1)
        cache.store("a", 1)
        cache.store("b", 2)  # evicts "a" from the front
        assert cache.lookup("a") == (1, True)  # promoted from disk
        assert cache.lookup("a") == (1, False)  # now in the front
        stats = cache.stats()
        assert stats.hits == 2 and stats.disk_hits == 1 and stats.misses == 0
        assert stats.entries == 1  # the front stays bounded


class TestOptIntegration:
    def test_sensitivity_sweep_with_persistent_runner_matches_plain(self, tmp_path):
        from repro.opt import dmm_vs_scale
        from repro.synth import figure4_system

        system = figure4_system(calibrated=True)
        factors = [1.0, 1.25, 1.5]
        plain = dmm_vs_scale(system, "sigma_a", "sigma_c", factors, k=10)
        cache_dir = tmp_path / "cache"
        runner = BatchRunner(workers=2, cache_dir=cache_dir, ks=(10,))
        routed = dmm_vs_scale(
            system, "sigma_a", "sigma_c", factors, k=10, runner=runner
        )
        assert routed == plain
        warm_runner = BatchRunner(workers=1, cache_dir=cache_dir, ks=(10,))
        warm = dmm_vs_scale(
            system, "sigma_a", "sigma_c", factors, k=10, runner=warm_runner
        )
        assert warm == plain
        assert warm_runner.cache.stats().misses == 0
        assert warm_runner.cache.stats().disk_hits > 0
