"""Concurrency tests for the thread-safe analysis stack: the internally
locked :class:`AnalysisCache` and the :class:`AnalysisService` compute
pool — overlapping computes must produce byte-identical results with
balanced cache/service counters, and each job's own cache record must
sum to the shared cache's counters."""

import json
import sys
import threading

import pytest

from repro.runner import AnalysisCache, BatchRunner, job_result_key, merge_stats
from repro.service import AnalysisRequest, AnalysisService, ServiceClient, start_server
from repro.synth import figure4_system, labeled_random_systems
from repro.synth.corpus import CorpusSpec, generate_entry

WORKERS = 4

KS = (1, 5, 25)


def distinct_requests(count=6):
    """``count`` analysis requests over *distinct* systems (random
    priority permutations of the Figure 4 case study) — no two share a
    compat key, so nothing coalesces and every request is a compute."""
    samples = labeled_random_systems(figure4_system(), count, seed=7)
    return [
        AnalysisRequest.from_system(system, ks=KS, label=label)
        for label, system in samples
    ]


def fire_threads(worker, count):
    """Run ``worker(index)`` on ``count`` threads through a barrier (so
    they genuinely overlap), re-raising the first worker exception."""
    barrier = threading.Barrier(count)
    errors = []

    def run(index):
        try:
            barrier.wait(timeout=30)
            worker(index)
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(index,)) for index in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    if errors:
        raise errors[0]
    return threads


class TestServiceConcurrency:
    def test_concurrent_distinct_systems_match_serial(self):
        """N threads firing distinct systems at one pooled service:
        every response byte-identical to the serialized reference, and
        the shared cache's counters identical too (keys are disjoint
        per system, so interleaving must not change the accounting)."""
        requests = distinct_requests()
        with AnalysisService(workers=1) as serial:
            reference = [serial.analyze(request).to_json() for request in requests]
            serial_stats = serial.cache.stats_dict()

        with AnalysisService(workers=WORKERS) as service:
            payloads = [None] * len(requests)

            def worker(index):
                payloads[index] = service.analyze(requests[index]).to_json()

            fire_threads(worker, len(requests))

            assert payloads == reference
            assert service.counters["computes"] == len(requests)
            assert service.counters["requests"] == len(requests)
            assert service.counters["coalesced"] == 0
            assert service.cache.stats_dict() == serial_stats
            stats = service.cache.stats()
            assert stats.lookups > 0
            assert stats.hits + stats.misses == stats.lookups

    def test_concurrent_identical_requests_still_coalesce(self, monkeypatch):
        """The pool must not break coalescing: identical in-flight
        requests stay one compute, N responders."""
        request = distinct_requests(1)[0]
        with AnalysisService(workers=WORKERS) as service:
            release = threading.Event()
            original = AnalysisService._execute

            def gated(self, req):
                release.wait(timeout=30)
                return original(self, req)

            monkeypatch.setattr(AnalysisService, "_execute", gated)
            responses = [None] * WORKERS

            def worker(index):
                responses[index] = service.analyze(request)

            threads = [
                threading.Thread(target=worker, args=(index,))
                for index in range(WORKERS)
            ]
            for thread in threads:
                thread.start()
            # Hold the compute until every follower has attached to the
            # leader's in-flight entry, then let the leader answer all.
            for _ in range(600):
                if service.counters["coalesced"] == WORKERS - 1:
                    break
                threading.Event().wait(0.05)
            release.set()
            for thread in threads:
                thread.join(timeout=60)

            assert service.counters["coalesced"] == WORKERS - 1
            assert service.counters["computes"] == 1
            assert service.counters["coalesced"] == WORKERS - 1
            assert len({r.to_json() for r in responses}) == 1

    def test_batch_groups_fan_out_identically(self):
        """``batch`` runs its merged groups on the pool; the
        deterministic export must match the workers=1 service."""
        requests = distinct_requests(4)
        with AnalysisService(workers=1) as serial:
            reference = serial.batch(requests).to_json(deterministic=True)
        with AnalysisService(workers=WORKERS) as service:
            export = service.batch(requests).to_json(deterministic=True)
        assert export == reference

    def test_workers_validated_and_surfaced(self):
        with pytest.raises(ValueError, match="workers"):
            AnalysisService(workers=0)
        with AnalysisService(workers=3) as service:
            stats = service.cache_stats()
            assert stats["service"]["workers"] == 3
            assert stats["service"]["inflight"] == 0
        service.close()  # idempotent

    def test_http_concurrent_exports_byte_identical(self):
        """End to end over HTTP at ``--workers 4``: concurrent
        distinct-system requests answer byte-identically to the serial
        reference, and ``/cache/stats`` surfaces the pool."""
        requests = distinct_requests()
        with AnalysisService(workers=1) as serial:
            reference = [serial.analyze(request).to_json() for request in requests]

        service = AnalysisService(workers=WORKERS)
        server = start_server(service)
        try:
            client = ServiceClient(server.url)
            payloads = [None] * len(requests)

            def worker(index):
                raw = client._request("POST", "/analyze", requests[index].to_dict())
                payloads[index] = raw[1]

            fire_threads(worker, len(requests))
            assert payloads == reference

            stats = client.cache_stats()
            assert stats["service"]["workers"] == WORKERS
            assert stats["service"]["inflight"] == 0
            assert stats["service"]["computes"] == len(requests)
        finally:
            server.shutdown()
            server.server_close()
            service.close()


class TestSharedCacheAccounting:
    def test_lru_and_stats_balance_under_threads(self):
        """Threads hammering one small cache with overlapping keys:
        ``hits + misses == lookups`` must balance exactly against the
        per-thread tallies, and the LRU bound must hold throughout."""
        maxsize = 32
        cache = AnalysisCache(maxsize=maxsize)
        threads_n, ops = 8, 400
        keyspace = [("digest", i) for i in range(2 * maxsize)]
        tallies = [{"hits": 0, "misses": 0} for _ in range(threads_n)]

        def worker(index):
            tally = tallies[index]
            for op in range(ops):
                key = keyspace[(op * (index + 1)) % len(keyspace)]
                value, _ = cache.lookup(key)
                if value is None:
                    tally["misses"] += 1
                    cache.store(key, key)
                else:
                    assert value == key
                    tally["hits"] += 1
                assert len(cache._entries) <= maxsize

        # A short switch interval makes the threads interleave inside
        # lookup/store, where a lost counter update would show.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            fire_threads(worker, threads_n)
        finally:
            sys.setswitchinterval(interval)

        stats = cache.stats()
        assert stats.hits == sum(t["hits"] for t in tallies)
        assert stats.misses == sum(t["misses"] for t in tallies)
        assert stats.hits + stats.misses == stats.lookups == threads_n * ops
        assert stats.entries <= maxsize

    def test_concurrent_store_and_clear_safe(self):
        """clear() racing stores must neither crash nor corrupt the
        final snapshot (consistent afterwards)."""
        cache = AnalysisCache(maxsize=16)

        def worker(index):
            for op in range(200):
                if index == 0 and op % 50 == 0:
                    cache.clear()
                else:
                    cache.store(("d", index, op % 8), op)
                    cache.lookup(("d", index, op % 8))

        fire_threads(worker, 4)
        assert cache.stats().entries <= 16

    def test_pooled_per_job_records_sum_to_cache_counters(self):
        """Overlapping computes on one shared cache: each job records
        only its own lookup, so the per-job records of a pooled batch
        sum to the cache's own counters and to the job count — cold
        (all misses) and warm (all hits)."""
        spec = CorpusSpec(count=24, seed=2017, family="waters", utilization=(0.7, 0.9))
        requests = [
            AnalysisRequest.from_system(generate_entry(spec, index), ks=KS)
            for index in range(spec.count)
        ]
        with AnalysisService(workers=WORKERS) as service:
            for expected in ("misses", "hits"):
                before = service.cache.stats_dict()["jobs"]
                batch = service.batch(requests)
                after = service.cache.stats_dict()["jobs"]
                totals = {}
                for job in batch.jobs:
                    merge_stats(totals, job.cache)
                assert totals == batch.cache_stats
                jobs = totals["jobs"]
                assert jobs["hits"] + jobs["misses"] == len(batch.jobs)
                assert jobs[expected] == len(batch.jobs)
                for field in ("hits", "misses"):
                    assert jobs[field] == after[field] - before[field]

    def test_process_pool_per_job_records_sum_to_job_count(self, tmp_path):
        """The same balance across worker processes and the disk level:
        a cold ``BatchRunner(workers=2, cache_dir=...)`` run records one
        miss per job, a warm one (fresh worker processes) one disk hit
        per job."""
        labeled = labeled_random_systems(figure4_system(), 6, seed=11)
        systems = [system for _, system in labeled]
        for expected in ("misses", "disk_hits"):
            runner = BatchRunner(workers=2, cache_dir=tmp_path / "cache", ks=KS)
            batch = runner.run_systems(systems)
            totals = {}
            for job in batch.jobs:
                assert sum(job.cache["jobs"].values()) == (
                    1 if expected == "misses" else 2
                )
                merge_stats(totals, job.cache)
            assert totals == batch.cache_stats
            stats = totals["jobs"]
            assert stats["hits"] + stats["misses"] == len(batch.jobs)
            assert stats[expected] == len(batch.jobs)


class TestContentKey:
    PARAMS = ("sigma_c", (1, 10), 100_000, True, "pruned")

    def test_object_without_content_digest_is_uncacheable(self):
        assert job_result_key(object(), *self.PARAMS) is None

    def test_unserializable_system_is_uncacheable(self):
        class Unserializable:
            def content_digest(self):
                raise TypeError("user-defined event model")

        assert job_result_key(Unserializable(), *self.PARAMS) is None

    def test_real_system_keys_by_digest(self):
        system = figure4_system()
        key = job_result_key(system, *self.PARAMS)
        assert key == (system.content_digest(),) + self.PARAMS


def test_response_payloads_are_json():
    """Sanity anchor for the byte-identity assertions above: the
    payloads being compared are complete JSON documents."""
    request = distinct_requests(1)[0]
    with AnalysisService(workers=2) as service:
        payload = service.analyze(request).to_json()
    assert json.loads(payload)["jobs"]
