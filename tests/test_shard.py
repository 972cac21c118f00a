"""The sharded batch coordinator: merge identity, scheduling, retries.

The load-bearing invariant is the one the ROADMAP promised: because
every job's deterministic export is a pure function of the job, the
coordinator's merged export is byte-identical to the serial runner —
for any shard topology (local processes, remote endpoints, mixed), any
chunk size, and any amount of retrying along the way.  The scheduler's
own invariant is that each chunk runs on one worker at a time: no chunk
runs twice unless its worker died.
"""

import io
import json
import multiprocessing
import os
import random
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.runner import (
    NO_RETRY,
    AnalysisJob,
    BatchRunner,
    JobResult,
    LocalShardWorker,
    PersistentAnalysisCache,
    RemoteShardWorker,
    RetryPolicy,
    ShardCoordinator,
    ShardExecutionError,
    ShardLog,
    WorkerUnavailable,
    execute_job,
    execute_jobs,
    local_shard_workers,
    make_chunks,
    run_sharded,
)
import repro.runner.shard as shard
from repro.service import AnalysisService, ServiceClient, ServiceError, start_server
from repro.synth import GeneratorConfig, generate_feasible_system

KS = (1, 10)

#: Immediate-retry policy for tests (no backoff waiting).
FAST_RETRY = RetryPolicy(attempts=4, base_delay=0.0)


def synth_jobs(count=6, seed=20, ks=KS):
    rng = random.Random(seed)
    config = GeneratorConfig(chains=2, overload_chains=1, utilization=0.55)
    systems = [generate_feasible_system(rng, config) for _ in range(count)]
    runner = BatchRunner(workers=1, ks=ks)
    return runner.jobs_for(systems), runner


@pytest.fixture(scope="module")
def shard_server():
    """One in-process ``repro shard-worker`` endpoint for wire tests."""
    service = AnalysisService()
    server = start_server(service)
    yield server
    server.shutdown()
    server.server_close()
    service.close()


class InlineWorker:
    """A duck-typed shard worker executing chunks in-process — the
    scheduler tests need controllable workers, not real processes."""

    def __init__(self, name, *, delay=0.0, delay_chunks=()):
        self.name = name
        self.delay = delay
        self.delay_chunks = set(delay_chunks)
        self.ran = []

    def run_chunk(self, chunk):
        if self.delay and (not self.delay_chunks or chunk.index in self.delay_chunks):
            time.sleep(self.delay)
        self.ran.append(chunk.index)
        return [execute_job(job) for job in chunk.jobs]

    def close(self):
        pass


class FlakyWorker(InlineWorker):
    """Raises :class:`WorkerUnavailable` for the first ``failures``
    chunk attempts, then behaves."""

    def __init__(self, name, failures):
        super().__init__(name)
        self.failures = failures

    def run_chunk(self, chunk):
        if self.failures > 0:
            self.failures -= 1
            raise WorkerUnavailable(f"{self.name} injected failure")
        return super().run_chunk(chunk)


class CachedWorker(InlineWorker):
    """An inline worker with its own persistent cache, lagging
    ``lag`` seconds after each job of the chunks in ``lag_chunks``."""

    def __init__(self, name, cache_dir, *, lag=0.0, lag_chunks=()):
        super().__init__(name)
        self.cache = PersistentAnalysisCache(cache_dir)
        self.lag = lag
        self.lag_chunks = set(lag_chunks)

    def run_chunk(self, chunk):
        self.ran.append(chunk.index)
        results = []
        for job in chunk.jobs:
            results.extend(execute_jobs([job], self.cache))
            if chunk.index in self.lag_chunks:
                time.sleep(self.lag)
        return results


class TestRetryPolicy:
    def test_delay_grows_exponentially_and_caps(self):
        policy = RetryPolicy(attempts=5, base_delay=0.1, multiplier=2.0, max_delay=0.5)
        assert policy.delay(1) == pytest.approx(0.1)
        assert policy.delay(2) == pytest.approx(0.2)
        assert policy.delay(3) == pytest.approx(0.4)
        assert policy.delay(4) == pytest.approx(0.5)  # capped

    def test_retries_left_counts_total_attempts(self):
        policy = RetryPolicy(attempts=3)
        assert policy.retries_left(1) and policy.retries_left(2)
        assert not policy.retries_left(3)

    def test_no_retry_is_single_attempt(self):
        assert NO_RETRY.attempts == 1
        assert not NO_RETRY.retries_left(1)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        policy = RetryPolicy()
        with pytest.raises(ValueError):
            policy.delay(0)


class TestShardLog:
    def test_lines_are_single_writes(self):
        """The interleaving fix: one write() call per logical line."""

        class CallCapture(io.StringIO):
            def __init__(self):
                super().__init__()
                self.writes = []

            def write(self, text):
                self.writes.append(text)
                return super().write(text)

        stream = CallCapture()
        log = ShardLog(stream, verbose=True)
        threads = [
            threading.Thread(
                target=lambda tag=i: [
                    log.line(str(tag), f"event {n}") for n in range(25)
                ]
            )
            for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(stream.writes) == 100
        for text in stream.writes:
            assert text.startswith("[shard ")
            assert text.endswith("\n")
            assert text.count("\n") == 1  # whole line, exactly one

    def test_quiet_log_is_noop(self):
        stream = io.StringIO()
        log = ShardLog(stream, verbose=False)
        log.line("0", "never seen")
        log.tag("1").line("nor this")
        assert stream.getvalue() == ""

    def test_tagged_view_prefixes(self):
        stream = io.StringIO()
        ShardLog(stream, verbose=True).tag("w1").line("hello")
        assert stream.getvalue().startswith("[shard w1] ")


class TestChunking:
    def test_chunks_cover_jobs_in_order(self):
        jobs, _ = synth_jobs(count=3)
        chunks = make_chunks(jobs, 4)
        flat = [job for chunk in chunks for job in chunk.jobs]
        assert flat == jobs
        assert [chunk.start for chunk in chunks] == list(range(0, len(jobs), 4))
        assert [chunk.index for chunk in chunks] == list(range(len(chunks)))

    def test_chunk_size_validated(self):
        with pytest.raises(ValueError):
            make_chunks([], 0)

    def test_auto_chunk_size_targets_four_per_worker(self):
        coordinator = ShardCoordinator([InlineWorker("a"), InlineWorker("b")])
        assert coordinator._auto_chunk_size(64) == 8
        assert coordinator._auto_chunk_size(3) == 1


class TestJobWireForm:
    def test_roundtrip_preserves_digest(self):
        jobs, _ = synth_jobs(count=1)
        job = jobs[0]
        clone = AnalysisJob.from_dict(job.to_dict())
        assert clone == job
        assert clone.to_dict() == job.to_dict()

    def test_unknown_fields_rejected(self):
        jobs, _ = synth_jobs(count=1)
        wire = jobs[0].to_dict()
        wire["surprise"] = 1
        with pytest.raises(ValueError, match="surprise"):
            AnalysisJob.from_dict(wire)

    def test_missing_required_fields_rejected(self):
        with pytest.raises(ValueError, match="system_json"):
            AnalysisJob.from_dict({"chain_name": "c"})

    def test_result_roundtrip_carries_observability(self):
        jobs, _ = synth_jobs(count=1)
        result = execute_job(jobs[0], cache=None)
        result.cache = {"jobs": {"hits": 0, "misses": 1, "disk_hits": 0}}
        wire = result.to_dict(deterministic=False)
        clone = JobResult.from_dict(wire)
        assert clone.to_dict() == result.to_dict()
        assert clone.cache == result.cache
        assert clone.elapsed == result.elapsed


class TestCoordinatorIdentity:
    def test_local_shards_merge_byte_identical(self, tmp_path):
        jobs, runner = synth_jobs()
        serial = runner.run(jobs).to_json()
        coordinator = ShardCoordinator(
            local_shard_workers(3, cache_dir=str(tmp_path / "cache")),
            chunk_size=2,
            retry=FAST_RETRY,
            own_workers=True,
        )
        assert coordinator.run(jobs).to_json() == serial

    def test_single_shard_identical(self):
        jobs, runner = synth_jobs(count=3)
        serial = runner.run(jobs).to_json()
        sharded = run_sharded(jobs, shards=1, retry=FAST_RETRY)
        assert sharded.to_json() == serial

    def test_chunk_size_one_identical(self):
        jobs, runner = synth_jobs(count=3)
        serial = runner.run(jobs).to_json()
        sharded = run_sharded(jobs, shards=2, chunk_size=1, retry=FAST_RETRY)
        assert sharded.to_json() == serial

    def test_inline_workers_identical(self):
        jobs, runner = synth_jobs(count=4)
        serial = runner.run(jobs).to_json()
        coordinator = ShardCoordinator(
            [InlineWorker("a"), InlineWorker("b")], chunk_size=2
        )
        assert coordinator.run(jobs).to_json() == serial

    def test_empty_job_list(self):
        coordinator = ShardCoordinator([InlineWorker("a")])
        batch = coordinator.run([])
        assert len(batch) == 0
        assert batch.to_dict()["jobs"] == []

    def test_cache_stats_merged_from_workers(self, tmp_path):
        jobs, _ = synth_jobs(count=3)
        batch = run_sharded(
            jobs, shards=2, cache_dir=str(tmp_path / "c"), retry=FAST_RETRY
        )
        assert list(batch.cache_stats) == ["jobs"]
        stats = batch.cache_stats["jobs"]
        assert stats["hits"] + stats["misses"] == len(jobs)

    def test_worker_names_must_be_unique(self):
        with pytest.raises(ValueError, match="unique"):
            ShardCoordinator([InlineWorker("a"), InlineWorker("a")])

    def test_needs_a_worker(self):
        with pytest.raises(ValueError):
            ShardCoordinator([])


class TestScheduling:
    def test_straggler_chunk_runs_once(self):
        """The idle worker waits for a straggler's chunk instead of
        running it a second time."""
        jobs, runner = synth_jobs(count=4)
        serial = runner.run(jobs).to_json()
        slow = InlineWorker("slow", delay=0.8, delay_chunks={0})
        fast = InlineWorker("fast")
        coordinator = ShardCoordinator([slow, fast], chunk_size=1)
        batch = coordinator.run(jobs)
        assert batch.to_json() == serial
        assert sorted(slow.ran + fast.ran) == list(range(len(jobs)))

    def test_flaky_worker_chunk_retried(self):
        jobs, runner = synth_jobs(count=3)
        serial = runner.run(jobs).to_json()
        flaky = FlakyWorker("flaky", failures=2)
        coordinator = ShardCoordinator([flaky], chunk_size=2, retry=FAST_RETRY)
        batch = coordinator.run(jobs)
        assert batch.to_json() == serial
        assert coordinator.last_stats["retries"] == 2

    def test_retry_budget_exhaustion_raises(self):
        jobs, _ = synth_jobs(count=2)
        always_down = FlakyWorker("down", failures=10**6)
        coordinator = ShardCoordinator(
            [always_down], chunk_size=2, retry=RetryPolicy(attempts=2, base_delay=0.0)
        )
        with pytest.raises(ShardExecutionError) as info:
            coordinator.run(jobs)
        assert info.value.attempts == 2
        assert isinstance(info.value.cause, WorkerUnavailable)

    def test_non_retryable_failure_is_terminal(self):
        jobs, _ = synth_jobs(count=2)

        class BuggyWorker(InlineWorker):
            def run_chunk(self, chunk):
                raise ValueError("job-level bug")

        coordinator = ShardCoordinator(
            [BuggyWorker("buggy")], chunk_size=2, retry=FAST_RETRY
        )
        with pytest.raises(ShardExecutionError) as info:
            coordinator.run(jobs)
        assert isinstance(info.value.cause, ValueError)
        assert info.value.attempts == 1

    def test_backoff_delays_requeue(self):
        """With a non-zero base delay the retried chunk is not eligible
        immediately — the policy's schedule is respected."""
        jobs, _ = synth_jobs(count=1)
        flaky = FlakyWorker("flaky", failures=1)
        coordinator = ShardCoordinator(
            [flaky],
            chunk_size=len(jobs),
            retry=RetryPolicy(attempts=3, base_delay=0.2, max_delay=0.2),
        )
        start = time.perf_counter()
        coordinator.run(jobs)
        assert time.perf_counter() - start >= 0.2

    def test_healthy_tail_is_not_duplicated(self):
        """The run ends with its last chunk, and no chunk runs twice."""
        jobs, runner = synth_jobs(count=4)
        assert len(jobs) == 8
        serial = runner.run(jobs).to_json()
        workers = [InlineWorker("a", delay=0.05), InlineWorker("b", delay=0.05)]
        coordinator = ShardCoordinator(workers, chunk_size=1)
        batch = coordinator.run(jobs)
        assert batch.to_json() == serial
        assert sorted(workers[0].ran + workers[1].ran) == list(range(8))

    def test_lone_chunk_runs_on_one_worker(self):
        """A lone chunk is not duplicated onto the idle worker."""
        jobs, runner = synth_jobs(count=1)
        serial = runner.run(jobs).to_json()
        workers = [InlineWorker("a", delay=0.2), InlineWorker("b", delay=0.2)]
        coordinator = ShardCoordinator(workers, chunk_size=len(jobs))
        batch = coordinator.run(jobs)
        assert batch.to_json() == serial
        assert workers[0].ran + workers[1].ran == [0]

    def test_cold_shared_cache_records_no_disk_hit(self, tmp_path):
        """Two workers with their own caches on one directory: a cold
        pass records no disk hit, however far one worker lags behind
        the other, because no chunk runs on both."""
        jobs, runner = synth_jobs(count=4)
        serial = runner.run(jobs).to_json()
        workers = [
            CachedWorker("slow", tmp_path, lag=0.1, lag_chunks={0}),
            CachedWorker("fast", tmp_path),
        ]
        coordinator = ShardCoordinator(workers, chunk_size=3)
        batch = coordinator.run(jobs)
        assert batch.to_json() == serial
        assert batch.disk_hit_count == 0
        assert sorted(workers[0].ran + workers[1].ran) == [0, 1, 2]

    def test_idle_dispatcher_wakes_on_the_last_completion(self):
        """The worker left idle by the last chunk waits with no time
        limit, and that chunk's completion (~0.2 s) ends the wait."""
        jobs, runner = synth_jobs(count=3)
        assert len(jobs) == 6
        serial = runner.run(jobs).to_json()
        workers = [InlineWorker("a", delay=0.1), InlineWorker("b", delay=0.1)]
        coordinator = ShardCoordinator(workers, chunk_size=2)
        start = time.perf_counter()
        batch = coordinator.run(jobs)
        elapsed = time.perf_counter() - start
        assert batch.to_json() == serial
        assert elapsed < 0.28

    def test_idle_worker_waits_for_a_release_or_a_retry(self):
        """Beside a healthy worker, a worker that loses its first chunk
        sleeps out the chunk's backoff before the chunk is queued again,
        for any worker: the pass still equals serial and counts one
        retry."""
        jobs, runner = synth_jobs(count=2)
        serial = runner.run(jobs).to_json()
        backoff = 0.2
        starts = []

        class Timed(FlakyWorker):
            def run_chunk(self, chunk):
                starts.append((chunk.index, time.monotonic(), self.failures))
                return super().run_chunk(chunk)

        workers = [Timed("flaky", failures=1), Timed("healthy", failures=0)]
        coordinator = ShardCoordinator(
            workers,
            chunk_size=1,
            retry=RetryPolicy(attempts=2, base_delay=backoff, max_delay=backoff),
        )
        assert coordinator.run(jobs).to_json() == serial
        assert coordinator.last_stats["retries"] == 1
        ((lost, lost_at),) = [(i, at) for i, at, left in starts if left]
        restarts = [at for i, at, left in starts if i == lost and not left]
        assert len(restarts) == 1
        assert restarts[0] - lost_at >= backoff
        ran = sorted(i for i, _, left in starts if not left)
        assert ran == list(range(len(jobs)))

    def test_no_dispatcher_sleeps_through_the_last_release(self):
        """More dispatch threads than cores, switching every
        microsecond: idle threads block in the queue's ``get`` with no
        time limit at the tail, so the last completion must wake every
        one of them, or the run never returns."""
        jobs, runner = synth_jobs(count=4)
        serial = runner.run(jobs).to_json()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                coordinator = ShardCoordinator(
                    [InlineWorker(str(i)) for i in range(8)], chunk_size=1
                )
                done = {}
                thread = threading.Thread(
                    target=lambda: done.setdefault("batch", coordinator.run(jobs)),
                    daemon=True,
                )
                thread.start()
                thread.join(timeout=30)
                assert not thread.is_alive()
                assert done["batch"].to_json() == serial
        finally:
            sys.setswitchinterval(interval)


class TestRemoteWorkers:
    def test_remote_and_mixed_identical(self, tmp_path):
        jobs, runner = synth_jobs(count=4)
        serial = runner.run(jobs).to_json()
        service = AnalysisService(workers=2)
        server = start_server(service)
        try:
            remote_only = ShardCoordinator(
                [RemoteShardWorker(server.url)], chunk_size=3
            )
            assert remote_only.run(jobs).to_json() == serial
            mixed = ShardCoordinator(
                local_shard_workers(1)
                + [RemoteShardWorker(server.url, name="remote")],
                chunk_size=2,
                retry=FAST_RETRY,
                own_workers=True,
            )
            assert mixed.run(jobs).to_json() == serial
        finally:
            server.shutdown()
            server.server_close()
            service.close()

    def test_unreachable_endpoint_is_worker_unavailable(self):
        jobs, _ = synth_jobs(count=1)
        worker = RemoteShardWorker("http://127.0.0.1:1", timeout=0.5)
        chunks = make_chunks(jobs, len(jobs))
        with pytest.raises(WorkerUnavailable):
            worker.run_chunk(chunks[0])

    def test_dead_endpoint_spends_one_retry_budget(self, monkeypatch):
        """The coordinator's policy is the chunk's only retry budget: a
        dead URL under ``attempts=3`` is sent the chunk 3 times, not
        3 x 3 (the worker's client sends each attempt once)."""
        sent = []

        def dead(self, method, path, payload=None):
            sent.append(path)
            raise ServiceError(0, "connection refused")

        monkeypatch.setattr(ServiceClient, "_request_once", dead)
        jobs, _ = synth_jobs(count=1)
        with pytest.raises(ShardExecutionError):
            run_sharded(
                jobs,
                worker_urls=["http://127.0.0.1:9"],
                chunk_size=len(jobs),
                retry=RetryPolicy(attempts=3, base_delay=0.0),
            )
        assert sent == ["/shard/run"] * 3

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("ks", [0], "integers >= 1"),
            ("ks", [-3], "integers >= 1"),
            ("ks", "ab", "integers >= 1"),
            ("ks", [True], "integers >= 1"),
            ("ks", [2.5], "integers >= 1"),
            ("enumeration", "pruned", "'enumeration'"),
            ("max_combinations", "x", "'max_combinations'"),
            ("exact_criterion", "yes", "'exact_criterion'"),
            ("label", 7, "'label'"),
            ("chain_name", "no-such-chain", "no chain named"),
            ("system_json", "{broken", "invalid system"),
            ("system_json", "[]", "invalid system"),
            ("backend", "branch_bound", "unknown AnalysisJob fields"),
        ],
    )
    def test_malformed_job_is_a_400(self, shard_server, field, value, message):
        """A job the sender got wrong is rejected on the wire with a
        400, never run into a plausible answer or a retryable 500."""
        jobs, _ = synth_jobs(count=1)
        wire = jobs[0].to_dict()
        wire[field] = value
        request = urllib.request.Request(
            shard_server.url + "/shard/run",
            data=json.dumps({"jobs": [wire]}).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=30)
        assert info.value.code == 400
        assert message in json.loads(info.value.read())["error"]

    def test_malformed_chunk_is_not_retried(self):
        """A 4xx rejection surfaces as a terminal error: re-sending the
        same bad payload cannot succeed."""
        service = AnalysisService()
        server = start_server(service)
        try:
            client = ServiceClient(server.url)
            with pytest.raises(ServiceError) as info:
                client._request("POST", "/shard/run", {"jobs": []})
            assert info.value.status == 400
        finally:
            server.shutdown()
            server.server_close()
            service.close()


class TestServiceClientRetry:
    def test_transport_failures_retried_bounded(self, monkeypatch):
        client = ServiceClient(
            "http://example.invalid",
            retry=RetryPolicy(attempts=3, base_delay=0.0),
        )
        calls = []

        def dying(method, path, payload=None):
            calls.append(path)
            raise ServiceError(0, "connection refused")

        monkeypatch.setattr(client, "_request_once", dying)
        with pytest.raises(ServiceError):
            client.health()
        assert len(calls) == 3

    def test_server_errors_retried_client_errors_not(self, monkeypatch):
        client = ServiceClient(
            "http://example.invalid",
            retry=RetryPolicy(attempts=3, base_delay=0.0),
        )
        calls = []

        def rejecting(method, path, payload=None):
            calls.append(path)
            raise ServiceError(400, "bad request")

        monkeypatch.setattr(client, "_request_once", rejecting)
        with pytest.raises(ServiceError):
            client.health()
        assert len(calls) == 1  # 4xx: no retry

        calls.clear()

        def failing(method, path, payload=None):
            calls.append(path)
            raise ServiceError(500, "boom")

        monkeypatch.setattr(client, "_request_once", failing)
        with pytest.raises(ServiceError):
            client.health()
        assert len(calls) == 3  # 5xx: retried

    def test_default_is_single_attempt(self, monkeypatch):
        client = ServiceClient("http://example.invalid")
        calls = []

        def dying(method, path, payload=None):
            calls.append(path)
            raise ServiceError(0, "down")

        monkeypatch.setattr(client, "_request_once", dying)
        with pytest.raises(ServiceError):
            client.health()
        assert len(calls) == 1

    def test_timeout_validated(self):
        with pytest.raises(ValueError):
            ServiceClient("http://example.invalid", timeout=0.0)

    def test_backoff_slept_between_attempts(self, monkeypatch):
        client = ServiceClient(
            "http://example.invalid",
            retry=RetryPolicy(attempts=3, base_delay=0.05, multiplier=2.0),
        )
        slept = []
        monkeypatch.setattr(
            "repro.service.http.time.sleep", lambda s: slept.append(s)
        )

        def dying(method, path, payload=None):
            raise ServiceError(0, "down")

        monkeypatch.setattr(client, "_request_once", dying)
        with pytest.raises(ServiceError):
            client.health()
        assert slept == pytest.approx([0.05, 0.1])


class TestLocalWorkerLifecycle:
    def test_close_is_idempotent(self):
        worker = LocalShardWorker("w")
        jobs, _ = synth_jobs(count=1)
        chunk = make_chunks(jobs, len(jobs))[0]
        assert worker.run_chunk(chunk)
        worker.close()
        worker.close()

    def test_killed_worker_respawns_for_next_chunk(self):
        jobs, _ = synth_jobs(count=2)
        chunks = make_chunks(jobs, 2)
        worker = LocalShardWorker("w")
        try:
            first = worker.run_chunk(chunks[0])
            assert first
            worker.kill_next_dispatches = 1
            with pytest.raises(WorkerUnavailable):
                worker.run_chunk(chunks[1])
            assert worker.respawns == 1
            # Transparent respawn: the same chunk runs fine afterwards.
            again = worker.run_chunk(chunks[1])
            assert [r.to_dict() for r in again] == [
                r.to_dict() for r in execute_and_collect(chunks[1])
            ]
        finally:
            worker.close()

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="needs the fork start method",
    )
    def test_death_after_the_send_is_a_lost_chunk(self, monkeypatch):
        """A process that dies while it holds the chunk ends the wait on
        its pipe: the chunk is lost with the exit code, the death counts
        one respawn, and the next incarnation runs the chunk."""
        jobs, _ = synth_jobs(count=1)
        chunk = make_chunks(jobs, len(jobs))[0]
        worker = LocalShardWorker("w")
        worker._ctx = multiprocessing.get_context("fork")
        try:
            with monkeypatch.context() as patch:
                # Forked, the child runs the patched loop body.
                patch.setattr(shard, "execute_jobs", lambda jobs, cache: os._exit(3))
                with pytest.raises(WorkerUnavailable, match=r"exit code 3\)"):
                    worker.run_chunk(chunk)
            assert worker.respawns == 1
            again = worker.run_chunk(chunk)
            assert [r.to_dict() for r in again] == [
                r.to_dict() for r in execute_and_collect(chunk)
            ]
        finally:
            worker.close()

    def test_a_pass_leaves_no_thread_behind(self):
        """``run_sharded`` joins its dispatch threads, and its workers'
        pipes start none: no thread a pass started outlives it (a
        queue's feeder thread did in about half the passes)."""
        jobs, runner = synth_jobs(count=2)
        serial = runner.run(jobs).to_json()
        for _ in range(10):
            before = set(threading.enumerate())
            batch = run_sharded(jobs, shards=2, retry=FAST_RETRY)
            assert set(threading.enumerate()) <= before
            assert batch.to_json() == serial

    @pytest.mark.skipif(
        not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity"
    )
    def test_workers_are_pinned_round_robin(self):
        """Worker ``i`` runs on ``cpus[i % len(cpus)]`` (wrapping around
        on hosts with fewer than three CPUs), and so does its respawned
        process after a kill."""
        cpus = sorted(os.sched_getaffinity(0))
        jobs, _ = synth_jobs(count=1)
        chunk = make_chunks(jobs, len(jobs))[0]
        workers = local_shard_workers(3)
        try:
            for i, worker in enumerate(workers):
                assert worker.run_chunk(chunk)
                pinned = {cpus[i % len(cpus)]}
                assert os.sched_getaffinity(worker._process.pid) == pinned
            first = workers[0]
            killed = first._process.pid
            first.kill()
            assert first.run_chunk(chunk)
            assert first._process.pid != killed
            assert os.sched_getaffinity(first._process.pid) == {cpus[0]}
        finally:
            for worker in workers:
                worker.close()

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fdinfo"), reason="needs Linux /proc fdinfo"
    )
    def test_concurrent_starts_leak_no_sentinel(self):
        """Two dispatch threads starting their workers at once must not
        let one child inherit the other's sentinel write end: ``join()``
        would then wait for the sibling, stalling ``close()``.  Nor may
        it inherit the other's child end of its pipe: the parent would
        then read no end of file when that child dies."""
        for _ in range(20):
            workers = [LocalShardWorker("a"), LocalShardWorker("b")]
            barrier = threading.Barrier(len(workers))

            def start(worker):
                barrier.wait(timeout=30)
                worker._ensure_process()

            threads = [threading.Thread(target=start, args=(w,)) for w in workers]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            try:
                ours = sockets(os.getpid())
                for worker, sibling in (workers, workers[::-1]):
                    sentinel = os.fstat(sibling._process.sentinel).st_ino
                    assert sentinel not in write_pipes(worker._process.pid)
                    # The sibling's child end: its socket the parent lacks.
                    child_end = sockets(sibling._process.pid) - ours
                    assert child_end
                    assert not child_end & sockets(worker._process.pid)
            finally:
                for worker in workers:
                    began = time.perf_counter()
                    worker.close()
                    assert time.perf_counter() - began < 1.0


def write_pipes(pid):
    """Inodes of the pipes process ``pid`` holds open for writing."""
    inodes = set()
    for fd in os.listdir(f"/proc/{pid}/fd"):
        try:
            target = os.readlink(f"/proc/{pid}/fd/{fd}")
            with open(f"/proc/{pid}/fdinfo/{fd}") as handle:
                flags = next(line for line in handle if line.startswith("flags:"))
        except OSError:
            continue  # closed while we looked
        if target.startswith("pipe:[") and (
            int(flags.split()[1], 8) & os.O_ACCMODE == os.O_WRONLY
        ):
            inodes.add(int(target[len("pipe:[") : -1]))
    return inodes


def sockets(pid):
    """Inodes of the sockets process ``pid`` holds open."""
    inodes = set()
    for fd in os.listdir(f"/proc/{pid}/fd"):
        try:
            target = os.readlink(f"/proc/{pid}/fd/{fd}")
        except OSError:
            continue  # closed while we looked
        if target.startswith("socket:["):
            inodes.add(int(target[len("socket:[") : -1]))
    return inodes


def execute_and_collect(chunk):
    return [execute_job(job) for job in chunk.jobs]
