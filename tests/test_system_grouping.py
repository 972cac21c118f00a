"""The system as the unit of work.

* ``BatchRunner.jobs_for`` serializes each system once: its chain jobs
  share one ``system_json`` string, and equal jobs built one at a time;
* the serial runner and the shard worker loop parse each consecutive
  run of one system's jobs once, keep submission order, and export
  byte-identically to per-job ``execute_job``;
* ``POST /shard/run`` (``AnalysisService.run_jobs``) runs a chunk
  through the same loop: one parse per system;
* a bad job inside a run of one system fails exactly as before: the
  serial runner names it, the shard chunk fails without a retry, and
  the shard failure names the job;
* one weakly-hard ``analyze_twca`` builds one interference structure
  from scratch and derives the typical one from it;
* the daemon analyzes the system a wire request's ``from_dict``
  parsed, without parsing it again.
"""

import pickle

import pytest

import repro.analysis.busy_window as busy_window
import repro.service.core as service_core
from repro.analysis import GuaranteeStatus, analyze_twca
from repro.runner import (
    AnalysisJob,
    BatchExecutionError,
    BatchResult,
    BatchRunner,
    RetryPolicy,
    ShardCoordinator,
    ShardExecutionError,
    execute_job,
    local_shard_workers,
)
from repro.runner.shard import _shard_worker_loop
from repro.service import AnalysisRequest, AnalysisService
from repro.synth import figure4_system
from repro.synth.corpus import CorpusSpec, generate_entry

KS = (1, 10)


def corpus_systems(count=4):
    spec = CorpusSpec(count=count, seed=2017, family="waters", utilization=(0.7, 0.9))
    return [generate_entry(spec, index) for index in range(count)]


@pytest.fixture(scope="module")
def systems():
    return corpus_systems()


@pytest.fixture()
def parses(monkeypatch):
    """Count ``AnalysisJob.system`` calls (the parse)."""
    calls = []
    original = AnalysisJob.system

    def counted(job):
        calls.append(job)
        return original(job)

    monkeypatch.setattr(AnalysisJob, "system", counted)
    return calls


def per_job_export(jobs):
    return BatchResult(jobs=[execute_job(job) for job in jobs]).to_json()


class StubConnection:
    """The child's end of a worker pipe: hands out ``inbox`` in order
    and keeps what is sent."""

    def __init__(self, *inbox):
        self.inbox = list(inbox)
        self.sent = []

    def recv(self):
        return self.inbox.pop(0)

    def send(self, message):
        self.sent.append(message)


def run_chunk_in_process(jobs):
    """One ``_shard_worker_loop`` chunk over a stub connection: the
    worker process's code path without the process."""
    conn = StubConnection(list(jobs), None)
    _shard_worker_loop(conn, None, True)
    (answer,) = conn.sent
    return answer


class TestJobsFor:
    def test_chain_jobs_share_one_system_json(self, systems):
        jobs = BatchRunner(ks=KS).jobs_for(systems)
        for system in systems:
            own = [job for job in jobs if job.label == system.name]
            assert len(own) > 1
            assert len({id(job.system_json) for job in own}) == 1
            for job in own:
                single = AnalysisJob.from_system(system, job.chain_name, ks=KS)
                assert job == single

    def test_named_chains_share_too(self):
        system = figure4_system()
        jobs = BatchRunner().jobs_for([system], ["sigma_d", "sigma_c"])
        assert [job.chain_name for job in jobs] == ["sigma_d", "sigma_c"]
        assert jobs[0].system_json is jobs[1].system_json

    def test_no_chains_no_jobs(self, systems):
        assert BatchRunner().jobs_for(systems, []) == []


class TestOneParsePerSystem:
    def test_serial_run(self, systems, parses):
        jobs = BatchRunner(ks=KS).jobs_for(systems)
        assert len(jobs) > len(systems)
        expected = per_job_export(jobs)
        del parses[:]
        batch = BatchRunner(workers=1, ks=KS).run(jobs)
        assert len(parses) == len(systems)
        assert batch.to_json() == expected

    def test_shard_worker_chunk(self, systems, parses):
        jobs = BatchRunner(ks=KS).jobs_for(systems)
        expected = per_job_export(jobs)
        del parses[:]
        kind, (results, dropped) = run_chunk_in_process(jobs)
        assert (kind, dropped) == ("ok", 0)
        assert len(parses) == len(systems)
        assert BatchResult(jobs=results).to_json() == expected

    def test_shard_run_endpoint_chunk(self, systems, parses):
        jobs = BatchRunner(ks=KS).jobs_for(systems[:2])
        assert len(jobs) == 6  # 3 + 3
        expected = BatchRunner(workers=1, ks=KS).run(jobs).to_json()
        del parses[:]
        with AnalysisService() as service:
            results = service.run_jobs(jobs)
        assert len(parses) == 2
        assert BatchResult(jobs=results).to_json() == expected

    def test_interleaved_systems_keep_submission_order(self, systems, parses):
        a = BatchRunner(ks=KS).jobs_for(systems[:1])
        b = BatchRunner(ks=KS).jobs_for(systems[1:2])
        jobs = [a[0], b[0], a[1]]
        expected = per_job_export(jobs)
        del parses[:]
        batch = BatchRunner(workers=1, ks=KS).run(jobs)
        assert len(parses) == 3  # an interleaved repeat parses again
        assert [(r.label, r.chain_name) for r in batch.jobs] == [
            (job.label, job.chain_name) for job in jobs
        ]
        assert batch.to_json() == expected
        kind, (results, _) = run_chunk_in_process(jobs)
        assert kind == "ok"
        assert BatchResult(jobs=results).to_json() == expected


def with_bad_job(systems, bad):
    """A run of one system's jobs with ``bad`` in its middle."""
    jobs = BatchRunner(ks=KS).jobs_for(systems[:1])
    return jobs[:1] + [bad] + jobs[1:], 1


def missing_chain(systems):
    job = BatchRunner(ks=KS).jobs_for(systems[:1])[0]
    return AnalysisJob(
        system_json=job.system_json,
        chain_name="no_such_chain",
        ks=KS,
        label="bad-chain-job",
    )


def corrupt_system(systems):
    return AnalysisJob(
        system_json="{not json", chain_name="chain_0", ks=KS, label="bad-system-job"
    )


@pytest.mark.parametrize("make_bad", [missing_chain, corrupt_system])
class TestBadJobInAGroup:
    def test_serial_names_the_job(self, systems, make_bad):
        jobs, position = with_bad_job(systems, make_bad(systems))
        with pytest.raises(BatchExecutionError) as info:
            BatchRunner(workers=1, ks=KS).run(jobs)
        assert info.value.job is jobs[position]

    def test_shard_chunk_fails_without_retry(self, systems, make_bad):
        jobs, position = with_bad_job(systems, make_bad(systems))
        kind, (failed_at, message) = run_chunk_in_process(jobs)
        assert (kind, failed_at) == ("error", position)
        coordinator = ShardCoordinator(
            local_shard_workers(1),
            chunk_size=len(jobs),
            retry=RetryPolicy(attempts=3, base_delay=0.0),
            own_workers=True,
        )
        with pytest.raises(ShardExecutionError) as info:
            coordinator.run(jobs)
        assert info.value.attempts == 1
        assert message in str(info.value.cause)
        assert coordinator.last_stats["retries"] == 0
        bad = jobs[position]
        assert f"job {bad.label!r} (chain {bad.chain_name!r})" in str(info.value)


class TestOneStructurePerJob:
    def test_weakly_hard_twca_builds_one_model(self, monkeypatch):
        builds = []
        original = busy_window._InterferenceModel.__init__

        def counted(self, *args, **kwargs):
            builds.append(args)
            original(self, *args, **kwargs)

        monkeypatch.setattr(busy_window._InterferenceModel, "__init__", counted)
        system = figure4_system(calibrated=True)
        result = analyze_twca(system, system["sigma_c"])
        assert result.status is GuaranteeStatus.WEAKLY_HARD
        assert result.search_checks > 0  # the Def. 10 stage ran
        assert len(builds) == 1


@pytest.fixture()
def service_parses(monkeypatch):
    """Count the service's own parses (``system_from_json``)."""
    calls = []
    original = service_core.system_from_json

    def counted(text):
        calls.append(text)
        return original(text)

    monkeypatch.setattr(service_core, "system_from_json", counted)
    return calls


class TestServiceParsesOnce:
    def test_wire_request_analyzes_its_parse(self, service_parses, monkeypatch):
        analyzed = []
        original = service_core.run_chain_job

        def recorded(system, *args, **kwargs):
            analyzed.append(system)
            return original(system, *args, **kwargs)

        monkeypatch.setattr(service_core, "run_chain_job", recorded)
        system = figure4_system()
        wire = AnalysisRequest.from_system(system).to_dict()
        request = AnalysisRequest.from_dict(wire)
        with AnalysisService() as service:
            response = service.analyze(request)
        assert service_parses == []
        assert len(analyzed) == 2
        assert all(parsed is request._system for parsed in analyzed)
        assert response.system_digest == system.content_digest()

    def test_in_process_request_parses_once(self, service_parses):
        request = AnalysisRequest.from_system(figure4_system())
        with AnalysisService() as service:
            response = service.analyze(request)
        assert len(service_parses) == 1
        assert response.job_count == 2

    def test_request_identity_unchanged(self):
        system = figure4_system()
        built = AnalysisRequest.from_system(system, ks=(3, 76))
        wire = AnalysisRequest.from_dict(built.to_dict())
        assert wire == built
        assert wire.to_dict() == built.to_dict()
        assert pickle.dumps(wire) == pickle.dumps(built)
        assert pickle.loads(pickle.dumps(wire)) == built
