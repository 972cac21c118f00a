"""Tests for the analysis service: the typed request/response API, the
in-process facade's warm state, the HTTP daemon and CLI-vs-server
export equality."""

import http.client
import importlib.util
import json
import pathlib
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.cli import main
from repro.model.serialization import system_to_json
from repro.runner import BatchResult, BatchRunner
from repro.service import (
    AnalysisOptions,
    AnalysisRequest,
    AnalysisService,
    RequestError,
    ServiceClient,
    ServiceError,
    UnknownSystemError,
    start_server,
)
from repro.synth import figure4_system
from repro.synth.corpus import CorpusSpec, generate_corpus


@pytest.fixture()
def system():
    return figure4_system()


@pytest.fixture()
def service():
    return AnalysisService()


@pytest.fixture()
def server(service):
    server = start_server(service)
    yield server
    server.shutdown()
    server.server_close()


def _post_raw(url, path, body, content_type="application/json"):
    """Raw POST returning (status, headers, text) — for wire-level
    assertions the high-level client hides."""
    request = urllib.request.Request(
        url + path,
        data=body if isinstance(body, bytes) else json.dumps(body).encode(),
        headers={"Content-Type": content_type},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, dict(response.headers), response.read().decode()
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), exc.read().decode()


class TestRequestValidation:
    def test_round_trip_preserves_digest(self, system):
        request = AnalysisRequest.from_system(
            system, chain="sigma_c", ks=(3, 76), label="case"
        )
        clone = AnalysisRequest.from_dict(request.to_dict())
        assert clone == request
        assert clone.digest == request.digest

    def test_inline_and_by_digest_share_identity(self, system):
        inline = AnalysisRequest.from_system(system, chain="sigma_c")
        by_ref = AnalysisRequest(
            system_digest=system.content_digest(), chain="sigma_c"
        )
        assert inline.system_identity == by_ref.system_identity
        assert inline.digest == by_ref.digest

    def test_digest_covers_ks_and_chain(self, system):
        a = AnalysisRequest.from_system(system, chain="sigma_c", ks=(3,))
        b = AnalysisRequest.from_system(system, chain="sigma_c", ks=(76, 250))
        c = AnalysisRequest.from_system(system, chain="sigma_d", ks=(3,))
        assert a.digest != b.digest
        assert a.digest != c.digest

    @pytest.mark.parametrize(
        "data, message",
        [
            ({}, "exactly one of"),
            ({"system": 5}, "'system' must be"),
            ({"system": "{broken", "chain": "c"}, "not valid JSON"),
            ({"system": {"nope": 1}}, "invalid system"),
            ({"system_digest": "d", "ks": []}, "at least one"),
            ({"system_digest": "d", "ks": [0]}, ">= 1"),
            ({"system_digest": "d", "ks": 3}, "'ks' must be a list"),
            ({"system_digest": "d", "backend": "dp"}, "unknown request"),
            ({"system_digest": "d", "enumeration": "eager"}, "unknown enumeration"),
            ({"system_digest": "d", "kernel": "numpy"}, "unknown request fields"),
            ({"system_digest": "d", "chain": ""}, "'chain' must be"),
            ({"system_digest": "d", "use_cache": "yes"}, "'use_cache'"),
            ({"system_digest": "d", "surprise": 1}, "unknown request fields"),
        ],
    )
    def test_malformed_requests_rejected(self, data, message):
        with pytest.raises(RequestError, match=message):
            AnalysisRequest.from_dict(data)

    def test_both_system_forms_rejected(self, system):
        with pytest.raises(RequestError, match="exactly one"):
            AnalysisRequest(
                system_json=system_to_json(system), system_digest="abc"
            )


class TestAnalysisService:
    def test_matches_batch_runner_export(self, service, system):
        response = service.analyze(
            AnalysisRequest.from_system(system, chain="sigma_c", ks=(3, 76, 250))
        )
        runner = BatchRunner(ks=(3, 76, 250))
        batch = runner.run_systems([system], ["sigma_c"])
        assert [job.to_dict() for job in response.jobs] == [
            job.to_dict() for job in batch.jobs
        ]

    def test_chain_none_selects_default_chains(self, service, system):
        response = service.analyze(AnalysisRequest.from_system(system))
        assert [job.chain_name for job in response.jobs] == ["sigma_d", "sigma_c"]

    def test_second_identical_request_recomputes_nothing(self, service, system):
        request = AnalysisRequest.from_system(system, chain="sigma_c", ks=(3,))
        cold = service.analyze(request)
        stats = service.cache_stats()["cache"]
        warm = service.analyze(request)
        after = service.cache_stats()["cache"]
        # Byte-identical response, served whole from the jobs cache:
        # nothing analyzed (the jobs misses stand still).
        assert warm.to_json() == cold.to_json()
        assert after["jobs"]["hits"] == stats["jobs"]["hits"] + 1
        assert after["jobs"]["misses"] == stats["jobs"]["misses"]

    def test_unknown_system_digest(self, service):
        with pytest.raises(UnknownSystemError, match="unknown system_digest"):
            service.analyze(AnalysisRequest(system_digest="0" * 64))

    def test_register_system_enables_by_digest_requests(self, service, system):
        digest = service.register_system(system)
        response = service.analyze(
            AnalysisRequest(system_digest=digest, chain="sigma_c", ks=(3,))
        )
        assert response.jobs[0].dmm == {3: 3}
        assert response.system_digest == digest

    def test_unknown_chain_is_a_request_error(self, service, system):
        with pytest.raises(RequestError, match="no chain named"):
            service.analyze(AnalysisRequest.from_system(system, chain="sigma_z"))

    def test_no_cache_request_bypasses_memoization(self, system):
        service = AnalysisService()
        request = AnalysisRequest.from_system(
            system, chain="sigma_c", ks=(3,), use_cache=False
        )
        cached = service.analyze(
            AnalysisRequest.from_system(system, chain="sigma_c", ks=(3,))
        )
        uncached = service.analyze(request)
        again = service.analyze(request)
        jobs = [j.to_dict() for j in cached.jobs]
        assert [j.to_dict() for j in uncached.jobs] == jobs
        assert [j.to_dict() for j in again.jobs] == jobs

    def test_batch_empty_rejected(self, service):
        # The HTTP handler rejects an empty /shard/run body before the
        # service sees it; an in-process caller reaches this check.
        with pytest.raises(RequestError, match="at least one job"):
            service.run_jobs([])

    def test_exhaustive_option_is_byte_identical(self, system):
        pruned = AnalysisService(AnalysisOptions())
        exhaustive = AnalysisService(AnalysisOptions(exhaustive=True))
        request = {"chain": "sigma_c", "ks": (3, 76)}
        a = pruned.analyze(
            AnalysisRequest.from_system(system, enumeration="pruned", **request)
        )
        b = exhaustive.analyze(
            AnalysisRequest.from_system(system, enumeration="exhaustive", **request)
        )
        assert [j.to_dict() for j in a.jobs] == [j.to_dict() for j in b.jobs]


class TestHttpServer:
    def test_healthz(self, server):
        health = ServiceClient(server.url).health()
        assert health["status"] == "ok"

    def test_kept_alive_connection_is_not_delayed(self, server, system):
        """Warm requests over one kept-alive connection answer in
        milliseconds: the response body must not wait for the client's
        delayed ACK of the headers (Nagle)."""
        request = AnalysisRequest.from_system(system, chain="sigma_c", ks=(3,))
        body = json.dumps(request.to_dict()).encode("utf-8")
        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=10)
        latencies = []
        try:
            for _ in range(21):
                began = time.perf_counter()
                connection.request("POST", "/analyze", body)
                response = connection.getresponse()
                response.read()
                latencies.append(time.perf_counter() - began)
                assert response.status == 200
        finally:
            connection.close()
        warm = sorted(latencies[1:])
        assert warm[len(warm) // 2] < 0.010, warm

    def test_analyze_round_trip_matches_in_process(self, server, service, system):
        request = AnalysisRequest.from_system(system, chain="sigma_c", ks=(3,))
        payload = ServiceClient(server.url).analyze(request)
        expected = AnalysisService().analyze(request)
        assert payload == expected.to_dict()

    def test_warm_and_cold_responses_byte_identical(self, server, service, system):
        client = ServiceClient(server.url)
        request = AnalysisRequest.from_system(system, chain="sigma_c", ks=(3, 76))
        status, _, cold = _post_raw(server.url, "/analyze", request.to_dict())
        assert status == 200
        stats = client.cache_stats()["cache"]
        status, _, warm = _post_raw(server.url, "/analyze", request.to_dict())
        assert status == 200
        after = client.cache_stats()["cache"]
        assert warm == cold
        assert after["jobs"]["hits"] == stats["jobs"]["hits"] + 1
        assert after["jobs"]["misses"] == stats["jobs"]["misses"]

    def test_batch_endpoint_matches_runner_export(self, server, system):
        """``repro batch --server`` sends its jobs to ``/shard/run``:
        the results rebuild the runner's deterministic export."""
        runner = BatchRunner(ks=(1, 10, 100))
        results = ServiceClient(server.url).run_jobs(runner.jobs_for([system]))
        expected = runner.run_systems([system]).to_json()
        assert BatchResult(jobs=results).to_json() == expected

    def test_malformed_json_is_a_structured_400(self, server):
        status, _, text = _post_raw(server.url, "/analyze", b"{not json")
        assert status == 400
        assert "invalid JSON body" in json.loads(text)["error"]

    def test_bad_request_field_is_a_structured_400(self, server, system):
        request = AnalysisRequest.from_system(system).to_dict()
        request["backend"] = "branch_bound"
        status, _, text = _post_raw(server.url, "/analyze", request)
        assert status == 400
        assert "unknown request fields: ['backend']" in json.loads(text)["error"]

    def test_nan_wcet_is_a_structured_400(self, server, system):
        # Python's JSON codec reads and writes the NaN literal.
        request = AnalysisRequest.from_system(system).to_dict()
        request["system"]["chains"][0]["tasks"][0]["wcet"] = float("nan")
        status, _, text = _post_raw(server.url, "/analyze", request)
        assert status == 400
        assert "wcet must be finite" in json.loads(text)["error"]

    def test_unknown_system_digest_is_a_400(self, server):
        status, _, text = _post_raw(
            server.url, "/analyze", {"system_digest": "f" * 64}
        )
        assert status == 400
        assert "unknown system_digest" in json.loads(text)["error"]

    def test_unknown_paths_are_404(self, server):
        client = ServiceClient(server.url)
        with pytest.raises(ServiceError, match="unknown path"):
            client._request("GET", "/nope")
        status, _, _ = _post_raw(server.url, "/nope", {})
        assert status == 404

    def test_batch_body_shape_enforced(self, server, system):
        """Batches go to ``/shard/run`` as ``{"jobs": [...]}``: there is
        no ``/batch`` route, and its ``{"requests": [...]}`` body is a
        400 on ``/shard/run``."""
        request = AnalysisRequest.from_system(system).to_dict()
        status, _, _ = _post_raw(server.url, "/batch", {"requests": [request]})
        assert status == 404
        for body in ({"requests": [request]}, {"jobs": []}):
            status, _, text = _post_raw(server.url, "/shard/run", body)
            assert status == 400
            assert "at least one job" in json.loads(text)["error"]

    @staticmethod
    def _raw_http(server, head, body=b"", *, cut_body=False):
        """Speak raw HTTP over a socket — for the framing errors
        well-behaved clients cannot produce.  ``cut_body`` half-closes
        the write side after ``body``, simulating a client that died
        mid-upload."""
        host, port = server.server_address[:2]
        with socket.create_connection((host, port), timeout=30) as sock:
            sock.sendall(head + b"\r\n" + body)
            if cut_body:
                sock.shutdown(socket.SHUT_WR)
            response = b""
            while b"\r\n\r\n" not in response:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                response += chunk
            header, _, rest = response.partition(b"\r\n\r\n")
            length = 0
            for line in header.split(b"\r\n"):
                if line.lower().startswith(b"content-length:"):
                    length = int(line.split(b":", 1)[1])
            while len(rest) < length:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                rest += chunk
            status = int(header.split(b" ", 2)[1])
            return status, rest.decode()

    def test_negative_content_length_is_a_400(self, server):
        status, text = self._raw_http(
            server,
            b"POST /analyze HTTP/1.1\r\n"
            b"Host: test\r\nContent-Type: application/json\r\n"
            b"Content-Length: -5\r\nConnection: close\r\n",
        )
        assert status == 400
        assert "bad Content-Length" in json.loads(text)["error"]
        assert "negative" in json.loads(text)["error"]

    def test_missing_content_length_is_a_400(self, server):
        status, text = self._raw_http(
            server,
            b"POST /analyze HTTP/1.1\r\n"
            b"Host: test\r\nContent-Type: application/json\r\n"
            b"Connection: close\r\n",
        )
        assert status == 400
        assert "missing Content-Length" in json.loads(text)["error"]

    def test_short_body_is_a_400_not_a_json_error(self, server):
        """Content-Length declares more bytes than arrive: the server
        must answer a structured 400 naming the short read, not hang
        on the socket or mis-parse truncated JSON."""
        status, text = self._raw_http(
            server,
            b"POST /analyze HTTP/1.1\r\n"
            b"Host: test\r\nContent-Type: application/json\r\n"
            b"Content-Length: 4096\r\nConnection: close\r\n",
            body=b'{"chain": "sig',
            cut_body=True,
        )
        assert status == 400
        error = json.loads(text)["error"]
        assert "short request body" in error
        assert "4096" in error

    def test_identical_concurrent_requests_one_analysis(
        self, server, service, system, monkeypatch
    ):
        """Two identical POST /analyze requests in flight at once on a
        ``workers=1`` daemon: the second queues behind the first and
        finds its stored result, so the analysis runs once (one jobs
        miss, one hit) and both bodies are identical."""
        entered, release = threading.Event(), threading.Event()
        original = AnalysisService._execute

        def gated(self, request):
            entered.set()
            assert release.wait(30), "test never released the compute"
            return original(self, request)

        monkeypatch.setattr(AnalysisService, "_execute", gated)
        request = AnalysisRequest.from_system(system, chain="sigma_c", ks=(3,))
        results = []

        def post():
            results.append(_post_raw(server.url, "/analyze", request.to_dict()))

        first = threading.Thread(target=post)
        first.start()
        assert entered.wait(30), "first request never reached the compute"
        second = threading.Thread(target=post)
        second.start()
        # The second request is counted before the first compute ends.
        for _ in range(300):
            if service.counters["requests"] == 2:
                break
            time.sleep(0.05)
        assert service.counters["requests"] == 2, "second request never arrived"
        release.set()
        first.join(30)
        second.join(30)
        assert len(results) == 2
        assert all(status == 200 for status, _, _ in results)
        assert results[0][2] == results[1][2]
        assert not any("X-Repro-Coalesced" in headers for _, headers, _ in results)
        assert service.counters["computes"] == 2
        jobs = service.cache.stats_dict()["jobs"]
        assert (jobs["misses"], jobs["hits"]) == (1, 1)


#: The shared analysis flags each subcommand must accept (and no more).
ANALYSIS_FLAG_TABLE = {
    "analyze": {"--exhaustive", "--no-cache"},
    "experiment": {"--exhaustive"},
    "batch": {"--exhaustive", "--cache-dir", "--no-cache"},
    "shard": {"--exhaustive", "--cache-dir", "--no-cache"},
    "serve": {"--cache-dir", "--no-cache"},
    "shard-worker": {"--cache-dir", "--no-cache"},
    "simulate": set(),
    "report": set(),
}


class TestCliIntegration:
    def test_batch_export_identical_via_server(self, server, capsys):
        args = ["batch", "--random", "3", "--seed", "7", "--json"]
        assert main(args) == 0
        local = capsys.readouterr().out
        assert main(args + ["--server", server.url]) == 0
        remote = capsys.readouterr().out
        assert remote == local

    def test_batch_system_files_via_server(self, server, tmp_path, capsys):
        path = tmp_path / "system.json"
        path.write_text(system_to_json(figure4_system()))
        args = ["batch", "--system", str(path), "--chain", "sigma_c", "--json"]
        assert main(args) == 0
        local = capsys.readouterr().out
        assert main(args + ["--server", server.url]) == 0
        assert capsys.readouterr().out == local

    def test_analyze_via_server_prints_summary(self, server, capsys):
        assert main(["analyze", "--chain", "sigma_c", "--k", "3",
                     "--server", server.url]) == 0
        out = capsys.readouterr().out
        assert "sigma_c" in out
        assert "dmm(3)=3" in out

    def test_batch_server_summary_mode(self, server, capsys):
        assert main(["batch", "--random", "2", "--seed", "3",
                     "--server", server.url]) == 0
        out = capsys.readouterr().out
        assert "sample-0000" in out and "status" in out

    def test_timings_with_server(self, server, capsys):
        args = ["batch", "--random", "2", "--json", "--timings"]
        assert main(args + ["--server", server.url]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "cache" in payload
        assert all("elapsed" in job for job in payload["jobs"])

    @pytest.mark.parametrize("remote", [False, True], ids=["local", "server"])
    def test_strict_exits_1_when_a_job_errored(self, server, remote, capsys):
        # sigma_a has no finite deadline: its jobs end in status "error".
        args = ["batch", "--random", "2", "--seed", "3", "--json"]
        args += ["--chain", "sigma_a", "sigma_c"]
        if remote:
            args += ["--server", server.url]
        assert main(args) == 0
        assert '"error": 2' in capsys.readouterr().out
        assert main(args + ["--strict"]) == 1

    @pytest.mark.parametrize("bad", ["chain", "file"])
    @pytest.mark.parametrize("mode", ["local", "workers", "server", "shard"])
    def test_bad_batch_input_exits_2(self, server, tmp_path, mode, bad, capsys):
        """An unknown chain or a missing system file is a clean
        ``error: ...`` naming it and exit 2 on every batch path, not a
        traceback and not --strict's exit 1."""
        missing = str(tmp_path / "missing.json")
        if bad == "chain":
            args, named = ["--random", "2", "--chain", "sigma_zz"], "sigma_zz"
        else:
            args, named = ["--system", missing], missing
        args = {
            "local": ["batch"] + args,
            "workers": ["batch"] + args + ["--workers", "2"],
            "server": ["batch"] + args + ["--server", server.url],
            "shard": ["shard", "--workers", "1"] + args,
        }[mode]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert named in err

    @pytest.mark.parametrize("case", ["in-process", "local", "corpus", "mixed"])
    def test_shard_is_an_alias_of_batch(self, server, tmp_path, case, capsys):
        """``repro shard`` parses to ``repro batch``: the same flags give
        the same export, and every topology's export equals the
        in-process one's."""
        sweep = ["--random", "3", "--seed", "7"]
        corpus = str(tmp_path / "corpus")
        if case == "corpus":
            generate_corpus(CorpusSpec(count=4, seed=2017), corpus)
        inputs, topology = {
            "in-process": (sweep, ["--workers", "1"]),
            "local": (sweep, ["--workers", "2", "--chunk-size", "1"]),
            "corpus": (["--corpus", corpus, "--limit", "3"], []),
            "mixed": (sweep, ["--workers", "1", "--worker", server.url]),
        }[case]
        exports = []
        for argv in (
            ["batch"] + inputs,
            ["batch"] + inputs + topology,
            ["shard"] + inputs + topology,
        ):
            assert main(argv + ["--json"]) == 0
            exports.append(capsys.readouterr().out)
        assert exports[0] == exports[1] == exports[2]
        assert json.loads(exports[0])["job_count"] > 0

    def test_shard_worker_is_an_alias_of_serve(self):
        from repro.cli import _cmd_serve, build_parser

        for command in ("serve", "shard-worker"):
            args = build_parser().parse_args([command])
            assert args.func is _cmd_serve
            assert (args.port, args.workers) == (8787, 1)

    def test_unreachable_server_is_a_clean_error(self, capsys):
        assert main(["analyze", "--chain", "sigma_c",
                     "--server", "http://127.0.0.1:9"]) == 2
        assert "cannot reach analysis server" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--exhaustive", "--cache-dir", "--no-cache"])
    @pytest.mark.parametrize("command", sorted(ANALYSIS_FLAG_TABLE))
    def test_analysis_flags_per_subcommand(self, command, flag, capsys):
        """Each subcommand accepts exactly the shared analysis flags it
        reads; any other is argparse's usage error."""
        from repro.cli import analysis_options, build_parser

        argv = [command] + (["table1"] if command == "experiment" else [])
        argv += [flag] + (["DIR"] if flag == "--cache-dir" else [])
        parser = build_parser()
        if flag not in ANALYSIS_FLAG_TABLE[command]:
            with pytest.raises(SystemExit) as info:
                parser.parse_args(argv)
            assert info.value.code == 2
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
            return
        options = analysis_options(parser.parse_args(argv))
        assert options.enumeration == (
            "exhaustive" if flag == "--exhaustive" else "pruned"
        )
        assert options.use_cache is (flag != "--no-cache")
        assert options.cache_dir == ("DIR" if flag == "--cache-dir" else None)


def test_serve_client_example_runs(capsys):
    """``examples/serve_client.py`` walks the wire protocol to the end
    against its private daemon."""
    path = pathlib.Path(__file__).parent.parent / "examples" / "serve_client.py"
    spec = importlib.util.spec_from_file_location("serve_client", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    out = capsys.readouterr().out
    assert "both chains: ['sigma_d', 'sigma_c']" in out
    assert "stats: 3 requests, 3 computes, 1 warm system(s)" in out
