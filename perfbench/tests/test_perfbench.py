"""Tests of the benchmark itself (not of the program it measures).

    python3 -m pytest perfbench/tests -q

The run tests use the smallest size (``--seconds 1``: one round of 100
systems and 20k soak activations) and take ~10 s each.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import spans  # noqa: E402
from spans import Tracer, aggregate, quantile, self_times  # noqa: E402

ARGS = ["--workload", "corpus_sweep", "--seed", "2017", "--seconds", "1"]


def _run(*extra: str, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    command = [sys.executable, str(script), *ARGS, *extra]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=180)


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize(
    "trace, table", [("0", bench.END_TO_END), ("1", bench.PER_LAYER)]
)
def test_smoke_run_prints_every_metric_with_its_unit(trace, table):
    proc = _run("--trace", trace)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = _result(proc.stdout)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == [name for name, _, _ in table]
    lines = proc.stdout.splitlines()
    for name, unit, _ in table:
        assert result["metrics"][name]["unit"] == unit
        assert isinstance(result["metrics"][name]["value"], (int, float))
        assert any(line.split()[:1] == [name] and unit in line.split() for line in lines), name
    if trace == "0":
        for name, unit in bench.PRINTED_ONLY:
            line = [line for line in lines if line.split()[:1] == [name]]
            assert line and line[0].split()[2] == unit, name
        ratio = [line for line in lines if line.split()[:1] == ["failed_ratio"]]
        assert float(ratio[0].split()[1]) == 0.0
        names = {"cold_p50_ms", "cold_p99_ms", "warm_p50_ms", "warm_p99_ms"}
        percentiles = [line for line in lines if line.split()[:1] and line.split()[0] in names]
        assert len(percentiles) == len(names)
        assert all("n=100" in line for line in percentiles)  # sample counts


def test_wrong_reference_digest_fails_the_run(tmp_path):
    reference = json.loads(bench.REFERENCE.read_text())
    reference["corpus_sweep"]["serial_slice0_sha256"] = "0" * 64
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(reference))
    script = (
        f"import sys; sys.path.insert(0, {str(HERE)!r}); import run; "
        f"run.REFERENCE = run.Path({str(path)!r}); "
        f"sys.exit(run.main({ARGS + ['--trace', '0']!r}))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, capture_output=True, text=True, timeout=180
    )
    assert proc.returncode != 0
    result = _result(proc.stdout)
    assert result["correct"] is False
    assert result["failed"] > 0
    ratio = [line for line in proc.stdout.splitlines() if line.split()[:1] == ["failed_ratio"]]
    assert float(ratio[0].split()[1]) > 0


def test_run_without_program_source_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--trace", "0", cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_self_time_of_nested_spans(monkeypatch):
    # A fake clock that only the wrapped functions advance.
    now = [0.0]
    monkeypatch.setattr(spans.time, "perf_counter", lambda: now[0])

    def work(seconds):
        now[0] += seconds

    tracer = Tracer()
    leaf = tracer.wrap("leaf", work)

    def middle():
        work(1.0)
        leaf(0.5)
        work(0.25)
        leaf(2.0)

    def root():
        work(3.0)
        traced_middle()
        leaf(1.0)

    traced_middle = tracer.wrap("middle", middle)
    traced_root = tracer.wrap("root", root)
    tracer.enabled = True
    tracer.phase = "p"
    traced_root()
    tracer.phase = "q"
    leaf(4.0)
    records = tracer.records()
    assert [(name, parent) for name, _, _, parent, _ in records] == [
        ("root", -1),
        ("middle", 0),
        ("leaf", 1),
        ("leaf", 1),
        ("leaf", 0),
        ("leaf", -1),
    ]
    # root 7.75 s holds middle 3.75 s and a 1 s leaf; middle holds 2.5 s of leaves.
    assert self_times(records) == pytest.approx([3.0, 1.25, 0.5, 2.0, 1.0, 4.0])
    totals = aggregate(records, phases={"p"})
    assert totals["root"]["calls"] == 1
    assert totals["root"]["s"] == pytest.approx(7.75)
    assert totals["root"]["self_s"] == pytest.approx(3.0)
    assert totals["leaf"]["calls"] == 3  # the phase-q call is left out
    assert totals["leaf"]["s"] == pytest.approx(3.5)


def test_tracer_records_parents_phases_and_counts():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2, on_result=lambda r: tracer.count("r", r))
    assert outer(1) == 4  # disabled: no spans
    assert tracer.spans == []
    tracer.enabled = True
    tracer.phase = "p"
    assert outer(1) == 4
    records = tracer.records()
    assert [(name, parent, phase) for name, _, _, parent, phase in records] == [
        ("outer", -1, "p"),
        ("inner", 0, "p"),
    ]
    assert tracer.counts == {"p": {"r": 4}}
    # Read while a span is still open: it is dropped, its child is a root.
    seen = []
    leaf = tracer.wrap("leaf", lambda: None)
    tracer.wrap("open", lambda: (leaf(), seen.extend(tracer.records())))()
    assert [(name, parent) for name, _, _, parent, _ in seen] == [
        ("outer", -1),
        ("inner", 0),
        ("leaf", -1),
    ]


def test_quantile_is_inclusive_percentile():
    values = list(range(1, 101))
    assert quantile(values, 0.5) == pytest.approx(50.5)
    assert quantile(values, 0.99) == pytest.approx(99.01)
    assert quantile([3.0], 0.99) == 3.0


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    for key, table in (("end_to_end", bench.END_TO_END), ("per_layer", bench.PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in spec[key]] == list(table)
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
