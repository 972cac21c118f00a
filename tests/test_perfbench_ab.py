"""The summary of ``tools/perfbench_ab.py``, on canned result lines."""

import importlib.util
import json
import pathlib

import pytest

TOOLS = pathlib.Path(__file__).parent.parent / "tools"
spec = importlib.util.spec_from_file_location("perfbench_ab", TOOLS / "perfbench_ab.py")
perfbench_ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(perfbench_ab)

METRICS = [
    {"name": "sim_events_per_s", "unit": "1/s", "better": "higher", "bound": 0.24},
    {"name": "cold_p50_ms", "unit": "ms", "better": "lower", "bound": 0.24},
]


def line(sim, cold, correct=True):
    """One run's result line, as ``perfbench/run.py`` prints it last."""
    return {
        "correct": correct,
        "attempted": 10,
        "failed": 0 if correct else 1,
        "metrics": {
            "sim_events_per_s": {"value": sim, "unit": "1/s"},
            "cold_p50_ms": {"value": cold, "unit": "ms"},
        },
    }


def test_medians_quartiles_and_wins_follow_the_direction():
    parent = [line(100, 3.0), line(200, 2.0), line(300, 4.0), line(400, 1.0)]
    change = [line(150, 2.5), line(190, 2.5), line(450, 3.0), line(500, 0.5)]
    rows = {row["name"]: row for row in perfbench_ab.summarize(METRICS, parent, change)}

    sim = rows["sim_events_per_s"]
    assert sim["parent"] == [175.0, 250.0, 325.0]
    assert sim["change"] == [180.0, 320.0, 462.5]
    assert sim["delta_pct"] == pytest.approx(28.0)
    assert (sim["wins"], sim["pairs"]) == (3, 4)  # higher is better

    cold = rows["cold_p50_ms"]
    assert cold["parent"][1] == 2.5
    assert cold["change"][1] == 2.5
    assert cold["delta_pct"] == 0.0
    assert (cold["wins"], cold["pairs"]) == (3, 4)  # lower is better


def test_single_pair_and_missing_metric():
    broken = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    parent, change = [line(100, 3.0), broken], [line(120, 3.3), line(1, 1)]
    rows = perfbench_ab.summarize(METRICS, parent, change)
    sim = rows[0]
    assert sim["parent"] == [100, 100, 100]
    assert (sim["wins"], sim["pairs"]) == (1, 1)
    assert rows[1]["wins"] == 0
    assert perfbench_ab.summarize(METRICS, [broken], [broken]) == []


def test_table_names_every_metric():
    rows = perfbench_ab.summarize(METRICS, [line(100, 3.0)], [line(150, 3.0)])
    table = perfbench_ab.format_rows(rows)
    assert "sim_events_per_s" in table and "+50.0%" in table and "1/1" in table
    assert "cold_p50_ms" in table and "0/1" in table
    json.dumps(rows)  # plain data


def test_rejects_a_checkout_without_the_benchmark(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        perfbench_ab.main([str(tmp_path), str(tmp_path), "--workload", "corpus_sweep"])
    assert info.value.code == 2
    assert "no perfbench/run.py" in capsys.readouterr().err
