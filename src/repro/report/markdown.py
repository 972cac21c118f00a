"""Markdown report generation.

Produces a self-contained reproduction report (the EXPERIMENTS.md
skeleton) directly from analysis runs, so the recorded numbers can
never drift from what the code computes.
"""

from __future__ import annotations

import random
from typing import Dict, Sequence

from ..analysis import analyze_latency, analyze_twca
from ..synth import figure4_system, random_systems


def markdown_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """A GitHub-flavoured markdown table."""
    head = "| " + " | ".join(str(h) for h in headers) + " |"
    rule = "|" + "|".join("---" for _ in headers) + "|"
    body = ["| " + " | ".join(str(v) for v in row) + " |" for row in rows]
    return "\n".join([head, rule] + body)


def table1_section() -> str:
    """The Table I comparison as markdown."""
    system = figure4_system()
    rows = []
    paper = {"sigma_c": 331, "sigma_d": 175}
    for name in ("sigma_c", "sigma_d"):
        measured = analyze_latency(system, system[name]).wcl
        match = "exact" if measured == paper[name] else "DIFFERS"
        rows.append((name, paper[name], f"{measured:g}", match))
    return "## Table I — worst-case latencies\n\n" + markdown_table(
        ("chain", "paper WCL", "measured WCL", "match"), rows
    )


def table2_section(ks: Sequence[int] = (3, 76, 250)) -> str:
    """The Table II comparison (printed + calibrated) as markdown."""
    paper = {3: 3, 76: 4, 250: 5}
    rows = []
    results = {}
    for calibrated in (False, True):
        system = figure4_system(calibrated=calibrated)
        results[calibrated] = analyze_twca(system, system["sigma_c"])
    for k in ks:
        rows.append((k, paper.get(k, "-"), results[True].dmm(k), results[False].dmm(k)))
    return "## Table II — dmm of sigma_c\n\n" + markdown_table(
        ("k", "paper", "measured (calibrated)", "measured (printed)"), rows
    )


def figure5_section(
    samples: int = 200,
    seed: int = 2017,
    calibrated: bool = True,
) -> str:
    """The Figure 5 statistics as markdown."""
    rng = random.Random(seed)
    base = figure4_system(calibrated=calibrated)
    schedulable = {"sigma_c": 0, "sigma_d": 0}
    histogram: Dict[str, Dict[int, int]] = {"sigma_c": {}, "sigma_d": {}}
    for system in random_systems(base, samples, rng):
        for name in schedulable:
            result = analyze_twca(system, system[name])
            value = 0 if result.is_schedulable else result.dmm(10)
            if value == 0:
                schedulable[name] += 1
            histogram[name][value] = histogram[name].get(value, 0) + 1
    paper = {"sigma_c": 0.633, "sigma_d": 0.307}
    rows = []
    for name in ("sigma_c", "sigma_d"):
        measured = schedulable[name] / samples
        rows.append(
            (
                name,
                f"{paper[name]:.3f}",
                f"{measured:.3f}",
                dict(sorted(histogram[name].items())),
            )
        )
    return (
        f"## Figure 5 — dmm(10) over {samples} random priority assignments\n\n"
        + markdown_table(
            (
                "chain",
                "paper schedulable fraction",
                "measured fraction",
                "dmm(10) histogram",
            ),
            rows,
        )
    )


def reproduction_report(samples: int = 200, seed: int = 2017) -> str:
    """The full report: all regenerable sections concatenated."""
    sections = [
        "# Reproduction report (auto-generated)",
        table1_section(),
        table2_section(),
        figure5_section(samples=samples, seed=seed),
    ]
    return "\n\n".join(sections) + "\n"
