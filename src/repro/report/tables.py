"""Paper-style table formatting for analysis results."""

from __future__ import annotations

import math
from typing import Mapping, Sequence

from ..analysis.latency import LatencyResult
from ..analysis.twca import ChainTwcaResult


def format_packing_stats(stats: Mapping[str, int]) -> str:
    """One-line rendering of packing work counters (shared by
    summaries and the CLI stderr reports)."""
    return ", ".join(f"{key} {stats[key]}" for key in sorted(stats))


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Plain-text table with column alignment (no dependency)."""
    cells = [[str(h) for h in headers]]
    cells += [[str(value) for value in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    for index, row in enumerate(cells):
        aligned = (value.ljust(width) for value, width in zip(row, widths))
        lines.append("  ".join(aligned))
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def wcl_table(
    results: Mapping[str, LatencyResult], deadlines: Mapping[str, float]
) -> str:
    """Table I layout: worst-case latency vs deadline per chain."""
    rows = []
    for name in sorted(results):
        deadline = deadlines.get(name, math.inf)
        deadline_text = "-" if math.isinf(deadline) else f"{deadline:g}"
        rows.append(
            (
                name,
                f"{results[name].wcl:g}",
                deadline_text,
                "yes" if results[name].wcl <= deadline else "NO",
            )
        )
    return format_table(("task chain", "WCL", "D", "schedulable"), rows)


def dmm_table(result: ChainTwcaResult, ks: Sequence[int]) -> str:
    """Table II layout: ``dmm(k)`` samples for one chain."""
    cells = ", ".join(f"dmm({k}) = {result.dmm(k)}" for k in ks)
    return format_table(("task chain", "DMM"), [(result.chain_name, cells)])


def twca_summary(result: ChainTwcaResult) -> str:
    """Multi-line human-readable summary of one chain's TWCA."""
    lines = [f"chain {result.chain_name}: {result.status.value}"]
    if result.full_latency is not None:
        lines.append(
            f"  WCL = {result.full_latency.wcl:g} "
            f"(deadline {result.deadline:g}, "
            f"K = {result.full_latency.max_queue})"
        )
    if result.typical_latency is not None:
        lines.append(f"  typical WCL = {result.typical_latency.wcl:g}")
    if result.combination_count:
        lines.append(
            f"  combinations: {result.combination_count} "
            f"({result.unschedulable_count} unschedulable, "
            f"slack S* = {result.min_slack:g})"
        )
        # Listing every unschedulable combination would materialize the
        # full (potentially exponential) set the pruned pipeline never
        # built; past a modest size, show the inclusion-minimal
        # witnesses the search already collected instead.
        if result.combination_count <= 10_000:
            witnesses = result.unschedulable
            marker = "unschedulable"
        else:
            witnesses = result.minimal_unschedulable()
            marker = "minimal unschedulable"
        for combo in witnesses:
            lines.append(f"    {marker}: {combo} (cost {combo.cost:g})")
    if result.n_b:
        lines.append(f"  N_b = {result.n_b}")
    stats = result.packing_stats()
    if stats:
        lines.append(f"  packing: {format_packing_stats(stats)}")
    return "\n".join(lines)
