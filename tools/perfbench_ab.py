#!/usr/bin/env python
"""A/B the end-to-end benchmark between two checkouts.

Runs ``perfbench/run.py --trace 0`` of PARENT and CHANGE in alternating
order (even pairs run PARENT first, odd pairs CHANGE first), each run a
fresh process whose working directory is its checkout, and parses the
JSON result line each run prints last.  Then, for every end-to-end
metric of ``BENCHMARK.json``, it prints the parent's median [IQR], the
change's median [IQR], the change of the medians in %, and in how many
pairs the change did better (by the metric's ``better`` direction).

Exits 1 when any run is not ``correct``, and 2 on bad arguments.

Usage:  python tools/perfbench_ab.py PARENT CHANGE --workload W
            [--pairs 10] [--seed 2017] [--seconds 40]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Sequence

ROOT = Path(__file__).resolve().parent.parent


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> Dict[str, Any]:
    """One benchmark run of ``checkout``; its result line as a dict
    (``{"correct": False, ...}`` when the run printed none)."""
    command = [
        sys.executable,
        "perfbench/run.py",
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        "0",
    ]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = (done.stderr or done.stdout).strip().splitlines()[-5:]
        failed = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        return {**failed, "error": tail}


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, median, q3]`` of ``values`` (inclusive method)."""
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(
    metrics: Sequence[Dict[str, Any]],
    parent: Sequence[Dict[str, Any]],
    change: Sequence[Dict[str, Any]],
) -> List[Dict[str, Any]]:
    """One row per metric of ``metrics`` (``BENCHMARK.json``'s
    ``end_to_end`` entries) over paired result lines: ``parent[i]`` and
    ``change[i]`` ran back to back.  A metric missing from a run is
    skipped in that run's pair."""
    rows = []
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        pairs = [
            (a["metrics"][name]["value"], b["metrics"][name]["value"])
            for a, b in zip(parent, change)
            if name in a.get("metrics", {}) and name in b.get("metrics", {})
        ]
        if not pairs:
            continue
        old = quartiles([a for a, _ in pairs])
        new = quartiles([b for _, b in pairs])
        wins = sum((b > a) if higher else (b < a) for a, b in pairs)
        delta = 100.0 * (new[1] - old[1]) / old[1] if old[1] else float("nan")
        rows.append(
            {
                "name": name,
                "unit": metric["unit"],
                "better": metric["better"],
                "parent": old,
                "change": new,
                "delta_pct": delta,
                "wins": wins,
                "pairs": len(pairs),
            }
        )
    return rows


def format_rows(rows: Sequence[Dict[str, Any]]) -> str:
    def cell(q: Sequence[float]) -> str:
        return f"{q[1]:.6g} [{q[0]:.6g}-{q[2]:.6g}]"

    lines = [
        f"{'metric':<18} {'better':<7} {'parent median [IQR]':<34} "
        f"{'change median [IQR]':<34} {'change':>8}  wins"
    ]
    for row in rows:
        lines.append(
            f"{row['name']:<18} {row['better']:<7} {cell(row['parent']):<34} "
            f"{cell(row['change']):<34} {row['delta_pct']:>+7.1f}%  "
            f"{row['wins']}/{row['pairs']}"
        )
    return "\n".join(lines)


def parse_args(argv: Sequence[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=2017)
    parser.add_argument("--seconds", type=int, default=40)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    for checkout in (args.parent, args.change):
        if not (checkout / "perfbench" / "run.py").is_file():
            parser.error(f"{checkout} has no perfbench/run.py")
    return args


def main(argv: Sequence[str] | None = None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    runs: Dict[str, List[Dict[str, Any]]] = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            checkout = getattr(args, side)
            result = run_once(checkout, args.workload, args.seed, args.seconds)
            runs[side].append(result)
            print(
                f"pair {pair + 1}/{args.pairs} {side}: correct={result['correct']} "
                f"failed={result['failed']}/{result['attempted']}",
                file=sys.stderr,
                flush=True,
            )
            for line in result.get("error", ()):
                print(f"  {line}", file=sys.stderr)
    print(
        f"{args.workload} seed={args.seed} seconds={args.seconds} pairs={args.pairs}"
    )
    print(format_rows(summarize(spec["end_to_end"], runs["parent"], runs["change"])))
    for side, results in runs.items():
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"{side}: {failed} of {attempted} operations failed")
    incorrect = sum(not r["correct"] for results in runs.values() for r in results)
    if incorrect:
        print(f"{incorrect} run(s) not correct", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
