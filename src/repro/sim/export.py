"""Trace export: simulation results as CSV / JSON-ready structures.

Downstream tooling (timing dashboards, trace diffing, spreadsheet
analysis) consumes flat records rather than Python objects.  Two tables
are exported:

* the **schedule** — one row per execution slice;
* the **instances** — one row per chain instance with activation,
  start, finish, latency and miss verdict.
"""

from __future__ import annotations

import csv
import io
import json
import math
from typing import Any, Dict, List

from .engine import SimulationResult


def schedule_records(result: SimulationResult) -> List[Dict[str, Any]]:
    """Execution slices as flat dictionaries, in time order.

    The sort key tie-breaks equal start times by (chain, task,
    instance), so the row order — and hence the byte content of every
    export — is a pure function of the slice *set*, independent of the
    emission order of the simulation backend that produced it.
    """
    return [
        {
            "chain": piece.chain,
            "task": piece.task,
            "instance": piece.instance,
            "start": piece.start,
            "end": piece.end,
            "duration": piece.end - piece.start,
        }
        for piece in sorted(
            result.slices, key=lambda s: (s.start, s.chain, s.task, s.instance)
        )
    ]


def instance_records(result: SimulationResult) -> List[Dict[str, Any]]:
    """Chain instances as flat dictionaries, per chain in index order."""
    rows: List[Dict[str, Any]] = []
    for chain in result.system.chains:
        deadline = chain.deadline
        for record in result.instances[chain.name]:
            rows.append(
                {
                    "chain": chain.name,
                    "instance": record.index,
                    "activation": record.activation,
                    "start": record.start,
                    "finish": record.finish,
                    "latency": record.latency,
                    "deadline": None if math.isinf(deadline) else deadline,
                    "missed": (
                        record.misses(deadline) if record.finish is not None else None
                    ),
                }
            )
    return rows


def _to_csv(rows: List[Dict[str, Any]]) -> str:
    if not rows:
        return ""
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue()


def schedule_csv(result: SimulationResult) -> str:
    """The schedule table as CSV text."""
    return _to_csv(schedule_records(result))


def instances_csv(result: SimulationResult) -> str:
    """The instance table as CSV text."""
    return _to_csv(instance_records(result))


def trace_json(result: SimulationResult, indent: int = 2) -> str:
    """Both tables plus run metadata as a JSON document.

    Keys are sorted so the document bytes are deterministic; the
    calendar parity tests compare the exports of the calendar and the
    scalar loop with ``==`` on the raw strings.
    """
    return json.dumps(
        {
            "system": result.system.name,
            "horizon": result.horizon,
            "schedule": schedule_records(result),
            "instances": instance_records(result),
        },
        indent=indent,
        sort_keys=True,
    )


def write_trace(result: SimulationResult, path: str) -> None:
    """Write the JSON trace document to ``path`` (``.json``) or the
    schedule CSV (any other suffix)."""
    with open(path, "w", encoding="utf-8") as handle:
        if path.endswith(".json"):
            handle.write(trace_json(result))
        else:
            handle.write(schedule_csv(result))
