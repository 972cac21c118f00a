"""JSON-friendly (de)serialization of systems.

Round-trips :class:`System` objects through plain dictionaries so that
experiment configurations can be stored on disk and diffed.  Only the
event models shipped with :mod:`repro.arrivals` are supported.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict

from ..arrivals import (
    ArrivalCurve,
    EventModel,
    PeriodicModel,
    SporadicBurstModel,
    SporadicModel,
)
from .chain import ChainKind, TaskChain
from .system import System
from .task import Task


def event_model_to_dict(model: EventModel) -> Dict[str, Any]:
    """Serialize a supported event model to a plain dict."""
    if isinstance(model, PeriodicModel):
        return {
            "type": "periodic",
            "period": model.period,
            "jitter": model.jitter,
            "min_distance": model.min_distance,
        }
    if isinstance(model, SporadicBurstModel):
        return {
            "type": "sporadic_burst",
            "inner_distance": model.inner_distance,
            "burst": model.burst,
            "outer_distance": model.outer_distance,
        }
    if isinstance(model, SporadicModel):
        return {"type": "sporadic", "min_distance": model.min_distance}
    if isinstance(model, ArrivalCurve):
        data: Dict[str, Any] = {
            "type": "curve",
            "delta_min_points": list(model._points),
            "tail_distance": model.tail_distance,
        }
        if model._max_points is not None:
            data["delta_max_points"] = list(model._max_points)
        return data
    raise TypeError(f"cannot serialize event model {model!r}")


def event_model_from_dict(data: Dict[str, Any]) -> EventModel:
    """Inverse of :func:`event_model_to_dict`."""
    kind = data["type"]
    if kind == "periodic":
        return PeriodicModel(
            data["period"], data.get("jitter", 0.0), data.get("min_distance", 0.0)
        )
    if kind == "sporadic":
        return SporadicModel(data["min_distance"])
    if kind == "sporadic_burst":
        return SporadicBurstModel(
            data["inner_distance"], data["burst"], data["outer_distance"]
        )
    if kind == "curve":
        return ArrivalCurve(
            data["delta_min_points"],
            data.get("tail_distance"),
            data.get("delta_max_points"),
        )
    raise ValueError(f"unknown event model type {kind!r}")


def system_to_dict(system: System) -> Dict[str, Any]:
    """Serialize a system (chains, tasks, activation models) to a dict."""
    chains = []
    for chain in system.chains:
        chains.append(
            {
                "name": chain.name,
                "kind": chain.kind.value,
                "overload": chain.overload,
                "deadline": None if math.isinf(chain.deadline) else chain.deadline,
                "activation": event_model_to_dict(chain.activation),
                "tasks": [
                    {
                        "name": t.name,
                        "priority": t.priority,
                        "wcet": t.wcet,
                        "bcet": t.bcet,
                    }
                    for t in chain.tasks
                ],
            }
        )
    return {"name": system.name, "chains": chains}


def system_from_dict(data: Dict[str, Any]) -> System:
    """Inverse of :func:`system_to_dict`."""
    chains = []
    for cdata in data["chains"]:
        tasks = [
            Task(t["name"], t["priority"], t["wcet"], t.get("bcet", -1.0))
            for t in cdata["tasks"]
        ]
        deadline = cdata.get("deadline")
        chains.append(
            TaskChain(
                cdata["name"],
                tasks,
                event_model_from_dict(cdata["activation"]),
                math.inf if deadline is None else deadline,
                ChainKind(cdata.get("kind", "synchronous")),
                cdata.get("overload", False),
            )
        )
    return System(chains, name=data.get("name", "system"), allow_shared_priorities=True)


def system_to_json(system: System, indent: int = 2) -> str:
    """Serialize a system to a JSON string."""
    return json.dumps(system_to_dict(system), indent=indent)


def canonical_system_json(system: System) -> str:
    """Canonical (sorted-key, no-whitespace) JSON for ``system``.

    The single source of content identity: :meth:`System.content_digest`
    and the batch runner's job digests both hash exactly this string, so
    they can never diverge."""
    return json.dumps(system_to_dict(system), sort_keys=True, separators=(",", ":"))


def system_from_json(text: str) -> System:
    """Parse a system from a JSON string."""
    return system_from_dict(json.loads(text))


def load_system_file(path: str) -> System:
    """Parse a system from a JSON file.

    The one file-loading path: :func:`repro.runner.batch.load_systems`
    (CLI ``analyze``/``simulate --system``, ``repro batch --system``,
    :meth:`repro.runner.BatchRunner.run_paths`) reads files through it,
    in the calling process."""
    with open(path, "r", encoding="utf-8") as handle:
        return system_from_json(handle.read())
