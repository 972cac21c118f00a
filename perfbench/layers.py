"""Which public functions of the program the traced run wraps.

Each entry replaces a function at the call site the program uses —
a module attribute (``repro.analysis.twca.analyze_latency`` is the name
``analyze_twca`` looks up) or a method on its class — with a
:class:`~spans.Tracer` wrapper.  The benchmark process and the traced
daemon launcher install the same table.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, List, Tuple

from spans import Tracer

#: (module, attribute, span name): functions called through a module
#: global of the calling module.
MODULE_FUNCTIONS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.runner.batch", "execute_job", "jobs.execute_job"),
    ("repro.runner.jobs", "analyze_twca", "twca.analyze_twca"),
    ("repro.runner.jobs", "canonical_system_json", "model.canonical_json"),
    ("repro.service.api", "canonical_system_json", "model.canonical_json"),
    ("repro.service.core", "system_from_json", "model.parse"),
    ("repro.analysis.twca", "analyze_latency", "latency.analyze_latency"),
    ("repro.analysis.twca", "criterion_loads", "busy_window.criterion_loads"),
    (
        "repro.analysis.twca",
        "overload_active_segments",
        "combinations.overload_active_segments",
    ),
    ("repro.analysis.twca", "search_combinations", "combinations.search_combinations"),
)

#: (module, class, method, span name): methods looked up on instances.
METHODS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.runner.jobs", "AnalysisJob", "system", "model.parse"),
    ("repro.analysis.twca", "ChainTwcaResult", "dmm_curve", "twca.dmm_curve"),
    ("repro.runner.cache", "AnalysisCache", "lookup", "cache.lookup"),
    ("repro.runner.cache", "AnalysisCache", "store", "cache.store"),
    ("repro.service.core", "AnalysisService", "analyze", "service.analyze"),
    ("repro.service.api", "AnalysisResponse", "to_json", "service.response_to_json"),
    ("repro.service.http", "AnalysisRequestHandler", "do_POST", "service.handler"),
    ("repro.sim.engine", "Simulator", "run", "sim.run"),
)

#: (module, class, classmethod, span name).
CLASSMETHODS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.service.api", "AnalysisRequest", "from_dict", "service.request_from_dict"),
)


def _count_search(tracer: Tracer) -> Callable[[Any], None]:
    """Work counters read off each ``ChainTwcaResult``."""

    def record(result: Any) -> None:
        tracer.count("combinations.checks", result.search_checks)
        tracer.count("combinations.nodes", result.search_nodes)

    return record


def install(tracer: Tracer) -> List[Callable[[], None]]:
    """Install every wrapper; returns the undo callbacks, which put the
    original functions back (the overhead probe's untraced passes)."""
    hooks: Dict[str, Callable[[Any], None]] = {
        "twca.analyze_twca": _count_search(tracer)
    }
    undo: List[Callable[[], None]] = []
    for module_name, attribute, span in MODULE_FUNCTIONS:
        module = importlib.import_module(module_name)
        original = getattr(module, attribute)
        setattr(module, attribute, tracer.wrap(span, original, hooks.get(span)))
        undo.append(lambda m=module, a=attribute, o=original: setattr(m, a, o))
    for module_name, class_name, method, span in METHODS:
        cls = getattr(importlib.import_module(module_name), class_name)
        original = cls.__dict__[method]
        setattr(cls, method, tracer.wrap(span, original))
        undo.append(lambda c=cls, m=method, o=original: setattr(c, m, o))
    for module_name, class_name, method, span in CLASSMETHODS:
        cls = getattr(importlib.import_module(module_name), class_name)
        original = cls.__dict__[method]
        setattr(cls, method, classmethod(tracer.wrap(span, original.__func__)))
        undo.append(lambda c=cls, m=method, o=original: setattr(c, m, o))
    return undo
