"""In-memory span recorder for the traced benchmark run.

A :class:`Tracer` wraps public functions of the program with timing
wrappers that record one span per call: its name, start, end, the
enclosing span of the same thread (its parent) and the benchmark phase
it ran in.  Spans stay in memory and are written out once, when the run
ends.  Nothing here is imported by the program itself; the wrappers are
installed from the benchmark's own code (see :mod:`layers`).
"""

from __future__ import annotations

import gzip
import json
import os
import statistics
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: A recorded span: ``[name, start, end, parent span or None, phase]``.
#: A mutable list so the wrapper can fill in ``end`` after the call.
Span = List[Any]


class Tracer:
    """Records spans from wrapped functions while :attr:`enabled`.

    Parents are tracked per thread, so spans recorded by the daemon's
    handler and compute threads nest correctly within each thread.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.phase = ""
        self.spans: List[Span] = []
        #: ``{phase: {name: total}}`` from :meth:`count`.
        self.counts: Dict[str, Dict[str, float]] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        on_result: Optional[Callable[[Any], None]] = None,
    ) -> Callable[..., Any]:
        """``fn`` wrapped to record a span named ``name`` per call;
        ``on_result`` sees every return value (for work counters)."""
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack()
            span = [name, clock(), 0.0, stack[-1] if stack else None, self.phase]
            self.spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def count(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to counter ``name`` of the current phase."""
        with self._lock:
            counters = self.counts.setdefault(self.phase, {})
            counters[name] = counters.get(name, 0) + amount

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def records(self) -> List[Tuple[str, float, float, int, str]]:
        """Spans as ``(name, start, end, parent index, phase)`` with
        parent ``-1`` for roots; unfinished spans are dropped, and their
        children become roots."""
        finished = [span for span in self.spans if span[2]]
        index = {id(span): i for i, span in enumerate(finished)}
        return [
            (name, start, end, index.get(id(parent), -1), phase)
            for name, start, end, parent, phase in finished
        ]

    def write(self, path: str) -> None:
        """Write the spans and counters as gzipped JSON."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        payload = {"spans": self.records(), "counts": self.counts}
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))


def read_spans(path: str) -> List[Tuple[str, float, float, int, str]]:
    """The span records of a file written by :meth:`Tracer.write`."""
    with gzip.open(path, "rt", encoding="utf-8") as handle:
        payload = json.load(handle)
    return [tuple(span) for span in payload["spans"]]  # type: ignore[misc]


# ----------------------------------------------------------------------
# Analysis of recorded spans
# ----------------------------------------------------------------------
def self_times(spans: Sequence[Tuple[str, float, float, int, str]]) -> List[float]:
    """Per span: its duration minus the durations of its children.

    A parent is the enclosing span of the same thread, so its children
    run one after another inside it.
    """
    result = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            result[parent] -= end - start
    return result


def aggregate(
    spans: Sequence[Tuple[str, float, float, int, str]],
    phases: Optional[Iterable[str]] = None,
) -> Dict[str, Dict[str, Any]]:
    """``{name: {"calls", "s", "self_s", "durations"}}`` over the spans
    recorded in ``phases`` (all phases when ``None``).  ``s`` is the
    inclusive time; self times come from :func:`self_times` over the
    whole span set, so a child in another phase still counts."""
    wanted = None if phases is None else set(phases)
    selfs = self_times(spans)
    totals: Dict[str, Dict[str, Any]] = {}
    for (name, start, end, parent, phase), own in zip(spans, selfs):
        if wanted is not None and phase not in wanted:
            continue
        entry = totals.setdefault(
            name, {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": []}
        )
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += own
        entry["durations"].append(end - start)
    return totals


def quantile(values: Sequence[float], q: float) -> float:
    """The ``q`` quantile (``0 < q < 1``, whole percent) of ``values`` by
    the inclusive method; ``nan`` when empty.  The one percentile
    definition every metric of the benchmark shares."""
    if len(values) < 2:
        return float(values[0]) if values else float("nan")
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]
