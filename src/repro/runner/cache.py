"""Content-addressed memoization of analysis artifacts.

The TWCA recomputes three expensive pure functions over and over during
sweeps: the Theorem 1 busy-time fixed points, the Lemma 4 ``Omega``
capacities, and the Def. 8 active-segment decompositions.  All three
depend only on system *content*, so :class:`AnalysisCache` memoizes them
keyed by the system's SHA-256 content digest plus the scalar arguments.

The cache is installed process-locally through
:mod:`repro.analysis.memo`.  :class:`AnalysisCache` is the purely
in-memory LRU form; :class:`repro.runner.diskcache.PersistentAnalysisCache`
extends it with an on-disk content-addressed backend shared by every
worker process pointed at the same directory.  Hit/miss/disk-hit
counters per category make cache effectiveness observable in
:class:`repro.runner.BatchResult` exports.
"""

from __future__ import annotations

import contextlib
import threading
from dataclasses import dataclass
from typing import Any, Dict, Hashable, Iterator, Optional, Tuple

from ..analysis.memo import using_cache

#: The memoized artifact families.  ``busy_time``, ``omega`` and
#: ``segments`` are the classic analysis primitives; ``combo_exact``
#: holds the Def. 10 exact-schedulability verdict per combination cost
#: signature; ``jobs`` holds whole
#: :class:`~repro.runner.jobs.JobResult` payloads keyed by the job's
#: content identity, so warm batches skip per-job assembly entirely.
CATEGORIES: Tuple[str, ...] = (
    "busy_time",
    "omega",
    "segments",
    "combo_exact",
    "jobs",
)

#: The counter fields carried per category in stats dicts and job-level
#: cache deltas; :func:`merge_stats` sums exactly these.
STAT_FIELDS: Tuple[str, ...] = ("hits", "misses", "disk_hits", "entries")


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss/size counters of one cache category.

    ``hits`` counts every lookup served without recomputation; the
    ``disk_hits`` subset of those was promoted from the persistent
    backend rather than the in-process LRU front.
    """

    hits: int = 0
    misses: int = 0
    entries: int = 0
    disk_hits: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when idle)."""
        return self.hits / self.lookups if self.lookups else 0.0


class AnalysisCache:
    """Memoizes busy-time fixed points, Omega capacities and segment
    decompositions across analyses of content-identical systems.

    Duck-typed against :mod:`repro.analysis.memo`: the analysis layer
    only calls :meth:`lookup` and :meth:`store`.  Entries are kept in
    LRU order — a hit refreshes its key — and once ``maxsize`` entries
    exist in a category, storing a new key evicts the least recently
    used one, so memory stays bounded during unbounded sweeps while hot
    systems keep their entries.  Eviction only ever costs a
    recomputation, never correctness.

    Thread-safe: one cache instance may be shared by concurrent
    analyses (the ``repro serve`` compute pool drives exactly this).
    A single lock guards the LRU dicts and the counters, so the
    accounting invariant ``hits + misses == lookups`` holds under any
    interleaving; backend (disk) I/O runs *outside* the lock so slow
    persistent reads never serialize unrelated in-memory traffic.
    """

    def __init__(self, maxsize: int = 200_000):
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._lock = threading.RLock()
        self._stores: Dict[str, Dict[Hashable, Any]] = {
            category: {} for category in CATEGORIES
        }
        self._hits: Dict[str, int] = dict.fromkeys(CATEGORIES, 0)
        self._misses: Dict[str, int] = dict.fromkeys(CATEGORIES, 0)
        self._disk_hits: Dict[str, int] = dict.fromkeys(CATEGORIES, 0)

    # ------------------------------------------------------------------
    # The memo protocol used by repro.analysis
    # ------------------------------------------------------------------
    def lookup(self, category: str, key: Hashable) -> Optional[Any]:
        """The cached value for ``key`` (``None`` on miss; no category
        stores ``None`` values)."""
        store = self._stores[category]
        with self._lock:
            value = store.get(key)
            if value is not None:
                # LRU refresh: re-append so eviction tracks recency.
                del store[key]
                store[key] = value
                self._hits[category] += 1
                return value
        # Front miss: consult the backend outside the lock (disk I/O).
        value = self._backend_lookup(category, key)
        with self._lock:
            if value is None:
                self._misses[category] += 1
                return None
            self._disk_hits[category] += 1
            self._hits[category] += 1
            # A racing thread may have promoted/stored the key while the
            # backend read ran; either way re-append it most recent.
            if key in store:
                del store[key]
            elif len(store) >= self.maxsize:
                del store[next(iter(store))]
            store[key] = value
        return value

    def peek(self, category: str, key: Hashable) -> Optional[Any]:
        """Counter-neutral lookup: the cached value if present (front or
        backend), without touching hit/miss accounting, LRU order or
        promotion.  Used by opportunistic probes — e.g. the warm-start
        seeds of the busy-window Kleene iteration — whose misses are
        expected and must not skew cache-effectiveness stats."""
        with self._lock:
            value = self._stores[category].get(key)
        if value is None:
            value = self._backend_lookup(category, key)
        return value

    def store(self, category: str, key: Hashable, value: Any) -> None:
        """Record ``value`` for ``key``, evicting the category's least
        recently used entry once ``maxsize`` is reached."""
        store = self._stores[category]
        with self._lock:
            if key not in store and len(store) >= self.maxsize:
                del store[next(iter(store))]
            store[key] = value
        self._backend_store(category, key, value)

    # ------------------------------------------------------------------
    # Persistence hooks (no-ops for the in-memory cache)
    # ------------------------------------------------------------------
    def _backend_lookup(self, category: str, key: Hashable) -> Optional[Any]:
        """Second-level lookup consulted on an in-memory miss; the
        persistent subclass reads the on-disk store here."""
        return None

    def _backend_store(self, category: str, key: Hashable, value: Any) -> None:
        """Write-through hook invoked by :meth:`store`."""

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, CacheStats]:
        """Per-category counters (one consistent snapshot)."""
        with self._lock:
            return {
                category: CacheStats(
                    hits=self._hits[category],
                    misses=self._misses[category],
                    entries=len(self._stores[category]),
                    disk_hits=self._disk_hits[category],
                )
                for category in CATEGORIES
            }

    def stats_dict(self) -> Dict[str, Dict[str, int]]:
        """JSON-friendly form of :meth:`stats`."""
        return {
            category: {
                "hits": stats.hits,
                "misses": stats.misses,
                "disk_hits": stats.disk_hits,
                "entries": stats.entries,
            }
            for category, stats in self.stats().items()
        }

    def counters(self) -> Dict[str, Dict[str, int]]:
        """``{category: {field: count}}`` snapshot (hits, misses and
        disk hits — not entries), for delta tracking around one job."""
        with self._lock:
            return {
                category: {
                    "hits": self._hits[category],
                    "misses": self._misses[category],
                    "disk_hits": self._disk_hits[category],
                }
                for category in CATEGORIES
            }

    @property
    def job_hits(self) -> int:
        """Lookups served from the ``jobs`` category — whole
        :class:`~repro.runner.jobs.JobResult` payloads reused without
        re-running the analysis (surfaced per category in
        :meth:`stats` as ``stats()["jobs"]``)."""
        with self._lock:
            return self._hits["jobs"]

    @property
    def hit_count(self) -> int:
        with self._lock:
            return sum(self._hits.values())

    @property
    def miss_count(self) -> int:
        with self._lock:
            return sum(self._misses.values())

    @property
    def disk_hit_count(self) -> int:
        with self._lock:
            return sum(self._disk_hits.values())

    def clear(self) -> None:
        """Drop all in-memory entries and reset the counters (the
        persistent backend, if any, is left untouched)."""
        with self._lock:
            for category in CATEGORIES:
                self._stores[category].clear()
                self._hits[category] = 0
                self._misses[category] = 0
                self._disk_hits[category] = 0

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def activate(self) -> Iterator["AnalysisCache"]:
        """Install this cache for the analyses run inside the block."""
        with using_cache(self):
            yield self

    def __repr__(self) -> str:
        sizes = ", ".join(
            f"{category}={len(self._stores[category])}" for category in CATEGORIES
        )
        return f"{type(self).__name__}({sizes})"


def merge_stats(
    totals: Dict[str, Dict[str, int]], update: Dict[str, Dict[str, int]]
) -> Dict[str, Dict[str, int]]:
    """Accumulate per-category counter dicts (used to aggregate the
    per-worker caches of a parallel batch into one report).  Fields
    absent from ``update`` (older deltas without ``disk_hits``) count
    as zero."""
    for category, counters in update.items():
        bucket = totals.setdefault(category, dict.fromkeys(STAT_FIELDS, 0))
        for field in STAT_FIELDS:
            bucket[field] += counters.get(field, 0)
    return totals
