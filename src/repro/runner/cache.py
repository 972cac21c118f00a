"""Content-addressed cache of whole job results.

A batch job's :class:`~repro.runner.jobs.JobResult` is a pure function
of the job's content identity — the system's SHA-256 content digest plus
the chain and analysis parameters (:func:`~repro.runner.jobs.job_result_key`)
— so :class:`AnalysisCache` keeps finished results keyed by that
identity.  A repeated job (a duplicate in one batch, a warm daemon
request, a candidate an optimizer revisits, a warm ``--cache-dir`` run)
is served whole instead of re-analyzed.  The analyses themselves run
uncached: their intermediate artifacts are recomputed inside each job.

:class:`AnalysisCache` is the purely in-memory LRU form;
:class:`repro.runner.diskcache.PersistentAnalysisCache` extends it with
an on-disk content-addressed backend shared by every worker process
pointed at the same directory.  Hit/miss/disk-hit counters make cache
effectiveness observable in :class:`repro.runner.BatchResult` exports,
under the one category name ``jobs``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, Hashable, Optional, Tuple

#: The one counter category of stats dicts (``{"jobs": {...}}``) in job
#: results, batch summaries, ``GET /cache/stats`` and ``repro cache``.
CATEGORY = "jobs"

#: The counter fields carried in stats dicts and per-job cache records;
#: :func:`merge_stats` sums exactly these.
STAT_FIELDS: Tuple[str, ...] = ("hits", "misses", "disk_hits", "entries")


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss/size counters of the cache.

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
    """Whole :class:`~repro.runner.jobs.JobResult` payloads keyed by
    job content identity.

    Entries are kept in LRU order — a hit refreshes its key — and once
    ``maxsize`` entries exist, storing a new key evicts the least
    recently used one, so memory stays bounded during unbounded sweeps
    while hot jobs keep their entries.  Eviction only ever costs a
    recomputation, never correctness.

    Thread-safe: one cache instance may be shared by concurrent jobs
    (the ``repro serve`` compute pool drives exactly this).  A single
    lock guards the LRU dict and the counters, so the accounting
    invariant ``hits + misses == lookups`` holds under any
    interleaving; backend (disk) I/O runs *outside* the lock so slow
    persistent reads never serialize unrelated in-memory traffic.
    """

    def __init__(self, maxsize: int = 200_000):
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._lock = threading.Lock()
        self._entries: Dict[Hashable, Any] = {}
        self._hits = 0
        self._misses = 0
        self._disk_hits = 0

    def lookup(self, key: Hashable) -> Tuple[Optional[Any], bool]:
        """``(value, from_disk)``: the cached value for ``key`` (``None``
        on a miss; no entry is ``None``) and whether the persistent
        backend served it rather than the in-process front."""
        with self._lock:
            value = self._entries.pop(key, None)
            if value is not None:
                # LRU refresh: re-insert so eviction tracks recency.
                self._entries[key] = value
                self._hits += 1
                return value, False
        # Front miss: consult the backend outside the lock (disk I/O).
        value = self._backend_lookup(key)
        with self._lock:
            if value is None:
                self._misses += 1
                return None, False
            self._hits += 1
            self._disk_hits += 1
            # A racing thread may have promoted/stored the key while the
            # backend read ran; either way re-insert it most recent.
            self._insert(key, value)
        return value, True

    def store(self, key: Hashable, value: Any) -> None:
        """Record ``value`` for ``key``, evicting the least recently
        used entry once ``maxsize`` is reached."""
        with self._lock:
            self._insert(key, value)
        self._backend_store(key, value)

    def _insert(self, key: Hashable, value: Any) -> None:
        """Put ``key`` most recent (caller holds the lock)."""
        entries = self._entries
        if entries.pop(key, None) is None and len(entries) >= self.maxsize:
            del entries[next(iter(entries))]
        entries[key] = value

    # ------------------------------------------------------------------
    # Persistence hooks (no-ops for the in-memory cache)
    # ------------------------------------------------------------------
    def _backend_lookup(self, key: Hashable) -> Optional[Any]:
        """Second-level lookup consulted on an in-memory miss; the
        persistent subclass reads the on-disk store here."""
        return None

    def _backend_store(self, key: Hashable, value: Any) -> None:
        """Write-through hook invoked by :meth:`store`."""

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> CacheStats:
        """The counters (one consistent snapshot)."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                entries=len(self._entries),
                disk_hits=self._disk_hits,
            )

    def stats_dict(self) -> Dict[str, Dict[str, int]]:
        """JSON-friendly form of :meth:`stats`: ``{"jobs": {...}}``."""
        stats = self.stats()
        return {
            CATEGORY: {
                "hits": stats.hits,
                "misses": stats.misses,
                "disk_hits": stats.disk_hits,
                "entries": stats.entries,
            }
        }

    def clear(self) -> None:
        """Drop all in-memory entries and reset the counters (the
        persistent backend, if any, is left untouched)."""
        with self._lock:
            self._entries.clear()
            self._hits = self._misses = self._disk_hits = 0

    def __repr__(self) -> str:
        return f"{type(self).__name__}({CATEGORY}={len(self._entries)})"


def merge_stats(
    totals: Dict[str, Dict[str, int]], update: Dict[str, Dict[str, int]]
) -> Dict[str, Dict[str, int]]:
    """Accumulate ``{category: counters}`` dicts (used to aggregate the
    per-job records of a batch into one report).  Fields absent from
    ``update`` (per-job records carry no ``entries``) count as zero."""
    for category, counters in update.items():
        bucket = totals.setdefault(category, dict.fromkeys(STAT_FIELDS, 0))
        for field in STAT_FIELDS:
            bucket[field] += counters.get(field, 0)
    return totals
