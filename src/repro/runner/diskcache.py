"""Cross-process persistent backend for :class:`AnalysisCache`.

The in-memory cache of :mod:`repro.runner.cache` dies with its process,
so content-identical jobs landing on different workers — or in the next
``repro batch`` invocation — would be analyzed again from scratch.
This module adds a shared, persistent second level: a content-addressed
on-disk store of whole job results keyed by the same
:func:`~repro.runner.jobs.job_result_key` tuples the in-memory cache
uses, safe under concurrent writers.

Design:

* **Addressing** — an entry lives at
  ``<root>/jobs/<kk>/<key-digest>.bin`` where ``key-digest`` is the
  SHA-256 of the cache key's canonical ``repr`` (keys are tuples of
  str/int/bool and int tuples, whose ``repr`` is stable across
  processes) and ``kk`` its first two hex digits (fan-out, so
  directories stay small during million-entry sweeps).  Other
  directories under ``<root>`` are neither read, reported nor pruned.
* **Atomicity** — writers serialize into a unique temp file in the same
  directory and ``os.replace`` it into place, so a concurrently reading
  worker sees either the complete entry or none; last writer wins
  (writers racing on one key write identical bytes anyway).
* **Integrity** — the payload is framed with a magic/version line and
  its own SHA-256.  A truncated, torn or poisoned entry fails the frame
  check, is dropped (best-effort unlink) and counted, and the caller
  recomputes: corruption costs work, never correctness.
* **Trust** — payloads are pickles, so the cache directory is trusted
  local state like any build cache (the checksum detects corruption,
  not an adversary who can already write arbitrary local files).

Invalidation is free: keys start with the system content digest, so any
change to a system's content addresses different entries, and stale
ones are simply never read again.  Delete the directory to reclaim
space.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import pickle
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Dict, Hashable, Optional

from .cache import CATEGORY, AnalysisCache

#: Format marker of on-disk entries; bump on incompatible layout change
#: (old entries then fail the frame check and are recomputed).
MAGIC = b"repro-analysis-cache v1\n"


def key_digest(key: Hashable) -> str:
    """SHA-256 hex digest of the cache key's canonical ``repr``.

    Job cache keys are tuples of primitives (the system content digest
    plus the chain and analysis parameters), so ``repr`` is deterministic
    across processes and Python builds — unlike ``hash()``, which is
    salted per process for strings.
    """
    return hashlib.sha256(repr(key).encode("utf-8")).hexdigest()


def encode_entry(value: Any) -> bytes:
    """Frame ``value`` for disk: magic, payload digest, pickle payload."""
    payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    digest = hashlib.sha256(payload).hexdigest()
    return MAGIC + digest.encode("ascii") + b"\n" + payload


def decode_entry(blob: bytes) -> Any:
    """Inverse of :func:`encode_entry`.

    Raises ``ValueError`` when the frame is truncated, the digest does
    not match the payload, or the payload does not unpickle — the three
    faces of a torn or poisoned entry.
    """
    if not blob.startswith(MAGIC):
        raise ValueError("bad magic (foreign or truncated cache entry)")
    body = blob[len(MAGIC) :]
    digest, sep, payload = body.partition(b"\n")
    if not sep:
        raise ValueError("truncated cache entry (no digest line)")
    if hashlib.sha256(payload).hexdigest().encode("ascii") != digest:
        raise ValueError("cache entry payload digest mismatch")
    try:
        return pickle.loads(payload)
    except Exception as exc:
        raise ValueError(f"cache entry does not unpickle: {exc}") from exc


def _entry_files(entry_dir: Path):
    """Every file under the fan-out dirs, including the dot-prefixed
    temp files ``glob`` would skip."""
    for fanout in entry_dir.glob("??"):
        try:
            yield from (p for p in fanout.iterdir() if p.is_file())
        except OSError:
            continue  # racing pruner removed the directory


class DiskStore:
    """The low-level content-addressed file store.

    Any number of processes — and, within a process, any number of
    threads — may share the same ``root`` concurrently: reads see whole
    entries or none (atomic ``os.replace`` publication), and the
    ``corrupt_dropped`` counter of entries that failed the integrity
    check and were discarded is incremented under a lock so concurrent
    readers never lose a count.
    """

    def __init__(self, root: os.PathLike, *, create: bool = True):
        self.root = Path(root)
        self.entry_dir = self.root / CATEGORY
        self.corrupt_dropped = 0
        self._counter_lock = threading.Lock()
        if create:
            self.entry_dir.mkdir(parents=True, exist_ok=True)
        # With ``create=False`` (read-only inspection, e.g. ``repro
        # cache``) nothing is written up front; ``store`` still creates
        # directories on demand, and the stats/prune walks tolerate an
        # absent entry directory.

    def path_for(self, key: Hashable) -> Path:
        digest = key_digest(key)
        return self.entry_dir / digest[:2] / f"{digest}.bin"

    def load(self, key: Hashable) -> Optional[Any]:
        """The stored value, or ``None`` on miss or corruption (the
        corrupt file is dropped so the recomputed value replaces it)."""
        path = self.path_for(key)
        try:
            blob = path.read_bytes()
        except OSError:
            return None
        try:
            return decode_entry(blob)
        except ValueError:
            with self._counter_lock:
                self.corrupt_dropped += 1
            with contextlib.suppress(OSError):
                path.unlink()
            return None

    def store(self, key: Hashable, value: Any) -> None:
        """Atomically publish ``value``: a reader either sees the whole
        entry or none, never a torn write."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        blob = encode_entry(value)
        fd, tmp_name = tempfile.mkstemp(
            prefix=f".{path.stem}-", suffix=".tmp", dir=path.parent
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
            os.replace(tmp_name, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp_name)
            raise

    def category_stats(self) -> Dict[str, Dict[str, int]]:
        """``{"jobs": {...}}``: entry count and byte footprint, plus
        stray temp files left by crashed writers (reported, not counted
        as entries) — the data source of ``repro cache``."""
        entries = 0
        size = 0
        stale_tmp = 0
        for path in _entry_files(self.entry_dir):
            try:
                file_size = path.stat().st_size
            except OSError:
                continue  # racing writer/pruner; skip
            if path.suffix == ".bin":
                entries += 1
                size += file_size
            elif path.suffix == ".tmp":
                stale_tmp += 1
        return {CATEGORY: {"entries": entries, "bytes": size, "stale_tmp": stale_tmp}}

    def prune_older_than(
        self, max_age_seconds: float, *, now: Optional[float] = None
    ) -> Dict[str, int]:
        """Delete entries whose mtime is older than ``max_age_seconds``
        (and stale temp files of the same age), returning
        ``{"removed": n, "bytes": b}``.

        Deletion is always safe: entries are pure memoization, so a
        pruned key merely recomputes on next use.  Concurrent readers
        racing a prune fall back to recomputation the same way they
        handle a corrupt entry.
        """
        if max_age_seconds < 0:
            raise ValueError(
                f"max_age_seconds must be >= 0, got {max_age_seconds}"
            )
        cutoff = (time.time() if now is None else now) - max_age_seconds
        count = 0
        size = 0
        for path in _entry_files(self.entry_dir):
            if path.suffix not in (".bin", ".tmp"):
                continue
            try:
                stat = path.stat()
            except OSError:
                continue
            if stat.st_mtime > cutoff:
                continue
            with contextlib.suppress(OSError):
                path.unlink()
                count += 1
                size += stat.st_size
        return {"removed": count, "bytes": size}


class PersistentAnalysisCache(AnalysisCache):
    """An :class:`AnalysisCache` whose second level is a shared on-disk
    :class:`DiskStore`.

    Lookups hit the in-process LRU front first (dict-fast); a front
    miss consults the disk store and promotes the entry, counting it as
    a ``disk_hit``.  Stores write through atomically, so every process
    pointed at the same directory — batch workers, later runs, other
    hosts on a shared filesystem — warm-starts from all prior work.
    """

    def __init__(self, cache_dir: os.PathLike, maxsize: int = 200_000):
        super().__init__(maxsize=maxsize)
        self.disk = DiskStore(cache_dir)

    @property
    def cache_dir(self) -> Path:
        return self.disk.root

    def _backend_lookup(self, key: Hashable) -> Optional[Any]:
        return self.disk.load(key)

    def _backend_store(self, key: Hashable, value: Any) -> None:
        self.disk.store(key, value)

    def __repr__(self) -> str:
        return f"{super().__repr__()[:-1]}, dir={str(self.disk.root)!r})"
