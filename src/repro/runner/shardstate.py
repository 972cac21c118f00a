"""The shard scheduler: a lock-protected chunk state machine.

Separated from :mod:`repro.runner.shard` so the scheduling policy —
eligibility, backoff, stealing, first-completion-wins — is one small
auditable unit with no process or HTTP machinery in sight.  All methods
take the lock; dispatch threads are the only callers.  An idle
dispatch thread blocks on a condition of that lock until a chunk is
released or its :meth:`_ShardState.acquire` deadline passes (the next
retry becoming eligible, or the oldest running chunk becoming overdue),
so no dispatch thread polls.

Chunk lifecycle::

    pending --(acquire)--> running --(release_success)--> completed
       ^                     |
       |                     +--(release_failure, retryable,
       +---- backoff delay ------ budget left)
                             |
                             +--(budget spent / not retryable)--> failure

A running chunk can gain a *second* claimant through stealing; the
first claimant to complete wins and later outcomes for the chunk —
successes and failures alike — are discarded.  Only an *overdue* chunk
is stolen: one that has run for :data:`OVERDUE_FACTOR` (2) times the
median duration of the chunks completed so far and at least
:data:`OVERDUE_MIN_S` (any running chunk, before the first completes).
A healthy run therefore ends with its last original chunk instead of
waiting out a duplicate of it.
"""

from __future__ import annotations

import bisect
import threading
import time
from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Set, Tuple

from .retry import RetryPolicy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints
    from .jobs import JobResult
    from .shard import ShardChunk

#: Maximum concurrent claimants per chunk (the original + one thief).
MAX_CLAIMANTS = 2

#: A running chunk is overdue, and may be stolen, once it has run this
#: many times the median duration of the run's completed chunks.
OVERDUE_FACTOR = 2.0

#: ... and at least this many seconds.  Twice a median of a few
#: milliseconds is host scheduling noise, not a straggler, and a
#: duplicate does not end the run sooner: the coordinator still waits
#: for the original claimant.
OVERDUE_MIN_S = 0.05


class WorkerUnavailable(RuntimeError):
    """A shard worker died or became unreachable mid-chunk — the
    *retryable* failure mode: the chunk itself is fine and can be
    re-run, here or on another worker."""


class ShardExecutionError(RuntimeError):
    """A chunk failed terminally: its retry budget is spent, or it
    failed in a non-retryable way (job-level bug).  Carries the chunk
    and the last underlying exception as ``cause``."""

    def __init__(self, chunk: ShardChunk, cause: BaseException, attempts: int):
        self.chunk = chunk
        self.cause = cause
        self.attempts = attempts
        super().__init__(
            f"shard chunk {chunk.index} ({len(chunk.jobs)} jobs) failed "
            f"after {attempts} attempt(s): {type(cause).__name__}: {cause}"
        )


class _Running:
    """Bookkeeping for one in-flight chunk."""

    __slots__ = ("chunk", "claimants", "started")

    def __init__(self, chunk: ShardChunk, claimant: str, started: float):
        self.chunk = chunk
        self.claimants: Set[str] = {claimant}
        self.started = started


class _ShardState:
    """Shared scheduler state for one coordinator run."""

    def __init__(self, chunks: List[ShardChunk], retry: RetryPolicy):
        self._lock = threading.Lock()
        #: Notified on every release; idle dispatch threads wait on it.
        self._released = threading.Condition(self._lock)
        #: Releases so far, and the count each worker last acquired at:
        #: a release between a worker's ``acquire`` and its ``wait``
        #: ends that wait at once instead of being missed.
        self._releases = 0
        self._seen: Dict[str, int] = {}
        self._retry = retry
        self._total = len(chunks)
        #: (chunk, not_before): eligible once the clock passes not_before.
        self._pending: Deque[Tuple[ShardChunk, float]] = deque(
            (chunk, 0.0) for chunk in chunks
        )
        self._attempts: Dict[int, int] = {chunk.index: 0 for chunk in chunks}
        self._running: Dict[int, _Running] = {}
        #: Durations of the completed chunks, sorted (their median sets
        #: when a running chunk is overdue).
        self._durations: List[float] = []
        self.results: Dict[int, List[JobResult]] = {}
        self.failure: Optional[ShardExecutionError] = None
        self.retries = 0
        self.steals = 0

    def counters(self) -> Dict[str, int]:
        with self._lock:
            return {"retries": self.retries, "steals": self.steals}

    # ------------------------------------------------------------------
    # Dispatch-side protocol
    # ------------------------------------------------------------------
    def acquire(self, worker: str):
        """The next action for ``worker``:

        * ``("run", (chunk, stolen))`` — run this chunk now;
        * ``("wait", seconds)`` — nothing eligible yet: call
          :meth:`wait` with ``seconds``, the time until the next retry
          becomes eligible or the oldest chunk ``worker`` could steal
          becomes overdue (``None`` when neither will happen);
        * ``("done", None)`` — the run is over (completed or failed).
        """
        with self._lock:
            self._seen[worker] = self._releases
            if self.failure is not None or len(self.results) == self._total:
                return ("done", None)
            now = time.monotonic()
            chunk = self._pop_eligible(now)
            if chunk is not None:
                self._claim(chunk, worker, now)
                return ("run", (chunk, False))
            overdue_age = self._overdue_age()
            stolen = self._steal(worker, now, overdue_age)
            if stolen is not None:
                self.steals += 1
                return ("run", (stolen, True))
            return ("wait", self._next_deadline(worker, now, overdue_age))

    def wait(self, worker: str, seconds: Optional[float]) -> None:
        """Block ``worker``'s dispatch thread until a chunk is released
        after its last :meth:`acquire`, or ``seconds`` pass (``None``:
        no time limit)."""
        with self._released:
            seen = self._seen[worker]
            self._released.wait_for(lambda: self._releases != seen, seconds)

    def release_success(
        self, chunk: ShardChunk, worker: str, results: List[JobResult]
    ) -> bool:
        """Record a completed chunk; returns whether this completion
        was the first (kept) or a discarded duplicate."""
        with self._lock:
            self._notify()
            entry = self._running.get(chunk.index)
            self._unclaim(chunk, worker)
            if chunk.index in self.results:
                return False
            self.results[chunk.index] = results
            if entry is not None:
                bisect.insort(self._durations, time.monotonic() - entry.started)
            return True

    def release_failure(
        self,
        chunk: ShardChunk,
        worker: str,
        cause: BaseException,
        *,
        retryable: bool,
    ) -> None:
        """Record a failed chunk attempt: requeue with backoff while
        the budget lasts, else mark the run failed."""
        with self._lock:
            self._notify()
            self._unclaim(chunk, worker)
            if chunk.index in self.results:
                return  # another claimant already delivered it
            if not retryable:
                if self.failure is None:
                    self.failure = ShardExecutionError(
                        chunk, cause, self._attempts[chunk.index] + 1
                    )
                return
            self._attempts[chunk.index] += 1
            failures = self._attempts[chunk.index]
            if chunk.index in self._running:
                # A thief (or the original claimant) is still on it;
                # its own release decides what happens next.
                return
            if not self._retry.retries_left(failures):
                if self.failure is None:
                    self.failure = ShardExecutionError(chunk, cause, failures)
                return
            self.retries += 1
            not_before = time.monotonic() + self._retry.delay(failures)
            self._pending.append((chunk, not_before))

    # ------------------------------------------------------------------
    # Internals (lock held)
    # ------------------------------------------------------------------
    def _notify(self) -> None:
        """Wake every waiting dispatch thread once the lock is free."""
        self._releases += 1
        self._released.notify_all()

    def _pop_eligible(self, now: float) -> Optional[ShardChunk]:
        for _ in range(len(self._pending)):
            chunk, not_before = self._pending.popleft()
            if chunk.index in self.results:
                continue  # completed by a thief while queued for retry
            if not_before <= now:
                return chunk
            self._pending.append((chunk, not_before))
        return None

    def _claim(self, chunk: ShardChunk, worker: str, now: float) -> None:
        entry = self._running.get(chunk.index)
        if entry is None:
            self._running[chunk.index] = _Running(chunk, worker, now)
        else:  # pragma: no cover - retry while a thief still runs it
            entry.claimants.add(worker)

    def _unclaim(self, chunk: ShardChunk, worker: str) -> None:
        entry = self._running.get(chunk.index)
        if entry is None:
            return
        entry.claimants.discard(worker)
        if not entry.claimants:
            del self._running[chunk.index]

    def _overdue_age(self) -> float:
        """How long a chunk must have run before it is overdue:
        :data:`OVERDUE_FACTOR` times the median completed duration, but
        at least :data:`OVERDUE_MIN_S`, or 0 before any chunk completes
        (so a lone wedged chunk is still covered at once)."""
        done = self._durations
        if not done:
            return 0.0
        half = len(done) // 2
        # The middle duration, or the mean of the middle two.
        median = (done[half] + done[-half - 1]) / 2
        return max(OVERDUE_MIN_S, OVERDUE_FACTOR * median)

    def _stealable(self, worker: str) -> List[_Running]:
        """Running chunks ``worker`` may duplicate once overdue: not
        its own, under the claimant cap :data:`MAX_CLAIMANTS`."""
        return [
            entry
            for entry in self._running.values()
            if worker not in entry.claimants
            and len(entry.claimants) < MAX_CLAIMANTS
            and entry.chunk.index not in self.results
        ]

    def _steal(
        self, worker: str, now: float, overdue_age: float
    ) -> Optional[ShardChunk]:
        """Duplicate the oldest chunk ``worker`` may steal, if it is
        overdue."""
        candidates = self._stealable(worker)
        if not candidates:
            return None
        entry = min(candidates, key=lambda e: e.started)
        if now < entry.started + overdue_age:
            return None
        entry.claimants.add(worker)
        return entry.chunk

    def _next_deadline(
        self, worker: str, now: float, overdue_age: float
    ) -> Optional[float]:
        """Seconds until a queued retry becomes eligible or a chunk
        ``worker`` may steal becomes overdue; ``None`` when neither is
        ahead (only a release can give ``worker`` work).  Called right
        after :meth:`_pop_eligible` found nothing, so every queued
        chunk is still owed and not yet eligible."""
        deadlines = [not_before for _, not_before in self._pending]
        deadlines.extend(e.started + overdue_age for e in self._stealable(worker))
        return max(0.0, min(deadlines) - now) if deadlines else None
