"""The shard scheduler: a lock-protected retry queue with backoff.

Separated from :mod:`repro.runner.shard` so the scheduling policy —
eligibility and backoff — is one small auditable unit with no process
or HTTP machinery in sight.  All methods take the lock; dispatch
threads are the only callers.  An idle dispatch thread blocks on a
condition of that lock until a chunk is released or the next queued
retry becomes eligible, so no dispatch thread polls.

Chunk lifecycle::

    pending --(acquire)--> running --(release_success)--> completed
       ^                     |
       |                     +--(release_failure, retryable,
       +---- backoff delay ------ budget left)
                             |
                             +--(budget spent / not retryable)--> failure

Each chunk runs on one worker at a time: a running chunk is never
handed to a second worker.  A chunk whose worker died goes back to the
queue and may run next on any worker.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Tuple

from .retry import RetryPolicy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints
    from .jobs import JobResult
    from .shard import ShardChunk


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
        self.results: Dict[int, List[JobResult]] = {}
        self.failure: Optional[ShardExecutionError] = None
        self.retries = 0

    # ------------------------------------------------------------------
    # Dispatch-side protocol
    # ------------------------------------------------------------------
    def acquire(self, worker: str):
        """The next action for ``worker``:

        * ``("run", chunk)`` — run this chunk now;
        * ``("wait", seconds)`` — nothing eligible yet: call
          :meth:`wait` with ``seconds``, the time until the earliest
          queued retry becomes eligible (``None`` when no retry is
          queued: only a release can give ``worker`` work);
        * ``("done", None)`` — the run is over (completed or failed).
        """
        with self._lock:
            self._seen[worker] = self._releases
            if self.failure is not None or len(self.results) == self._total:
                return ("done", None)
            now = time.monotonic()
            for _ in range(len(self._pending)):
                chunk, not_before = self._pending.popleft()
                if not_before <= now:
                    return ("run", chunk)
                self._pending.append((chunk, not_before))
            if not self._pending:
                return ("wait", None)
            earliest = min(not_before for _, not_before in self._pending)
            return ("wait", max(0.0, earliest - now))

    def wait(self, worker: str, seconds: Optional[float]) -> None:
        """Block ``worker``'s dispatch thread until a chunk is released
        after its last :meth:`acquire`, or ``seconds`` pass (``None``:
        no time limit)."""
        with self._released:
            seen = self._seen[worker]
            self._released.wait_for(lambda: self._releases != seen, seconds)

    def release_success(self, chunk: ShardChunk, results: List[JobResult]) -> None:
        """Record a completed chunk."""
        with self._lock:
            self._notify()
            self.results[chunk.index] = results

    def release_failure(
        self, chunk: ShardChunk, cause: BaseException, *, retryable: bool
    ) -> None:
        """Record a failed chunk attempt: requeue with backoff while
        the budget lasts, else mark the run failed."""
        with self._lock:
            self._notify()
            self._attempts[chunk.index] += 1
            failures = self._attempts[chunk.index]
            if retryable and self._retry.retries_left(failures):
                self.retries += 1
                not_before = time.monotonic() + self._retry.delay(failures)
                self._pending.append((chunk, not_before))
            elif self.failure is None:
                self.failure = ShardExecutionError(chunk, cause, failures)

    def _notify(self) -> None:
        """Wake every waiting dispatch thread once the lock is free
        (lock held)."""
        self._releases += 1
        self._released.notify_all()
