"""Bounded retry with exponential backoff — one policy object shared by
every layer that talks to something that can die mid-call.

The shard coordinator retries chunks whose worker crashed or could not
be reached, the :class:`~repro.service.http.ServiceClient` of ``repro
analyze --server`` retries transport failures against a restarting
daemon, and both mean the same by "retry": a *bounded* number of
attempts with exponentially growing, capped delays — never an unbounded
hot loop against a dead peer.  A remote shard worker's client makes one
attempt per chunk attempt, so one budget governs each chunk.

Analysis work is pure (a job's deterministic result is a function of
its content identity), so re-running a request or a chunk is always
safe; the only question a policy answers is *how patiently*.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to retry and how long to wait between attempts.

    ``attempts`` counts *total* tries (1 = no retries).  The delay
    before retry ``n`` (1-based: the wait after the ``n``-th failure)
    is ``base_delay * multiplier ** (n - 1)``, capped at ``max_delay``.
    ``base_delay=0`` gives immediate retries (the test configuration).
    """

    attempts: int = 3
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts}")
        if self.base_delay < 0:
            raise ValueError(f"base_delay must be >= 0, got {self.base_delay}")
        if self.multiplier < 1:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        if self.max_delay < 0:
            raise ValueError(f"max_delay must be >= 0, got {self.max_delay}")

    def delay(self, retry: int) -> float:
        """Backoff before the ``retry``-th retry (1-based)."""
        if retry < 1:
            raise ValueError(f"retry must be >= 1, got {retry}")
        return min(self.base_delay * self.multiplier ** (retry - 1), self.max_delay)

    def retries_left(self, failures: int) -> bool:
        """Whether another attempt is allowed after ``failures`` tries."""
        return failures < self.attempts


#: Retry nothing: one attempt, the pre-policy behavior.
NO_RETRY = RetryPolicy(attempts=1, base_delay=0.0)
