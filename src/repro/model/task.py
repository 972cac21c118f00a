"""Tasks: the atomic schedulable units of the system model (Sec. II).

A task is defined by a priority and an upper bound on its execution time
(the paper takes 0 as the lower bound; we allow an explicit ``bcet`` for
simulation purposes, defaulting to the WCET so that analysis-facing
behaviour matches the paper exactly).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..arrivals.base import require_finite


@dataclass(frozen=True)
class Task:
    """A single task within a chain.

    Attributes
    ----------
    name:
        Unique human-readable identifier (e.g. ``"tau_c^1"``).
    priority:
        Scheduling priority; **larger values mean higher priority**
        (matching the paper's case study, where priority 13 preempts
        priority 1).
    wcet:
        Upper bound on execution time, ``C`` in the paper.
    bcet:
        Lower bound on execution time, used only by the simulator.
        Defaults to ``wcet`` (deterministic execution).
    """

    name: str
    priority: float
    wcet: float
    bcet: float = field(default=-1.0)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("task name must be non-empty")
        require_finite(self.priority, f"task {self.name}: priority")
        require_finite(self.wcet, f"task {self.name}: wcet")
        require_finite(self.bcet, f"task {self.name}: bcet")
        if self.wcet < 0:
            raise ValueError(
                f"task {self.name}: wcet must be non-negative, got {self.wcet}"
            )
        if self.bcet == -1.0:
            object.__setattr__(self, "bcet", self.wcet)
        if self.bcet < 0:
            raise ValueError(
                f"task {self.name}: bcet must be non-negative, got {self.bcet}"
            )
        if self.bcet > self.wcet:
            raise ValueError(
                f"task {self.name}: bcet {self.bcet} exceeds wcet {self.wcet}"
            )

    def with_priority(self, priority: float) -> "Task":
        """A copy of this task with a different priority (used by the
        random priority-assignment experiments)."""
        return Task(self.name, priority, self.wcet, self.bcet)

    def __str__(self) -> str:
        return f"{self.name}[{self.priority}:{self.wcet}]"
