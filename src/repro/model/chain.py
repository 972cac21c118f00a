"""Task chains: sequences of tasks that activate each other (Sec. II)."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence, Tuple

from ..arrivals import EventModel
from .task import Task


class ChainKind(enum.Enum):
    """Execution semantics of a chain (Sec. II).

    SYNCHRONOUS:
        An incoming activation cannot be processed until the previous
        instance of the chain has finished; tasks of the chain never
        preempt each other.
    ASYNCHRONOUS:
        Incoming activations are processed independently; higher-priority
        tasks of the chain may preempt lower-priority ones across
        instances.
    """

    SYNCHRONOUS = "synchronous"
    ASYNCHRONOUS = "asynchronous"


@dataclass(frozen=True)
class TaskChain:
    """A finite sequence of distinct tasks activating one another.

    Attributes
    ----------
    name:
        Unique chain identifier (``sigma_a`` etc.).
    tasks:
        The ordered tasks ``(tau^1, ..., tau^n)``; the first is the
        *header* task, the last the *tail* task.
    activation:
        Arrival model at the input of the header task.
    deadline:
        Relative end-to-end deadline ``D``; ``math.inf`` when the chain
        has no deadline of interest (the case study's overload chains).
    kind:
        Synchronous or asynchronous execution semantics.
    overload:
        Whether the chain belongs to the identified overload set
        ``C_over`` (rarely-activated chains that cause transient
        overload).
    """

    name: str
    tasks: Tuple[Task, ...]
    activation: EventModel
    deadline: float = math.inf
    kind: ChainKind = ChainKind.SYNCHRONOUS
    overload: bool = False

    def __init__(
        self,
        name: str,
        tasks: Sequence[Task],
        activation: EventModel,
        deadline: float = math.inf,
        kind: ChainKind = ChainKind.SYNCHRONOUS,
        overload: bool = False,
    ):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "tasks", tuple(tasks))
        object.__setattr__(self, "activation", activation)
        object.__setattr__(self, "deadline", deadline)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "overload", overload)
        self._validate()

    def _validate(self) -> None:
        if not self.name:
            raise ValueError("chain name must be non-empty")
        if not self.tasks:
            raise ValueError(f"chain {self.name} has no tasks")
        names = [t.name for t in self.tasks]
        if len(set(names)) != len(names):
            raise ValueError(
                f"chain {self.name}: tasks must be distinct, got {names}"
            )
        # NaN fails the comparison; +inf means "no deadline".
        if not self.deadline > 0:
            raise ValueError(
                f"chain {self.name}: deadline must be positive, got {self.deadline!r}"
            )
        if not isinstance(self.kind, ChainKind):
            raise TypeError(f"chain {self.name}: kind must be a ChainKind")

    # ------------------------------------------------------------------
    # Structural accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.tasks)

    def __iter__(self) -> Iterator[Task]:
        return iter(self.tasks)

    def __getitem__(self, index: int) -> Task:
        return self.tasks[index]

    @property
    def header(self) -> Task:
        """The first task of the chain."""
        return self.tasks[0]

    @property
    def tail(self) -> Task:
        """The last task of the chain."""
        return self.tasks[-1]

    # Tasks and chains are frozen, so the two constants every Theorem 1
    # evaluation reads are computed once per chain.
    @cached_property
    def total_wcet(self) -> float:
        """``C_a``: the summed WCET of the whole chain."""
        return sum(t.wcet for t in self.tasks)

    @cached_property
    def min_priority(self) -> float:
        """The lowest priority among the chain's tasks."""
        return min(t.priority for t in self.tasks)

    @property
    def max_priority(self) -> float:
        """The highest priority among the chain's tasks."""
        return max(t.priority for t in self.tasks)

    @property
    def is_synchronous(self) -> bool:
        return self.kind is ChainKind.SYNCHRONOUS

    @property
    def is_asynchronous(self) -> bool:
        return self.kind is ChainKind.ASYNCHRONOUS

    @property
    def has_deadline(self) -> bool:
        return not math.isinf(self.deadline)

    def utilization(self) -> float:
        """Long-run processor share demanded by the chain."""
        return self.total_wcet * self.activation.rate()

    # ------------------------------------------------------------------
    # Derived chains
    # ------------------------------------------------------------------
    def with_tasks(self, tasks: Sequence[Task]) -> "TaskChain":
        """A copy of the chain with a different task list (same length
        not required) — used by priority-permutation experiments."""
        return TaskChain(
            self.name, tasks, self.activation, self.deadline, self.kind, self.overload
        )

    def with_activation(self, activation: EventModel) -> "TaskChain":
        """A copy with a different arrival model (used to swap printed
        vs calibrated overload curves in the benchmarks)."""
        return TaskChain(
            self.name, self.tasks, activation, self.deadline, self.kind, self.overload
        )

    def header_prefix(self) -> Tuple[Task, ...]:
        """``s_header_a`` (Def. 5, first bullet): the prefix of the chain
        up to but excluding the first occurrence of the chain's *lowest*
        priority task.  Empty when the header task itself has the lowest
        priority.

        Only meaningful for asynchronous chains (the self-interference
        term of Theorem 1), but structurally defined for all.
        """
        lowest = self.min_priority
        prefix = []
        for task in self.tasks:
            if task.priority == lowest:
                break
            prefix.append(task)
        return tuple(prefix)

    def __str__(self) -> str:
        inner = ", ".join(str(t) for t in self.tasks)
        flags = []
        if self.overload:
            flags.append("overload")
        flags.append(self.kind.value)
        joined = ",".join(flags)
        return f"{self.name}({inner})<{joined}>"
