"""The uniprocessor system: a set of disjoint task chains under SPP."""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence, Tuple

from .chain import TaskChain
from .task import Task


class System:
    """A uniprocessor SPP system made of disjoint task chains (Sec. II).

    The constructor validates the structural requirements of the paper's
    model: chains are disjoint (a task belongs to exactly one chain),
    names are unique, and — unless ``allow_shared_priorities`` — task
    priorities are pairwise distinct (the usual SPP assumption; the
    paper's strict inequalities between priorities presume it).
    """

    def __init__(
        self,
        chains: Sequence[TaskChain],
        name: str = "system",
        allow_shared_priorities: bool = False,
    ):
        self.name = name
        self.chains: Tuple[TaskChain, ...] = tuple(chains)
        if not self.chains:
            raise ValueError("a system needs at least one chain")
        self._by_name: Dict[str, TaskChain] = {}
        task_names = set()
        priorities: Dict[float, str] = {}
        for chain in self.chains:
            if chain.name in self._by_name:
                raise ValueError(f"duplicate chain name {chain.name!r}")
            self._by_name[chain.name] = chain
            for task in chain.tasks:
                if task.name in task_names:
                    raise ValueError(
                        f"task {task.name!r} appears in more than one chain "
                        "(chains must be disjoint)"
                    )
                task_names.add(task.name)
                if task.priority in priorities and not allow_shared_priorities:
                    raise ValueError(
                        f"priority {task.priority} shared by {task.name!r} "
                        f"and {priorities[task.priority]!r}; pass "
                        "allow_shared_priorities=True to permit ties"
                    )
                priorities.setdefault(task.priority, task.name)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[TaskChain]:
        return iter(self.chains)

    def __len__(self) -> int:
        return len(self.chains)

    def __getitem__(self, name: str) -> TaskChain:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(
                f"no chain named {name!r}; have {sorted(self._by_name)}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    @property
    def tasks(self) -> List[Task]:
        """All tasks of the system in chain order."""
        return [task for chain in self.chains for task in chain.tasks]

    @property
    def overload_chains(self) -> Tuple[TaskChain, ...]:
        """``C_over``: the identified overload chains."""
        return tuple(c for c in self.chains if c.overload)

    @property
    def typical_chains(self) -> Tuple[TaskChain, ...]:
        """All non-overload chains (the *typical* part of the system)."""
        return tuple(c for c in self.chains if not c.overload)

    def others(self, chain: TaskChain) -> Tuple[TaskChain, ...]:
        """All chains except ``chain``."""
        return tuple(c for c in self.chains if c.name != chain.name)

    # ------------------------------------------------------------------
    # Derived systems
    # ------------------------------------------------------------------
    def without_overload(self) -> "System":
        """The *typical* system with every overload chain abstracted away
        (the second analysis of Experiment 1)."""
        typical = self.typical_chains
        if not typical:
            raise ValueError("system consists only of overload chains")
        return System(
            typical, name=f"{self.name}-typical", allow_shared_priorities=True
        )

    def with_priorities(self, assignment: Dict[str, float]) -> "System":
        """A copy of the system with task priorities replaced according
        to ``assignment`` (task name -> new priority).

        Every task of the system must be covered; this is the primitive
        under the random priority-assignment experiment (Experiment 2).
        """
        missing = [t.name for t in self.tasks if t.name not in assignment]
        if missing:
            raise ValueError(f"assignment misses tasks {missing}")
        new_chains = []
        for chain in self.chains:
            new_tasks = [t.with_priority(assignment[t.name]) for t in chain.tasks]
            new_chains.append(chain.with_tasks(new_tasks))
        return System(new_chains, name=self.name)

    # ------------------------------------------------------------------
    # Content identity
    # ------------------------------------------------------------------
    def content_digest(self) -> str:
        """SHA-256 over the canonical JSON serialization of the system.

        Two systems with identical chains, tasks, activation models and
        names share a digest; the runner's :class:`AnalysisCache` uses it
        to key whole job results by *content* rather than by object
        identity.  Computed lazily and cached on the instance
        (systems are immutable after construction by convention — every
        mutator returns a copy).
        """
        cached = self.__dict__.get("_content_digest")
        if cached is None:
            import hashlib

            from .serialization import canonical_system_json

            canonical = canonical_system_json(self)
            cached = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
            self.__dict__["_content_digest"] = cached
        return cached

    # ------------------------------------------------------------------
    # Global properties
    # ------------------------------------------------------------------
    def utilization(self) -> float:
        """Total long-run processor utilization (all chains)."""
        return sum(chain.utilization() for chain in self.chains)

    def typical_utilization(self) -> float:
        """Utilization of the non-overload chains only."""
        return sum(chain.utilization() for chain in self.typical_chains)

    def validate(self) -> None:
        """Full validation: structure (done at construction) plus
        activation-model well-formedness and a utilization sanity check.
        """
        for chain in self.chains:
            chain.activation.validate()
        if self.utilization() >= 1.0:
            raise ValueError(
                f"system utilization {self.utilization():.3f} >= 1; "
                "busy windows may diverge"
            )

    def __repr__(self) -> str:
        inner = ", ".join(c.name for c in self.chains)
        return f"System({self.name!r}: {inner})"
