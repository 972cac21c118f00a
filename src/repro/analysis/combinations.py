"""Combinations of overload active segments (Defs. 9 and 10).

A *combination* is a set of active segments of the overload chains with
the structural restriction that active segments of the same chain must
belong to the same segment — Lemma 1 and 2 guarantee exactly those sets
can hit one busy window of the analyzed chain together.

Combination schedulability is decided by the linear criterion Eq. (5),
which reduces to a cost threshold: the combination is unschedulable iff
its summed WCET exceeds the minimum slack
``S* = min_q (delta_minus(q) + D - L(q))``.

The combination set is exponential in the number of overload chains, but
both the Eq. (5) threshold and the exact Def. 10 re-check depend only on
a combination's *cost signature* — the per-chain summed WCET of its
members — and both are **monotone** in that signature: adding cost never
turns an unschedulable combination schedulable.  This module therefore
offers:

* :func:`search_combinations` — the analysis' one classification: a
  dominance-pruned search that counts the unschedulable combinations
  and collects the inclusion-minimal ones *without* visiting every
  member: per chain the choices are sorted by cost and the
  schedulability frontier is located by binary search, while whole
  cones of the lattice are settled by evaluating their cheapest and
  costliest signatures only.  It is one depth-first walk that asks the
  predicate about one signature at a time;
* :func:`iter_combinations` — the whole set, streamed lazily, for
  reports that list the combinations of small systems.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

from ..model import System, TaskChain
from .segments import ActiveSegment, active_segments

#: Per-chain summed WCET of a combination, ``((chain_name, cost), ...)``
#: sorted by chain name with zero-cost chains dropped.  Both
#: schedulability criteria are pure monotone functions of this value.
CostSignature = Tuple[Tuple[str, float], ...]

#: One per-chain choice: a (possibly empty) tuple of active segments of
#: a single segment of that chain.
Choice = Tuple[ActiveSegment, ...]


@dataclass(frozen=True)
class Combination:
    """A set of overload active segments hitting one busy window."""

    segments: Tuple[ActiveSegment, ...]

    @cached_property
    def cost(self) -> float:
        """Summed WCET of the member active segments (the r-term of
        Eq. (3)/(5))."""
        return math.fsum(seg.wcet for seg in self.segments)

    @cached_property
    def keys(self) -> Tuple[Tuple[str, int], ...]:
        """Identity keys of the member segments (chain name, start)."""
        return tuple(seg.key for seg in self.segments)

    @cached_property
    def key_set(self) -> frozenset:
        """The member keys as a frozenset, computed once per instance
        (membership tests drive the packing-ILP row construction)."""
        return frozenset(self.keys)

    @cached_property
    def signature(self) -> CostSignature:
        """Per-chain summed WCET, the quantity schedulability actually
        depends on.  ``math.fsum`` makes the value independent of member
        order, so signatures are canonical memo keys."""
        per_chain: Dict[str, List[float]] = {}
        for seg in self.segments:
            per_chain.setdefault(seg.chain_name, []).append(seg.wcet)
        return tuple(
            (name, cost)
            for name in sorted(per_chain)
            if (cost := math.fsum(per_chain[name])) > 0
        )

    def uses(self, segment: ActiveSegment) -> bool:
        """True iff the combination contains ``segment``."""
        return segment.key in self.key_set

    def __len__(self) -> int:
        return len(self.segments)

    def __str__(self) -> str:
        inner = ", ".join(str(s) for s in self.segments)
        return f"{{{inner}}}"


def overload_active_segments(
    system: System, target: TaskChain
) -> Dict[str, List[ActiveSegment]]:
    """Active segments of every overload chain w.r.t. ``target``,
    keyed by chain name.

    Overload chains that arbitrarily interfere with ``target`` have no
    segment decomposition in the Def. 3 sense; for them the *whole chain*
    acts as a single segment (the case study: sigma_a and sigma_b each
    contribute one segment ``(tau^1 ... tau^n)``), which is then split
    into active segments by the Def. 8 rule.
    """
    from .interference import is_deferred

    result: Dict[str, List[ActiveSegment]] = {}
    for chain in system.overload_chains:
        if chain.name == target.name:
            continue
        if is_deferred(chain, target):
            result[chain.name] = active_segments(chain, target)
        else:
            # Whole chain is one segment; partition it by the tail rule.
            tail_priority = target.tail.priority
            segs: List[ActiveSegment] = []
            current: List = []
            current_start = 0
            for index, task in enumerate(chain.tasks):
                if not current:
                    current = [task]
                    current_start = index
                elif task.priority > tail_priority:
                    current.append(task)
                else:
                    segs.append(
                        ActiveSegment(chain.name, 0, current_start, tuple(current))
                    )
                    current = [task]
                    current_start = index
            if current:
                segs.append(ActiveSegment(chain.name, 0, current_start, tuple(current)))
            result[chain.name] = segs
    return result


def _choice_cost(choice: Choice) -> float:
    return math.fsum(seg.wcet for seg in choice)


def per_chain_choices(
    segments_by_chain: Dict[str, List[ActiveSegment]],
) -> List[Tuple[str, List[Choice]]]:
    """The Def. 9 choice list of every overload chain, in chain-name
    order.

    Per chain the choices are: nothing (the leading empty tuple), or any
    non-empty subset of the active segments of **one** segment of that
    chain.  The cross product of the per-chain choices, minus the
    all-empty assignment, is exactly the combination set.
    """
    named: List[Tuple[str, List[Choice]]] = []
    for chain_name in sorted(segments_by_chain):
        segs = segments_by_chain[chain_name]
        by_segment: Dict[int, List[ActiveSegment]] = {}
        for seg in segs:
            by_segment.setdefault(seg.segment_index, []).append(seg)
        choices: List[Choice] = [()]
        for seg_index in sorted(by_segment):
            group = by_segment[seg_index]
            for size in range(1, len(group) + 1):
                choices.extend(itertools.combinations(group, size))
        named.append((chain_name, choices))
    return named


def iter_combinations(
    segments_by_chain: Dict[str, List[ActiveSegment]],
) -> Iterator[Combination]:
    """All non-empty combinations per Def. 9, streamed lazily in the
    product order of the per-chain choice lists."""
    choice_lists = [choices for _, choices in per_chain_choices(segments_by_chain)]
    for assignment in itertools.product(*choice_lists):
        members = tuple(itertools.chain.from_iterable(assignment))
        if members:
            yield Combination(members)


@dataclass
class CombinationSearchResult:
    """Outcome of :func:`search_combinations`.

    ``total`` and ``unschedulable`` are exact set sizes; ``minimal``
    holds the inclusion-minimal unschedulable combinations (the only
    ones the Theorem 3 packing needs).  ``checks`` counts distinct
    signature evaluations and ``nodes`` visited lattice nodes — the
    observability hooks the hot-path benchmark reports.
    """

    total: int
    unschedulable: int
    minimal: List[Combination]
    checks: int = 0
    nodes: int = 0


def search_combinations(
    segments_by_chain: Dict[str, List[ActiveSegment]],
    flagged: Callable[[CostSignature], bool],
) -> CombinationSearchResult:
    """Count the unschedulable combinations and collect the
    inclusion-minimal ones under a **monotone** signature predicate.

    ``flagged(signature)`` must be monotone: raising any chain's cost
    (componentwise) never turns ``True`` into ``False``.  Both paper
    criteria — the Eq. (5) threshold and the exact Def. 10 fixed-point
    re-check — have this property, because every interference term is
    non-decreasing in the injected overload cost.

    The search walks the per-chain choice lattice in chain-name order.
    At every node it evaluates the subtree's cheapest signature (all
    remaining chains absent) and costliest signature (all remaining
    chains at maximum cost): a flagged cheapest signature settles the
    whole cone as unschedulable (and contributes at most one minimal
    candidate — the prefix itself); an unflagged costliest signature
    prunes the cone entirely.  In between, the chain's distinct choice
    costs are scanned by binary search for the two frontier indices, so
    only frontier-crossing cones recurse.  The counts are exact: the
    three cases partition every cone.

    The walk is one depth-first recursion; every distinct signature is
    evaluated once (``checks``), each through one ``flagged`` call.
    """
    chains = per_chain_choices(segments_by_chain)
    names = [name for name, _ in chains]
    d = len(chains)
    total = 1
    for _, choices in chains:
        total *= len(choices)
    total -= 1
    if total <= 0:
        return CombinationSearchResult(total=max(total, 0), unschedulable=0, minimal=[])

    memo: Dict[CostSignature, bool] = {}
    checks = 0

    def verdict(signature: CostSignature) -> bool:
        nonlocal checks
        value = memo.get(signature)
        if value is None:
            value = bool(flagged(signature))
            memo[signature] = value
            checks += 1
        return value

    if verdict(()):
        # Even the empty signature is flagged: every non-empty
        # combination is unschedulable, and the minimal ones are exactly
        # the singletons (no non-empty strict subsets exist).
        minimal = [
            Combination(choice)
            for _, choices in chains
            for choice in choices
            if len(choice) == 1
        ]
        minimal.sort(key=lambda c: tuple(sorted(c.keys)))
        return CombinationSearchResult(
            total=total, unschedulable=total, minimal=minimal, checks=checks, nodes=1
        )

    grouped: List[List[Tuple[float, List[Choice]]]] = []
    for _, choices in chains:
        buckets: Dict[float, List[Choice]] = {}
        for choice in choices:
            buckets.setdefault(_choice_cost(choice), []).append(choice)
        grouped.append(sorted(buckets.items()))
    max_costs = [entries[-1][0] for entries in grouped]
    suffix = [1] * (d + 1)
    for i in range(d - 1, -1, -1):
        suffix[i] = suffix[i + 1] * len(chains[i][1])

    count = 0
    nodes = 0
    candidates: List[Combination] = []

    def emit(parts: Sequence[Choice]) -> None:
        members = tuple(itertools.chain.from_iterable(parts))
        candidates.append(Combination(members))

    def frontier(
        entries: List[Tuple[float, List[Choice]]],
        predicate: Callable[[float], bool],
    ) -> int:
        """First index whose cost the monotone ``predicate`` flags."""
        lo, hi = 0, len(entries)
        while lo < hi:
            mid = (lo + hi) // 2
            if predicate(entries[mid][0]):
                hi = mid
            else:
                lo = mid + 1
        return lo

    def visit(i: int, parts: List[Choice], signature: CostSignature) -> None:
        nonlocal count, nodes
        nodes += 1
        if verdict(signature):
            # The prefix alone (all remaining chains absent) is already
            # unschedulable, so every completion is too; only the prefix
            # itself can be inclusion-minimal here.
            count += suffix[i]
            emit(parts)
            return
        if i == d:
            return  # complete and schedulable
        rest_max = tuple(
            (names[j], max_costs[j]) for j in range(i + 1, d) if max_costs[j] > 0
        )

        def with_cost(cost: float, extra: CostSignature) -> CostSignature:
            if cost > 0:
                return signature + ((names[i], cost),) + extra
            return signature + extra

        if not verdict(with_cost(max_costs[i], rest_max)):
            return  # costliest completion still schedulable: empty cone

        entries = grouped[i]
        t_all = frontier(entries, lambda c: verdict(with_cost(c, ())))
        t_any = frontier(entries, lambda c: verdict(with_cost(c, rest_max)))
        for cost, bucket in entries[t_all:]:
            # Cheapest completion flagged: the whole cone above each of
            # these choices is unschedulable.
            count += len(bucket) * suffix[i + 1]
            for choice in bucket:
                emit(parts + [choice])
        for cost, bucket in entries[t_any:t_all]:
            child_signature = with_cost(cost, ())
            for choice in bucket:
                next_parts = parts + [choice] if choice else parts
                visit(i + 1, next_parts, child_signature)

    visit(0, [], ())
    minimal = [c for c in candidates if _is_minimal(c, verdict)]
    minimal.sort(key=lambda c: tuple(sorted(c.keys)))
    return CombinationSearchResult(
        total=total, unschedulable=count, minimal=minimal, checks=checks, nodes=nodes
    )


def _is_minimal(combo: Combination, verdict: Callable[[CostSignature], bool]) -> bool:
    """True iff no strict subset of ``combo`` is itself flagged.

    By monotonicity it suffices to test, per chain, the subset dropping
    that chain's cheapest member — the co-atom leaving the most residual
    cost; every other single-removal is dominated by it.
    """
    if len(combo.segments) == 1:
        return True
    groups: Dict[str, List[float]] = {}
    for seg in combo.segments:
        groups.setdefault(seg.chain_name, []).append(seg.wcet)
    signature = combo.signature
    for name, wcets in groups.items():
        remaining = sorted(wcets)[1:]  # drop one cheapest member
        reduced = math.fsum(remaining)
        entries = [(n, c) for n, c in signature if n != name]
        if reduced > 0:
            entries.append((name, reduced))
        entries.sort()
        if verdict(tuple(entries)):
            return False
    return True
