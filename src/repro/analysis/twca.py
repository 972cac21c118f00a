"""Typical Worst-Case Analysis for task chains (Sec. V, Theorem 3).

The entry point is :func:`analyze_twca`, which classifies a chain as

* ``SCHEDULABLE`` — its full worst-case latency (overload included) meets
  the deadline; the DMM is identically 0;
* ``WEAKLY_HARD`` — the typical (overload-free) system meets the
  deadline; the DMM is computed from the Theorem 3 packing ILP;
* ``NO_GUARANTEE`` — even the typical system can miss (or a busy window
  diverges); the only valid DMM is the vacuous ``dmm(k) = k``.

The Theorem 3 ILP maximizes the number of unschedulable combinations
packed into the busy windows touched by a k-sequence, subject to the
per-active-segment capacities ``Omega^a_b(k)`` of Lemma 4; the optimum is
scaled by ``N_b`` (Lemma 3) and clamped to ``k``.

Combination schedulability is a pure monotone function of the per-chain
cost signature, so the analysis never materializes the exponential
combination set: it runs the dominance-pruned frontier search of
:func:`repro.analysis.combinations.search_combinations`, memoizes the
exact Def. 10 verdict per signature for the one analysis run, and keeps
only counts plus the inclusion-minimal representatives the packing ILP
needs.

One analysis builds one interference structure from scratch and derives
the typical one from it (see :mod:`repro.analysis.busy_window`); the
Def. 10 check seeds each ``q <= K_typ`` from the typical latency scan's
busy time and each later ``q`` from its own fixed point of ``q - 1``.
Nothing outlives the call.

Each ``dmm(k)`` builds the packing program for its ``Omega`` capacities
(:meth:`ChainTwcaResult.packing_program`) and solves it with the one
exact solver :func:`repro.ilp.solve`; the optimum is memoized per
``Omega`` tuple on the result.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..ilp import IntegerProgram, solve
from ..model import System, TaskChain
from .busy_window import _InterferenceModel, criterion_loads
from .combinations import (
    Combination,
    CostSignature,
    iter_combinations,
    overload_active_segments,
    search_combinations,
)
from .exceptions import BusyWindowDivergence, NotAnalyzable
from .latency import LatencyResult, analyze_latency
from .segments import ActiveSegment


class GuaranteeStatus(enum.Enum):
    """Outcome class of the TWCA of one chain."""

    SCHEDULABLE = "schedulable"
    WEAKLY_HARD = "weakly-hard"
    NO_GUARANTEE = "no-guarantee"


@dataclass
class ChainTwcaResult:
    """Everything the TWCA of one chain produced.

    The deadline miss model itself is exposed through :meth:`dmm`.
    Combination artifacts are kept as counts plus the inclusion-minimal
    unschedulable representatives (all the Theorem 3 packing consumes);
    the full ``combinations`` / ``unschedulable`` lists remain available
    as lazily materialized properties for reports and tests.
    """

    system: System
    chain_name: str
    deadline: float
    status: GuaranteeStatus
    full_latency: Optional[LatencyResult] = None
    typical_latency: Optional[LatencyResult] = None
    n_b: int = 0
    min_slack: float = math.inf
    active_segments: Dict[str, List[ActiveSegment]] = field(default_factory=dict)
    combination_count: int = 0
    unschedulable_count: int = 0
    minimal: List[Combination] = field(default_factory=list)
    exact_criterion: bool = True
    search_checks: int = 0
    search_nodes: int = 0
    _combinations_cache: Optional[List[Combination]] = field(
        default=None, init=False, repr=False
    )
    _unschedulable_cache: Optional[List[Combination]] = field(
        default=None, init=False, repr=False
    )
    _membership: Optional[Callable[[CostSignature], bool]] = field(
        default=None, init=False, repr=False
    )
    _omega_cache: Dict[Tuple[float, ...], int] = field(default_factory=dict, repr=False)
    _packing_work: Dict[Tuple[float, ...], int] = field(
        default_factory=dict, init=False, repr=False
    )

    # ------------------------------------------------------------------
    # Combination views (lazy; the analysis itself only stores counts)
    # ------------------------------------------------------------------
    def __getstate__(self):
        # The signature-verdict closure is process-local (it captures
        # the memo tables of its analysis run) and unpicklable; drop it
        # so results stay picklable like they always were.  Nothing is
        # lost: the verdict is a pure function of retained state and is
        # rebuilt on demand by :meth:`_verdict`.
        state = self.__dict__.copy()
        state["_membership"] = None
        return state

    def _verdict(self) -> Optional[Callable[[CostSignature], bool]]:
        """The signature -> unschedulable predicate, rebuilt from the
        retained analysis state when the original closure is gone
        (pickled results, memory-trimmed results)."""
        if self._membership is None:
            if not self.active_segments or self.full_latency is None:
                return None
            target = self.system[self.chain_name]
            deltas = {
                q: target.activation.delta_minus(q)
                for q in range(1, self.full_latency.max_queue + 1)
            }
            loads = criterion_loads(self.system, target, tuple(deltas))
            self._membership = _build_verdict(
                self.system,
                target,
                deltas,
                loads,
                self.active_segments,
                exact_criterion=self.exact_criterion,
                typical=self.typical_latency,
            )
        return self._membership

    @property
    def combinations(self) -> List[Combination]:
        """Every Def. 9 combination, materialized on first access."""
        if self._combinations_cache is None:
            self._combinations_cache = list(iter_combinations(self.active_segments))
        return self._combinations_cache

    @property
    def unschedulable(self) -> List[Combination]:
        """Every unschedulable combination, materialized on first
        access by replaying the (memoized, rebuildable) signature
        verdict."""
        if self._unschedulable_cache is None:
            verdict = self._verdict()
            if verdict is None:
                self._unschedulable_cache = []
            else:
                self._unschedulable_cache = [
                    combo for combo in self.combinations if verdict(combo.signature)
                ]
                # The materialized list answers everything the closure
                # could; release the captured analysis environment.
                self._membership = None
        return self._unschedulable_cache

    # ------------------------------------------------------------------
    # Lemma 4
    # ------------------------------------------------------------------
    def omega(self, overload_chain: str, k: int) -> float:
        """``Omega^a_b(k)``: maximum activations of the overload chain
        that can impact a k-sequence of the analyzed chain (Lemma 4)."""
        if self.full_latency is None:
            return math.inf
        target = self.system[self.chain_name]
        source = self.system[overload_chain]
        window = target.activation.delta_plus(k) + self.full_latency.wcl
        if math.isinf(window):
            return math.inf
        return source.activation.eta_plus(window) + 1

    # ------------------------------------------------------------------
    # Theorem 3
    # ------------------------------------------------------------------
    def dmm(self, k: int) -> int:
        """``dmm_b(k)``: bound on deadline misses in any ``k``
        consecutive activations (Theorem 3), clamped to ``k``.

        The packing optimum is memoized per ``Omega`` tuple, so window
        sizes sharing their capacities share one solve.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if self.status is GuaranteeStatus.SCHEDULABLE:
            return 0
        if self.status is GuaranteeStatus.NO_GUARANTEE:
            return k
        if not self.unschedulable_count:
            return 0

        omegas = {name: self.omega(name, k) for name in sorted(self.active_segments)}
        if any(math.isinf(om) for om in omegas.values()):
            return k  # vacuous: unbounded overload impact

        key = tuple(omegas.values())
        packed = self._omega_cache.get(key)
        if packed is None:
            solution = solve(self.packing_program(omegas))
            if not solution.is_optimal:
                raise RuntimeError(f"packing ILP did not solve: {solution.status}")
            packed = int(round(solution.objective))
            self._packing_work[key] = solution.work
            self._omega_cache[key] = packed
        return min(k, self.n_b * packed)

    def minimal_unschedulable(self) -> List[Combination]:
        """Inclusion-minimal unschedulable combinations, as the frontier
        search collected them (empty unless weakly-hard).

        Restricting the packing to these preserves the Theorem 3
        optimum: any packed superset can be replaced by a minimal
        subset, keeping the count while only freeing capacity.  This
        shrinks the ILP substantially when many overload chains exist.
        """
        return self.minimal

    def packing_program(self, omegas: Mapping[str, float]) -> IntegerProgram:
        """The Theorem 3 packing for the Lemma 4 capacities ``omegas``
        (overload chain -> ``Omega``): one integer variable per
        inclusion-minimal unschedulable combination, one row per active
        segment some combination uses, capped by the ``Omega`` of the
        segment's chain; maximize the packed combinations."""
        combos = self.minimal_unschedulable()
        rows: List[List[float]] = []
        rhs: List[float] = []
        for name in sorted(self.active_segments):
            for segment in self.active_segments[name]:
                row = [1.0 if combo.uses(segment) else 0.0 for combo in combos]
                if any(row):
                    rows.append(row)
                    rhs.append(float(omegas[name]))
        return IntegerProgram(
            objective=[1.0] * len(combos),
            rows=rows,
            rhs=rhs,
            names=[str(c) for c in combos],
        )

    def packing_stats(self) -> Dict[str, int]:
        """Packing work so far: ``resolves`` programs solved and
        ``work`` branch-and-bound nodes (0 for the one-variable closed
        form).  Empty until a :meth:`dmm` evaluation needed a solve."""
        if not self._packing_work:
            return {}
        return {
            "resolves": len(self._packing_work),
            "work": sum(self._packing_work.values()),
        }

    def dmm_curve(self, ks: Sequence[int]) -> Dict[int, int]:
        """Evaluate the DMM over several window sizes; the returned
        dict preserves the caller's ``ks`` order (duplicates once)."""
        values = {k: self.dmm(k) for k in sorted(set(ks))}
        return {k: values[k] for k in ks}

    def explain(self, ks: Sequence[int] = (1, 10, 100)) -> str:
        """Human-readable account of the analysis: verdict, latencies,
        combinations, capacities, a DMM table and the packing counters
        (the DMM curve is evaluated first so the summary's packing line
        reflects it)."""
        from ..report.tables import twca_summary

        dmm_line = "  dmm: " + ", ".join(f"dmm({k}) = {self.dmm(k)}" for k in ks)
        lines = [twca_summary(self)]
        if self.status is GuaranteeStatus.WEAKLY_HARD:
            for name in sorted(self.active_segments):
                segments = ", ".join(str(seg) for seg in self.active_segments[name])
                omegas = {k: self.omega(name, k) for k in ks}
                lines.append(f"  {name}: active segments [{segments}], Omega {omegas}")
        lines.append(dmm_line)
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Convenience predicates
    # ------------------------------------------------------------------
    @property
    def is_schedulable(self) -> bool:
        return self.status is GuaranteeStatus.SCHEDULABLE

    @property
    def has_guarantee(self) -> bool:
        return self.status is not GuaranteeStatus.NO_GUARANTEE

    @property
    def wcl(self) -> float:
        """Full worst-case latency (``inf`` if the analysis diverged)."""
        return math.inf if self.full_latency is None else self.full_latency.wcl


def analyze_twca(
    system: System,
    target: TaskChain,
    *,
    exact_criterion: bool = True,
) -> ChainTwcaResult:
    """Run the complete Sec. V analysis for ``target`` within ``system``.

    Combination schedulability is decided in two stages, both from the
    paper: the cheap Eq. (5) threshold first, then — for combinations it
    flags unschedulable — the exact Def. 10 check via the Eq. (3) fixed
    point.  Eq. (5) alone (``exact_criterion=False``) is sound but can
    be very conservative for deadlines well above the activation
    distance, because its fixed evaluation window ``delta(q) + D``
    admits interference the real busy window never sees.

    Raises
    ------
    NotAnalyzable
        If ``target`` has no finite deadline or is itself an overload
        chain.
    """
    if not target.has_deadline:
        raise NotAnalyzable(f"chain {target.name!r} has no finite deadline")
    if target.overload:
        raise NotAnalyzable(
            f"chain {target.name!r} is an overload chain; DMMs are "
            "computed for typical chains"
        )

    # Step 1: full latency analysis (Theorem 2), overload included.
    # The job's one interference structure built from scratch.
    full_model = _InterferenceModel(system, target, include_overload=True)
    try:
        full = analyze_latency(system, target, include_overload=True, model=full_model)
    except BusyWindowDivergence:
        return ChainTwcaResult(
            system=system,
            chain_name=target.name,
            deadline=target.deadline,
            status=GuaranteeStatus.NO_GUARANTEE,
        )

    if full.wcl <= target.deadline:
        return ChainTwcaResult(
            system=system,
            chain_name=target.name,
            deadline=target.deadline,
            status=GuaranteeStatus.SCHEDULABLE,
            full_latency=full,
        )

    # Step 2: typical latency (overload abstracted away).
    typical_model = full_model.without_overload()
    try:
        typical = analyze_latency(
            system, target, include_overload=False, model=typical_model
        )
    except BusyWindowDivergence:
        typical = None
    if typical is None or typical.wcl > target.deadline:
        return ChainTwcaResult(
            system=system,
            chain_name=target.name,
            deadline=target.deadline,
            status=GuaranteeStatus.NO_GUARANTEE,
            full_latency=full,
            typical_latency=typical,
        )

    # Step 3: N_b (Lemma 3) and the Eq. (5) machinery.  The Eq. (5)
    # criterion loads for the whole q range share one window scan.
    n_b = full.deadline_miss_count(target.deadline)
    deltas = {
        q: target.activation.delta_minus(q) for q in range(1, full.max_queue + 1)
    }
    loads = criterion_loads(system, target, tuple(deltas), model=typical_model)
    slack = min(deltas[q] + target.deadline - loads[q] for q in deltas)

    # Step 4: combinations of overload active segments (Defs. 8 and 9)
    # and the signature-keyed schedulability verdict.
    segments_by_chain = overload_active_segments(system, target)
    verdict = _build_verdict(
        system,
        target,
        deltas,
        loads,
        segments_by_chain,
        exact_criterion=exact_criterion,
        model=typical_model,
        typical=typical,
    )

    # Step 5: classify by the frontier search.
    search = search_combinations(segments_by_chain, verdict)
    result = ChainTwcaResult(
        system=system,
        chain_name=target.name,
        deadline=target.deadline,
        status=GuaranteeStatus.WEAKLY_HARD,
        full_latency=full,
        typical_latency=typical,
        n_b=n_b,
        min_slack=slack,
        active_segments=segments_by_chain,
        combination_count=search.total,
        unschedulable_count=search.unschedulable,
        minimal=search.minimal,
        exact_criterion=exact_criterion,
        search_checks=search.checks,
        search_nodes=search.nodes,
    )
    # Keep the analysis-run verdict (with its warm memo) for the lazy
    # views.
    result._membership = verdict
    return result


def _build_verdict(
    system: System,
    target: TaskChain,
    deltas: Dict[int, float],
    loads: Dict[int, float],
    segments_by_chain: Dict[str, List[ActiveSegment]],
    *,
    exact_criterion: bool,
    model: Optional[_InterferenceModel] = None,
    typical: Optional[LatencyResult] = None,
) -> Callable[[CostSignature], bool]:
    """The memoized signature -> unschedulable predicate of Step 5.

    Stage one is the Eq. (5) threshold over the fixed windows
    ``delta_minus(q) + D``; stage two (``exact_criterion``) the exact
    Def. 10 re-check via the Eq. (3) fixed point.  Both depend only on
    the per-chain cost signature (the within-window overload
    multiplicities are per *chain*, so member costs group), and both are
    monotone in it — the property the pruned search relies on.

    The Eq. (5) multiplicities are precomputed per (q, chain).  The
    exact stage evaluates the Eq. (3) sum over ``model`` (the typical
    structure; built here when not given) and checks one signature at
    a time with a loop over ``q = 1, 2, ...`` (the order of
    ``deltas``).  Each ``q``'s Kleene iteration starts from a sound
    lower bound on its least fixed point, so it converges to exactly
    that value: for ``q <= K_typ`` the ``typical`` latency's busy time
    (the typical sum is below the loaded one), beyond it the Eq. (3)
    fixed point of ``q - 1`` (the sum is monotone in ``q``), never
    below ``q * C_b``.  It returns at the first deadline miss or at a
    ``q`` without a fixed point within 10,000 steps; a ``q`` whose
    typical part diverges drives the loaded sum past its deadline
    first.  The verdict is memoized per signature for the lifetime of
    the predicate.

    The predicate exposes its two stages unmemoized for the
    differential tests: ``eq5_flags(signature)`` and
    ``exact_check(signature)``.
    """
    deadline = target.deadline
    # One event counter per overload chain, for both stages.
    counters = {
        name: system[name].activation.eta_plus_counter() for name in segments_by_chain
    }
    # Within-window overload multiplicities for the fixed Eq. (5)
    # windows.  The paper assumes at most one overload activation per
    # busy window; bursty models can violate that, so every chain is
    # charged its eta_plus over the window (1 in the paper's setting).
    eq5_mults = {
        q: {
            name: max(1, count(deltas[q] + deadline))
            for name, count in counters.items()
        }
        for q in deltas
    }

    # One typical interference structure serves every signature and
    # every q.
    if model is None:
        model = _InterferenceModel(system, target, include_overload=False)
    typical_fixed = () if typical is None else typical.busy_times

    def eq5_flags(signature: CostSignature) -> bool:
        for q in deltas:
            horizon = deltas[q] + deadline
            mults = eq5_mults[q]
            cost = sum(weight * mults[name] for name, weight in signature)
            if loads[q] + cost > horizon:
                return True
        return False

    def exact_check(signature: CostSignature) -> bool:
        """Def. 10 for one signature: for each ``q``, the Eq. (3) fixed
        point (the typical sum plus the signature's overload cost)
        iterated from the typical fixed point of ``q <= K_typ``, or
        from the Eq. (3) fixed point of ``q - 1`` beyond, or from
        ``q * C_b`` when larger (``math.ulp(0.0)`` when all are 0)."""
        terms = [(counters[name], weight) for name, weight in signature]
        wcet = target.total_wcet
        total = 0.0
        for q, delta in deltas.items():
            seed = typical_fixed[q - 1] if q <= len(typical_fixed) else total
            horizon = max(seed, q * wcet) or math.ulp(0.0)
            for _ in range(10_000):
                total = model.total(q, horizon) + sum(
                    weight * max(1, count(horizon)) for count, weight in terms
                )
                if total - delta > deadline:
                    return True  # q missed its deadline
                if total <= horizon:
                    break
                horizon = total
            else:
                return True  # no fixed point: treat as unschedulable
        return False

    memo: Dict[CostSignature, bool] = {}

    def verdict(signature: CostSignature) -> bool:
        value = memo.get(signature)
        if value is None:
            if not eq5_flags(signature):
                value = False
            elif not exact_criterion:
                value = True
            else:
                value = exact_check(signature)
            memo[signature] = value
        return value

    # Unmemoized stage hooks for the differential tests (they bypass
    # the Eq. (5) pre-filter and the signature memo on purpose).
    verdict.eq5_flags = eq5_flags
    verdict.exact_check = exact_check
    return verdict


def analyze_all(system: System) -> Dict[str, ChainTwcaResult]:
    """TWCA for every typical chain with a finite deadline."""
    results: Dict[str, ChainTwcaResult] = {}
    for chain in system.typical_chains:
        if chain.has_deadline:
            results[chain.name] = analyze_twca(system, chain)
    return results
