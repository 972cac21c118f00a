"""The eager Def. 9/10 classification: every combination materialized.

Oracle of the frontier search behind ``analyze_twca``
(:func:`repro.analysis.combinations.search_combinations`).  Steps 1-4
are the analysis' own: the Theorem 2 latencies, ``N_b``, the Eq. (5)
loads and the memoized signature verdict.  Step 5 is the literal one:
list every combination through ``iter_combinations``, ask the verdict
about each, and filter the inclusion-minimal unschedulable ones from
that full list.  The differential tests therefore compare the
classification alone.  Nothing here calls ``search_combinations``, and
there is no cap on the combination count: the caller picks systems
small enough to materialize.
"""

from __future__ import annotations

from repro.analysis.busy_window import _InterferenceModel, criterion_loads
from repro.analysis.combinations import iter_combinations, overload_active_segments
from repro.analysis.exceptions import BusyWindowDivergence, NotAnalyzable
from repro.analysis.latency import analyze_latency
from repro.analysis.twca import ChainTwcaResult, GuaranteeStatus, _build_verdict


def exhaustive_twca(system, target, *, exact_criterion=True) -> ChainTwcaResult:
    """``analyze_twca(system, target, exact_criterion=...)`` with every
    combination materialized and classified one by one."""
    if not target.has_deadline:
        raise NotAnalyzable(f"chain {target.name!r} has no finite deadline")
    if target.overload:
        raise NotAnalyzable(f"chain {target.name!r} is an overload chain")
    shell = dict(
        system=system,
        chain_name=target.name,
        deadline=target.deadline,
        exact_criterion=exact_criterion,
    )
    full_model = _InterferenceModel(system, target, include_overload=True)
    try:
        full = analyze_latency(system, target, include_overload=True, model=full_model)
    except BusyWindowDivergence:
        return ChainTwcaResult(status=GuaranteeStatus.NO_GUARANTEE, **shell)
    if full.wcl <= target.deadline:
        return ChainTwcaResult(
            status=GuaranteeStatus.SCHEDULABLE, full_latency=full, **shell
        )
    typical_model = full_model.without_overload()
    try:
        typical = analyze_latency(
            system, target, include_overload=False, model=typical_model
        )
    except BusyWindowDivergence:
        typical = None
    if typical is None or typical.wcl > target.deadline:
        return ChainTwcaResult(
            status=GuaranteeStatus.NO_GUARANTEE,
            full_latency=full,
            typical_latency=typical,
            **shell,
        )

    deltas = {
        q: target.activation.delta_minus(q) for q in range(1, full.max_queue + 1)
    }
    loads = criterion_loads(system, target, tuple(deltas), model=typical_model)
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

    combos = list(iter_combinations(segments_by_chain))
    unschedulable = [combo for combo in combos if verdict(combo.signature)]
    key_sets = [combo.key_set for combo in unschedulable]
    minimal = [
        combo
        for combo, keys in zip(unschedulable, key_sets)
        if not any(other < keys for other in key_sets)
    ]
    result = ChainTwcaResult(
        status=GuaranteeStatus.WEAKLY_HARD,
        full_latency=full,
        typical_latency=typical,
        n_b=full.deadline_miss_count(target.deadline),
        min_slack=min(deltas[q] + target.deadline - loads[q] for q in deltas),
        active_segments=segments_by_chain,
        combination_count=len(combos),
        unschedulable_count=len(unschedulable),
        minimal=minimal,
        **shell,
    )
    result._combinations_cache = combos
    result._unschedulable_cache = unschedulable
    return result
