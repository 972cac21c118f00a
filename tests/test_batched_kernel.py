"""The per-signature Def. 10 verdict against the scalar oracle.

The contracts under test:

* the memoized verdict (``_build_verdict``) decides every signature
  exactly like the staged pipeline of the Eq. (5) pre-filter and the
  one-``q``-at-a-time oracle (``tests/oracles/def10.py``), on a first
  call and from its memo, whether it seeds every q from the Def. 10
  fixed point of q - 1 or reuses the typical latency's busy times over
  a typical model derived from the full one (the ``analyze_twca``
  construction);
* its unmemoized ``exact_check`` hook matches the oracle for every
  signature, in any order.
"""

import random

import pytest

from repro.analysis import analyze_latency, criterion_loads
from repro.analysis.busy_window import _InterferenceModel
from repro.analysis.combinations import (
    iter_combinations,
    overload_active_segments,
)
from repro.analysis.exceptions import BusyWindowDivergence
from repro.analysis.twca import _build_verdict
from repro.synth import GeneratorConfig, generate_feasible_system
from repro.synth.corpus import CorpusSpec, generate_entry

from oracles.def10 import exact_unschedulable_scalar


def random_system(seed, overload_chains=2):
    rng = random.Random(seed)
    return generate_feasible_system(
        rng,
        GeneratorConfig(
            chains=2,
            overload_chains=overload_chains,
            utilization=0.5,
            overload_utilization=0.06,
            tasks_per_chain=(2, 4),
        ),
    )


def verdict_inputs(system, chain):
    """The ``(deltas, loads, segments)`` of the Def. 10 stage, or
    ``None`` when the chain never reaches it."""
    try:
        full = analyze_latency(system, chain, include_overload=True)
    except BusyWindowDivergence:
        return None
    if full.wcl <= chain.deadline:
        return None
    deltas = {
        q: chain.activation.delta_minus(q) for q in range(1, full.max_queue + 1)
    }
    loads = criterion_loads(system, chain, tuple(deltas))
    segments = overload_active_segments(system, chain)
    return deltas, loads, segments


def build(system, chain, inputs):
    deltas, loads, segments = inputs
    return _build_verdict(
        system,
        chain,
        deltas,
        loads,
        segments,
        exact_criterion=True,
    )


def typical_inputs(system, chain):
    """The typical model derived from the full one, and the typical
    latency scanned with it (``None`` when it diverges): what
    ``analyze_twca`` hands the verdict."""
    model = _InterferenceModel(system, chain, include_overload=True).without_overload()
    try:
        typical = analyze_latency(system, chain, include_overload=False, model=model)
    except BusyWindowDivergence:
        typical = None
    return model, typical


def build_derived(system, chain, inputs):
    """The verdict as ``analyze_twca`` builds it: the derived typical
    model serves the loads and the Def. 10 sweeps, and the typical
    latency's busy times are the fixed points of ``q <= K_typ``."""
    deltas, _, segments = inputs
    model, typical = typical_inputs(system, chain)
    return _build_verdict(
        system,
        chain,
        deltas,
        criterion_loads(system, chain, tuple(deltas), model=model),
        segments,
        exact_criterion=True,
        model=model,
        typical=typical,
    )


#: Random systems (ints), plus entries of the default corpus (UUniFast,
#: utilization 0.5-0.7, seed 2017) with a weakly-hard chain whose
#: K_full > K_typ and whose flagged signatures Def. 10 partly clears.
VERDICT_CASES = (*range(0, 40, 4), "corpus:4", "corpus:32", "corpus:135")


def verdict_system(case):
    if isinstance(case, int):
        return random_system(case, overload_chains=1 + case % 3)
    index = int(case.split(":")[1])
    return generate_entry(CorpusSpec(count=index + 1, seed=2017), index)


class TestBlockVerdict:
    @pytest.mark.parametrize("seed", VERDICT_CASES)
    def test_many_matches_the_scalar_pipeline(self, seed):
        system = verdict_system(seed)
        for chain in system.typical_chains:
            inputs = verdict_inputs(system, chain)
            if inputs is None:
                continue
            deltas, _, segments = inputs
            signatures = [c.signature for c in iter_combinations(segments)]
            verdict = build(system, chain, inputs)
            # The staged pipeline: the Eq. (5) pre-filter, then Def. 10.
            reference = [
                verdict.eq5_flags(s)
                and exact_unschedulable_scalar(system, chain, deltas, s)
                for s in signatures
            ]
            assert [verdict(s) for s in signatures] == reference
            # The repeat is answered purely from the memo.
            assert [verdict(s) for s in signatures] == reference
            derived = build_derived(system, chain, inputs)
            assert [derived(s) for s in signatures] == reference

    @pytest.mark.parametrize("case", [c for c in VERDICT_CASES if isinstance(c, str)])
    def test_cases_reach_the_typical_remainder(self, case):
        """The corpus cases reach Def. 10 with K_full > K_typ, so the
        derived verdict seeds q > K_typ from the Def. 10 fixed point of
        q - 1 on top of the typical latency's busy times; and Def. 10
        clears some signature Eq. (5) flags, so a seed set too high
        would show as a wrong miss."""
        system = verdict_system(case)
        reached = []
        for chain in system.typical_chains:
            inputs = verdict_inputs(system, chain)
            typical = typical_inputs(system, chain)[1]
            if inputs is None or typical is None:
                continue
            deltas, _, segments = inputs
            verdict = build(system, chain, inputs)
            cleared = [
                s
                for s in (c.signature for c in iter_combinations(segments))
                if verdict.eq5_flags(s) and not verdict(s)
            ]
            reached.append(len(deltas) > typical.max_queue and bool(cleared))
        assert any(reached)

    def test_remainder_computes_no_typical_fixed_point(self, monkeypatch):
        """Past K_typ each q's Def. 10 iteration starts from the fixed
        point of q - 1, so ``analyze_twca`` of waters entry 0's
        ``ecu_chain_0`` (K_typ 1, K_b 9, weakly-hard) computes no
        typical fixed point of q = 2..9.  The latency scans call
        ``_fixed_point`` through their own import, unrecorded."""
        from repro.analysis import analyze_twca, busy_window

        spec = CorpusSpec(count=1, seed=2017, family="waters", utilization=(0.7, 0.9))
        system = generate_entry(spec, 0)
        calls = []
        fixed_point = busy_window._fixed_point

        def recording(model, q, *args, **kwargs):
            calls.append(q)
            return fixed_point(model, q, *args, **kwargs)

        monkeypatch.setattr(busy_window, "_fixed_point", recording)
        result = analyze_twca(system, system["ecu_chain_0"])
        assert result.typical_latency.max_queue == 1
        assert result.full_latency.max_queue == 9
        assert result.unschedulable_count == 1
        assert calls == []

    @pytest.mark.parametrize("seed", (3, 8, 11, 19))
    def test_exact_check_many_matches_per_signature(self, seed):
        system = random_system(seed, overload_chains=1 + seed % 2)
        for chain in system.typical_chains:
            inputs = verdict_inputs(system, chain)
            if inputs is None:
                continue
            deltas, _, segments = inputs
            signatures = [c.signature for c in iter_combinations(segments)]
            verdict = build(system, chain, inputs)
            forward = [verdict.exact_check(s) for s in signatures]
            backward = [verdict.exact_check(s) for s in reversed(signatures)]
            assert forward == backward[::-1]
            assert forward == [
                exact_unschedulable_scalar(system, chain, deltas, s) for s in signatures
            ]
