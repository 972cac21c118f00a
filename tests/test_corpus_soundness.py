"""Soundness at corpus scale, on a seeded slice of the benchmark corpora.

For 100 UUniFast systems at utilization 0.5-0.7 and 100 WATERS-profile
systems at 0.7-0.9 (``CorpusSpec(seed=2017)``, the populations of the
end-to-end benchmark), every typical chain with a deadline must satisfy:

* the pruned search and the eager oracle
  (``oracles.combinations.exhaustive_twca``) agree on the status, the
  unschedulable count and dmm(1), dmm(5), dmm(10);
* the critical-instant simulation stays within the Theorem 2 worst-case
  latency, and its windowed miss counts within dmm(k).

This is the safety net of the single-path analysis: a wrong fixed point
or Def. 10 verdict on realistic systems shows up here.
"""

import math

import pytest
from oracles.combinations import exhaustive_twca

from repro import analyze_twca
from repro.sim import simulate_worst_case
from repro.synth.corpus import CorpusSpec, generate_entry

SLICE = 100
SEED = 2017
UTILIZATION = {"uunifast": (0.5, 0.7), "waters": (0.7, 0.9)}
KS = (1, 5, 10)

#: Simulated timestamps are float sums over the horizon, so a latency
#: may carry a few ulps of the horizon's magnitude.
LATENCY_ULPS = 16


def corpus_slice(family):
    spec = CorpusSpec(
        count=SLICE, seed=SEED, family=family, utilization=UTILIZATION[family]
    )
    return [generate_entry(spec, index) for index in range(SLICE)]


def deadline_chains(system):
    return [chain for chain in system.typical_chains if chain.has_deadline]


@pytest.mark.parametrize("family", sorted(UTILIZATION))
def test_pruned_search_matches_exhaustive(family):
    for system in corpus_slice(family):
        for chain in deadline_chains(system):
            pruned = analyze_twca(system, chain)
            exhaustive = exhaustive_twca(system, chain)
            assert (
                pruned.status,
                pruned.unschedulable_count,
                [pruned.dmm(k) for k in KS],
            ) == (
                exhaustive.status,
                exhaustive.unschedulable_count,
                [exhaustive.dmm(k) for k in KS],
            ), (system.name, chain.name)


@pytest.mark.parametrize("family", sorted(UTILIZATION))
def test_critical_instant_simulation_within_bounds(family):
    for system in corpus_slice(family):
        # Twenty periods of the slowest typical chain: every chain sees
        # at least twenty activations, enough for dmm(10) windows.
        horizon = 20 * max(
            chain.activation.delta_minus(2) for chain in system.typical_chains
        )
        simulated = simulate_worst_case(system, horizon)
        for chain in deadline_chains(system):
            result = analyze_twca(system, chain)
            if result.full_latency is not None:
                observed = simulated.max_latency(chain.name)
                bound = result.full_latency.wcl + LATENCY_ULPS * math.ulp(horizon)
                assert observed <= bound, (system.name, chain.name)
            for k in KS:
                assert simulated.empirical_dmm(chain.name, k) <= result.dmm(k), (
                    system.name,
                    chain.name,
                    k,
                )
