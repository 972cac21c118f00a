"""Differential tests for the lazy dominance-pruned combination
pipeline and the warm-started fixed points.

The contracts under test:

* the pruned frontier search classifies exactly the set the exhaustive
  pipeline classifies — same counts, same unschedulable set, same
  inclusion-minimal representatives, same DMM curves — on randomized
  systems, for serial and parallel runners, with and without a
  persistent cache directory;
* the streaming iterators enumerate the same multiset as the classic
  materializing enumeration (cost-ordered for the best-first variant);
* warm-started Kleene iterations land on the bit-identical busy-time
  breakdown (``iterations`` is the one diagnostic allowed to differ).
"""

import math
import random

import pytest

from repro import PeriodicModel, SporadicModel, SystemBuilder, analyze_twca
from repro.analysis import (
    busy_time,
    count_combinations,
    enumerate_combinations,
    iter_combinations,
    iter_combinations_by_cost,
    overload_active_segments,
    search_combinations,
)
from repro.runner import BatchRunner
from repro.synth import GeneratorConfig, generate_feasible_system

KS = (1, 3, 5, 10)


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


def combo_key_sets(combos):
    return {frozenset(c.keys) for c in combos}


class TestPrunedMatchesExhaustive:
    """The acceptance differential: both modes classify identically."""

    @pytest.mark.parametrize("seed", range(0, 40, 4))
    def test_counts_sets_and_dmm_curves(self, seed):
        system = random_system(seed, overload_chains=1 + seed % 3)
        for chain in system.typical_chains:
            if not chain.has_deadline:
                continue
            pruned = analyze_twca(system, chain)
            eager = analyze_twca(system, chain, enumeration="exhaustive")
            assert pruned.status is eager.status
            assert pruned.combination_count == eager.combination_count
            assert pruned.unschedulable_count == eager.unschedulable_count
            assert combo_key_sets(pruned.unschedulable) == combo_key_sets(
                eager.unschedulable
            )
            assert combo_key_sets(pruned.minimal_unschedulable()) == combo_key_sets(
                eager.minimal_unschedulable()
            )
            assert pruned.dmm_curve(KS) == eager.dmm_curve(KS)

    @pytest.mark.parametrize("seed", (3, 11, 27))
    def test_eq5_only_mode_agrees_too(self, seed):
        system = random_system(seed)
        for chain in system.typical_chains:
            if not chain.has_deadline:
                continue
            pruned = analyze_twca(system, chain, exact_criterion=False)
            eager = analyze_twca(
                system, chain, exact_criterion=False, enumeration="exhaustive"
            )
            assert pruned.unschedulable_count == eager.unschedulable_count
            assert pruned.dmm_curve(KS) == eager.dmm_curve(KS)

    def test_case_study_counts_survive_the_rewrite(self, figure4):
        result = analyze_twca(figure4, figure4["sigma_c"])
        assert result.combination_count == 3
        assert result.unschedulable_count == 1
        assert result.minimal_unschedulable()[0].cost == 50
        # Lazy materialization serves the historic list views.
        assert len(result.combinations) == 3
        assert len(result.unschedulable) == 1

    def test_rejects_unknown_enumeration_mode(self, figure4):
        with pytest.raises(ValueError):
            analyze_twca(figure4, figure4["sigma_c"], enumeration="psychic")

    def test_results_stay_picklable(self, figure4):
        """The signature-verdict closure must not break pickling of
        weakly-hard results, and the lazy views must survive the round
        trip (the verdict is rebuilt from retained state, so the
        unschedulable list is identical, not silently empty)."""
        import pickle

        result = analyze_twca(figure4, figure4["sigma_c"])
        clone = pickle.loads(pickle.dumps(result))
        assert clone.combination_count == result.combination_count
        assert clone.unschedulable_count == result.unschedulable_count
        assert combo_key_sets(clone.minimal_unschedulable()) == combo_key_sets(
            result.minimal_unschedulable()
        )
        assert clone.dmm_curve(KS) == result.dmm_curve(KS)
        assert combo_key_sets(clone.unschedulable) == combo_key_sets(
            result.unschedulable
        )
        assert len(clone.unschedulable) == clone.unschedulable_count

    @pytest.mark.parametrize("seed", (1, 9, 23))
    def test_pickled_lazy_views_match_originals(self, seed):
        import pickle

        system = random_system(seed)
        for chain in system.typical_chains:
            if not chain.has_deadline:
                continue
            result = analyze_twca(system, chain)
            clone = pickle.loads(pickle.dumps(result))
            assert combo_key_sets(clone.unschedulable) == combo_key_sets(
                result.unschedulable
            )
            assert clone.dmm_curve(KS) == result.dmm_curve(KS)


class TestSearchAgainstBruteForce:
    """search_combinations vs literal filtering, under synthetic
    monotone predicates over randomized segment structures."""

    def _threshold_predicate(self, weights, threshold):
        def flagged(signature):
            return (
                sum(cost * weights.get(name, 1.0) for name, cost in signature)
                > threshold
            )

        return flagged

    @pytest.mark.parametrize("seed", range(12))
    def test_counts_and_minimal_sets_match(self, seed):
        system = random_system(seed, overload_chains=1 + seed % 4)
        target = system.typical_chains[0]
        segments = overload_active_segments(system, target)
        combos = enumerate_combinations(segments)
        rng = random.Random(seed * 101)
        weights = {name: rng.choice([0.5, 1.0, 2.0]) for name in segments}
        costs = sorted(
            sum(w * weights.get(n, 1.0) for n, w in c.signature) for c in combos
        )
        for threshold in (-1.0, 0.0, *costs[:: max(1, len(costs) // 5)], 1e9):
            flagged = self._threshold_predicate(weights, threshold)
            result = search_combinations(segments, flagged)
            expected = [c for c in combos if flagged(c.signature)]
            assert result.total == len(combos)
            assert result.unschedulable == len(expected)
            expected_sets = combo_key_sets(expected)
            expected_minimal = {
                keys
                for keys in expected_sets
                if not any(other < keys for other in expected_sets)
            }
            assert combo_key_sets(result.minimal) == expected_minimal

    def test_everything_flagged_yields_singleton_minimals(self):
        system = random_system(5, overload_chains=3)
        target = system.typical_chains[0]
        segments = overload_active_segments(system, target)
        result = search_combinations(segments, lambda signature: True)
        assert result.unschedulable == result.total == count_combinations(segments)
        assert all(len(combo) == 1 for combo in result.minimal)

    def test_nothing_flagged_is_cheap(self):
        system = random_system(7, overload_chains=4)
        target = system.typical_chains[0]
        segments = overload_active_segments(system, target)
        result = search_combinations(segments, lambda signature: False)
        assert result.unschedulable == 0
        assert result.minimal == []
        # One cone evaluation settles the whole lattice.
        assert result.nodes == 1


class TestStreamingIterators:
    @pytest.mark.parametrize("seed", (0, 4, 9))
    def test_lazy_iterator_matches_eager_enumeration(self, seed):
        system = random_system(seed, overload_chains=2)
        target = system.typical_chains[0]
        segments = overload_active_segments(system, target)
        eager = enumerate_combinations(segments)
        lazy = list(iter_combinations(segments))
        assert [c.keys for c in lazy] == [c.keys for c in eager]
        assert count_combinations(segments) == len(eager)

    @pytest.mark.parametrize("seed", (1, 6, 13))
    def test_best_first_stream_is_cost_ordered_and_complete(self, seed):
        system = random_system(seed, overload_chains=3)
        target = system.typical_chains[0]
        segments = overload_active_segments(system, target)
        streamed = list(iter_combinations_by_cost(segments))
        costs = [c.cost for c in streamed]
        assert costs == sorted(costs)
        assert combo_key_sets(streamed) == combo_key_sets(
            enumerate_combinations(segments)
        )
        assert len(streamed) == count_combinations(segments)

    def test_streams_are_lazy(self, figure4):
        segments = overload_active_segments(figure4, figure4["sigma_c"])
        first = next(iter_combinations_by_cost(segments))
        assert first.cost == min(
            c.cost for c in enumerate_combinations(segments)
        )


class TestRunnerDifferential:
    """Pruned and exhaustive pipelines export byte-identically through
    the batch runner, serial and parallel, cached and uncached."""

    def _systems(self):
        return [random_system(seed) for seed in (201, 202, 203)]

    def test_exports_identical_across_modes(self, tmp_path):
        systems = self._systems()
        reference = (
            BatchRunner(workers=1, use_cache=False, ks=KS)
            .run_systems(systems)
            .to_json()
        )
        for workers in (1, 2):
            for cache_dir in (None, tmp_path / f"cache-{workers}"):
                for enumeration in ("pruned", "exhaustive"):
                    runner = BatchRunner(
                        workers=workers,
                        ks=KS,
                        enumeration=enumeration,
                        cache_dir=None if cache_dir is None else str(cache_dir),
                    )
                    exported = runner.run_systems(systems).to_json()
                    assert exported == reference, (workers, cache_dir, enumeration)

    def test_modes_do_not_share_job_results(self, tmp_path):
        """The jobs category keys on the enumeration mode, so a warm
        pruned run never serves an exhaustive request (identical
        payloads, but the key must be honest about parameters)."""
        systems = self._systems()[:1]
        cache_dir = tmp_path / "cache"
        pruned = BatchRunner(workers=1, ks=KS, cache_dir=str(cache_dir))
        pruned.run_systems(systems)
        eager = BatchRunner(
            workers=1, ks=KS, cache_dir=str(cache_dir), enumeration="exhaustive"
        )
        batch = eager.run_systems(systems)
        assert batch.job_hits == 0


class TestWarmStartedFixedPoints:
    """Warm starts change iteration counts, never results."""

    def _breakdown_fields(self, breakdown):
        return (
            breakdown.q,
            breakdown.base,
            breakdown.self_interference,
            breakdown.arbitrary,
            breakdown.deferred_async,
            breakdown.deferred_sync,
            breakdown.combination,
            breakdown.total,
        )

    @pytest.mark.parametrize("seed", range(0, 30, 3))
    def test_seeded_iteration_bit_identical(self, seed):
        system = random_system(seed)
        for chain in system.chains:
            previous = None
            for q in range(1, 5):
                cold = busy_time(system, chain, q)
                if previous is not None:
                    warm = busy_time(system, chain, q, seed=previous)
                    assert self._breakdown_fields(warm) == self._breakdown_fields(
                        cold
                    )
                    assert warm.iterations <= cold.iterations
                # Seeding with the fixed point itself converges in one
                # evaluation and still reproduces the exact breakdown.
                pinned = busy_time(system, chain, q, seed=cold.total)
                assert self._breakdown_fields(pinned) == self._breakdown_fields(cold)
                assert pinned.iterations == 1
                previous = cold.total

    def test_full_latency_unaffected_by_warm_starts(self, figure4):
        from repro.analysis import analyze_latency

        result = analyze_latency(figure4, figure4["sigma_c"])
        assert result.wcl == 331
        assert result.critical_q == 1


class TestHandBuiltFrontier:
    """A hand-checkable many-chain system: the pruned search must agree
    with exhaustive enumeration while evaluating far fewer members."""

    def _system(self, overload_count=10):
        builder = SystemBuilder("frontier")
        builder.chain("victim", PeriodicModel(200), deadline=185)
        builder.task("victim.a", priority=2, wcet=40)
        builder.chain("noise", PeriodicModel(400), deadline=400)
        builder.task("noise.a", priority=3, wcet=30)
        priority = 10
        for index in range(overload_count):
            builder.chain(
                f"isr{index:02d}", SporadicModel(6000 + 100 * index), overload=True
            )
            builder.task(f"isr{index:02d}.t", priority=priority, wcet=9 + index)
            priority += 1
        return builder.build()

    def test_agreement_and_pruning_on_1k_combination_system(self):
        system = self._system(10)
        chain = system["victim"]
        pruned = analyze_twca(system, chain)
        eager = analyze_twca(
            system, chain, enumeration="exhaustive", max_combinations=2**11
        )
        assert pruned.combination_count == 2**10 - 1
        assert pruned.combination_count == eager.combination_count
        assert pruned.unschedulable_count == eager.unschedulable_count
        assert combo_key_sets(pruned.minimal_unschedulable()) == combo_key_sets(
            eager.minimal_unschedulable()
        )
        assert pruned.dmm_curve(KS) == eager.dmm_curve(KS)
        # The point of the frontier search: membership is settled by
        # signature checks, not per-member tests.
        assert pruned.search_checks < pruned.combination_count / 4

    def test_pruned_mode_ignores_max_combinations(self):
        system = self._system(12)
        chain = system["victim"]
        with pytest.raises(ValueError):
            analyze_twca(
                system, chain, enumeration="exhaustive", max_combinations=100
            )
        result = analyze_twca(system, chain, max_combinations=100)
        assert result.combination_count == 2**12 - 1
        assert math.isfinite(result.min_slack)
