"""Tests for combination enumeration (Def. 9) and the Eq. (5) split."""

from repro import PeriodicModel, SporadicModel, SystemBuilder
from repro.analysis import (Combination, iter_combinations,
                            overload_active_segments, search_combinations)


def all_combinations(segments_by_chain):
    return list(iter_combinations(segments_by_chain))


def above(threshold):
    """The Eq. (5) cost threshold as a signature predicate: flagged iff
    the summed cost exceeds ``threshold``."""
    return lambda signature: sum(cost for _, cost in signature) > threshold


class TestFigure1Example:
    """Sec. V example: the active segments of sigma_a admit exactly four
    combinations."""

    def test_four_combinations(self, figure1):
        segs = overload_active_segments(figure1, figure1["sigma_b"])
        combos = all_combinations(segs)
        assert len(combos) == 4
        names = sorted(tuple(sorted(seg.task_names[0]
                                    for seg in combo.segments))
                       for combo in combos)
        assert names == [
            ("tau_a^1",),            # {(a1, a2)}
            ("tau_a^1", "tau_a^3"),  # {(a1, a2), (a3)}
            ("tau_a^3",),            # {(a3)}
            ("tau_a^5",),            # {(a5)}
        ]

    def test_cross_segment_pairs_excluded(self, figure1):
        segs = overload_active_segments(figure1, figure1["sigma_b"])
        combos = all_combinations(segs)
        for combo in combos:
            indices = {seg.segment_index for seg in combo.segments}
            assert len(indices) == 1  # same-segment restriction


class TestEnumeration:
    def _system(self, overload_count):
        builder = SystemBuilder("many")
        builder.chain("victim", PeriodicModel(1000), deadline=1000)
        builder.task("victim.t", priority=1, wcet=1)
        priority = 2
        for i in range(overload_count):
            builder.chain(f"ov{i}", SporadicModel(5000), overload=True)
            builder.task(f"ov{i}.t", priority=priority, wcet=1)
            priority += 1
        return builder.build()

    def test_power_set_for_single_segment_chains(self):
        system = self._system(3)
        segs = overload_active_segments(system, system["victim"])
        combos = all_combinations(segs)
        assert len(combos) == 2 ** 3 - 1

    def test_no_overload_chains_means_no_combinations(self, figure1):
        # figure1's sigma_b is typical; a system with no overload at all:
        system = (
            SystemBuilder("calm")
            .chain("a", PeriodicModel(10), deadline=10)
            .task("a.t", priority=1, wcet=1)
            .build()
        )
        assert all_combinations(
            overload_active_segments(system, system["a"])) == []


class TestSplit:
    def test_threshold_split(self, figure1):
        segs = overload_active_segments(figure1, figure1["sigma_b"])
        result = search_combinations(segs, above(1.5))
        # Costs are 2 (a1+a2), 1 (a3), 1 (a5), 3 (a1+a2+a3): the two
        # above 1.5 are unschedulable, and {a1+a2} is the minimal one.
        assert (result.total, result.unschedulable) == (4, 2)
        assert [c.cost for c in result.minimal] == [2]

    def test_zero_slack_rejects_all(self, figure1):
        segs = overload_active_segments(figure1, figure1["sigma_b"])
        result = search_combinations(segs, above(0))
        assert result.unschedulable == result.total == 4

    def test_unschedulability_monotone_under_inclusion(self, figure1):
        """A superset combination is never cheaper: the Eq. (5) threshold
        preserves the knapsack monotonicity."""
        segs = overload_active_segments(figure1, figure1["sigma_b"])
        combos = all_combinations(segs)
        by_keys = {frozenset(c.keys): c for c in combos}
        for combo in combos:
            for other_keys, other in by_keys.items():
                if frozenset(combo.keys) < other_keys:
                    assert other.cost >= combo.cost


class TestCombinationObject:
    def test_uses(self, figure1):
        segs = overload_active_segments(figure1, figure1["sigma_b"])
        all_segments = segs["sigma_a"]
        combo = Combination((all_segments[0],))
        assert combo.uses(all_segments[0])
        assert not combo.uses(all_segments[1])

    def test_cost_sums_wcets(self, figure1):
        segs = overload_active_segments(figure1, figure1["sigma_b"])
        combo = Combination(tuple(segs["sigma_a"][:2]))
        assert combo.cost == sum(s.wcet for s in segs["sigma_a"][:2])

    def test_len_and_str(self, figure1):
        segs = overload_active_segments(figure1, figure1["sigma_b"])
        combo = Combination((segs["sigma_a"][0],))
        assert len(combo) == 1
        assert "sigma_a" in str(combo)
