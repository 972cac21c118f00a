"""2-D (signature x q) masked Kleene parity.

The contracts under test:

* ``solve_monotone_fixed_points_2d`` lands on bit-identical values,
  iteration counts and failure reasons as per-row 1-D
  ``solve_monotone_fixed_points`` and as a cell-at-a-time scalar
  reference, on randomized monotone staircase instances (hypothesis
  property test), including per-cell ``OverflowError`` isolation;
* ``stop_row`` settles exactly the rows whose independent cell
  trajectories cross the stop predicate, and never perturbs the
  surviving rows;
* the block Def. 10 verdict (``verdict.many`` /
  ``verdict.exact_check_many``) decides every signature exactly like
  the one-``q``-at-a-time oracle (``tests/oracles/def10.py``), whether
  the signatures come as one block or as blocks of one, and whether it
  computes its typical fixed points itself or reuses the typical
  latency's busy times over a typical model derived from the full one
  (the ``analyze_twca`` construction);
* the batched wavefront search (``search_combinations(batch=True)``)
  reports the same counts, checks, nodes and minimal combinations as
  the depth-first recursion it replaces.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import analyze_latency, criterion_loads
from repro.analysis.busy_window import _InterferenceModel
from repro.analysis.combinations import (
    iter_combinations,
    overload_active_segments,
    search_combinations,
)
from repro.analysis.exceptions import BusyWindowDivergence
from repro.analysis.twca import _build_verdict
from repro.kernel import solve_monotone_fixed_points, solve_monotone_fixed_points_2d
from repro.synth import GeneratorConfig, figure4_system, generate_feasible_system
from repro.synth.corpus import CorpusSpec, generate_entry

from oracles.def10 import exact_unschedulable_scalar

MAX_WINDOW = 5_000.0
MAX_ITERATIONS = 60


# ----------------------------------------------------------------------
# The raw 2-D helper against its 1-D and scalar references
# ----------------------------------------------------------------------
def staircase(base, rate, step):
    """A monotone staircase operator: the synthetic stand-in for one
    Eq. (3) interference sum."""

    def fn(horizon):
        return float(base + rate * math.floor(horizon / step))

    return fn


def scalar_fixed_point(seed, fn):
    """Cell-at-a-time Kleene iteration with the exact failure semantics
    of :func:`solve_monotone_fixed_points`."""
    horizon = float(seed)
    iterations = 0
    while True:
        try:
            total = float(fn(horizon))
        except OverflowError as exc:
            return None, iterations + 1, f"overflow: {exc}"
        iterations += 1
        if total <= horizon:
            return total, iterations, None
        if total > MAX_WINDOW:
            return None, iterations, "window"
        if iterations > MAX_ITERATIONS:
            return None, iterations, "iterations"
        horizon = total


cell_params = st.tuples(
    st.integers(min_value=1, max_value=400),
    st.integers(min_value=0, max_value=60),
    st.integers(min_value=1, max_value=40),
)

instances = st.lists(
    st.lists(cell_params, min_size=1, max_size=5), min_size=1, max_size=6
)


def build_instance(instance):
    fns = [[staircase(*cell) for cell in row] for row in instance]
    seeds = [[float(cell[0]) for cell in row] for row in instance]

    def totals_many(cells, horizons):
        return [fns[r][c](h) for (r, c), h in zip(cells, horizons)]

    def totals_one(r, c, horizon):
        return fns[r][c](horizon)

    return fns, seeds, totals_many, totals_one


class TestMasked2dKleene:
    @settings(max_examples=150, deadline=None)
    @given(instance=instances)
    def test_matches_per_row_1d_and_scalar(self, instance):
        fns, seeds, totals_many, totals_one = build_instance(instance)
        values, iterations, failures, stopped = solve_monotone_fixed_points_2d(
            seeds,
            totals_many,
            totals_one,
            max_window=MAX_WINDOW,
            max_iterations=MAX_ITERATIONS,
        )
        assert stopped == [False] * len(instance)
        for r, row_fns in enumerate(fns):

            def row_many(indices, horizons, row_fns=row_fns):
                return [row_fns[c](h) for c, h in zip(indices, horizons)]

            def row_one(c, horizon, row_fns=row_fns):
                return row_fns[c](horizon)

            reference = solve_monotone_fixed_points(
                seeds[r],
                row_many,
                row_one,
                max_window=MAX_WINDOW,
                max_iterations=MAX_ITERATIONS,
            )
            assert (values[r], iterations[r], failures[r]) == reference
            for c, fn in enumerate(row_fns):
                assert (
                    values[r][c],
                    iterations[r][c],
                    failures[r][c],
                ) == scalar_fixed_point(seeds[r][c], fn)

    @settings(max_examples=120, deadline=None)
    @given(instance=instances, threshold=st.integers(min_value=1, max_value=4_000))
    def test_stop_row_settles_exactly_the_crossing_rows(self, instance, threshold):
        fns, seeds, totals_many, totals_one = build_instance(instance)

        def stop_row(r, c, total):
            return total > threshold

        values, _, failures, stopped = solve_monotone_fixed_points_2d(
            seeds,
            totals_many,
            totals_one,
            max_window=MAX_WINDOW,
            max_iterations=MAX_ITERATIONS,
            stop_row=stop_row,
        )
        plain = solve_monotone_fixed_points_2d(
            seeds,
            totals_many,
            totals_one,
            max_window=MAX_WINDOW,
            max_iterations=MAX_ITERATIONS,
        )

        def crosses(r):
            # Cells advance in lockstep sweeps and trajectories are
            # independent, so a row stops iff some cell's own trajectory
            # produces a crossing total before it converges or fails.
            for c, fn in enumerate(fns[r]):
                horizon = seeds[r][c]
                for _ in range(MAX_ITERATIONS + 1):
                    total = fn(horizon)
                    if total > threshold:
                        return True
                    if total <= horizon or total > MAX_WINDOW:
                        break
                    horizon = total
            return False

        for r in range(len(instance)):
            assert stopped[r] == crosses(r)
            if not stopped[r]:
                # Surviving rows never feel the other rows stopping.
                assert values[r] == plain[0][r]
                assert failures[r] == plain[2][r]

    def test_overflow_isolated_per_cell(self):
        def dense(_horizon):
            raise OverflowError("curve too dense")

        def late(horizon):
            if horizon > 40:
                raise OverflowError("late overflow")
            return float(30 + 2 * math.floor(horizon / 3))

        fns = [[dense, staircase(3, 1, 10)], [late], [staircase(5, 0, 1)]]
        seeds = [[1.0, 1.0], [1.0], [1.0]]

        def totals_many(cells, horizons):
            return [fns[r][c](h) for (r, c), h in zip(cells, horizons)]

        def totals_one(r, c, horizon):
            return fns[r][c](horizon)

        values, iterations, failures, stopped = solve_monotone_fixed_points_2d(
            seeds,
            totals_many,
            totals_one,
            max_window=MAX_WINDOW,
            max_iterations=MAX_ITERATIONS,
        )
        assert stopped == [False, False, False]
        assert failures[0][0] == "overflow: curve too dense"
        assert failures[1][0] == "overflow: late overflow"
        for r, row_fns in enumerate(fns):
            for c, fn in enumerate(row_fns):
                assert (
                    values[r][c],
                    iterations[r][c],
                    failures[r][c],
                ) == scalar_fixed_point(seeds[r][c], fn)

    def test_empty_rows_are_legal(self):
        values, iterations, failures, stopped = solve_monotone_fixed_points_2d(
            [[], [2.0]],
            lambda cells, horizons: [5.0 for _ in cells],
            lambda r, c, horizon: 5.0,
            max_window=MAX_WINDOW,
            max_iterations=MAX_ITERATIONS,
        )
        assert values == [[], [5.0]]
        assert iterations == [[], [2]]
        assert failures == [[], [None]]
        assert stopped == [False, False]


# ----------------------------------------------------------------------
# The block Def. 10 verdict against the scalar oracle
# ----------------------------------------------------------------------
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
            assert verdict.many(signatures) == reference
            # The repeat is answered purely from the memo.
            assert verdict.many(signatures) == reference
            single = build(system, chain, inputs)
            assert [single(s) for s in signatures] == reference
            assert build_derived(system, chain, inputs).many(signatures) == reference

    @pytest.mark.parametrize("case", [c for c in VERDICT_CASES if isinstance(c, str)])
    def test_cases_reach_the_typical_remainder(self, case):
        """The corpus cases reach Def. 10 with K_full > K_typ, so the
        derived verdict computes the q > K_typ fixed points on top of
        the typical latency's busy times; and Def. 10 clears some
        signature Eq. (5) flags, so a typical fixed point set too high
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
            block = verdict.exact_check_many(signatures)
            singles = [verdict.exact_check_many([s])[0] for s in signatures]
            assert block == singles
            assert block == [
                exact_unschedulable_scalar(system, chain, deltas, s) for s in signatures
            ]


# ----------------------------------------------------------------------
# The batched wavefront search against the depth-first recursion
# ----------------------------------------------------------------------
class TestBatchedSearch:
    @pytest.mark.parametrize("seed", (0, 6, 14, 23, 27))
    def test_wavefront_matches_depth_first(self, seed):
        system = random_system(seed, overload_chains=1 + seed % 3)
        for chain in system.typical_chains:
            inputs = verdict_inputs(system, chain)
            if inputs is None:
                continue
            _, _, segments = inputs
            batched = search_combinations(segments, build(system, chain, inputs))
            sequential = search_combinations(
                segments, build(system, chain, inputs), batch=False
            )
            assert batched.total == sequential.total
            assert batched.unschedulable == sequential.unschedulable
            assert batched.checks == sequential.checks
            assert batched.nodes == sequential.nodes
            assert [c.signature for c in batched.minimal] == [
                c.signature for c in sequential.minimal
            ]

    def test_forced_batch_plain_callable_matches(self):
        system = figure4_system()
        chain = system["sigma_c"]
        segments = overload_active_segments(system, chain)

        def flagged(signature):
            return sum(weight for _, weight in signature) > 25.0

        forced = search_combinations(segments, flagged, batch=True)
        plain = search_combinations(segments, flagged, batch=False)
        assert forced.total == plain.total
        assert forced.unschedulable == plain.unschedulable
        assert forced.checks == plain.checks
        assert forced.nodes == plain.nodes
        assert [c.signature for c in forced.minimal] == [
            c.signature for c in plain.minimal
        ]
