"""Differential suite for the Theorem 3 packing solver.

The contract: :func:`repro.ilp.solve` (a closed form for one variable,
the cold branch-and-bound otherwise) answers exactly what the reference
solvers of ``tests/oracles/packing.py`` do, under any capacity schedule
— monotone (the DMM curve shape), shrinking, or repeated.  The
analysis-level face of the same guarantee: ``ChainTwcaResult.dmm_curve``
equals the oracle ``dmm_reference`` (a freshly built program per ``k``,
no memo) on randomized systems — serially, through the batch runner,
and under a persistent cache.  Class names are those of the incremental
engine this suite used to cover; it is gone, and each test now checks
the one solver.
"""

import random
import sys
import threading

import pytest
from oracles.packing import (
    dmm_reference,
    scipy_available,
    solve_dp,
    solve_greedy,
    solve_scipy,
)

from repro.analysis import analyze_twca
from repro.ilp import IntegerProgram, solve, solve_branch_bound, solve_lp
from repro.runner import AnalysisJob, BatchRunner
from repro.synth import figure4_system, random_systems

KS = (1, 2, 3, 5, 10, 17, 50, 100, 250)


def random_instance(rng, max_vars=7, max_rows=5):
    """A Theorem 3-shaped (objective, rows) pair: 0/1 matrix, every
    column covered."""
    num_vars = rng.randint(1, max_vars)
    num_rows = rng.randint(1, max_rows)
    objective = [float(rng.randint(1, 4)) for _ in range(num_vars)]
    rows = [
        [float(rng.randint(0, 1)) for _ in range(num_vars)] for _ in range(num_rows)
    ]
    for j in range(num_vars):
        if not any(row[j] for row in rows):
            extra = [0.0] * num_vars
            extra[j] = 1.0
            rows.append(extra)
    return objective, rows


def program(instance, rhs):
    objective, rows = instance
    return IntegerProgram(objective=objective, rows=rows, rhs=list(rhs))


def capacity_schedule(rng, num_rows, steps=6, state_limit=None):
    """A mostly-monotone schedule with a shrink and a repeat thrown in.

    ``state_limit`` keeps the per-point DP state space (the product of
    capacities + 1) below a budget so the dp differential stays fast."""
    caps = [float(rng.randint(0, 3)) for _ in range(num_rows)]
    schedule = []
    for _ in range(steps + 1):
        if state_limit is not None:
            while True:
                product = 1
                for c in caps:
                    product *= int(c) + 1
                if product <= state_limit:
                    break
                caps[caps.index(max(caps))] -= 1
        schedule.append(tuple(caps))
        caps = [c + rng.randint(0, 2) for c in caps]
    schedule.append(schedule[0])  # shrink back
    schedule.append(schedule[-2])  # repeat
    return schedule


class TestEngineMatchesColdSolves:
    @pytest.mark.parametrize(
        "backend,trials",
        [("branch_bound", 40), ("dp", 10), ("greedy", 40), ("scipy", 8)],
    )
    def test_randomized_schedules(self, backend, trials):
        """``solve`` along capacity schedules against each reference:
        the branch-and-bound itself (which checks the closed form), the
        DP and scipy oracles (exact), and greedy (a feasible lower
        bound)."""
        if backend == "scipy" and not scipy_available():
            pytest.skip("scipy not installed")
        rng = random.Random(sum(map(ord, backend)))
        # The DP walks the full capacity product; keep it small so the
        # differential sweep stays fast.
        state_limit = 4_000 if backend == "dp" else None
        reference = {
            "branch_bound": solve_branch_bound,
            "dp": solve_dp,
            "greedy": solve_greedy,
            "scipy": solve_scipy,
        }[backend]
        for _ in range(trials):
            instance = random_instance(rng)
            schedule = capacity_schedule(rng, len(instance[1]), state_limit=state_limit)
            for rhs in schedule:
                packing = program(instance, rhs)
                ours = solve(packing)
                other = reference(packing)
                assert ours.status == other.status == "optimal"
                assert packing.is_feasible(ours.values)
                if backend == "greedy":
                    assert other.objective <= ours.objective + 1e-9
                else:
                    assert ours.objective == pytest.approx(other.objective)

    def test_dp_engine_refuses_what_solve_dp_refuses(self):
        """An oversized state space is a ValueError for the DP oracle
        only; the production solver answers it exactly."""
        instance = ([1.0] * 3, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(ValueError):
            solve_dp(program(instance, (500.0, 500.0, 500.0)))
        assert solve(program(instance, (500.0, 500.0, 500.0))).objective == 1500.0
        assert solve(program(instance, (20.0, 20.0, 20.0))).objective == 60.0
        assert solve_dp(program(instance, (20.0, 20.0, 20.0))).objective == 60.0

    @pytest.mark.parametrize("backend", ("branch_bound", "dp"))
    def test_engine_matches_scipy(self, backend):
        if not scipy_available():
            pytest.skip("scipy not installed")
        solver = solve if backend == "branch_bound" else solve_dp
        rng = random.Random(99)
        for _ in range(6):
            instance = random_instance(rng, max_vars=5, max_rows=3)
            for rhs in capacity_schedule(rng, len(instance[1]), steps=4):
                ours = solver(program(instance, rhs))
                reference = solve_scipy(program(instance, rhs))
                assert ours.status == reference.status == "optimal"
                assert ours.objective == pytest.approx(reference.objective)

    def test_engine_cross_check_mode(self):
        """Every solve of a schedule passes a cross-check against an
        exact oracle: scipy when installed, the DP otherwise."""
        oracle = solve_scipy if scipy_available() else solve_dp
        rng = random.Random(3)
        instance = random_instance(rng)
        for rhs in capacity_schedule(rng, len(instance[1]), state_limit=4_000):
            ours = solve(program(instance, rhs))
            assert ours.is_optimal
            assert ours.objective == pytest.approx(
                oracle(program(instance, rhs)).objective
            )


class TestEngineState:
    def test_memo_and_warm_counters(self):
        """``dmm`` memoizes the packing optimum per Omega tuple: a
        repeated ``k`` solves nothing, and ``packing_stats`` counts the
        programs solved (``resolves``) and their branch-and-bound nodes
        (``work``)."""
        result = analyze_twca(figure4_system(), figure4_system()["sigma_c"])
        assert result.packing_stats() == {}
        result.dmm(10)
        first = result.packing_stats()
        assert first["resolves"] == 1
        result.dmm(10)
        assert result.packing_stats() == first
        result.dmm(250)
        assert result.packing_stats()["resolves"] == 2
        assert set(result.packing_stats()) == {"resolves", "work"}

    def test_shared_result_is_thread_safe(self):
        """Threads sharing one result (a warm service object) get every
        bound exactly as a serial evaluation does: ``dmm`` keeps no
        solver state, only a memo of deterministic optima."""
        system = figure4_system()
        ks = list(range(1, 120))
        expected = analyze_twca(system, system["sigma_c"]).dmm_curve(ks)
        shared = analyze_twca(system, system["sigma_c"])
        curves = []

        def evaluate(seed):
            order = list(ks)
            random.Random(seed).shuffle(order)
            curves.append({k: shared.dmm(k) for k in order})

        threads = [threading.Thread(target=evaluate, args=(i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(curves) == 8
        assert all(curve == expected for curve in curves)
        assert shared.packing_stats()["resolves"] == len(shared._omega_cache)

    def test_lower_bound_is_sound_and_monotone(self):
        """A packing optimal for smaller capacities stays feasible when
        they grow, so it lower-bounds the new optimum; optima are
        monotone along a growing schedule."""
        rng = random.Random(17)
        instance = random_instance(rng)
        previous = None
        for rhs in capacity_schedule(rng, len(instance[1]), steps=5)[:-2]:
            packing = program(instance, rhs)
            solution = solve(packing)
            if previous is not None and all(a >= b for a, b in zip(rhs, previous[0])):
                assert packing.is_feasible(previous[1].values)
                assert previous[1].objective <= solution.objective + 1e-9
            previous = (rhs, solution)

    def test_unknown_backend_rejected(self):
        """There is one solver: no layer accepts a backend choice."""
        packing = IntegerProgram([1.0], [[1.0]], [1.0])
        with pytest.raises(TypeError):
            solve(packing, backend="dp")
        system = figure4_system()
        with pytest.raises(TypeError):
            analyze_twca(system, system["sigma_c"], backend="greedy")
        with pytest.raises(TypeError):
            BatchRunner(backend="greedy")
        job = AnalysisJob.from_system(system, "sigma_c").to_dict()
        job["backend"] = "branch_bound"
        with pytest.raises(ValueError, match="unknown AnalysisJob fields"):
            AnalysisJob.from_dict(job)

    def test_rhs_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            IntegerProgram([1.0], [[1.0]], [1.0, 2.0])


class TestIncrementalLp:
    def test_infeasible_rhs_detected(self):
        """An rhs change that makes the rows contradictory is reported
        as infeasible; the next feasible rhs solves normally."""
        # x <= b1 and -x <= b2 with b1 + b2 < 0 is contradictory.
        objective, rows = [1.0], [[1.0], [-1.0]]
        assert solve_lp(objective, rows, [4.0, -2.0]).status == "optimal"
        assert solve_lp(objective, rows, [2.0, -5.0]).status == "infeasible"
        assert solve_lp(objective, rows, [5.0, -2.0]).objective == 5.0


def weakly_hard_results(count, seed, **kwargs):
    rng = random.Random(seed)
    base = figure4_system()
    results = []
    for system in random_systems(base, count, rng):
        for name in ("sigma_c", "sigma_d"):
            result = analyze_twca(system, system[name], **kwargs)
            results.append(result)
    return results


class TestDmmCurveDifferential:
    def test_engine_curves_equal_cold_reference(self):
        for result in weakly_hard_results(12, seed=2024):
            assert result.dmm_curve(KS) == {k: dmm_reference(result, k) for k in KS}

    @pytest.mark.parametrize("backend", ("greedy", "scipy"))
    def test_alternate_backends_consistent(self, backend):
        """The cold path through the other solvers: scipy reproduces
        every bound, greedy never exceeds one (it is not a bound)."""
        if backend == "scipy" and not scipy_available():
            pytest.skip("scipy not installed")
        solver = solve_greedy if backend == "greedy" else solve_scipy
        for result in weakly_hard_results(4, seed=7):
            curve = result.dmm_curve(KS)
            other = {k: dmm_reference(result, k, solver) for k in KS}
            if backend == "scipy":
                assert other == curve
            else:
                assert all(other[k] <= curve[k] for k in KS)

    def test_unsorted_and_duplicate_ks_preserve_order(self):
        for result in weakly_hard_results(3, seed=13):
            ks = (100, 1, 50, 1, 10)
            curve = result.dmm_curve(ks)
            assert list(curve) == [100, 1, 50, 10]
            assert curve == {k: dmm_reference(result, k) for k in set(ks)}

    def test_pickled_result_rebuilds_engine(self):
        import pickle

        for result in weakly_hard_results(3, seed=31):
            fresh = pickle.loads(pickle.dumps(result))
            curve = result.dmm_curve(KS)
            clone = pickle.loads(pickle.dumps(result))
            assert clone.dmm_curve(KS) == curve
            assert fresh.dmm_curve(KS) == curve

    def test_saturated_points_still_exact(self):
        """Dense low-k sweeps, where many points saturate at the clamp
        ``dmm(k) = k``, agree with the cold path on every k."""
        for result in weakly_hard_results(6, seed=77):
            ks = tuple(range(1, 40))
            assert result.dmm_curve(ks) == {k: dmm_reference(result, k) for k in ks}


class TestRunnerDifferential:
    def test_exports_identical_serial_parallel_cached(self, tmp_path):
        base = figure4_system()
        rng = random.Random(41)
        systems = list(random_systems(base, 8, rng))
        labels = [f"sys-{i:02d}" for i in range(len(systems))]
        reference = (
            BatchRunner(workers=1, use_cache=False, ks=KS)
            .run_systems(systems, labels=labels)
            .to_json()
        )
        parallel = (
            BatchRunner(workers=2, ks=KS)
            .run_systems(systems, labels=labels)
            .to_json()
        )
        assert parallel == reference
        cache_dir = str(tmp_path / "cache")
        cold = (
            BatchRunner(workers=1, ks=KS, cache_dir=cache_dir)
            .run_systems(systems, labels=labels)
            .to_json()
        )
        warm = (
            BatchRunner(workers=1, ks=KS, cache_dir=cache_dir)
            .run_systems(systems, labels=labels)
            .to_json()
        )
        assert cold == reference
        assert warm == reference

    def test_job_results_carry_packing_stats(self):
        base = figure4_system()
        batch = BatchRunner(workers=1, use_cache=False, ks=KS).run_systems([base])
        by_chain = {job.chain_name: job for job in batch.jobs}
        assert by_chain["sigma_c"].packing.get("resolves", 0) > 0
        assert set(by_chain["sigma_c"].packing) == {"resolves", "work"}
        exported = by_chain["sigma_c"].to_dict(deterministic=False)
        assert "packing" in exported
        assert "packing" not in by_chain["sigma_c"].to_dict()
