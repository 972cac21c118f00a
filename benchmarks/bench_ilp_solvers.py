"""A2 — Ablation: the packing solver against its oracles.

Times the production solver (:func:`repro.ilp.solve`: closed form for
one variable, branch-and-bound otherwise), the branch-and-bound alone,
and the reference solvers of ``tests/oracles/packing.py`` (exact DP,
scipy/HiGHS, the greedy heuristic) on packing programs harvested from
the Figure 5 population, and verifies the exact ones agree everywhere.
"""

from __future__ import annotations

import random

import pytest
from conftest import run_once
from oracles.packing import (scipy_available, solve_dp, solve_greedy,
                             solve_scipy)

from repro import analyze_twca
from repro.ilp import IntegerProgram, solve, solve_branch_bound
from repro.synth import figure4_system, random_systems


def harvest_programs(count: int = 25, seed: int = 5):
    """Packing programs from TWCA runs over random priority
    assignments of the case study."""
    rng = random.Random(seed)
    base = figure4_system()
    programs = []
    for system in random_systems(base, count * 3, rng):
        for name in ("sigma_c", "sigma_d"):
            result = analyze_twca(system, system[name])
            if not result.unschedulable:
                continue
            omegas = {chain: result.omega(chain, 10)
                      for chain in result.active_segments}
            if any(o != o or o == float("inf") for o in omegas.values()):
                continue
            rows, rhs = [], []
            for chain in sorted(result.active_segments):
                for segment in result.active_segments[chain]:
                    row = [1.0 if combo.uses(segment) else 0.0
                           for combo in result.unschedulable]
                    if any(row):
                        rows.append(row)
                        rhs.append(float(omegas[chain]))
            programs.append(IntegerProgram(
                objective=[1.0] * len(result.unschedulable),
                rows=rows, rhs=rhs))
            if len(programs) >= count:
                return programs
    return programs


@pytest.fixture(scope="module")
def programs():
    return harvest_programs()


def test_solver_agreement_on_harvest(benchmark, programs):
    def solve_all():
        results = []
        for program in programs:
            ours = solve(program)
            bb = solve_branch_bound(program)
            dp = solve_dp(program)
            gr = solve_greedy(program)
            assert ours.objective == bb.objective == dp.objective
            if scipy_available():
                assert ours.objective == solve_scipy(program).objective
            assert gr.objective <= ours.objective
            results.append(ours.objective)
        return results

    optima = run_once(benchmark, solve_all)
    print(f"\n{len(optima)} packings solved; optima histogram: "
          f"{sorted(set(optima))}")
    assert optima  # harvested something


def test_solve_speed(benchmark, programs):
    result = benchmark(lambda: [solve(p).objective for p in programs])
    assert len(result) == len(programs)


def test_branch_bound_speed(benchmark, programs):
    result = benchmark(lambda: [solve_branch_bound(p).objective
                                for p in programs])
    assert len(result) == len(programs)


def test_dp_speed(benchmark, programs):
    result = benchmark(lambda: [solve_dp(p).objective for p in programs])
    assert len(result) == len(programs)


@pytest.mark.skipif(not scipy_available(), reason="scipy not installed")
def test_scipy_speed(benchmark, programs):
    result = benchmark(lambda: [solve_scipy(p).objective
                                for p in programs])
    assert len(result) == len(programs)


def test_greedy_speed(benchmark, programs):
    result = benchmark(lambda: [solve_greedy(p).objective
                                for p in programs])
    assert len(result) == len(programs)


def test_greedy_quality_gap(benchmark, programs):
    """How much does the heuristic lose?  (It is never used for reported
    bounds; this quantifies why.)"""

    def gaps():
        out = []
        for program in programs:
            exact = solve(program).objective
            heur = solve_greedy(program).objective
            if exact > 0:
                out.append(heur / exact)
        return out

    ratios = run_once(benchmark, gaps)
    print(f"\ngreedy/exact ratios: min={min(ratios):.3f} "
          f"mean={sum(ratios) / len(ratios):.3f}")
    assert all(0 <= r <= 1 + 1e-9 for r in ratios)
