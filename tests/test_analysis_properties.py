"""Property-based tests of analysis-level invariants over random
systems."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import GuaranteeStatus, analyze_latency, analyze_twca
from repro.analysis import busy_time
from repro.model.serialization import system_from_dict, system_to_dict
from repro.synth import GeneratorConfig, generate_feasible_system


def small_system(seed: int):
    rng = random.Random(seed)
    return generate_feasible_system(rng, GeneratorConfig(
        chains=2, overload_chains=1, utilization=0.5,
        overload_utilization=0.05, tasks_per_chain=(2, 4)))


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10_000))
def test_busy_time_superlinear_in_q(seed):
    """B(q+1) - B(q) >= C_b: each extra activation costs at least the
    chain's own demand."""
    system = small_system(seed)
    chain = system.typical_chains[0]
    previous = busy_time(system, chain, 1).total
    for q in range(2, 5):
        current = busy_time(system, chain, q).total
        assert current - previous >= chain.total_wcet - 1e-9
        previous = current


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10_000))
def test_typical_bound_below_full(seed):
    system = small_system(seed)
    for chain in system.typical_chains:
        full = analyze_latency(system, chain, include_overload=True)
        typical = analyze_latency(system, chain, include_overload=False)
        assert typical.wcl <= full.wcl + 1e-9


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10_000))
def test_dmm_monotone_and_clamped(seed):
    system = small_system(seed)
    chain = system.typical_chains[0]
    result = analyze_twca(system, chain)
    previous = 0
    for k in range(1, 15):
        value = result.dmm(k)
        assert 0 <= value <= k
        assert value >= previous
        previous = value


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10_000))
def test_schedulable_iff_zero_dmm(seed):
    system = small_system(seed)
    for chain in system.typical_chains:
        result = analyze_twca(system, chain)
        if result.status is GuaranteeStatus.SCHEDULABLE:
            assert all(result.dmm(k) == 0 for k in (1, 5, 10))
        elif result.status is GuaranteeStatus.WEAKLY_HARD:
            assert result.wcl > chain.deadline


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10_000), factor=st.sampled_from([2, 4, 8]))
def test_scaling_overload_period_never_hurts(seed, factor):
    """Making the overload rarer (scaling its inter-arrival up) never
    increases the dmm."""
    from repro.arrivals.algebra import scaled
    from repro.model import System

    system = small_system(seed)
    chain = system.typical_chains[0]
    base = analyze_twca(system, chain)

    rarer_chains = []
    for c in system.chains:
        if c.overload:
            rarer_chains.append(
                c.with_activation(scaled(c.activation, factor)))
        else:
            rarer_chains.append(c)
    rarer = System(rarer_chains, name="rarer",
                   allow_shared_priorities=True)
    relaxed = analyze_twca(rarer, rarer[chain.name])
    for k in (1, 5, 10):
        assert relaxed.dmm(k) <= base.dmm(k)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10_000))
def test_wcl_bounded_below_by_isolation(seed):
    """The latency bound is at least the chain's isolated execution."""
    system = small_system(seed)
    for chain in system.chains:
        result = analyze_latency(system, chain)
        assert result.wcl >= chain.total_wcet - 1e-9


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10_000))
def test_omega_monotone_in_k(seed):
    system = small_system(seed)
    chain = system.typical_chains[0]
    result = analyze_twca(system, chain)
    if result.status is not GuaranteeStatus.WEAKLY_HARD:
        return
    for overload in result.active_segments:
        previous = 0
        for k in (1, 2, 5, 10, 20):
            omega = result.omega(overload, k)
            assert omega >= previous
            previous = omega


#: Scaling by a power of two is exact in binary floats.
TIME_SCALE = 2.0 ** -10

#: Serialized fields that hold a time (or a list of times).
TIME_FIELDS = {
    "period", "jitter", "min_distance", "inner_distance", "outer_distance",
    "tail_distance", "delta_min_points", "delta_max_points", "deadline",
    "wcet", "bcet",
}


def scale_times(data):
    """``data`` (a serialized system) with every time field scaled."""
    if isinstance(data, list):
        return [scale_times(item) for item in data]
    if not isinstance(data, dict):
        return data
    scaled = {}
    for key, value in data.items():
        if key in TIME_FIELDS and isinstance(value, list):
            value = [item * TIME_SCALE for item in value]
        elif key in TIME_FIELDS and value is not None:
            value = value * TIME_SCALE
        scaled[key] = scale_times(value)
    return scaled


@pytest.mark.parametrize("seed", range(150))
def test_analysis_is_invariant_under_time_scaling(seed):
    """The analysis has no absolute time unit: scaling every time of a
    system by a power of two keeps each TWCA status and DMM curve and
    scales the WCL exactly.  A Kleene iteration that started at a floor
    of 1 time unit instead of the base demand broke this on small time
    scales."""
    system = generate_feasible_system(random.Random(seed), GeneratorConfig(
        chains=3, overload_chains=1, utilization=0.6,
        overload_utilization=0.1, deadline_factor=0.8))
    small = system_from_dict(scale_times(system_to_dict(system)))
    for chain in system.typical_chains:
        result = analyze_twca(system, chain)
        scaled = analyze_twca(small, small[chain.name])
        assert scaled.status is result.status
        assert scaled.dmm_curve((3, 10, 100)) == result.dmm_curve((3, 10, 100))
        assert scaled.wcl == result.wcl * TIME_SCALE
