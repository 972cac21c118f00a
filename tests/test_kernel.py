"""Parity of the analysis' fast paths with their scalar references.

The contracts under test:

* the compiled staircase ``eta_plus`` — and the event counter the
  interference terms hold — equals the generic galloping
  pseudo-inverse search pointwise, for every shipped event model
  (hypothesis property test);
* the analysis path's fixed points (``busy_times``, the latency scan,
  the per-signature Def. 10 exact check) land on the bit-identical
  fixed points and verdicts as the scalar references, on randomized
  systems, and the totals the analysis path carries are bit-identical
  to the scalar breakdowns' ``total``;
* the simplex is a pure function of its data on randomized LPs: same
  statuses, objectives, values and pivot counts however the data is
  typed and in whatever order an rhs schedule is solved;
* deterministic batch exports are byte-identical across cache states,
  worker counts and enumeration modes.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PeriodicModel, SporadicModel, SystemBuilder, analyze_twca
from repro.analysis import analyze_latency, busy_time, criterion_loads
from repro.analysis.busy_window import _InterferenceModel, busy_times
from repro.analysis.combinations import (
    iter_combinations,
    overload_active_segments,
)
from repro.analysis.exceptions import BusyWindowDivergence
from repro.analysis.twca import _build_verdict
from repro.arrivals import ArrivalCurve, SporadicBurstModel, StaircaseKernel
from repro.arrivals.algebra import scaled, tightest
from repro.ilp.simplex import solve_lp
from repro.kernel import kernel_name
from repro.runner import BatchRunner
from repro.synth import GeneratorConfig, generate_feasible_system

from oracles.def10 import exact_unschedulable_scalar


def random_system(seed, overload_chains=2, asynchronous_fraction=0.0):
    rng = random.Random(seed)
    return generate_feasible_system(
        rng,
        GeneratorConfig(
            chains=2,
            overload_chains=overload_chains,
            utilization=0.5,
            overload_utilization=0.06,
            tasks_per_chain=(2, 4),
            asynchronous_fraction=asynchronous_fraction,
        ),
    )


def exact(values):
    """Values to compare bit for bit: type and ``repr`` (which
    round-trips every float and tells ``0.0`` from ``-0.0``)."""
    return [(type(value), repr(value)) for value in values]


# ----------------------------------------------------------------------
# The fixed numeric paths
# ----------------------------------------------------------------------
class TestKernelSwitch:
    def test_resolves_to_a_concrete_kernel(self):
        # One fixed path per layer: pure-Python analysis, numpy simulator.
        assert kernel_name() == "python-analysis+numpy-sim"


# ----------------------------------------------------------------------
# Staircase kernel: compiled eta_plus == the generic search pointwise
# ----------------------------------------------------------------------
periodic_models = (
    st.tuples(
        st.integers(min_value=1, max_value=1000),
        st.integers(min_value=0, max_value=500),
        st.integers(min_value=0, max_value=50),
    )
    .filter(lambda pjd: pjd[1] < pjd[0] and pjd[2] <= pjd[0])
    .map(lambda pjd: PeriodicModel(pjd[0], jitter=pjd[1], min_distance=pjd[2]))
)

sporadic_models = st.builds(
    SporadicModel, min_distance=st.integers(min_value=1, max_value=1000)
)

burst_models = st.builds(
    lambda inner, burst, slack: SporadicBurstModel(
        inner, burst, burst * inner + slack
    ),
    inner=st.integers(min_value=1, max_value=50),
    burst=st.integers(min_value=1, max_value=6),
    slack=st.integers(min_value=0, max_value=500),
)


@st.composite
def curve_models(draw):
    increments = draw(
        st.lists(st.integers(min_value=1, max_value=500), min_size=1, max_size=6)
    )
    points = [0, 0]
    for inc in increments:
        points.append(points[-1] + inc)
    tail = draw(st.integers(min_value=1, max_value=500))
    return ArrivalCurve(points, tail_distance=tail)


@st.composite
def algebra_models(draw):
    base = draw(st.one_of(periodic_models, sporadic_models, burst_models))
    if draw(st.booleans()):
        return scaled(base, draw(st.integers(min_value=1, max_value=5)))
    other = draw(st.one_of(periodic_models, sporadic_models))
    return tightest(base, other)


any_model = st.one_of(
    periodic_models, sporadic_models, burst_models, curve_models(), algebra_models()
)

windows = st.lists(
    st.one_of(
        st.integers(min_value=-5, max_value=100_000),
        st.floats(
            min_value=0.0, max_value=1e5, allow_nan=False, allow_infinity=False
        ),
    ),
    min_size=1,
    max_size=20,
)


class TestEtaParity:
    @settings(max_examples=120, deadline=None)
    @given(model=any_model, dts=windows)
    def test_batched_equals_scalar_equals_search(self, model, dts):
        reference = [model._eta_plus_search(dt) if dt > 0 else 0 for dt in dts]
        count = model.eta_plus_counter()  # what the interference terms hold
        for _ in range(2):  # a repeat answers like the first call
            assert [model.eta_plus(dt) for dt in dts] == reference
            assert [count(dt) for dt in dts] == reference

    @settings(max_examples=60, deadline=None)
    @given(model=any_model, k=st.integers(min_value=2, max_value=48))
    def test_kernel_delta_matches_model_delta(self, model, k):
        kernel = model.staircase_kernel()
        if kernel is None:
            return
        assert kernel.delta(k) == model.delta_minus(k)

    def test_float_jittered_periodic_keeps_the_pseudo_inverse_contract(self):
        """Non-integral jittered periodic models must not compile a
        kernel: the tail's ``breaks[L-1] + c*P`` associates differently
        from ``(k-1)*P - J`` and an ulp drift across a boundary
        *under*-counts an interfering activation (unsound)."""
        model = PeriodicModel(0.1, 0.31000000000000005, 0.010000000000000002)
        assert model.staircase_kernel() is None
        dt = 38.790000000000006
        assert model.delta_minus(392) < dt  # 392 events fit strictly below
        assert model.eta_plus(dt) == 392

    def test_zero_jitter_float_periodic_still_compiles(self):
        model = PeriodicModel(0.30000000000000004)
        kernel = model.staircase_kernel()
        assert kernel is not None  # exact: tail is float-identical
        for k in range(2, 64):
            assert kernel.delta(k) == model.delta_minus(k)

    def test_float_scaled_models_keep_the_pseudo_inverse_contract(self):
        """Fractional scale factors must not compile a composed kernel:
        kernel tail arithmetic associates differently from the scaled
        model's own ``delta_minus`` and can drift an ulp across a
        staircase boundary.  The model falls back to the authoritative
        galloping search instead."""
        model = scaled(SporadicModel(9.48126033806018), 1.214729314448362)
        assert model.staircase_kernel() is None
        for k in range(2, 40):
            boundary = model.delta_minus(k)
            assert model.eta_plus(boundary) <= k - 1
            assert model.eta_plus(boundary + 1) >= k

    def test_integer_scaled_models_compose_exactly(self):
        model = scaled(SporadicModel(700), 3)
        kernel = model.staircase_kernel()
        assert kernel is not None
        for k in range(2, 64):
            assert kernel.delta(k) == model.delta_minus(k)

    def test_too_dense_curve_overflows_like_before(self):
        curve = ArrivalCurve([0, 0])  # zero tail: infinitely dense
        with pytest.raises(OverflowError):
            curve.eta_plus(1)
        with pytest.raises(OverflowError):
            curve.staircase_kernel().eta_plus(1.0)

    def test_kernel_validates_breaks(self):
        with pytest.raises(ValueError):
            StaircaseKernel([0, 1], 1, 1.0)  # delta_minus(1) must be 0
        with pytest.raises(ValueError):
            StaircaseKernel([0, 0, 5, 3], 1, 1.0)  # not monotone
        with pytest.raises(ValueError):
            StaircaseKernel([0, 0], 5, 1.0)  # tail period exceeds prefix


# ----------------------------------------------------------------------
# Fixed-point bit-identity
# ----------------------------------------------------------------------
def strip(breakdown):
    """Every breakdown field except the ``iterations`` diagnostic."""
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


#: Random systems (ints), plus ones with asynchronous chains
#: (``"async:<seed>"``), checked under a non-zero combination cost: they
#: reach every Theorem 1 component (arbitrary, deferred asynchronous and
#: synchronous interferers, the target's own header backlog).
BUSY_CASES = (*range(0, 30, 3), "async:1", "async:4", "async:7")


def busy_case(case):
    """The system and combination cost of a ``BUSY_CASES`` entry."""
    if isinstance(case, int):
        return random_system(case, overload_chains=1 + case % 3), 0.0
    seed = int(case.split(":")[1])
    system = random_system(seed, 1 + seed % 3, asynchronous_fraction=0.5)
    return system, 7.5


class TestBatchedKleene:
    @pytest.mark.parametrize("seed", BUSY_CASES)
    def test_busy_times_matches_scalar(self, seed):
        system, cost = busy_case(seed)
        components = set()
        for chain in system.typical_chains:
            qs = (1, 2, 3, 5)
            try:
                scalar = {
                    q: busy_time(system, chain, q, combination_cost=cost) for q in qs
                }
            except BusyWindowDivergence:
                continue
            batched = busy_times(system, chain, qs, combination_cost=cost)
            assert {q: strip(b) for q, b in batched.items()} == {
                q: strip(b) for q, b in scalar.items()
            }
            # The Eq. (4) loads are the scalar window-mode totals.
            loads = criterion_loads(system, chain, qs)
            windows = {q: chain.activation.delta_minus(q) + chain.deadline for q in qs}
            typical = {
                q: busy_time(system, chain, q, include_overload=False, window=window)
                for q, window in windows.items()
            }
            assert exact(loads.values()) == exact(b.total for b in typical.values())
            # total() is evaluate().total at fixed points, at every
            # chain's first staircase steps and off them.
            steps = {c.activation.delta_minus(k) for c in system.chains for k in (2, 3)}
            horizons = sorted(
                {0.5, 1, 97, 333.25, *windows.values(), *steps}
                | {b.total for b in scalar.values()}
            )
            cells = [(q, horizon) for q in qs for horizon in horizons]
            for include_overload in (True, False):
                model = _InterferenceModel(system, chain, include_overload)
                assert exact(model.total(q, h, cost) for q, h in cells) == exact(
                    model.evaluate(q, h, cost).total for q, h in cells
                )
            reached = {
                "arbitrary": scalar[1].arbitrary,
                "async": scalar[1].deferred_async,
                "sync": scalar[1].deferred_sync,
                "self": model.self_header,
            }
            components.update(name for name, present in reached.items() if present)
        if isinstance(seed, str):
            assert components == {"arbitrary", "async", "sync", "self"}

    @pytest.mark.parametrize("seed", range(0, 24, 5))
    def test_latency_scan_matches_across_kernels(self, seed):
        """The latency scan's busy times are the per-``q``
        scalar fixed points' totals, bit for bit (Theorem 2 over
        ``q = 1 .. K``)."""
        system = random_system(seed, overload_chains=1 + seed % 2)
        for chain in system.typical_chains:
            try:
                result = analyze_latency(system, chain)
            except BusyWindowDivergence:
                continue
            scalar = [
                busy_time(system, chain, q).total
                for q in range(1, result.max_queue + 1)
            ]
            assert exact(result.busy_times) == exact(scalar)
            latencies = [
                b - chain.activation.delta_minus(q)
                for q, b in enumerate(scalar, start=1)
            ]
            assert tuple(result.latencies) == tuple(latencies)
            assert result.wcl == max(latencies)
            assert result.critical_q == latencies.index(result.wcl) + 1

    @pytest.mark.parametrize("seed", range(0, 36, 4))
    def test_multi_q_exact_check_matches_scalar_reference(self, seed):
        system = random_system(seed, overload_chains=1 + seed % 3)
        for chain in system.typical_chains:
            try:
                full = analyze_latency(system, chain, include_overload=True)
            except BusyWindowDivergence:
                continue
            if full.wcl <= chain.deadline:
                continue  # schedulable: no Def. 10 stage
            deltas = {
                q: chain.activation.delta_minus(q)
                for q in range(1, full.max_queue + 1)
            }
            loads = criterion_loads(system, chain, tuple(deltas))
            segments = overload_active_segments(system, chain)
            verdict = _build_verdict(
                system, chain, deltas, loads, segments, exact_criterion=True
            )
            for combo in iter_combinations(segments):
                signature = combo.signature
                assert verdict.exact_check(signature) == exact_unschedulable_scalar(
                    system, chain, deltas, signature
                )

    @pytest.mark.parametrize("seed", (2, 9, 21))
    def test_analyze_twca_identical_across_kernels(self, seed):
        """The pruned search (memoized Def. 10 checks) and the exhaustive
        pipeline (one check per combination) agree end to end."""
        system = random_system(seed, overload_chains=2)
        for chain in system.typical_chains:
            outcomes = []
            for enumeration in ("pruned", "exhaustive"):
                result = analyze_twca(system, chain, enumeration=enumeration)
                outcomes.append(
                    (
                        result.status,
                        result.n_b,
                        result.min_slack,
                        result.combination_count,
                        result.unschedulable_count,
                        result.dmm_curve((1, 3, 10, 50)),
                    )
                )
            assert outcomes[0] == outcomes[1]


# ----------------------------------------------------------------------
# Simplex parity: no state survives a solve
# ----------------------------------------------------------------------
def random_lp(rng, num_vars, num_rows):
    objective = [
        rng.randint(0, 5) + rng.choice([0.0, rng.random()]) for _ in range(num_vars)
    ]
    rows = [
        [rng.choice([0.0, 0.0, 1.0, 2.0, rng.random() * 3]) for _ in range(num_vars)]
        for _ in range(num_rows)
    ]
    rhs = [rng.choice([rng.randint(-2, 10), rng.random() * 8]) for _ in range(num_rows)]
    return objective, rows, rhs


def outcome(result):
    return (result.status, result.objective, result.values, result.pivots)


class TestTableauParity:
    @pytest.mark.parametrize("seed", range(12))
    def test_cold_solves_pivot_identically(self, seed):
        """Solving an LP again — with the matrix passed as tuples of
        rows — gives the same status, optimum, point and pivots."""
        rng = random.Random(seed)
        for _ in range(25):
            objective, rows, rhs = random_lp(
                rng, rng.randint(1, 12), rng.randint(1, 10)
            )
            first = outcome(solve_lp(objective, rows, rhs))
            again = solve_lp(tuple(objective), tuple(map(tuple, rows)), tuple(rhs))
            assert outcome(again) == first

    @pytest.mark.parametrize("seed", range(8))
    def test_warm_rhs_schedules_pivot_identically(self, seed):
        """Every rhs of a schedule pivots the same whether the schedule
        is solved forwards or backwards."""
        rng = random.Random(1000 + seed)
        objective, rows, _ = random_lp(rng, rng.randint(1, 10), rng.randint(1, 8))
        schedule = [[float(rng.randint(0, 8)) for _ in rows] for _ in range(15)]
        forward = [outcome(solve_lp(objective, rows, rhs)) for rhs in schedule]
        backward = [outcome(solve_lp(objective, rows, rhs)) for rhs in schedule[::-1]]
        assert forward == backward[::-1]


# ----------------------------------------------------------------------
# End to end: byte-identical exports
# ----------------------------------------------------------------------
class TestExportIdentity:
    def hotpath_system(self):
        builder = SystemBuilder("kernel-export", allow_shared_priorities=True)
        builder.chain("victim", PeriodicModel(200), deadline=233)
        builder.task("victim.a", priority=2, wcet=25)
        builder.task("victim.b", priority=3, wcet=15)
        for index in range(4):
            name = f"isr{index}"
            builder.chain(name, SporadicModel(5000 + 100 * index), overload=True)
            builder.task(f"{name}.t", priority=10 + index, wcet=9 + index)
        return builder.build()

    def test_serial_export_identical_across_kernels(self, tmp_path):
        """Cold cache directory, warm cache directory and no cache at
        all export the same bytes."""
        system = self.hotpath_system()
        exports = []
        for use_cache in (True, True, False):
            batch = BatchRunner(
                workers=1,
                ks=(1, 5, 25),
                cache_dir=str(tmp_path / "cache"),
                use_cache=use_cache,
            ).run_systems([system])
            exports.append(batch.to_json())
        assert len(set(exports)) == 1

    def test_parallel_export_identical_across_kernels(self):
        """Process fan-out exports the same bytes as the serial run."""
        system = self.hotpath_system()
        exports = [
            BatchRunner(workers=workers, ks=(1, 10), use_cache=False)
            .run_systems([system])
            .to_json()
            for workers in (1, 2)
        ]
        assert len(set(exports)) == 1
