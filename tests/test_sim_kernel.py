"""Parity of the simulator's numpy calendar with the scalar event loop.

The numpy event calendar (:mod:`repro.sim.calendar`, behind
``Simulator.run``) promises to be *bit-identical* to the scalar event
loop run over the whole horizon (``Simulator._run_python``): same
``ExecutionSlice`` sequence, same ``InstanceRecord`` values, and
byte-identical exports.  This suite enforces that promise over
hypothesis-randomized feasible systems (synchronous and asynchronous
chains), a hand-built model zoo (periodic with jitter, sporadic,
bursty, explicit arrival curves), the batched activation-stream
builders, the metric helpers, the soak workload and the distributed
simulator.
"""

import gc
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import ChainKind, PeriodicModel, SporadicModel, SystemBuilder
from repro.arrivals import ArrivalCurve, SporadicBurstModel
from repro.distributed import (DistributedChain, DistributedSystem, on,
                               worst_case_distributed_activations)
from repro.distributed.sim import (DistributedInstanceRecord,
                                   DistributedSimulationResult,
                                   DistributedSimulator)
from repro.model import Task
from repro.sim import (Simulator, busy_window_activation_counts,
                       instances_csv, latency_stats, miss_streaks,
                       random_stream, schedule_csv, trace_json,
                       worst_case_stream)
from repro.synth import (GeneratorConfig, generate_feasible_system,
                         soak_workload)

ZOO_MODELS = (
    PeriodicModel(80),
    PeriodicModel(100, jitter=15),
    PeriodicModel(90, jitter=7.5),
    SporadicModel(120),
    SporadicBurstModel(10, burst=3, outer_distance=250),
    ArrivalCurve([0, 0, 10, 200], tail_distance=100),
)


def zoo_system():
    """One chain per arrival-model flavour, alternating chain kinds."""
    builder = SystemBuilder("zoo")
    priority = 3 * len(ZOO_MODELS)
    for index, model in enumerate(ZOO_MODELS):
        kind = ChainKind.SYNCHRONOUS if index % 2 else ChainKind.ASYNCHRONOUS
        builder.chain(f"z{index}", model, deadline=30 + 6 * index, kind=kind)
        for k in range(2):
            builder.task(f"z{index}.t{k}", priority=priority,
                         wcet=4 + 2 * index)
            priority -= 1
    return builder.build()


def run_both(system, activations, horizon):
    fast = Simulator(system).run(activations, horizon)
    reference = Simulator(system)._run_python(activations, horizon)
    return fast, reference


def assert_identical(fast, reference):
    assert fast.slices == reference.slices
    assert fast.instances == reference.instances
    assert trace_json(fast) == trace_json(reference)
    assert schedule_csv(fast) == schedule_csv(reference)
    assert instances_csv(fast) == instances_csv(reference)


class TestEngineParity:
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 10_000))
    def test_randomized_worst_case_bit_identical(self, seed):
        rng = random.Random(seed)
        system = generate_feasible_system(rng, GeneratorConfig(
            chains=2, overload_chains=1, utilization=0.5,
            overload_utilization=0.05))
        horizon = 3000.0
        activations = {
            chain.name: worst_case_stream(chain.activation, horizon)
            for chain in system.chains
        }
        assert_identical(*run_both(system, activations, horizon))

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 10_000))
    def test_randomized_streams_bit_identical(self, seed):
        rng = random.Random(seed)
        system = generate_feasible_system(rng, GeneratorConfig(
            chains=3, overload_chains=0, utilization=0.6))
        horizon = 3000.0
        activations = {
            chain.name: random_stream(chain.activation, horizon,
                                      random.Random(seed + 1))
            for chain in system.chains
        }
        assert_identical(*run_both(system, activations, horizon))

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 10_000))
    def test_shared_priorities_bit_identical(self, seed):
        """Tasks drawn from three priority levels, so the event loop's
        push-order tie-break decides many picks inside the contended
        stretches; the calendar must still match the scalar run."""
        rng = random.Random(seed)
        builder = SystemBuilder("shared", allow_shared_priorities=True)
        for index, model in enumerate(ZOO_MODELS[:4]):
            kind = (ChainKind.SYNCHRONOUS if index % 2
                    else ChainKind.ASYNCHRONOUS)
            builder.chain(f"s{index}", model, deadline=40, kind=kind)
            for k in range(rng.randint(1, 3)):
                builder.task(f"s{index}.t{k}", priority=rng.randint(1, 3),
                             wcet=rng.choice((1.5, 3, 4.25)))
        system = builder.build()
        horizon = 3000.0
        for activations in (
            {chain.name: worst_case_stream(chain.activation, horizon)
             for chain in system.chains},
            {chain.name: random_stream(chain.activation, horizon, rng)
             for chain in system.chains},
        ):
            assert_identical(*run_both(system, activations, horizon))

    def test_model_zoo_bit_identical(self):
        system = zoo_system()
        horizon = 5000.0
        activations = {
            chain.name: worst_case_stream(chain.activation, horizon,
                                          offset=3.7 * index)
            for index, chain in enumerate(system.chains)
        }
        fast, reference = run_both(system, activations, horizon)
        assert_identical(fast, reference)
        # The trace is contended enough to exercise the scalar-stretch
        # path, not just batch retirement.
        assert any(flag for chain in system.chains
                   for flag in reference.miss_flags(chain.name))

    def test_seeded_rerun_is_byte_identical(self):
        system = zoo_system()
        horizon = 4000.0
        activations = {
            chain.name: worst_case_stream(chain.activation, horizon)
            for chain in system.chains
        }
        first = trace_json(Simulator(system).run(activations, horizon))
        second = trace_json(Simulator(system).run(activations, horizon))
        assert first == second

    def test_soak_workload_bit_identical(self):
        system, activations, horizon = soak_workload(events=4_000)
        fast, reference = run_both(system, activations, horizon)
        assert_identical(fast, reference)
        for chain in system.chains:
            assert fast.busy_windows(chain.name) == \
                reference.busy_windows(chain.name)


class TestMetricParity:
    def _results(self):
        system, activations, horizon = soak_workload(
            events=3_000, utilization=0.3)
        return system, run_both(system, activations, horizon)

    def test_metric_helpers_agree(self):
        system, (fast, reference) = self._results()
        for chain in system.chains:
            name = chain.name
            assert fast.latencies(name) == reference.latencies(name)
            assert fast.miss_flags(name) == reference.miss_flags(name)
            assert fast.miss_count(name) == reference.miss_count(name)
            assert fast.max_latency(name) == reference.max_latency(name)
            for k in (1, 5, 20):
                assert fast.empirical_dmm(name, k) == \
                    reference.empirical_dmm(name, k)
            assert latency_stats(fast, name) == latency_stats(reference, name)
            assert miss_streaks(fast, name) == miss_streaks(reference, name)
            assert busy_window_activation_counts(fast, name) == \
                busy_window_activation_counts(reference, name)

    def test_array_queries_return_python_scalars(self):
        """The soak digest JSON-encodes these answers, so the array path
        returns Python ``float``/``int`` exactly as the object path."""
        system, (fast, reference) = self._results()
        for chain in system.chains:
            name = chain.name
            assert type(fast.max_latency(name)) is float
            assert type(fast.miss_count(name)) is int
            assert repr(fast.max_latency(name)) == repr(reference.max_latency(name))
        silent = Simulator(system).run({}, 100.0)
        name = system.chains[0].name
        assert silent.max_latency(name) == 0.0
        assert type(silent.max_latency(name)) is float
        assert silent.miss_count(name) == 0


class TestTraceObjects:
    def test_result_holds_no_per_slice_objects(self):
        """The calendar keeps its trace in arrays and slice columns:
        one ``ExecutionSlice`` per contended slice would leave ~9,000
        objects for the collector to track here."""
        system, activations, horizon = soak_workload(events=20_000)
        simulator = Simulator(system)
        gc.collect()
        before = len(gc.get_objects())
        result = simulator.run(activations, horizon)
        gc.collect()
        held = len(gc.get_objects()) - before
        assert held < 100
        assert len(result.slices) > 60_000


class TestStreamParity:
    @pytest.mark.parametrize("model", ZOO_MODELS,
                             ids=lambda m: type(m).__name__)
    def test_batched_spacings_match_scalar(self, model):
        ks = list(range(1, 200))
        batched_minus = list(model.delta_minus_many(ks))
        batched_plus = list(model.delta_plus_many(ks))
        assert batched_minus == [model.delta_minus(k) for k in ks]
        assert batched_plus == [model.delta_plus(k) for k in ks]

    @pytest.mark.parametrize("model", ZOO_MODELS,
                             ids=lambda m: type(m).__name__)
    def test_worst_case_stream_identical_across_kernels(self, model):
        """The batched stream equals generating it one event at a time:
        event ``i`` at ``offset + delta_minus(i + 1)``."""
        fast = worst_case_stream(model, 5000.0, offset=1.25)
        reference = []
        while 1.25 + model.delta_minus(len(reference) + 1) <= 5000.0:
            reference.append(1.25 + model.delta_minus(len(reference) + 1))
        assert fast == reference
        assert all(isinstance(t, float) for t in fast)


def scalar_distributed_run(system, streams, horizon):
    """The scalar event loop over the whole horizon, called directly
    with the records and the time-sorted releases ``run`` builds."""
    records = {
        chain.name: [DistributedInstanceRecord(chain.name, i, t)
                     for i, t in enumerate(streams[chain.name])]
        for chain in system.chains
    }
    releases = sorted(
        ((t, chain, i) for chain in system.chains
         for i, t in enumerate(streams[chain.name])),
        key=lambda item: item[0])
    DistributedSimulator(system)._event_loop(releases, records, {})
    return DistributedSimulationResult(system, horizon, records)


class TestDistributedParity:
    def _system(self):
        pipeline = DistributedChain(
            "pipeline",
            [on("cpu0", Task("p.read", priority=2, wcet=10)),
             on("cpu0", Task("p.filter", priority=1, wcet=15)),
             on("cpu1", Task("p.fuse", priority=2, wcet=20)),
             on("cpu1", Task("p.act", priority=1, wcet=10))],
            PeriodicModel(100), deadline=120)
        noise = DistributedChain(
            "noise",
            [on("cpu1", Task("n.irq", priority=3, wcet=25))],
            SporadicModel(400), overload=True)
        local = DistributedChain(
            "local",
            [on("cpu0", Task("l.t", priority=3, wcet=8))],
            PeriodicModel(50), deadline=50,
            kind=ChainKind.ASYNCHRONOUS)
        return DistributedSystem([pipeline, noise, local], name="demo")

    def test_distributed_records_identical(self):
        system = self._system()
        horizon = 4000.0
        streams = worst_case_distributed_activations(system, horizon)
        fast = DistributedSimulator(system).run(streams, horizon)
        reference = scalar_distributed_run(system, streams, horizon)
        assert fast.instances == reference.instances
        for chain in system.chains:
            assert fast.latencies(chain.name) == \
                reference.latencies(chain.name)
            assert fast.empirical_dmm(chain.name, 10) == \
                reference.empirical_dmm(chain.name, 10)
