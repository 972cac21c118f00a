"""The heap-ordered SPP event loop against its list-and-``max`` oracle.

``repro.sim.engine.run_event_loop`` keeps its ready set in a binary
heap keyed ``(-priority, release, instance, seq)``.
``tests/oracles/spp_loop.py`` keeps the loop it replaced, which scans a
plain list with ``max`` and so breaks full ties by list order.  The
production loop over the whole horizon (``spp_loop.whole_horizon``)
and the numpy calendar behind ``Simulator.run`` must both reproduce
the oracle's slices and records exactly.  The systems below share
priorities (the ties the ``seq`` counter decides) and mix synchronous
and asynchronous chains.  Their streams bring coincident releases,
bursts that queue in the per-task FIFO backlog, and releases and
budgets below the loop's epsilon guards.
"""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import spp_loop

from repro import ChainKind, PeriodicModel, SystemBuilder
from repro.arrivals import SporadicBurstModel
from repro.sim import Simulator, calendar, engine, random_stream, worst_case_stream
from repro.synth import soak_workload

#: Budgets from zero (the zero-remaining cascade), 1e-13 (below the
#: cascade's 1e-12 threshold) and 1e-8 (below float resolution at
#: t = 1e9, the close-out guard) up to whole units.
WCETS = (0.0, 1e-13, 1e-8, 0.1, 0.3, 1.0, 2.5, 7.0)

#: Gaps between consecutive releases of one chain: coincident, inside
#: the 1e-9 arrival guard, bursty and spread out.
GAPS = (0.0, 1e-10, 5e-10, 0.05, 0.7, 3.0, 11.0, 40.0)

#: Stream origins; at 1e6 and 1e9 the float grid is coarse.
ORIGINS = (0.0, 2.0, 1e6, 1e9)

MODELS = (
    PeriodicModel(30, jitter=25),
    PeriodicModel(12, jitter=40, min_distance=1),
    SporadicBurstModel(2, burst=4, outer_distance=60),
)

tasks = st.lists(
    st.tuples(st.integers(1, 3), st.sampled_from(WCETS)), min_size=1, max_size=3
)
chains = st.lists(st.tuples(st.booleans(), tasks), min_size=1, max_size=4)
gaps = st.lists(st.sampled_from(GAPS), max_size=10)
streams = st.lists(st.tuples(st.sampled_from(ORIGINS), gaps), min_size=4, max_size=4)


def build_system(chain_specs, models=None):
    """Chains ``c0, c1, ...`` with tasks of priority 1-3, so ties abound."""
    builder = SystemBuilder("ties", allow_shared_priorities=True)
    for c, (synchronous, task_specs) in enumerate(chain_specs):
        kind = ChainKind.SYNCHRONOUS if synchronous else ChainKind.ASYNCHRONOUS
        model = models[c % len(models)] if models else PeriodicModel(50)
        builder.chain(f"c{c}", model, deadline=20.0, kind=kind)
        for k, (priority, wcet) in enumerate(task_specs):
            builder.task(f"c{c}.t{k}", priority=priority, wcet=wcet)
    return builder.build()


def assert_matches_oracle(system, activations, horizon=math.inf):
    simulator = Simulator(system)
    oracle = spp_loop.simulate(simulator, activations, horizon)
    for result in (
        spp_loop.whole_horizon(simulator, activations, horizon),
        simulator.run(activations, horizon),
    ):
        assert result.slices == oracle.slices
        assert result.instances == oracle.instances


@settings(max_examples=150, deadline=None)
@given(chain_specs=chains, streams=streams)
def test_drawn_streams_match_oracle(chain_specs, streams):
    system = build_system(chain_specs)
    activations = {}
    for chain, (origin, gaps) in zip(system.chains, streams):
        times = [origin]
        for gap in gaps:
            times.append(times[-1] + gap)
        activations[chain.name] = times
    assert_matches_oracle(system, activations)


@settings(max_examples=60, deadline=None)
@given(chain_specs=chains, critical=st.booleans(), seed=st.integers(0, 10_000))
def test_model_streams_match_oracle(chain_specs, critical, seed):
    """Jittered and bursty arrival models: at the critical instant every
    stream starts at 0, otherwise with random legal slack."""
    system = build_system(chain_specs, MODELS)
    horizon = 400.0
    rng = random.Random(seed)
    activations = {}
    for chain in system.chains:
        if critical:
            times = worst_case_stream(chain.activation, horizon)
        else:
            times = random_stream(chain.activation, horizon, rng, slack_scale=0.3)
        activations[chain.name] = times
    assert_matches_oracle(system, activations, horizon)


def test_full_ties_run_in_push_order():
    """``a`` and ``b`` share priority, release and instance.  ``a`` was
    pushed first and runs first; preempted by ``h``, it is pushed again
    and now queues behind ``b``."""
    system = (
        SystemBuilder("push-order", allow_shared_priorities=True)
        .chain("a", PeriodicModel(100), kind=ChainKind.ASYNCHRONOUS)
        .task("a.t", priority=1, wcet=10)
        .chain("b", PeriodicModel(100), kind=ChainKind.ASYNCHRONOUS)
        .task("b.t", priority=1, wcet=10)
        .chain("h", PeriodicModel(100))
        .task("h.t", priority=2, wcet=10)
        .build()
    )
    activations = {"a": [0.0], "b": [0.0], "h": [5.0]}
    result = Simulator(system).run(activations, 100.0)
    assert [(s.chain, s.start, s.end) for s in result.slices] == [
        ("a", 0.0, 5.0),
        ("h", 5.0, 15.0),
        ("b", 15.0, 25.0),
        ("a", 25.0, 30.0),
    ]
    assert_matches_oracle(system, activations, 100.0)


def test_sub_epsilon_header_runs_one_step():
    """A released header runs one step for any budget > 0; only its
    successor, admitted at the header's finish, cascades below the
    loop's 1e-12 threshold without a slice of its own."""
    system = (
        SystemBuilder("sub-epsilon")
        .chain("c", PeriodicModel(10), deadline=5.0)
        .task("c.t0", priority=2, wcet=1e-13)
        .task("c.t1", priority=1, wcet=1e-13)
        .build()
    )
    activations = {"c": [0.0, 10.0, 20.0]}
    result = Simulator(system).run(activations, 100.0)
    assert result.instances["c"][0].task_finishes == {"c.t0": 1e-13, "c.t1": 1e-13}
    assert [(s.task, s.start) for s in result.slices] == [
        ("c.t0", 0.0),
        ("c.t0", 10.0),
        ("c.t0", 20.0),
    ]
    assert_matches_oracle(system, activations, 100.0)


def test_soak_matches_oracle():
    """The soak workload: mostly isolated instances, whose contended
    stretches the calendar replays through the production loop."""
    system, activations, horizon = soak_workload(events=4_000)
    assert_matches_oracle(system, activations, horizon)


def test_one_loop_call_reseeds_fifo_turns(monkeypatch):
    """The calendar replays every contended stretch in one loop call.
    Between the stretches of asynchronous chain ``a``, instances of
    ``a`` retire in batch, unseen by the loop, so each stretch's first
    release of ``a`` must re-seed the FIFO turns of ``a``'s tasks: a
    stale turn would park that instance in the FIFO backlog."""
    system = (
        SystemBuilder("stretches")
        .chain("a", PeriodicModel(100), deadline=50.0, kind=ChainKind.ASYNCHRONOUS)
        .task("a.t0", priority=3, wcet=3.0)
        .task("a.t1", priority=1, wcet=4.0)
        .chain("h", PeriodicModel(100), deadline=50.0)
        .task("h.t", priority=2, wcet=5.0)
        .build()
    )
    bursts = [0.0, 1.0, 2.0, 400.0, 400.5, 401.0, 700.0, 702.0]
    isolated = [100.0, 200.0, 300.0, 500.0, 600.0]
    activations = {"a": sorted(bursts + isolated), "h": [1.5, 250.0, 401.5, 703.0]}
    calls = []

    def counting(releases, *args):
        calls.append(
            [(chain.name, instance, fresh) for _, chain, instance, fresh in releases]
        )
        return engine.run_event_loop(releases, *args)

    monkeypatch.setattr(calendar, "run_event_loop", counting)
    assert_matches_oracle(system, activations)
    assert len(calls) == 1
    released = [(instance, fresh) for name, instance, fresh in calls[0] if name == "a"]
    # Three stretches of ``a``, batch-retired instances between them.
    assert [instance for instance, _ in released] == [0, 1, 2, 6, 7, 8, 11, 12]
    assert [instance for instance, fresh in released if fresh] == [0, 6, 11]

    system, activations, horizon = soak_workload(events=4_000)
    Simulator(system).run(activations, horizon)
    assert len(calls) == 2
