"""Unit tests for the system model: tasks, chains, systems, builder."""

import math

import pytest

from repro import (ChainKind, PeriodicModel, SporadicModel, System,
                   SystemBuilder, Task, TaskChain)
from repro.arrivals import ArrivalCurve, SporadicBurstModel
from repro.model.serialization import system_from_dict, system_to_dict


class TestTask:
    def test_basic_construction(self):
        task = Task("t", priority=3, wcet=10)
        assert task.bcet == 10  # defaults to wcet

    def test_rejects_negative_wcet(self):
        with pytest.raises(ValueError):
            Task("t", 1, -1)

    def test_rejects_bcet_above_wcet(self):
        with pytest.raises(ValueError):
            Task("t", 1, 10, bcet=11)

    def test_rejects_empty_name(self):
        with pytest.raises(ValueError):
            Task("", 1, 1)

    def test_with_priority(self):
        task = Task("t", 1, 10, bcet=5)
        moved = task.with_priority(9)
        assert moved.priority == 9
        assert moved.wcet == 10 and moved.bcet == 5

    def test_is_frozen(self):
        task = Task("t", 1, 10)
        with pytest.raises(Exception):
            task.priority = 2

    def test_str(self):
        assert str(Task("t", 4, 7)) == "t[4:7]"


class TestTaskChain:
    def _chain(self, **kwargs):
        defaults = dict(
            name="c",
            tasks=[Task("a", 3, 10), Task("b", 1, 20), Task("c", 2, 5)],
            activation=PeriodicModel(100),
            deadline=100,
        )
        defaults.update(kwargs)
        return TaskChain(**defaults)

    def test_header_and_tail(self):
        chain = self._chain()
        assert chain.header.name == "a"
        assert chain.tail.name == "c"

    def test_total_wcet(self):
        assert self._chain().total_wcet == 35

    def test_min_max_priority(self):
        chain = self._chain()
        assert chain.min_priority == 1
        assert chain.max_priority == 3

    def test_rejects_duplicate_tasks(self):
        with pytest.raises(ValueError):
            self._chain(tasks=[Task("a", 1, 1), Task("a", 2, 1)])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            self._chain(tasks=[])

    def test_rejects_non_positive_deadline(self):
        with pytest.raises(ValueError):
            self._chain(deadline=0)

    def test_default_is_synchronous_without_deadline(self):
        chain = TaskChain("c", [Task("a", 1, 1)], PeriodicModel(10))
        assert chain.is_synchronous
        assert not chain.has_deadline

    def test_header_prefix_stops_at_lowest_priority(self):
        chain = self._chain()  # priorities 3, 1, 2 -> prefix is (a,)
        assert [t.name for t in chain.header_prefix()] == ["a"]

    def test_header_prefix_empty_when_header_lowest(self):
        chain = self._chain(tasks=[Task("a", 1, 1), Task("b", 2, 1)])
        assert chain.header_prefix() == ()

    def test_utilization(self):
        assert self._chain().utilization() == pytest.approx(0.35)

    def test_with_activation(self):
        chain = self._chain()
        swapped = chain.with_activation(SporadicModel(500))
        assert isinstance(swapped.activation, SporadicModel)
        assert swapped.deadline == chain.deadline

    def test_iteration_and_indexing(self):
        chain = self._chain()
        assert len(chain) == 3
        assert chain[1].name == "b"
        assert [t.name for t in chain] == ["a", "b", "c"]


class TestSystem:
    def _system(self):
        return (
            SystemBuilder("s")
            .chain("one", PeriodicModel(100), deadline=100)
            .task("one.a", priority=4, wcet=10)
            .task("one.b", priority=1, wcet=10)
            .chain("two", SporadicModel(400), overload=True)
            .task("two.a", priority=3, wcet=5)
            .build()
        )

    def test_lookup(self):
        system = self._system()
        assert system["one"].name == "one"
        assert "two" in system
        with pytest.raises(KeyError):
            system["missing"]

    def test_duplicate_chain_names_rejected(self):
        chain = TaskChain("c", [Task("x", 1, 1)], PeriodicModel(10))
        other = TaskChain("c", [Task("y", 2, 1)], PeriodicModel(10))
        with pytest.raises(ValueError):
            System([chain, other])

    def test_shared_tasks_rejected(self):
        shared = Task("x", 1, 1)
        with pytest.raises(ValueError):
            System([TaskChain("c1", [shared], PeriodicModel(10)),
                    TaskChain("c2", [shared], PeriodicModel(10))])

    def test_shared_priorities_rejected_by_default(self):
        with pytest.raises(ValueError):
            System([
                TaskChain("c1", [Task("x", 1, 1)], PeriodicModel(10)),
                TaskChain("c2", [Task("y", 1, 1)], PeriodicModel(10)),
            ])
        System([
            TaskChain("c1", [Task("x", 1, 1)], PeriodicModel(10)),
            TaskChain("c2", [Task("y", 1, 1)], PeriodicModel(10)),
        ], allow_shared_priorities=True)

    def test_overload_partition(self):
        system = self._system()
        assert [c.name for c in system.overload_chains] == ["two"]
        assert [c.name for c in system.typical_chains] == ["one"]

    def test_without_overload(self):
        typical = self._system().without_overload()
        assert len(typical) == 1
        assert "two" not in typical

    def test_without_overload_needs_typical_chain(self):
        system = System([TaskChain(
            "only", [Task("x", 1, 1)], PeriodicModel(10), overload=True)])
        with pytest.raises(ValueError):
            system.without_overload()

    def test_with_priorities(self):
        system = self._system()
        remapped = system.with_priorities(
            {"one.a": 1, "one.b": 3, "two.a": 4})
        assert remapped["one"].tasks[0].priority == 1
        # Original untouched.
        assert system["one"].tasks[0].priority == 4

    def test_with_priorities_requires_full_cover(self):
        with pytest.raises(ValueError):
            self._system().with_priorities({"one.a": 1})

    def test_utilization_split(self):
        system = self._system()
        assert system.typical_utilization() == pytest.approx(0.2)
        assert system.utilization() == pytest.approx(0.2 + 5 / 400)

    def test_validate(self):
        self._system().validate()

    def test_validate_rejects_overload_utilization(self):
        overloaded = (
            SystemBuilder("bad")
            .chain("c", PeriodicModel(10), deadline=10)
            .task("c.a", priority=1, wcet=11)
            .build()
        )
        with pytest.raises(ValueError):
            overloaded.validate()


class TestBuilder:
    def test_task_before_chain_fails(self):
        with pytest.raises(ValueError):
            SystemBuilder().task("x", 1, 1)

    def test_empty_builder_fails(self):
        with pytest.raises(ValueError):
            SystemBuilder().build()

    def test_round_trip_matches_direct_construction(self):
        built = (
            SystemBuilder("s")
            .chain("c", PeriodicModel(100), deadline=50,
                   kind=ChainKind.ASYNCHRONOUS)
            .task("c.a", priority=2, wcet=1)
            .build()
        )
        assert built["c"].kind is ChainKind.ASYNCHRONOUS
        assert built["c"].deadline == 50


NON_FINITE = (math.nan, math.inf, -math.inf)

#: One constructor per model parameter, taking the value under test.
MODEL_PARAMETERS = {
    "periodic.period": lambda v: PeriodicModel(v),
    "periodic.jitter": lambda v: PeriodicModel(100, jitter=v),
    "periodic.min_distance": lambda v: PeriodicModel(100, min_distance=v),
    "sporadic.min_distance": SporadicModel,
    "burst.inner_distance": lambda v: SporadicBurstModel(v, 2, 100),
    "burst.burst": lambda v: SporadicBurstModel(5, v, 100),
    "burst.outer_distance": lambda v: SporadicBurstModel(5, 2, v),
    "curve.delta_min_points": lambda v: ArrivalCurve([0, 0, v]),
    "curve.tail_distance": lambda v: ArrivalCurve([0, 0, 10], tail_distance=v),
    "curve.delta_max_points": lambda v: ArrivalCurve(
        [0, 0, 10], delta_max_points=[0, 0, v]),
}


class TestNonFiniteRejected:
    """NaN and infinities are rejected where the model is built, so bad
    input can never be analyzed into a plausible-looking answer."""

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("field", ("priority", "wcet", "bcet"))
    def test_task_fields(self, field, value):
        fields = {"priority": 1, "wcet": 2.0, "bcet": 1.0, field: value}
        with pytest.raises(ValueError, match="must be finite"):
            Task("t", **fields)

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("parameter", sorted(MODEL_PARAMETERS))
    def test_event_model_parameters(self, parameter, value):
        with pytest.raises(ValueError, match="must be finite"):
            MODEL_PARAMETERS[parameter](value)

    @pytest.mark.parametrize("value", (math.nan, -math.inf))
    def test_chain_deadline(self, value):
        with pytest.raises(ValueError, match="deadline must be positive"):
            TaskChain("c", [Task("t", 1, 1)], PeriodicModel(10), deadline=value)

    def test_infinite_deadline_means_no_deadline(self):
        chain = TaskChain("c", [Task("t", 1, 1)], PeriodicModel(10))
        assert chain.deadline == math.inf
        data = system_to_dict(System([chain]))
        assert data["chains"][0]["deadline"] is None
        assert system_from_dict(data)["c"].deadline == math.inf

    def test_nan_in_serialized_system_is_rejected(self):
        chain = TaskChain("c", [Task("t", 1, 1)], PeriodicModel(10), deadline=10)
        data = system_to_dict(System([chain]))
        data["chains"][0]["tasks"][0]["wcet"] = math.nan
        with pytest.raises(ValueError, match="wcet must be finite"):
            system_from_dict(data)
