"""Failure-injection tests: every guard rail must actually trip.

Feeds each subsystem deliberately broken inputs and asserts the failure
is caught loudly (specific exception, useful message) rather than
producing silently wrong bounds.
"""

import math
import random

import pytest
from oracles.curves import check_duality

from repro import (BusyWindowDivergence, PeriodicModel, SporadicModel,
                   SystemBuilder, analyze_latency)
from repro.arrivals import ArrivalCurve, EventModel
from repro.ilp import IntegerProgram, solve_lp
from repro.sim import Simulator


class BrokenModel(EventModel):
    """An event model violating delta monotonicity."""

    def delta_minus(self, k):
        if k <= 1:
            return 0
        return 100 if k % 2 else 50  # non-monotone

    def delta_plus(self, k):
        return math.inf if k > 1 else 0


class TestArrivalGuards:
    def test_validate_catches_non_monotone_delta(self):
        with pytest.raises(ValueError):
            BrokenModel().validate()

    def test_validate_catches_nonzero_origin(self):
        class ShiftedModel(SporadicModel):
            def delta_minus(self, k):
                return super().delta_minus(k) + 1

        with pytest.raises(ValueError):
            ShiftedModel(10).validate()

    def test_validate_catches_min_above_max(self):
        class CrossedModel(PeriodicModel):
            def delta_plus(self, k):
                return super().delta_minus(k) / 2 if k > 1 else 0

        with pytest.raises(ValueError):
            CrossedModel(10).validate()

    def test_duality_check_catches_undercounting_eta(self):
        class Undercount(PeriodicModel):
            def eta_plus(self, dt):
                return max(0, super().eta_plus(dt) - 1)

        with pytest.raises(AssertionError):
            check_duality(Undercount(10))

    def test_eta_plus_overflow_guard(self):
        curve = ArrivalCurve([0, 0, 1], tail_distance=1)
        with pytest.raises(OverflowError):
            # 10^8 events needed for this window: beyond MAX_EVENTS.
            EventModel.eta_plus(curve, 10**8)


class TestAnalysisGuards:
    def _hot_system(self):
        return (
            SystemBuilder("hot")
            .chain("victim", PeriodicModel(100), deadline=100)
            .task("v.t", priority=1, wcet=1)
            .chain("storm", SporadicModel(10))
            .task("s.t", priority=2, wcet=20)
            .build()
        )

    def test_divergence_is_loud_not_wrong(self):
        system = self._hot_system()
        with pytest.raises(BusyWindowDivergence) as info:
            analyze_latency(system, system["victim"])
        assert "victim" in str(info.value)

    def test_max_q_cap_trips(self):
        # A lone 0.9-utilization chain closes its busy window at q=1
        # (B(1)=9 <= delta(2)=10), so trip the cap with a denser pair.
        dense = (
            SystemBuilder("dense")
            .chain("c", PeriodicModel(10), deadline=10)
            .task("c.t", priority=1, wcet=9)
            .chain("d", PeriodicModel(100), deadline=100)
            .task("d.t", priority=2, wcet=9)
            .build()
        )
        with pytest.raises(BusyWindowDivergence):
            analyze_latency(dense, dense["c"], max_q=1)


class TestIlpGuards:
    def test_branch_bound_node_budget(self, monkeypatch):
        import repro.ilp.branch_bound as bb
        monkeypatch.setattr(bb, "MAX_NODES", 1)
        program = IntegerProgram(
            objective=[1, 1, 1],
            rows=[[1, 1, 0], [0, 1, 1], [1, 0, 1]],
            rhs=[1, 1, 1])
        with pytest.raises(RuntimeError):
            bb.solve_branch_bound(program)

    def test_simplex_handles_contradictory_rows(self):
        # x <= 2 and -x <= -5 (x >= 5): infeasible, not a crash.
        result = solve_lp([1], [[1], [-1]], [2, -5])
        assert result.status == "infeasible"

    def test_ragged_matrix_rejected(self):
        with pytest.raises(ValueError):
            solve_lp([1, 1], [[1]], [1])
        with pytest.raises(ValueError):
            IntegerProgram(objective=[1], rows=[[1, 2]], rhs=[1])

    def test_rhs_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            IntegerProgram(objective=[1], rows=[[1]], rhs=[1, 2])


class TestSimulatorGuards:
    def _system(self):
        return (
            SystemBuilder("s")
            .chain("c", PeriodicModel(10), deadline=10)
            .task("c.t", priority=1, wcet=1)
            .build()
        )

    def test_unsorted_activations_rejected(self):
        simulator = Simulator(self._system())
        with pytest.raises(ValueError):
            simulator.run({"c": [5.0, 1.0]}, 100)

    def test_unknown_chain_activations_ignored(self):
        simulator = Simulator(self._system())
        result = simulator.run({"c": [0.0], "ghost": [0.0]}, 100)
        assert result.latencies("c") == [1]

    def test_activations_beyond_horizon_dropped(self):
        simulator = Simulator(self._system())
        result = simulator.run({"c": [0.0, 1_000.0]}, 100)
        assert len(result.instances["c"]) == 1


class TestModelGuards:
    def test_priority_collision_message_names_both_tasks(self):
        with pytest.raises(ValueError) as info:
            (SystemBuilder("x")
             .chain("a", PeriodicModel(10))
             .task("a.t", priority=1, wcet=1)
             .chain("b", PeriodicModel(10))
             .task("b.t", priority=1, wcet=1)
             .build())
        message = str(info.value)
        assert "a.t" in message and "b.t" in message


class TestShardFailureRecovery:
    """Shard workers must die loudly and recover losslessly: the
    coordinator retries killed workers' chunks, persistent-cache
    corruption is dropped (and accounted), and the merged export stays
    byte-identical to a serial run through every injected failure."""

    def _jobs(self, count=6):
        from repro.runner import BatchRunner
        from repro.synth import GeneratorConfig, generate_feasible_system

        rng = random.Random(1719)
        config = GeneratorConfig(chains=2, overload_chains=1, utilization=0.55)
        systems = [generate_feasible_system(rng, config) for _ in range(count)]
        runner = BatchRunner(workers=1, ks=(1, 10))
        return runner.jobs_for(systems), runner

    @staticmethod
    def _corrupt_entries(root):
        """Damage every persistent-cache entry file, cycling through
        truncation-to-empty, mid-file truncation, and a bit flip."""
        damaged = 0
        for i, path in enumerate(sorted(root.glob("*/??/*.bin"))):
            data = path.read_bytes()
            if i % 3 == 0:
                path.write_bytes(b"")
            elif i % 3 == 1:
                path.write_bytes(data[:-7])
            else:
                path.write_bytes(data[:-1] + bytes([data[-1] ^ 0x40]))
            damaged += 1
        return damaged

    def test_worker_killed_mid_run_is_retried(self):
        from repro.runner import RetryPolicy, ShardCoordinator, local_shard_workers

        jobs, runner = self._jobs()
        serial = runner.run(jobs).to_json()
        workers = local_shard_workers(2, use_cache=True)
        # Kill worker 0's process right after its next dispatch: the
        # chunk is lost mid-run, deterministically.
        workers[0].kill_next_dispatches = 1
        coordinator = ShardCoordinator(
            workers,
            chunk_size=2,
            retry=RetryPolicy(attempts=3, base_delay=0.0),
            own_workers=True,
        )
        batch = coordinator.run(jobs)
        stats = coordinator.last_stats
        assert stats["respawns"] >= 1
        # The lost chunk was requeued and re-run.
        assert stats["retries"] == 1
        assert batch.to_json() == serial

    def test_batch_runner_inherits_the_retry(self, monkeypatch):
        """``BatchRunner(workers=2)`` runs on the shard coordinator, so
        a chunk whose worker process died is re-run, losslessly."""
        import repro.runner.shard as shard
        from repro.runner import BatchRunner

        jobs, runner = self._jobs()
        serial = runner.run(jobs).to_json()
        built = []
        original = shard.local_shard_workers

        def killing_first(count, **kwargs):
            workers = original(count, **kwargs)
            workers[0].kill_next_dispatches = 1
            built.extend(workers)
            return workers

        monkeypatch.setattr(shard, "local_shard_workers", killing_first)
        batch = BatchRunner(workers=2, ks=(1, 10)).run(jobs)
        assert batch.to_json() == serial
        assert len(built) == 2
        assert built[0].respawns == 1

    def test_repeated_kills_exhaust_retry_budget(self):
        from repro.runner import (RetryPolicy, ShardCoordinator,
                                  ShardExecutionError, WorkerUnavailable,
                                  local_shard_workers)

        jobs, _ = self._jobs(count=2)
        workers = local_shard_workers(1, use_cache=False)
        workers[0].kill_next_dispatches = 10
        coordinator = ShardCoordinator(
            workers,
            chunk_size=len(jobs),
            retry=RetryPolicy(attempts=2, base_delay=0.0),
            own_workers=True,
        )
        with pytest.raises(ShardExecutionError) as info:
            coordinator.run(jobs)
        assert info.value.attempts == 2
        assert isinstance(info.value.cause, WorkerUnavailable)

    def test_corrupt_shared_cache_under_concurrent_shards(self, tmp_path):
        from repro.runner import RetryPolicy, run_sharded

        jobs, runner = self._jobs()
        serial = runner.run(jobs).to_json()
        cache_root = tmp_path / "shared-cache"
        warm = run_sharded(
            jobs,
            shards=2,
            cache_dir=str(cache_root),
            retry=RetryPolicy(attempts=2, base_delay=0.0),
        )
        assert warm.to_json() == serial
        damaged = self._corrupt_entries(cache_root)
        assert damaged > 0
        cold = run_sharded(
            jobs,
            shards=2,
            cache_dir=str(cache_root),
            retry=RetryPolicy(attempts=2, base_delay=0.0),
        )
        # Corruption is swallowed but never silent: the dropped-entry
        # count rides back from the worker processes, stays balanced
        # against the number of damaged files, and the recomputed
        # export is still byte-identical.
        # (run_sharded exposes no coordinator, so re-check via the
        # explicit coordinator below; the export identity is the
        # user-facing guarantee.)
        assert cold.to_json() == serial

    def test_corrupt_dropped_accounting_balances(self, tmp_path):
        from repro.runner import (RetryPolicy, ShardCoordinator,
                                  local_shard_workers)

        jobs, runner = self._jobs()
        serial = runner.run(jobs).to_json()
        cache_root = tmp_path / "shared-cache"
        warm = ShardCoordinator(
            local_shard_workers(2, cache_dir=str(cache_root)),
            chunk_size=2,
            retry=RetryPolicy(attempts=2, base_delay=0.0),
            own_workers=True,
        )
        assert warm.run(jobs).to_json() == serial
        assert warm.last_stats["corrupt_dropped"] == 0
        damaged = self._corrupt_entries(cache_root)
        assert damaged > 0
        cold = ShardCoordinator(
            local_shard_workers(2, cache_dir=str(cache_root)),
            chunk_size=2,
            retry=RetryPolicy(attempts=2, base_delay=0.0),
            own_workers=True,
        )
        batch = cold.run(jobs)
        dropped = cold.last_stats["corrupt_dropped"]
        # Each of the two shard processes may independently read (and
        # count) the same damaged file before either unlinks it, so the
        # balance bound is per-shard, not global.
        assert 0 < dropped <= damaged * 2
        assert batch.to_json() == serial


@pytest.mark.slow
class TestFuzzerSmoke:
    """Opt-in: a short fuzzer sweep as a test (run with -m slow)."""

    def test_fuzzer_clean_on_smoke_seeds(self):
        import importlib.util
        import pathlib
        spec = importlib.util.spec_from_file_location(
            "fuzz_soundness",
            pathlib.Path(__file__).parent.parent / "tools"
            / "fuzz_soundness.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert module.main(iterations=5, base_seed=42) == 0
