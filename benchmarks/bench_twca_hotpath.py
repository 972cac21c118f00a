"""TWCA hot-path benchmark: pruned frontier search vs exhaustive
enumeration, cold vs warm-started fixed points, and ``criterion_load``
window scans.

The exhaustive side is the test oracle
``oracles.combinations.exhaustive_twca``: the analysis' own Steps 1-4,
then every combination materialized and classified one by one.

This is the running entry in the perf trajectory started by PR 3: it
measures the compounding optimisations of the combination-schedulability
pipeline (lazy dominance-pruned enumeration, signature-memoized exact
checks, warm-started fixed points) on a case-study-shaped system whose
exhaustive combination count is >= 10^4, plus the batched Eq. (5)
``criterion_load`` evaluation.  The script entry point
(``python benchmarks/bench_twca_hotpath.py``) exports everything to the
tracked ``BENCH_twca_hotpath.json`` at the repository root, extending
the trajectory of earlier exports; the pytest run only prints and
gates, so a smoke run leaves the tracked file alone.

``fat_frontier_solve`` times :func:`repro.ilp.solve` on a Theorem 3
packing with a *fat frontier* (24 inclusion-minimal combinations over
16 capacity rows) along a growing ``Omega`` schedule; it is
informational.  ``sim_soak`` times the simulator's numpy event calendar
(``Simulator.run``) against the production event loop run over the
whole horizon (the test oracle ``oracles.spp_loop.whole_horizon``).

Gates (0 disables each):

* ``REPRO_BENCH_SPEEDUP_GATE`` (default 5): the pruned pipeline must be
  >= 5x faster than the exhaustive one on the cold path;
* ``REPRO_BENCH_SERVICE_GATE`` (default 2): the ``--workers 4`` compute
  pool must serve N distinct-system requests >= 2x faster than the
  serialized workers=1 baseline — enforced only on machines with >= 2
  cores (a single GIL-bound core cannot overlap computes; the section
  still runs, records the core count and asserts byte-identity);
* ``REPRO_BENCH_SHARD_GATE`` (default 2): the sharded batch coordinator
  with 4 local shard workers must run a seeded corpus slice >= 2x
  faster than the serial single-process runner — enforced only on
  machines with >= 4 cores (shard processes need real parallelism; the
  section always runs, records the core count, asserts the merged
  export byte-identical to the serial run, and asserts the corpus
  manifest digest reproducible);
* ``REPRO_BENCH_SIM_GATE`` (default 3): the numpy event calendar must
  run the ``REPRO_BENCH_SIM_SOAK_EVENTS`` soak workload (default 10^6
  activations) >= 3x faster than the scalar event loop, with identical
  latencies, miss flags, (m,k) windows and busy windows at full scale
  and byte-identical trace exports on a sub-run;
* DMM curves must be identical between the optimized path and the
  oracle, and the pruned batch export must carry the oracle's status,
  counts and DMM (always asserted — identity is never noise).
"""

from __future__ import annotations

import json
import math
import os
import random
import threading
import time
from pathlib import Path

from conftest import run_once
from oracles.combinations import exhaustive_twca
from oracles.spp_loop import whole_horizon

from repro import PeriodicModel, SporadicModel, SystemBuilder, analyze_twca
from repro.analysis.busy_window import criterion_load, criterion_loads
from repro.ilp import IntegerProgram, solve
from repro.kernel import kernel_name
from repro.report import format_table
from repro.runner import BatchRunner, run_sharded
from repro.service import AnalysisRequest, AnalysisService
from repro.sim import Simulator, trace_json
from repro.synth import (
    CorpusSpec,
    figure4_system,
    generate_corpus,
    labeled_random_systems,
    soak_workload,
)

#: Acceptance floor for the cold pruned-vs-exhaustive speedup.  The
#: shared-runner CI smoke sets the gate to 0; local runs enforce 5x.
DEFAULT_GATE = 5.0

#: Acceptance floor for the pooled service over the serialized baseline
#: (``REPRO_BENCH_SERVICE_GATE``); engaged only when >= 2 cores exist.
DEFAULT_SERVICE_GATE = 2.0

#: Acceptance floor for the numpy event calendar over the scalar event
#: loop (``REPRO_BENCH_SIM_GATE``).
DEFAULT_SIM_GATE = 3.0

#: Acceptance floor for the 4-shard coordinator over the serial runner
#: (``REPRO_BENCH_SHARD_GATE``); engaged only when >= 4 cores exist.
DEFAULT_SHARD_GATE = 2.0

EXPORT_PATH = Path(__file__).resolve().parent.parent / "BENCH_twca_hotpath.json"

KS = (1, 3, 10, 100)


def hotpath_system(overload_count: int = 13, split_chains: int = 2):
    """A case-study-shaped victim under many overload ISR chains.

    ``overload_count - split_chains`` single-task chains contribute a
    power-set choice structure (2 choices each); ``split_chains`` of
    them are recovery-style chains whose second task sits exactly at the
    victim's tail priority, so their one segment splits into two active
    segments (4 choices each, including both together).  With the
    defaults the exhaustive combination count is
    ``2^11 * 4^2 - 1 = 32,767``.
    """
    builder = SystemBuilder("twca-hotpath", allow_shared_priorities=True)
    builder.chain("victim", PeriodicModel(200), deadline=233)
    builder.task("victim.a", priority=2, wcet=25)
    builder.task("victim.b", priority=3, wcet=15)
    builder.chain("noise", PeriodicModel(400), deadline=400)
    builder.task("noise.a", priority=4, wcet=30)
    priority = 10
    for index in range(overload_count):
        name = f"isr{index:02d}"
        builder.chain(name, SporadicModel(6000 + 100 * index), overload=True)
        if index < split_chains:
            # One segment [handle, recover], two active segments:
            # ``recover`` matches the victim's tail priority, so it
            # starts a new active segment; the trailing priority-1
            # cleanup makes the chain deferred.
            builder.task(f"{name}.handle", priority=priority, wcet=4 + index)
            builder.task(f"{name}.recover", priority=3, wcet=5 + index)
            builder.task(f"{name}.cleanup", priority=1, wcet=1)
            priority += 1
        else:
            builder.task(f"{name}.t", priority=priority, wcet=7 + index)
            priority += 1
    return builder.build()


def time_once(fn):
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


def time_best_of(make, repeats=3):
    """Min-of-N wall time for short measurements that scheduler noise
    would otherwise dominate.  ``make`` builds a *fresh* callable per
    repeat, so memoized state cannot leak between repeats; every repeat
    must return the same value (the caller asserts it against the
    reference path)."""
    best = math.inf
    value = None
    for _ in range(repeats):
        value, seconds = time_once(make())
        best = min(best, seconds)
    return value, best


def numpy_version():
    import numpy

    return numpy.__version__


def fat_frontier_programs(seed=2017, num_vars=24, num_rows=16, points=56):
    """Packings shaped like a fat Theorem 3 frontier: many
    inclusion-minimal combinations (columns) touching overlapping active
    segments (0/1 rows), every column covered, along a slowly growing
    ``Omega``-style capacity schedule."""
    rng = random.Random(seed)
    objective = [1.0] * num_vars
    rows = [
        [1.0 if rng.random() < 0.4 else 0.0 for _ in range(num_vars)]
        for _ in range(num_rows)
    ]
    for j in range(num_vars):
        if not any(row[j] for row in rows):
            rows[rng.randrange(num_rows)][j] = 1.0
    caps = [float(rng.randint(1, 3)) for _ in range(num_rows)]
    programs = []
    for _ in range(points):
        programs.append(IntegerProgram(objective, rows, list(caps)))
        caps = [c + rng.randint(0, 1) for c in caps]
    return programs


def run_fat_frontier_section():
    """Cold solves of the fat-frontier schedule (informational)."""
    programs = fat_frontier_programs()
    solutions, seconds = time_once(lambda: [solve(p) for p in programs])
    for program, solution in zip(programs, solutions):
        assert solution.is_optimal and program.is_feasible(solution.values)
    return {
        "variables": programs[0].num_variables,
        "rows": programs[0].num_rows,
        "schedule_points": len(programs),
        "seconds": seconds,
        "work": sum(s.work for s in solutions),
    }


def run_criterion_load_section(system, chain, q_max=400):
    """Batched multi-q ``criterion_load`` vs the per-q loop (uncached:
    the point is the shared window scan, not memoization)."""
    qs = tuple(range(1, q_max + 1))
    batched, batched_s = time_once(lambda: criterion_loads(system, chain, qs))
    single, single_s = time_once(
        lambda: {q: criterion_load(system, chain, q) for q in qs}
    )
    assert batched == single, "criterion loads diverged between paths"
    return {
        "q_max": q_max,
        "batched_seconds": batched_s,
        "per_q_seconds": single_s,
        "speedup": single_s / batched_s if batched_s > 0 else float("inf"),
        "identical": True,
    }


def run_service_section(count=8, workers=4):
    """Service-level concurrency: N distinct-system requests served by
    the ``workers``-bounded compute pool vs the workers=1 serialized
    baseline, byte-identity asserted per response.

    The speedup gate only engages on machines with >= 2 cores: on a
    single core GIL-bound computes cannot overlap, so the measurement
    is recorded (with the core count) but informational — the same
    convention as the scalability bench's worker gates.
    """
    requests = [
        AnalysisRequest.from_system(system, ks=KS, label=label)
        for label, system in labeled_random_systems(
            figure4_system(), count, seed=7
        )
    ]

    with AnalysisService(workers=1) as serial:
        reference, serial_s = time_once(
            lambda: [serial.analyze(request).to_json() for request in requests]
        )

    with AnalysisService(workers=workers) as service:
        payloads = [None] * len(requests)
        barrier = threading.Barrier(len(requests))

        def fire(index):
            barrier.wait(timeout=60)
            payloads[index] = service.analyze(requests[index]).to_json()

        threads = [
            threading.Thread(target=fire, args=(index,))
            for index in range(len(requests))
        ]

        def run_all():
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        _, concurrent_s = time_once(run_all)
        computes = service.counters["computes"]

    assert payloads == reference, "concurrent responses diverged from serial"
    assert computes == len(requests)
    return {
        "requests": len(requests),
        "workers": workers,
        "cores": os.cpu_count() or 1,
        "serial_seconds": serial_s,
        "concurrent_seconds": concurrent_s,
        "speedup": serial_s / concurrent_s if concurrent_s > 0 else float("inf"),
        "identical": True,
    }


def run_sim_soak_section():
    """Soak-scale simulation: the numpy event calendar
    (``Simulator.run``) vs the production event loop over the whole
    horizon (``whole_horizon``) on the deterministic ``soak_workload``
    (co-prime periodic streams, ~10^6 activations by default, low
    enough utilization that most instances retire in batch while
    contention clusters still exercise the scalar-stretch path).  Both
    engines must produce identical latencies, miss flags, ``dmm(10)``
    windows and busy windows at full scale, and byte-identical JSON
    trace exports on a sub-run small enough to materialize twice."""
    events = int(os.environ.get("REPRO_BENCH_SIM_SOAK_EVENTS", "1000000"))
    system, activations, horizon = soak_workload(events=events)
    released = sum(len(times) for times in activations.values())
    simulator = Simulator(system)

    def collect(result):
        return {
            chain.name: (
                result.latencies(chain.name),
                result.miss_flags(chain.name),
                result.empirical_dmm(chain.name, 10),
                result.busy_windows(chain.name),
            )
            for chain in system.chains
        }

    fast_metrics, fast_s = time_best_of(
        lambda: (lambda: collect(simulator.run(activations, horizon)))
    )
    reference_metrics, reference_s = time_best_of(
        lambda: (lambda: collect(whole_horizon(simulator, activations, horizon)))
    )
    assert fast_metrics == reference_metrics, (
        "soak metrics diverged between the calendar and the scalar loop"
    )
    misses = sum(sum(flags) for _, flags, _, _ in reference_metrics.values())

    # Byte-identical exports on a sub-run small enough to materialize
    # the full object trace twice.
    sub_events = max(2_000, min(20_000, events))
    sub_system, sub_acts, sub_horizon = soak_workload(events=sub_events)
    fast_trace = trace_json(Simulator(sub_system).run(sub_acts, sub_horizon))
    reference_trace = trace_json(
        whole_horizon(Simulator(sub_system), sub_acts, sub_horizon)
    )
    assert fast_trace == reference_trace, (
        "trace exports diverged between the calendar and the scalar loop"
    )
    return {
        "requested_events": events,
        "events": released,
        "horizon": horizon,
        "chains": len(system.chains),
        "misses": misses,
        "numpy_seconds": fast_s,
        "python_seconds": reference_s,
        "speedup": reference_s / fast_s if fast_s > 0 else float("inf"),
        "sub_run_events": sub_events,
        "identical": True,
    }


def run_shard_section(tmp_base: Path, count=12, shards=4):
    """Sharded throughput: the coordinator fanning a seeded corpus
    slice over ``shards`` local worker processes vs the serial
    single-process :class:`BatchRunner` over the same jobs.

    The merged deterministic export is asserted byte-identical to the
    serial run (the sharding contract), and the corpus is generated
    twice, asserting the manifest digest reproduces exactly.  The >= 2x speedup gate only
    engages on machines with >= 4 cores: shard processes need real
    parallelism; on fewer cores the measurement is informational.
    """
    spec = CorpusSpec(count=count, seed=2017, chains=2, tasks_per_chain=(2, 4))
    manifest = generate_corpus(spec, tmp_base / "corpus-a")
    again = generate_corpus(spec, tmp_base / "corpus-b")
    assert manifest.manifest_digest == again.manifest_digest, (
        "corpus manifest digest not reproducible for the same spec"
    )

    systems = list(manifest.systems())
    runner = BatchRunner(workers=1, ks=KS)
    jobs = runner.jobs_for(systems)
    serial_batch, serial_s = time_once(lambda: runner.run(jobs))
    sharded_batch, sharded_s = time_once(
        lambda: run_sharded(jobs, shards=shards)
    )
    assert sharded_batch.to_json() == serial_batch.to_json(), (
        "merged shard export diverged from the serial run"
    )
    return {
        "corpus_systems": count,
        "corpus_digest": manifest.manifest_digest,
        "jobs": len(jobs),
        "shards": shards,
        "cores": os.cpu_count() or 1,
        "serial_seconds": serial_s,
        "sharded_seconds": sharded_s,
        "speedup": serial_s / sharded_s if sharded_s > 0 else float("inf"),
        "identical": True,
    }


def run_hotpath(tmp_base: Path):
    system = hotpath_system()
    chain = system["victim"]

    pruned, pruned_s = time_once(lambda: analyze_twca(system, chain))
    exhaustive, exhaustive_s = time_once(lambda: exhaustive_twca(system, chain))
    pruned_dmm, pruned_dmm_s = time_once(lambda: pruned.dmm_curve(KS))
    eager_dmm, eager_dmm_s = time_once(lambda: exhaustive.dmm_curve(KS))
    assert pruned_dmm == eager_dmm, "DMM curves diverged between modes"
    assert pruned.combination_count == exhaustive.combination_count >= 10_000
    assert pruned.unschedulable_count == exhaustive.unschedulable_count > 0

    # Every job of the batch export must carry the oracle's
    # classification (the runner-level face of the same guarantee).
    export_pruned = (
        BatchRunner(workers=1, use_cache=False, ks=KS)
        .run_systems([system])
        .to_json()
    )
    for job in json.loads(export_pruned)["jobs"]:
        if job["chain"] == chain.name:
            eager, curve = exhaustive, eager_dmm
        else:
            eager = exhaustive_twca(system, system[job["chain"]])
            curve = eager.dmm_curve(KS)
        assert job["status"] == eager.status.value, job["chain"]
        assert job["combinations"] == eager.combination_count, job["chain"]
        assert job["unschedulable"] == eager.unschedulable_count, job["chain"]
        assert job["dmm"] == {str(k): v for k, v in curve.items()}, job["chain"]

    # Persistent-cache warm path: the second run of the same job list
    # must be served whole from the jobs category.
    cache_dir = tmp_base / "hotpath-cache"
    cold_runner = BatchRunner(workers=1, ks=KS, cache_dir=str(cache_dir))
    cold_batch, cold_s = time_once(lambda: cold_runner.run_systems([system]))
    warm_runner = BatchRunner(workers=1, ks=KS, cache_dir=str(cache_dir))
    warm_batch, warm_s = time_once(lambda: warm_runner.run_systems([system]))
    assert warm_batch.to_json() == cold_batch.to_json()
    assert warm_batch.job_hits == len(warm_batch.jobs)

    cold_total = pruned_s + pruned_dmm_s
    eager_total = exhaustive_s + eager_dmm_s
    return {
        "env": {
            "cpu_count": os.cpu_count(),
            "numpy": numpy_version(),
            "kernel": kernel_name(),
        },
        "fat_frontier_solve": run_fat_frontier_section(),
        "criterion_load": run_criterion_load_section(system, chain),
        "service_concurrency": run_service_section(),
        "sim_soak": run_sim_soak_section(),
        "shard_throughput": run_shard_section(tmp_base),
        "system": {
            "name": system.name,
            "chains": len(system),
            "tasks": len(system.tasks),
            "combination_count": pruned.combination_count,
            "unschedulable_count": pruned.unschedulable_count,
            "minimal_count": len(pruned.minimal_unschedulable()),
        },
        "pruned": {
            "analyze_seconds": pruned_s,
            "dmm_seconds": pruned_dmm_s,
            "signature_checks": pruned.search_checks,
            "search_nodes": pruned.search_nodes,
        },
        "exhaustive": {
            "analyze_seconds": exhaustive_s,
            "dmm_seconds": eager_dmm_s,
        },
        "warm": {
            "cold_batch_seconds": cold_s,
            "warm_batch_seconds": warm_s,
            "job_hits": warm_batch.job_hits,
            "warm_speedup": cold_s / warm_s if warm_s > 0 else float("inf"),
        },
        "speedup": eager_total / cold_total if cold_total > 0 else float("inf"),
        "dmm": {str(k): v for k, v in sorted(pruned_dmm.items())},
        "dmm_identical": True,
        "export_identical": True,
    }


def test_twca_hotpath_speedup(benchmark, tmp_path):
    report = run_once(benchmark, run_hotpath, tmp_path)
    rows = [
        ("combinations", report["system"]["combination_count"], ""),
        ("unschedulable", report["system"]["unschedulable_count"],
         f"{report['system']['minimal_count']} minimal"),
        ("exhaustive", f"{report['exhaustive']['analyze_seconds']:.3f}s",
         "materialize + test every member"),
        ("pruned", f"{report['pruned']['analyze_seconds']:.3f}s",
         f"{report['pruned']['signature_checks']} signature checks"),
        ("speedup", f"{report['speedup']:.1f}x", "gate >= 5x"),
        ("warm batch", f"{report['warm']['warm_batch_seconds']:.3f}s",
         f"{report['warm']['warm_speedup']:.1f}x vs cold"),
        ("fat frontier", f"{report['fat_frontier_solve']['seconds']:.3f}s",
         f"{report['fat_frontier_solve']['schedule_points']} cold solves, "
         f"{report['fat_frontier_solve']['work']} b&b nodes (informational)"),
        ("criterion loads", f"{report['criterion_load']['batched_seconds']:.3f}s",
         f"{report['criterion_load']['speedup']:.1f}x vs per-q"),
        ("service pool",
         f"{report['service_concurrency']['concurrent_seconds']:.3f}s",
         f"{report['service_concurrency']['speedup']:.1f}x vs serialized "
         f"({report['service_concurrency']['cores']} core(s))"),
        ("sim soak", f"{report['sim_soak']['numpy_seconds']:.3f}s",
         f"{report['sim_soak']['speedup']:.1f}x vs scalar loop over "
         f"{report['sim_soak']['events']} activations, gate >= 3x"),
        ("shard fan-out",
         f"{report['shard_throughput']['sharded_seconds']:.3f}s",
         f"{report['shard_throughput']['speedup']:.1f}x vs serial with "
         f"{report['shard_throughput']['shards']} shards "
         f"({report['shard_throughput']['cores']} core(s))"),
    ]
    print()
    print(format_table(("metric", "value", "notes"), rows))

    gate = float(os.environ.get("REPRO_BENCH_SPEEDUP_GATE", str(DEFAULT_GATE)))
    if gate > 0:
        assert report["speedup"] >= gate, (
            f"pruned pipeline speedup {report['speedup']:.2f}x "
            f"below the {gate:.1f}x gate"
        )
    sim_gate = float(os.environ.get("REPRO_BENCH_SIM_GATE", str(DEFAULT_SIM_GATE)))
    if sim_gate > 0:
        assert report["sim_soak"]["speedup"] >= sim_gate, (
            f"sim soak speedup {report['sim_soak']['speedup']:.2f}x "
            f"below the {sim_gate:.1f}x gate"
        )
    shard_gate = float(
        os.environ.get("REPRO_BENCH_SHARD_GATE", str(DEFAULT_SHARD_GATE))
    )
    # Shard worker processes need real cores to overlap; below 4 the
    # section is informational (export identity asserted regardless).
    if shard_gate > 0 and report["shard_throughput"]["cores"] >= 4:
        assert report["shard_throughput"]["speedup"] >= shard_gate, (
            f"shard fan-out speedup "
            f"{report['shard_throughput']['speedup']:.2f}x "
            f"below the {shard_gate:.1f}x gate"
        )
    service_gate = float(
        os.environ.get("REPRO_BENCH_SERVICE_GATE", str(DEFAULT_SERVICE_GATE))
    )
    # Overlapping GIL-bound computes need real cores; on one core the
    # section is informational (byte-identity is asserted regardless).
    if service_gate > 0 and report["service_concurrency"]["cores"] >= 2:
        assert report["service_concurrency"]["speedup"] >= service_gate, (
            f"service pool speedup "
            f"{report['service_concurrency']['speedup']:.2f}x "
            f"below the {service_gate:.1f}x gate"
        )


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        result = run_hotpath(Path(tmp))
    EXPORT_PATH.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result, indent=2, sort_keys=True))
