"""End-to-end benchmark of the TWCA pipeline through its real entry points.

One run generates seeded inputs with ``repro.synth``, drives them
through the program as shipped, checks every output, and prints the
end-to-end metrics (``--trace 0``) or the per-layer split (``--trace 1``):

    python3 perfbench/run.py --workload corpus_sweep --seed 2017 \\
        --seconds 40 --trace 0

After a set-up (repeated, median reported), every round runs each phase
once on its own 100-system slice of the workload's corpus:

1. ``serial``: ``BatchRunner(workers=1).run`` with a fresh in-memory cache;
2. ``shard`` (every second round, on the last two slices): a
   ``ShardCoordinator`` over two local workers;
3. ``cold`` and ``warm``: each system's first ``POST /analyze`` to a
   ``repro serve`` subprocess, then the same requests again, closed loop
   from one ``ServiceClient`` pinned to another CPU than the daemon;
4. ``soak``: ``Simulator.run`` on a piece of ``soak_system()`` activity,
   then the per-chain result queries.

``--seconds`` sizes the work (rounds and activations), so two commits
measure identical work; the wall time of a run follows the host's load.
The last stdout line is the JSON result; the full report goes to
``.perfbench_out/``.  The exit code is non-zero when any operation
failed or any output check did not hold.  See
``perfbench/README.md`` for the metric definitions.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import random
import re
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"

#: Systems per round.  Slice 0 is the same for every ``--seconds`` at a
#: given seed, so its export digest is a reference.  Rounds are short
#: (~0.5-3 s per phase) because a shared 2-vCPU host's speed varies
#: from one second to the next; medians over many rounds absorb that.
SLICE_SYSTEMS = 100
SETUP_REPS = 3
SHARD_WORKERS = 2
#: Slices per shard pass.  Every pass ends on a stolen tail chunk whose
#: duplicate the coordinator waits out, so a short pass is mostly tail.
SHARD_SLICES = 2
#: Soak activations per run (5 * 10^5 at --seconds 40), split evenly
#: over the rounds.
SOAK_EVENTS_PER_SECOND = 12_500
SOAK_EVENTS_MIN = 20_000
SOAK_EVENTS_MAX = 500_000
SOAK_DMM_K = 10
#: Traced/untraced pass pairs behind ``trace.overhead_ratio``.
OVERHEAD_PAIRS = 3
SOAK_LATENCY_ULPS = 16
DEFAULT_SEED = 2017


@dataclass(frozen=True)
class Workload:
    family: str
    utilization: Tuple[float, float]
    #: ``--seconds`` per round.  This sizes the work, not the wall time:
    #: a run's wall time follows the host's load (see README).
    seconds_per_slice: float
    why: str


WORKLOADS: Dict[str, Workload] = {
    "corpus_sweep": Workload(
        "uunifast",
        (0.5, 0.7),
        3.3,
        "Theorem 2 settles most jobs; latency analysis and parsing dominate",
    ),
    "overload_sweep": Workload(
        "waters",
        (0.7, 0.9),
        5.0,
        "most jobs are weakly-hard and run the combination search and ILP",
    ),
}

#: (name, unit, better): the end-to-end metrics of ``--trace 0``.
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("setup_s", "s", "lower"),
    ("jobs_per_s", "1/s", "higher"),
    ("shard_jobs_per_s", "1/s", "higher"),
    ("cold_p50_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("daemon_rss_mb", "MB", "lower"),
    ("sim_events_per_s", "1/s", "higher"),
)

#: End-to-end metrics printed with the others but kept out of the result
#: line, because a shared 2-vCPU host moves them more than a regression
#: bound could allow.  The p99s are pooled over >= 1000 requests per
#: run, yet one CPU steal slice (~10 ms) on a 2-8 ms request lands in
#: the top 1%.  A warm request is ~2.5 ms of two processes waking each
#: other across CPUs, and its p50 followed the host's load by 15-22%
#: (IQR over seeds) where throughput moved 5-10%.  ``failed_ratio`` is 0
#: on a correct run; the result line carries ``attempted`` and
#: ``failed`` instead.
PRINTED_ONLY: Tuple[Tuple[str, str], ...] = (
    ("cold_p99_ms", "ms"),
    ("warm_p50_ms", "ms"),
    ("warm_p99_ms", "ms"),
    ("failed_ratio", "fraction"),
)

CACHE_CATEGORIES = ("busy_time", "omega", "segments", "combo_exact", "packing", "jobs")

#: (name, unit, better): the per-layer metrics of ``--trace 1``.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("model.parse.calls", "count", "lower"),
    ("model.parse.s", "s", "lower"),
    ("model.canonical_json.calls", "count", "lower"),
    ("model.canonical_json.s", "s", "lower"),
    ("latency.analyze_latency.calls", "count", "lower"),
    ("latency.analyze_latency.s", "s", "lower"),
    ("busy_window.criterion_loads.calls", "count", "lower"),
    ("busy_window.criterion_loads.s", "s", "lower"),
    ("combinations.overload_active_segments.calls", "count", "lower"),
    ("combinations.overload_active_segments.s", "s", "lower"),
    ("combinations.search_combinations.calls", "count", "lower"),
    ("combinations.search_combinations.s", "s", "lower"),
    ("combinations.checks", "count", "lower"),
    ("combinations.nodes", "count", "lower"),
    ("twca.analyze_twca.calls", "count", "lower"),
    ("twca.analyze_twca.self_s", "s", "lower"),
    ("twca.status.schedulable", "count", "higher"),
    ("twca.status.weakly-hard", "count", "higher"),
    ("twca.status.no-guarantee", "count", "lower"),
    ("twca.dmm_curve.calls", "count", "lower"),
    ("twca.dmm_curve.s", "s", "lower"),
    ("ilp.resolves", "count", "lower"),
    ("ilp.warm_starts", "count", "higher"),
    ("ilp.cold_solves", "count", "lower"),
    ("ilp.memo_hits", "count", "higher"),
    ("cache.lookup.calls", "count", "lower"),
    ("cache.lookup.s", "s", "lower"),
    ("cache.store.calls", "count", "lower"),
    ("cache.store.s", "s", "lower"),
    *((f"cache.{c}.hit_ratio", "fraction", "higher") for c in CACHE_CATEGORIES),
    ("jobs.execute_job.p50_ms", "ms", "lower"),
    ("jobs.execute_job.p99_ms", "ms", "lower"),
    ("share.parse", "fraction", "lower"),
    ("share.latency", "fraction", "lower"),
    ("share.search", "fraction", "lower"),
    ("share.ilp", "fraction", "lower"),
    ("share.cache", "fraction", "lower"),
    ("shard.close_s", "s", "lower"),
    ("shard.steals", "count", "lower"),
    ("shard.retries", "count", "lower"),
    ("shard.respawns", "count", "lower"),
    ("shard.idle_ratio", "fraction", "lower"),
    ("service.analyze.p50_ms", "ms", "lower"),
    ("service.analyze.cold_p50_ms", "ms", "lower"),
    ("service.analyze.warm_p50_ms", "ms", "lower"),
    ("service.transport.p50_ms", "ms", "lower"),
    ("service.request_from_dict.calls", "count", "lower"),
    ("service.request_from_dict.s", "s", "lower"),
    ("service.response_to_json.calls", "count", "lower"),
    ("service.response_to_json.s", "s", "lower"),
    ("service.stats.requests", "count", "lower"),
    ("service.stats.computes", "count", "lower"),
    ("service.stats.coalesced", "count", "higher"),
    ("service.stats.merged", "count", "higher"),
    ("service.stats.systems", "count", "lower"),
    ("service.cache.jobs.hit_ratio", "fraction", "higher"),
    ("sim.worst_case_stream.calls", "count", "lower"),
    ("sim.worst_case_stream.s", "s", "lower"),
    ("sim.run.calls", "count", "lower"),
    ("sim.run.s", "s", "lower"),
    ("sim.queries.s", "s", "lower"),
    ("sim.events", "count", "higher"),
    ("sim.misses", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


# ----------------------------------------------------------------------
# Small helpers
# ----------------------------------------------------------------------
def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else float("nan")


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def steal_ticks() -> Optional[int]:
    """Aggregate CPU steal ticks from ``/proc/stat`` (``None`` when
    the host does not report them)."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git
    (the benchmark may run in a plain checkout)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def env_block() -> Dict[str, Any]:
    from repro.kernel import kernel_name

    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "kernel": kernel_name(),
        "commit": git_commit(ROOT),
    }


# ----------------------------------------------------------------------
# The daemon subprocess
# ----------------------------------------------------------------------
class Daemon:
    """One analysis daemon subprocess: ``repro serve`` untraced, or the
    tracing launcher ``perfbench/daemon.py``; pinned to ``cpu``."""

    _serial = 0

    def __init__(self, *, cpu: Optional[int], trace_out: Optional[Path]):
        from repro.service import ServiceClient, ServiceError

        Daemon._serial += 1
        OUT.mkdir(exist_ok=True)
        self.log_path = OUT / f"daemon-{os.getpid()}-{Daemon._serial}.log"
        if trace_out is None:
            command = [sys.executable, "-m", "repro.cli", "serve", "--port", "0"]
            preexec = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
        else:
            command = [sys.executable, str(HERE / "daemon.py"), "--trace-out", str(trace_out)]
            if cpu is not None:
                command += ["--cpu", str(cpu)]
            preexec = None
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
        )
        with open(self.log_path, "wb") as log:
            self.process = subprocess.Popen(
                command,
                cwd=ROOT,
                env=env,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=log,
                preexec_fn=preexec,
            )
        try:
            self.url = self._await_url(deadline=time.monotonic() + 60)
            self.client = ServiceClient(self.url, timeout=60)
            while True:
                try:
                    self.client.health()
                    break
                except ServiceError:
                    if self.process.poll() is not None:
                        raise RuntimeError(self._failure("exited before /healthz"))
                    time.sleep(0.002)
        except BaseException:
            self.stop()
            raise

    def _failure(self, what: str) -> str:
        tail = self.log_path.read_text(encoding="utf-8", errors="replace")[-2000:]
        return f"daemon {what} (exit {self.process.poll()}): {tail}"

    def _await_url(self, deadline: float) -> str:
        pattern = re.compile(r"listening on (http://\S+)")
        while time.monotonic() < deadline:
            match = pattern.search(
                self.log_path.read_text(encoding="utf-8", errors="replace")
            )
            if match:
                return match.group(1)
            if self.process.poll() is not None:
                raise RuntimeError(self._failure("exited during start"))
            time.sleep(0.002)
        raise RuntimeError(self._failure("did not start within 60 s"))

    def stop(self) -> None:
        """SIGINT (the daemon's own shutdown path), then wait; the log
        is kept only when the daemon did not exit cleanly."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.process.returncode == 0:
            self.log_path.unlink(missing_ok=True)


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------
@dataclass
class Inputs:
    systems: List[Any]
    slices: List[List[Any]]
    requests: List[Dict[str, Any]]
    soak_system: Any
    #: One (activations, horizon) soak piece per round.
    soak_pieces: List[Tuple[Dict[str, List[float]], float]]


@dataclass
class Run:
    workload_name: str
    seed: int
    seconds: int
    trace: bool
    reference: Dict[str, Any]
    attempted: Set[Tuple[Any, ...]] = field(default_factory=set)
    failed: Set[Tuple[Any, ...]] = field(default_factory=set)
    problems: List[str] = field(default_factory=list)
    notes: Dict[str, Any] = field(default_factory=dict)
    e2e: Dict[str, float] = field(default_factory=dict)
    layer: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        from spans import Tracer

        self.workload = WORKLOADS[self.workload_name]
        self.slice_count = max(1, round(self.seconds / self.workload.seconds_per_slice))
        self.soak_events = min(
            SOAK_EVENTS_MAX, max(SOAK_EVENTS_MIN, SOAK_EVENTS_PER_SECOND * self.seconds)
        )
        self.tracer = Tracer()
        #: Undo callbacks of the installed span wrappers (traced runs).
        self.undo: List[Any] = []
        self.trace_file: Optional[Path] = (
            OUT / f"daemon-trace-{self.workload_name}-{self.seed}.json.gz"
            if self.trace
            else None
        )
        self.daemon: Optional[Daemon] = None
        #: Printed end-to-end metrics that are not in the result line.
        self.printed_only: Dict[str, float] = {}
        self.cpus = sorted(os.sched_getaffinity(0))
        self.client_cpu = self.cpus[0] if len(self.cpus) >= 2 else None
        self.daemon_cpu = self.cpus[1] if len(self.cpus) >= 2 else None

    # -- accounting -----------------------------------------------------
    def fail(self, ops: Sequence[Tuple[Any, ...]], problem: str) -> None:
        self.failed.update(ops)
        if len(self.problems) < 20:
            self.problems.append(problem)

    # -- phases ---------------------------------------------------------
    def setup_once(self, keep_daemon: bool) -> Tuple[float, Inputs]:
        from repro.runner import BatchRunner
        from repro.service import AnalysisRequest
        from repro.sim import worst_case_stream
        from repro.synth.corpus import CorpusSpec, generate_entry
        from repro.synth.soak import soak_system

        started = time.perf_counter()
        workload = self.workload
        count = self.slice_count * SLICE_SYSTEMS
        spec = CorpusSpec(
            count=count,
            seed=self.seed,
            family=workload.family,
            utilization=workload.utilization,
        )
        systems = [generate_entry(spec, index) for index in range(count)]
        runner = BatchRunner(workers=1)
        slices = [
            runner.jobs_for(systems[start : start + SLICE_SYSTEMS])
            for start in range(0, count, SLICE_SYSTEMS)
        ]
        requests = [AnalysisRequest.from_system(system).to_dict() for system in systems]

        soak = soak_system()
        rate = sum(chain.activation.rate() for chain in soak.chains)
        horizon = self.soak_events / self.slice_count / rate
        stream = self.tracer.wrap("sim.worst_case_stream", worst_case_stream)
        pieces = []
        for piece in range(self.slice_count):
            rng = random.Random(f"{self.seed}:soak:{piece}")
            activations = {
                chain.name: stream(
                    chain.activation,
                    horizon,
                    rng.uniform(0.0, chain.activation.delta_minus(2)),
                )
                for chain in soak.chains
            }
            pieces.append((activations, horizon))
        daemon = Daemon(cpu=self.daemon_cpu, trace_out=self.trace_file)
        elapsed = time.perf_counter() - started
        if keep_daemon:
            self.daemon = daemon
        else:
            daemon.stop()
        inputs = Inputs(systems, slices, requests, soak, pieces)
        return elapsed, inputs

    def setup(self) -> Inputs:
        self.tracer.phase = "setup"
        reps = 1 if self.trace else SETUP_REPS
        times = []
        inputs = None
        for rep in range(reps):
            elapsed, inputs = self.setup_once(keep_daemon=rep == reps - 1)
            times.append(elapsed)
            gc.collect()
        self.e2e["setup_s"] = median(times)
        self.notes["setup_s"] = {"reps": times}
        assert inputs is not None
        return inputs

    def measure(self, inputs: Inputs) -> List[Any]:
        """Every phase, interleaved one slice per round: serial batch,
        shard, cold and warm daemon requests, soak piece.  Host
        contention comes in stretches, so each end-to-end metric is the
        median over many short rounds spread across the whole run.
        Returns the serial results per slice."""
        from repro.runner import ShardCoordinator, local_shard_workers

        workers = local_shard_workers(SHARD_WORKERS)
        if self.trace:
            for worker in workers:
                worker.run_chunk = self.tracer.wrap("shard.run_chunk", worker.run_chunk)
        coordinator = ShardCoordinator(workers)
        self.rates: Dict[str, List[float]] = {"serial": [], "shard": [], "sim": []}
        self.latencies: Dict[str, List[List[float]]] = {"cold": [], "warm": []}
        #: (kind, client latency) per daemon request, in send order.
        self.sent: List[Tuple[str, float]] = []
        self.cold_responses: Dict[int, Dict[str, Any]] = {}
        self.soak_summaries: List[Dict[str, Dict[str, Any]]] = []
        shard_walls, steals, retries = [], 0, 0
        serial: List[Any] = []
        rounds = len(inputs.slices)
        try:
            for index in range(rounds):
                gc.collect()
                serial.append(self.serial_slice(inputs, index))
                if (index + 1) % SHARD_SLICES == 0 or index == rounds - 1:
                    group = range(index - index % SHARD_SLICES, index + 1)
                    wall = self.shard_pass(inputs, group, coordinator, serial)
                    if wall is not None:
                        shard_walls.append(wall)
                        steals += coordinator.last_stats.get("steals", 0)
                        retries += coordinator.last_stats.get("retries", 0)
                for kind in ("cold", "warm"):
                    self.daemon_block(inputs, index, kind, serial[index])
                self.soak_piece(inputs, index)
        finally:
            started = time.perf_counter()
            coordinator.close()
            close_s = time.perf_counter() - started
        assert self.daemon is not None
        self.daemon_stats = self.daemon.client.cache_stats()
        self.e2e["daemon_rss_mb"] = vm_hwm_mb(self.daemon.process.pid)
        self.daemon.stop()

        from spans import quantile

        def ms(samples: List[float], q: float) -> float:
            return 1000.0 * quantile(samples, q)

        cold, warm = self.latencies["cold"], self.latencies["warm"]
        cold_p50s = [ms(block, 0.50) for block in cold]
        warm_p50s = [ms(block, 0.50) for block in warm]
        self.e2e["jobs_per_s"] = median(self.rates["serial"])
        self.e2e["shard_jobs_per_s"] = median(self.rates["shard"])
        self.e2e["cold_p50_ms"] = median(cold_p50s)
        self.printed_only["warm_p50_ms"] = median(warm_p50s)
        self.e2e["sim_events_per_s"] = median(self.rates["sim"])
        # Pooled over the whole run: a p99 needs >= 1000 samples.
        self.printed_only["cold_p99_ms"] = ms([x for block in cold for x in block], 0.99)
        self.printed_only["warm_p99_ms"] = ms([x for block in warm for x in block], 0.99)
        self.notes.update(
            {
                "jobs_per_s": {
                    "rounds": self.rates["serial"],
                    "jobs": sum(map(len, inputs.slices)),
                },
                "shard_jobs_per_s": {"passes": self.rates["shard"]},
                "sim_events_per_s": {"rounds": self.rates["sim"]},
                "shard": {"close_s": close_s, "steals": steals, "retries": retries},
                "cold_blocks": [len(block) for block in cold],
                "warm_blocks": [len(block) for block in warm],
                "cold_p50_ms": cold_p50s,
                "warm_p50_ms": warm_p50s,
            }
        )
        self.check_serial(inputs, serial)
        self.check_soak(inputs)
        if self.trace:
            busy = sum(
                end - start
                for name, start, end, *_ in self.tracer.records()
                if name == "shard.run_chunk"
            )
            self.layer.update(
                {
                    "shard.close_s": close_s,
                    "shard.steals": steals,
                    "shard.retries": retries,
                    "shard.respawns": sum(worker.respawns for worker in workers),
                    "shard.idle_ratio": 1.0 - busy / (len(workers) * sum(shard_walls)),
                }
            )
            self.overhead_probe(inputs.slices[-1])
        return serial

    def serial_slice(self, inputs: Inputs, index: int) -> Any:
        """``BatchRunner(workers=1).run`` on slice ``index`` with a fresh
        in-memory cache; the result, or ``None`` if the batch raised."""
        from repro.runner import BatchExecutionError, BatchRunner

        jobs = inputs.slices[index]
        ops = [("serial", index, j) for j in range(len(jobs))]
        self.attempted.update(ops)
        runner = BatchRunner(workers=1)
        self.tracer.phase = "serial"
        started = time.perf_counter()
        try:
            result = runner.run(jobs)
        except BatchExecutionError as exc:
            self.fail(ops, f"serial slice {index}: {exc}")
            return None
        self.rates["serial"].append(len(jobs) / (time.perf_counter() - started))
        errors = [ops[j] for j, job in enumerate(result.jobs) if job.status == "error"]
        if errors:
            self.fail(errors, f"serial slice {index}: {len(errors)} job errors")
        return result

    def shard_pass(
        self, inputs: Inputs, group: range, coordinator: Any, serial: List[Any]
    ) -> Optional[float]:
        """``ShardCoordinator.run`` on the slices in ``group``; its wall
        time, or ``None`` if it raised.  The export must equal the
        serial one of the same jobs."""
        from repro.runner import BatchResult

        jobs = [job for index in group for job in inputs.slices[index]]
        ops = [("shard", index, j) for index in group for j in range(len(inputs.slices[index]))]
        self.attempted.update(ops)
        self.tracer.phase = "shard"
        started = time.perf_counter()
        try:
            result = coordinator.run(jobs)
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            self.fail(ops, f"shard pass {list(group)}: {type(exc).__name__}: {exc}")
            return None
        wall = time.perf_counter() - started
        self.rates["shard"].append(len(jobs) / wall)
        references = [serial[index] for index in group]
        if any(reference is None for reference in references) or result.to_json() != (
            BatchResult(jobs=[job for reference in references for job in reference.jobs])
        ).to_json():
            self.fail(ops, f"shard pass {list(group)} export differs from serial")
        else:
            errors = [ops[j] for j, job in enumerate(result.jobs) if job.status == "error"]
            if errors:
                self.fail(errors, f"shard pass {list(group)}: job errors")
        return wall

    def daemon_block(self, inputs: Inputs, index: int, kind: str, serial: Any) -> None:
        """One closed-loop block of ``POST /analyze`` requests, one per
        system of slice ``index``: their first (``cold``) or a repeat
        (``warm``).  The client runs on its own CPU, apart from the
        daemon's."""
        from repro.service import ServiceError

        assert self.daemon is not None
        client = self.daemon.client
        first = index * SLICE_SYSTEMS
        targets = range(first, min(first + SLICE_SYSTEMS, len(inputs.systems)))
        latencies: List[float] = []
        responses: List[Tuple[Tuple[Any, ...], int, Optional[Dict[str, Any]]]] = []
        self.tracer.phase = "daemon"
        if self.client_cpu is not None:
            os.sched_setaffinity(0, {self.client_cpu})
        try:
            for system_index in targets:
                op = (kind, system_index)
                self.attempted.add(op)
                started = time.perf_counter()
                try:
                    response = client.analyze(inputs.requests[system_index])
                except ServiceError as exc:
                    self.fail([op], f"{kind} request for system {system_index}: {exc}")
                    continue
                latency = time.perf_counter() - started
                latencies.append(latency)
                self.sent.append((kind, latency))
                responses.append((op, system_index, response))
        finally:
            os.sched_setaffinity(0, set(self.cpus))
        self.latencies[kind].append(latencies)

        expected: Dict[str, List[Dict[str, Any]]] = {}
        for job in serial.jobs if serial is not None else ():
            expected.setdefault(job.label, []).append(job.to_dict())
        for op, system_index, response in responses:
            if "error" in response["status_counts"]:
                self.fail([op], f"{kind} response for system {system_index}: job errors")
            if kind == "cold":
                self.cold_responses[system_index] = response
                want = expected.get(inputs.systems[system_index].name)
                if response["jobs"] != want:
                    self.fail([op], f"cold response for system {system_index} != serial jobs")
            elif response != self.cold_responses.get(system_index):
                self.fail([op], f"warm response for system {system_index} != cold response")

    def overhead_probe(self, jobs: List[Any]) -> None:
        """``trace.overhead_ratio``: median traced over median untraced
        wall time of ``jobs``, run alternately with and without the
        wrappers, each time under a fresh cache."""
        import layers
        from repro.runner import BatchRunner

        self.tracer.phase = "probe"
        walls: Dict[bool, List[float]] = {True: [], False: []}
        for traced in (False, True) * OVERHEAD_PAIRS:
            if not traced:
                for undo in self.undo:
                    undo()
            runner = BatchRunner(workers=1)
            gc.collect()
            started = time.perf_counter()
            runner.run(jobs)
            walls[traced].append(time.perf_counter() - started)
            if not traced:
                self.undo = layers.install(self.tracer)
        self.layer["trace.overhead_ratio"] = median(walls[True]) / median(walls[False])

    def soak_piece(self, inputs: Inputs, index: int) -> None:
        """``Simulator.run`` on soak piece ``index``, then the per-chain
        result queries; the rate counts both."""
        from repro.sim import Simulator

        system = inputs.soak_system
        activations, horizon = inputs.soak_pieces[index]
        events = sum(len(stream) for stream in activations.values())
        self.attempted.add(("sim", index))
        self.tracer.phase = "soak"
        started = time.perf_counter()
        result = Simulator(system).run(activations, horizon)
        ran = time.perf_counter()
        summary = {
            chain.name: {
                "max_latency": result.max_latency(chain.name),
                "misses": result.miss_count(chain.name),
                f"dmm{SOAK_DMM_K}": result.empirical_dmm(chain.name, SOAK_DMM_K),
                "busy_windows": len(result.busy_windows(chain.name)),
            }
            for chain in system.chains
        }
        queried = time.perf_counter()
        self.rates["sim"].append(events / (queried - started))
        self.soak_summaries.append(summary)
        if self.trace:
            self.tracer.count("sim.queries.s", queried - ran)
            self.tracer.count("sim.events", events)
            self.tracer.count("sim.misses", sum(s["misses"] for s in summary.values()))

    def reference_digest(self, name: str) -> Optional[str]:
        """The digest ``name`` recorded in ``reference.json`` for this
        workload and seed, looked up by ``--seconds`` when it depends on
        it; ``None`` when nothing is recorded."""
        expected = self.reference.get(self.workload_name, {})
        if self.seed != expected.get("seed"):
            return None
        recorded = expected.get(name)
        if isinstance(recorded, dict):
            recorded = recorded.get(str(self.seconds))
        return recorded

    def check_digest(self, name: str, digest: str, ops: Sequence[Tuple[Any, ...]]) -> None:
        """Note ``digest``; fail ``ops`` when it differs from a recorded one."""
        self.notes[name] = digest
        recorded = self.reference_digest(name)
        if recorded is not None and digest != recorded:
            self.fail(ops, f"{name} {digest} != reference {recorded}")

    def check_serial(self, inputs: Inputs, serial: List[Any]) -> None:
        """The serial exports against the reference: slice 0, the same
        at every ``--seconds``, and all slices in order.  A slice whose
        batch raised has already failed and leaves the whole export
        unchecked."""
        ops = [
            [("serial", index, j) for j in range(len(jobs))]
            for index, jobs in enumerate(inputs.slices)
        ]
        if serial[0] is not None:
            self.check_digest("serial_slice0_sha256", sha256(serial[0].to_json()), ops[0])
        if all(result is not None for result in serial):
            whole = hashlib.sha256()
            for result in serial:
                whole.update(result.to_json().encode("utf-8"))
            self.check_digest(
                "serial_sha256", whole.hexdigest(), [op for group in ops for op in group]
            )

    def check_soak(self, inputs: Inputs) -> None:
        """Soundness of every soak piece against the paper's bounds,
        then the digest of all summaries.

        Simulated latencies are differences of float timestamps as large
        as the horizon, so they carry a rounding error of a few
        ``ulp(horizon)``; the Theorem 2 comparison allows for it."""
        from repro.analysis import analyze_latency, analyze_twca

        enabled, self.tracer.enabled = self.tracer.enabled, False
        system = inputs.soak_system
        bounds = {
            chain.name: (
                analyze_latency(system, chain).wcl,
                analyze_twca(system, chain).dmm(SOAK_DMM_K),
            )
            for chain in system.chains
        }
        self.tracer.enabled = enabled
        for index, summary in enumerate(self.soak_summaries):
            tolerance = SOAK_LATENCY_ULPS * math.ulp(inputs.soak_pieces[index][1])
            violations = []
            for name, (wcl, dmm_bound) in bounds.items():
                observed = summary[name]
                if observed["max_latency"] > wcl + tolerance:
                    violations.append(
                        f"{name}: latency {observed['max_latency']} > WCL {wcl}"
                    )
                if observed[f"dmm{SOAK_DMM_K}"] > dmm_bound:
                    violations.append(
                        f"{name}: empirical dmm({SOAK_DMM_K}) "
                        f"{observed[f'dmm{SOAK_DMM_K}']} > bound {dmm_bound}"
                    )
            if violations:
                self.fail([("sim", index)], f"soak piece {index}: " + "; ".join(violations))
        self.check_digest(
            "soak_sha256",
            sha256(json.dumps(self.soak_summaries, sort_keys=True)),
            [("sim", index) for index in range(len(self.soak_summaries))],
        )

    # -- per-layer metrics ----------------------------------------------
    def layer_metrics(self, serial: List[Any]) -> None:
        from spans import aggregate, quantile, read_spans

        spans = self.tracer.records()
        serial_spans = aggregate(spans, phases={"serial"})
        every = aggregate(spans)
        daemon_spans: Dict[str, Dict[str, Any]] = {}
        if self.trace_file is not None and self.trace_file.exists():
            daemon_spans = aggregate(read_spans(str(self.trace_file)))

        def get(table: Dict[str, Dict[str, Any]], name: str, key: str) -> float:
            return table.get(name, {}).get(key, 0)

        layer = self.layer
        for name, table in (
            ("latency.analyze_latency", serial_spans),
            ("busy_window.criterion_loads", serial_spans),
            ("combinations.overload_active_segments", serial_spans),
            ("combinations.search_combinations", serial_spans),
            ("twca.dmm_curve", serial_spans),
            ("cache.lookup", serial_spans),
            ("cache.store", serial_spans),
            ("sim.worst_case_stream", every),
            ("sim.run", every),
        ):
            layer[f"{name}.calls"] = get(table, name, "calls")
            layer[f"{name}.s"] = get(table, name, "s")
        for name, phase_table in (("model.parse", serial_spans), ("model.canonical_json", every)):
            layer[f"{name}.calls"] = get(phase_table, name, "calls") + get(
                daemon_spans, name, "calls"
            )
            layer[f"{name}.s"] = get(phase_table, name, "s") + get(daemon_spans, name, "s")
        for phase, names in (
            ("serial", ("combinations.checks", "combinations.nodes")),
            ("soak", ("sim.queries.s", "sim.events", "sim.misses")),
        ):
            for name in names:
                layer[name] = self.tracer.counts.get(phase, {}).get(name, 0)
        layer["twca.analyze_twca.calls"] = get(serial_spans, "twca.analyze_twca", "calls")
        layer["twca.analyze_twca.self_s"] = get(serial_spans, "twca.analyze_twca", "self_s")

        jobs = [job for result in serial if result is not None for job in result.jobs]
        for status in ("schedulable", "weakly-hard", "no-guarantee"):
            layer[f"twca.status.{status}"] = sum(job.status == status for job in jobs)
        for counter in ("resolves", "warm_starts", "cold_solves", "memo_hits"):
            layer[f"ilp.{counter}"] = sum(job.packing.get(counter, 0) for job in jobs)
        from repro.runner import merge_stats

        totals: Dict[str, Dict[str, int]] = {}
        for result in serial:
            if result is not None:
                merge_stats(totals, result.cache_stats)
        for category in CACHE_CATEGORIES:
            counters = totals.get(category, {})
            lookups = counters.get("hits", 0) + counters.get("misses", 0)
            layer[f"cache.{category}.hit_ratio"] = (
                counters.get("hits", 0) / lookups if lookups else 0.0
            )

        durations = serial_spans.get("jobs.execute_job", {}).get("durations", [])
        layer["jobs.execute_job.p50_ms"] = 1000.0 * quantile(durations, 0.50)
        layer["jobs.execute_job.p99_ms"] = 1000.0 * quantile(durations, 0.99)
        job_time = sum(durations) or float("nan")
        layer["share.parse"] = get(serial_spans, "model.parse", "s") / job_time
        layer["share.latency"] = layer["latency.analyze_latency.s"] / job_time
        layer["share.search"] = (
            layer["combinations.overload_active_segments.s"]
            + layer["combinations.search_combinations.s"]
        ) / job_time
        layer["share.ilp"] = layer["twca.dmm_curve.s"] / job_time
        layer["share.cache"] = (layer["cache.lookup.s"] + layer["cache.store.s"]) / job_time

        # One client in closed loop: the daemon's spans arrive in the
        # order the requests were sent.
        analyze = daemon_spans.get("service.analyze", {}).get("durations", [])
        handler = daemon_spans.get("service.handler", {}).get("durations", [])
        kinds = [kind for kind, _ in self.sent]
        layer["service.analyze.p50_ms"] = 1000.0 * quantile(analyze, 0.50)
        for kind in ("cold", "warm"):
            durations = [d for d, k in zip(analyze, kinds) if k == kind]
            layer[f"service.analyze.{kind}_p50_ms"] = 1000.0 * quantile(durations, 0.50)
        transport = [
            latency - server for (_, latency), server in zip(self.sent, handler)
        ]
        layer["service.transport.p50_ms"] = 1000.0 * quantile(transport, 0.50)
        for name in ("service.request_from_dict", "service.response_to_json"):
            layer[f"{name}.calls"] = get(daemon_spans, name, "calls")
            layer[f"{name}.s"] = get(daemon_spans, name, "s")
        service = self.daemon_stats["service"]
        for counter in ("requests", "computes", "coalesced", "merged", "systems"):
            layer[f"service.stats.{counter}"] = service[counter]
        jobs_cache = self.daemon_stats["cache"].get("jobs", {})
        lookups = jobs_cache.get("hits", 0) + jobs_cache.get("misses", 0)
        layer["service.cache.jobs.hit_ratio"] = (
            jobs_cache.get("hits", 0) / lookups if lookups else 0.0
        )

    # -- driver ---------------------------------------------------------
    def execute(self) -> None:
        if self.trace:
            import layers

            self.undo = layers.install(self.tracer)
            os.register_at_fork(after_in_child=lambda: setattr(self.tracer, "enabled", False))
            self.tracer.enabled = True
        try:
            inputs = self.setup()
            serial = self.measure(inputs)
        finally:
            self.tracer.enabled = False
            if self.daemon is not None:
                self.daemon.stop()
        self.e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if self.trace:
            self.layer_metrics(serial)
            self.tracer.write(str(OUT / f"trace-{self.workload_name}-{self.seed}.json.gz"))


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=int, default=40, help="sizes the work (default 40)"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def format_line(name: str, value: float, unit: str, note: str = "") -> str:
    return f"  {name:<44} {value:>14.6g} {unit:<9} {note}".rstrip()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}/repro", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), reference)
    steal_before = steal_ticks()
    started = time.perf_counter()
    run.execute()
    steal_after = steal_ticks()
    env = env_block()
    env["steal_ticks"] = (
        None if steal_before is None or steal_after is None else steal_after - steal_before
    )
    env["wall_s"] = time.perf_counter() - started

    attempted, failed = len(run.attempted), len(run.failed)
    correct = failed == 0 and not run.problems
    run.printed_only["failed_ratio"] = failed / attempted if attempted else 0.0
    cold, warm = run.notes["cold_blocks"], run.notes["warm_blocks"]
    rounds = len(run.notes["jobs_per_s"]["rounds"])
    samples = {
        "setup_s": f"median of {len(run.notes['setup_s']['reps'])} set-ups",
        "jobs_per_s": f"median of {rounds} rounds, {run.notes['jobs_per_s']['jobs']} jobs",
        "shard_jobs_per_s": f"median of {len(run.notes['shard_jobs_per_s']['passes'])} "
        f"passes, {SHARD_WORKERS} workers",
        "cold_p50_ms": f"median of {len(cold)} rounds, n={min(cold)} each",
        "cold_p99_ms": f"n={sum(cold)}",
        "warm_p50_ms": f"median of {len(warm)} rounds, n={min(warm)} each",
        "warm_p99_ms": f"n={sum(warm)}",
        "sim_events_per_s": f"median of {rounds} rounds, {run.soak_events} activations",
        "failed_ratio": f"{failed} of {attempted} operations",
    }
    print(
        f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace}"
    )
    print("env " + json.dumps(env, sort_keys=True))
    print("end-to-end:")
    for name, unit, _ in END_TO_END:
        print(format_line(name, run.e2e[name], unit, samples.get(name, "")))
    print("end-to-end, printed only:")
    for name, unit in PRINTED_ONLY:
        print(format_line(name, run.printed_only[name], unit, samples[name]))
    if args.trace:
        print("per-layer:")
        for name, unit, _ in PER_LAYER:
            print(format_line(name, run.layer[name], unit))
    for problem in run.problems:
        print(f"FAILED: {problem}")
    print(f"checks: {'ok' if correct else 'FAILED'}")

    table = PER_LAYER if args.trace else END_TO_END
    values = run.layer if args.trace else run.e2e
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in table}
    OUT.mkdir(exist_ok=True)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "metrics": metrics,
        "printed_only": run.printed_only,
        "notes": run.notes,
        "problems": run.problems,
    }
    report_path = OUT / f"report-{args.workload}-{args.seed}-{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=2, sort_keys=True, default=str))
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
