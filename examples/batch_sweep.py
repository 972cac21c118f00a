"""Parallel Table-2-style sweep through the batch-runner public API.

Draws random priority permutations of the Figure 4 case study and
analyzes every (system, chain) pair through ``repro.BatchRunner``,
which fans the TWCA jobs out over local shard worker processes (the
coordinator behind ``repro batch --workers N``) when ``workers`` > 1.  The
deterministic JSON export is byte-identical for any ``workers`` value —
parallelism only changes the wall-clock time reported.

An optional cache directory demonstrates the persistent cross-process
cache: run the script twice with the same directory and the second
sweep serves every job result from disk (watch the hit rate and the
"served from disk" count in the summary).

Run:  python examples/batch_sweep.py [samples] [workers] [cache-dir]
"""

import sys
import time

from repro import BatchRunner
from repro.synth import figure4_system, labeled_random_systems


def main(
    samples: int = 50,
    workers: int = 2,
    cache_dir: str = None,
    seed: int = 2017,
) -> None:
    base = figure4_system(calibrated=True)
    labeled = labeled_random_systems(base, samples, seed)
    systems = [system for _, system in labeled]
    labels = [label for label, _ in labeled]

    runner = BatchRunner(workers=workers, ks=(3, 10, 100), cache_dir=cache_dir)
    start = time.perf_counter()
    batch = runner.run_systems(systems, ["sigma_c", "sigma_d"], labels=labels)
    wall = time.perf_counter() - start

    print(batch.summary())
    print()
    schedulable = batch.status_counts.get("schedulable", 0)
    print(f"{schedulable}/{len(batch)} jobs schedulable outright;")
    print(f"{len(batch.errors)} analysis errors (reported as data, not raised)")
    print(f"{len(batch)} TWCA jobs in {wall:.2f}s with {workers} worker(s)")
    if cache_dir is not None:
        print(
            f"persistent cache {cache_dir!r}: "
            f"{batch.disk_hit_count} lookups served from disk"
        )

    # The deterministic export is what a results pipeline would persist:
    # identical bytes whether workers=1 or workers=N analyzed the sweep.
    payload = batch.to_json()
    print(f"JSON export: {len(payload)} bytes (deterministic)")


if __name__ == "__main__":
    main(
        int(sys.argv[1]) if len(sys.argv) > 1 else 50,
        int(sys.argv[2]) if len(sys.argv) > 2 else 2,
        sys.argv[3] if len(sys.argv) > 3 else None,
    )
