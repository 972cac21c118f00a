#!/usr/bin/env python
"""Soundness fuzzer: hunt for counterexamples to the analysis bounds.

Generates random systems (uniform and automotive flavours, sync and
async chains, multiple overload sources), simulates them under
worst-case, randomized and phase-shifted activations, and checks every
claim the library makes:

* observed latency <= WCL (Theorem 2);
* observed stage latency <= per-stage bound;
* observed windowed misses <= dmm(k) (Theorem 3);
* certificates of all produced results re-verify.

Exits non-zero and prints a reproducer seed on the first violation.

Usage:  python tools/fuzz_soundness.py [iterations] [base_seed]
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

# The certificate checkers are test oracles: ``tests`` goes on the path
# the way ``benchmarks/conftest.py`` puts it there.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from oracles.certificates import (check_dmm_certificate,
                                  check_latency_certificate, dmm_certificate,
                                  latency_certificate)

from repro import analyze_latency, analyze_twca
from repro.analysis import analyze_stage_latencies
from repro.sim import (Simulator, randomized_activations,
                       simulate_worst_case, worst_case_activations)
from repro.synth import (AutomotiveConfig, GeneratorConfig,
                         generate_feasible_automotive,
                         generate_feasible_system)


def draw_system(rng: random.Random):
    """A random system from one of the generator families."""
    if rng.random() < 0.3:
        return generate_feasible_automotive(rng, AutomotiveConfig(
            chains=rng.randint(2, 5),
            utilization=rng.uniform(0.4, 0.7)))
    return generate_feasible_system(rng, GeneratorConfig(
        chains=rng.randint(2, 4),
        overload_chains=rng.randint(1, 2),
        utilization=rng.uniform(0.4, 0.65),
        overload_utilization=rng.uniform(0.02, 0.1),
        tasks_per_chain=(2, 5),
        deadline_factor=rng.choice([0.8, 1.0, 1.2]),
        asynchronous_fraction=rng.choice([0.0, 0.5])))


def check_one(seed: int) -> None:
    rng = random.Random(seed)
    system = draw_system(rng)
    horizon = 12 * max(c.activation.delta_minus(2) or 100
                       for c in system.chains)

    runs = [simulate_worst_case(system, horizon)]
    streams = randomized_activations(system, horizon, rng, 0.3)
    runs.append(Simulator(system).run(streams, horizon))
    # Phase-shifted overload.
    shifted = dict(worst_case_activations(system, horizon))
    offset = rng.uniform(0, 1) * (
        min(c.activation.delta_minus(2) for c in system.typical_chains))
    for chain in system.overload_chains:
        shifted[chain.name] = [t + offset for t in shifted[chain.name]
                               if t + offset <= horizon]
    runs.append(Simulator(system).run(shifted, horizon))

    for chain in system.typical_chains:
        latency = analyze_latency(system, chain)
        check_latency_certificate(system,
                                  latency_certificate(latency))
        stages = analyze_stage_latencies(system, chain)
        twca = analyze_twca(system, chain)
        for k in (1, 3, 10):
            check_dmm_certificate(system, dmm_certificate(twca, k))
        for sim in runs:
            observed = sim.max_latency(chain.name)
            assert observed <= latency.wcl + 1e-9, (
                f"latency violation: {chain.name} observed {observed} "
                f"> bound {latency.wcl}")
            for record in sim.instances[chain.name]:
                if record.finish is None:
                    continue
                for index, task in enumerate(chain.tasks):
                    finish = record.task_finishes.get(task.name)
                    if finish is None:
                        continue
                    assert (finish - record.activation
                            <= stages.stage(index) + 1e-9), (
                        f"stage violation: {chain.name}[{index}]")
            for k in (1, 3, 10):
                observed_misses = sim.empirical_dmm(chain.name, k)
                assert observed_misses <= twca.dmm(k), (
                    f"dmm violation: {chain.name} k={k} observed "
                    f"{observed_misses} > bound {twca.dmm(k)}")


def main(iterations: int = 50, base_seed: int = 0) -> int:
    failures = 0
    for index in range(iterations):
        seed = base_seed + index
        try:
            check_one(seed)
        except AssertionError as exc:
            failures += 1
            print(f"COUNTEREXAMPLE at seed {seed}: {exc}")
        except Exception as exc:  # noqa: BLE001 - report and continue
            failures += 1
            print(f"CRASH at seed {seed}: {type(exc).__name__}: {exc}")
        else:
            if (index + 1) % 10 == 0:
                print(f"{index + 1}/{iterations} seeds clean")
    if failures:
        print(f"{failures} failing seeds")
        return 1
    print(f"all {iterations} seeds clean")
    return 0


if __name__ == "__main__":
    iterations = int(sys.argv[1]) if len(sys.argv) > 1 else 50
    base_seed = int(sys.argv[2]) if len(sys.argv) > 2 else 0
    sys.exit(main(iterations, base_seed))
