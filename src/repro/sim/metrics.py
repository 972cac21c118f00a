"""Higher-level metrics over simulation results.

These helpers turn a :class:`~repro.sim.engine.SimulationResult` into the
quantities the analyses bound: worst observed latency, empirical deadline
miss models, and per-busy-window statistics.  They are the bridge between
the simulator-as-oracle and the analytical results in tests and
validation benchmarks.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..model import System
from .activations import random_stream, worst_case_stream
from .engine import SimulationResult, Simulator


@dataclass(frozen=True)
class ValidationReport:
    """Comparison of simulated behaviour against analytical bounds."""

    chain: str
    observed_wcl: float
    analytical_wcl: float
    observed_misses: Dict[int, int]
    analytical_misses: Dict[int, int]

    @property
    def latency_ok(self) -> bool:
        """Bound respected: observation never exceeds the analysis."""
        return self.observed_wcl <= self.analytical_wcl + 1e-9

    @property
    def dmm_ok(self) -> bool:
        return all(
            self.observed_misses[k] <= self.analytical_misses[k]
            for k in self.observed_misses
        )

    @property
    def ok(self) -> bool:
        return self.latency_ok and self.dmm_ok


def worst_case_activations(system: System, horizon: float) -> Dict[str, List[float]]:
    """Critical-instant activations: every chain as dense as its model
    allows, synchronized at time 0."""
    return {
        chain.name: worst_case_stream(chain.activation, horizon)
        for chain in system.chains
    }


def randomized_activations(
    system: System, horizon: float, rng: random.Random, slack_scale: float = 0.5
) -> Dict[str, List[float]]:
    """Randomized legal activations for every chain."""
    return {
        chain.name: random_stream(
            chain.activation, horizon, rng, slack_scale=slack_scale
        )
        for chain in system.chains
    }


def simulate_worst_case(
    system: System, horizon: float, use_bcet: bool = False
) -> SimulationResult:
    """Run the critical-instant simulation over ``horizon``."""
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValueError(f"horizon must be finite and > 0, got {horizon!r}")
    simulator = Simulator(system, use_bcet=use_bcet)
    return simulator.run(worst_case_activations(system, horizon), horizon)


def validate_against_analysis(
    system: System,
    chain_name: str,
    analytical_wcl: float,
    dmm_table: Dict[int, int],
    horizon: float,
) -> ValidationReport:
    """Simulate the critical instant and compare against the analysis.

    Returns a report whose ``ok`` property asserts the soundness
    direction the theory promises: *observed <= bound*.  (The converse —
    tightness — is not guaranteed by the paper.)
    """
    result = simulate_worst_case(system, horizon)
    observed = {k: result.empirical_dmm(chain_name, k) for k in dmm_table}
    return ValidationReport(
        chain=chain_name,
        observed_wcl=result.max_latency(chain_name),
        analytical_wcl=analytical_wcl,
        observed_misses=observed,
        analytical_misses=dict(dmm_table),
    )


def busy_window_activation_counts(result: SimulationResult, chain: str) -> List[int]:
    """Number of chain activations falling in each observed busy window
    — the empirical counterpart of ``K_b`` (Theorem 2).

    The per-window membership scan is two ``searchsorted`` calls over
    the activation array, which the simulators keep sorted.
    """
    windows = result.busy_windows(chain)
    activations = result.activation[chain]
    starts = np.asarray([start for start, _ in windows], dtype=np.float64)
    ends = np.asarray([end for _, end in windows], dtype=np.float64)
    lo = np.searchsorted(activations, starts, side="left")
    hi = np.searchsorted(activations, ends, side="right")
    return (hi - lo).tolist()


def phase_swept_empirical_dmm(
    system: System,
    chain_name: str,
    k: int,
    *,
    phases: Optional[List[float]] = None,
    horizon: float = 20_000.0,
) -> int:
    """Worst empirical ``dmm(k)`` over a sweep of overload phasings.

    The analysis bounds hold for *every* alignment of the overload
    chains against the victim; a single simulation only samples one.
    This helper shifts all overload activations by each phase in
    ``phases`` (default: 24 offsets spread over the victim's period)
    and returns the worst observed windowed miss count — the tightest
    empirical lower bound on any sound ``dmm(k)``.
    """
    victim = system[chain_name]
    if phases is None:
        period = victim.activation.delta_minus(2)
        if period <= 0:
            period = horizon / 20
        phases = [period * i / 24.0 for i in range(24)]
    base = worst_case_activations(system, horizon)
    simulator = Simulator(system)
    worst = 0
    for phase in phases:
        shifted = dict(base)
        for chain in system.overload_chains:
            shifted[chain.name] = [
                t + phase for t in base[chain.name] if t + phase <= horizon
            ]
        result = simulator.run(shifted, horizon)
        worst = max(worst, result.empirical_dmm(chain_name, k))
    return worst
