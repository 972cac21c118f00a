"""Sensitivity analysis: how much overload can the guarantees absorb?

Scales parameters of the system and watches the TWCA verdict change —
the practical "margin" questions a deployment engineer asks:

* :func:`wcet_margin` — largest uniform WCET scaling of a chain under
  which a target chain keeps a given weakly-hard guarantee;
* :func:`overload_rate_margin` — smallest overload inter-arrival
  (densest overload) under which the guarantee survives;
* :func:`dmm_vs_scale` — the full dmm(k) curve as a parameter sweeps.

Every entry point accepts an optional :class:`repro.runner.BatchRunner`
and then routes its candidate evaluations through it: the sweep of
:func:`dmm_vs_scale` runs as one parallel batch, the binary-search
margins (inherently sequential) evaluate in-process through
:meth:`~repro.runner.BatchRunner.analyze`.  Each evaluation is a batch
job behind the runner's result cache, so a scaled system evaluated
twice is analyzed once.  Results are identical with and without a
runner.  A ``BatchRunner(cache_dir=...)`` persists those results:
margin questions re-asked against the same system — the daily-driver
use of this module — are served from disk across processes and runs.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List

from ..analysis.exceptions import AnalysisError
from ..analysis.twca import analyze_twca
from ..arrivals.algebra import scaled
from ..model import System, Task


def _scale_chain_wcets(system: System, chain_name: str, factor: float) -> System:
    """A copy of ``system`` with every WCET of ``chain_name`` scaled."""
    chains = []
    for chain in system.chains:
        if chain.name != chain_name:
            chains.append(chain)
            continue
        tasks = [
            Task(t.name, t.priority, t.wcet * factor, min(t.bcet, t.wcet * factor))
            for t in chain.tasks
        ]
        chains.append(chain.with_tasks(tasks))
    return System(chains, name=f"{system.name}-scaled")


def _scale_activation(system: System, chain_name: str, factor: float) -> System:
    """A copy with ``chain_name``'s activation distances scaled."""
    chains = []
    for chain in system.chains:
        if chain.name != chain_name:
            chains.append(chain)
        else:
            chains.append(chain.with_activation(scaled(chain.activation, factor)))
    return System(chains, name=f"{system.name}-rescaled")


def _guarantee_holds(
    system: System, target_name: str, misses: int, window: int, runner=None
) -> bool:
    """Does ``target_name`` keep ``dmm(window) <= misses``?"""
    if runner is not None:
        job = runner.analyze(system, target_name, ks=(window,))
        return job.ok and job.dmm[window] <= misses
    try:
        result = analyze_twca(system, system[target_name])
    except AnalysisError:
        return False
    return result.dmm(window) <= misses


def binary_search_margin(
    holds: Callable[[float], bool],
    lo: float,
    hi: float,
    *,
    tolerance: float = 1e-3,
    increasing_breaks: bool = True,
) -> float:
    """Largest ``x`` in ``[lo, hi]`` with ``holds(x)`` true, assuming
    monotone degradation (``increasing_breaks``: larger x eventually
    fails; set False when *smaller* x fails, e.g. inter-arrival times).
    """
    if not holds(lo if increasing_breaks else hi):
        return math.nan
    if holds(hi if increasing_breaks else lo):
        return hi if increasing_breaks else lo
    good, bad = (lo, hi) if increasing_breaks else (hi, lo)
    while abs(bad - good) > tolerance:
        mid = (good + bad) / 2
        if holds(mid):
            good = mid
        else:
            bad = mid
    return good


def wcet_margin(
    system: System,
    scaled_chain: str,
    target_chain: str,
    *,
    misses: int,
    window: int,
    hi: float = 8.0,
    runner=None,
) -> float:
    """Largest uniform WCET scale factor of ``scaled_chain`` under which
    ``target_chain`` keeps ``dmm(window) <= misses``.  NaN when the
    guarantee does not even hold at factor 1."""
    return binary_search_margin(
        lambda f: _guarantee_holds(
            _scale_chain_wcets(system, scaled_chain, f),
            target_chain,
            misses,
            window,
            runner=runner,
        ),
        1.0,
        hi,
    )


def overload_rate_margin(
    system: System,
    overload_chain: str,
    target_chain: str,
    *,
    misses: int,
    window: int,
    lo_factor: float = 0.05,
    runner=None,
) -> float:
    """Smallest activation-distance scale of ``overload_chain`` (densest
    overload) keeping ``dmm(window) <= misses`` for ``target_chain``.
    1.0 means no margin; NaN when the guarantee fails already."""
    return binary_search_margin(
        lambda f: _guarantee_holds(
            _scale_activation(system, overload_chain, f),
            target_chain,
            misses,
            window,
            runner=runner,
        ),
        lo_factor,
        1.0,
        increasing_breaks=False,
    )


def dmm_vs_scale(
    system: System,
    scaled_chain: str,
    target_chain: str,
    factors: List[float],
    k: int = 10,
    runner=None,
) -> Dict[float, int]:
    """The dmm(k) of ``target_chain`` as ``scaled_chain``'s WCETs scale
    through ``factors`` (k is the vacuous bound when analysis fails).

    With a :class:`repro.runner.BatchRunner` the factors are evaluated
    as one parallel batch instead of a serial loop.
    """
    if runner is not None:
        candidates = [
            _scale_chain_wcets(system, scaled_chain, factor) for factor in factors
        ]
        batch = runner.run_systems(
            candidates,
            [target_chain],
            labels=[f"scale-{factor:g}" for factor in factors],
            ks=(k,),
        )
        return {
            factor: (k if not job.ok else job.dmm[k])
            for factor, job in zip(factors, batch.jobs)
        }
    table: Dict[float, int] = {}
    for factor in factors:
        candidate = _scale_chain_wcets(system, scaled_chain, factor)
        try:
            result = analyze_twca(candidate, candidate[target_chain])
            table[factor] = result.dmm(k)
        except AnalysisError:
            table[factor] = k
    return table
