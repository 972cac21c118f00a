"""Machine-checkable certificates for analysis results.

A schedulability analysis is only as trustworthy as its implementation.
This oracle extracts, for every bound the library reports, a small
*certificate* that an independent checker (also here, deliberately
sharing no code with the analyses) can re-verify:

* :class:`LatencyCertificate` — for a WCL claim: the busy-window depth
  ``K_b`` and the per-q busy times.  The checker recomputes the
  Theorem 1 demand at each claimed busy time from the raw model,
  re-runs the stopping condition and the WCL arithmetic.
* :class:`DmmCertificate` — for a ``dmm(k)`` claim: the unschedulable
  combinations, the packing variables, the Omega capacities and ``N_b``.
  The checker re-validates combination unschedulability (Def. 10 via
  the Eq. 3 fixed point), packing feasibility, and the bound
  arithmetic.

Checkers *accept* valid certificates; any discrepancy raises
``CertificateError`` with the failing clause.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.analysis.interference import is_deferred
from repro.analysis.latency import LatencyResult
from repro.analysis.segments import critical_segment, header_segment, segments
from repro.analysis.twca import ChainTwcaResult, GuaranteeStatus
from repro.ilp import solve
from repro.model import System


class CertificateError(AssertionError):
    """A certificate failed independent re-verification."""


# ----------------------------------------------------------------------
# Latency certificates
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LatencyCertificate:
    """Evidence for ``WCL(chain) == wcl``."""

    chain_name: str
    wcl: float
    max_queue: int
    busy_times: Tuple[float, ...]
    include_overload: bool = True


def latency_certificate(result: LatencyResult) -> LatencyCertificate:
    """Extract a certificate from an analysis result (full or typical,
    as ``result.include_overload`` says)."""
    return LatencyCertificate(
        chain_name=result.chain_name,
        wcl=result.wcl,
        max_queue=result.max_queue,
        busy_times=result.busy_times,
        include_overload=result.include_overload,
    )


def check_latency_certificate(system: System, certificate: LatencyCertificate) -> None:
    """Re-verify a latency certificate against the raw system model.

    Independent of the analysis code: re-evaluates Theorem 1's sum at
    each claimed busy time (a fixed point must satisfy ``f(B) <= B``),
    re-checks the Theorem 2 stopping rule and the WCL arithmetic.
    """
    target = system[certificate.chain_name]
    interferers = [
        c
        for c in system.others(target)
        if certificate.include_overload or not c.overload
    ]

    def demand_at(horizon: float, q: int) -> float:
        total = q * target.total_wcet
        if target.is_asynchronous:
            header_cost = sum(t.wcet for t in target.header_prefix())
            backlog = max(0, target.activation.eta_plus(horizon) - q)
            total += backlog * header_cost
        for chain in interferers:
            if not is_deferred(chain, target):
                total += chain.activation.eta_plus(horizon) * chain.total_wcet
            elif chain.is_asynchronous:
                header = header_segment(chain, target).wcet
                body = sum(s.wcet for s in segments(chain, target))
                total += chain.activation.eta_plus(horizon) * header + body
            else:
                crit = critical_segment(chain, target)
                total += crit.wcet if crit else 0.0
        return total

    if len(certificate.busy_times) != certificate.max_queue:
        raise CertificateError("busy_times length != max_queue")
    for q, claimed in enumerate(certificate.busy_times, start=1):
        recomputed = demand_at(claimed, q)
        if recomputed > claimed + 1e-9:
            raise CertificateError(
                f"B({q}) = {claimed} is not a fixed point: demand {recomputed}"
            )
    # Stopping rule: window closes exactly at K.
    for q, claimed in enumerate(certificate.busy_times[:-1], start=1):
        if claimed <= target.activation.delta_minus(q + 1):
            raise CertificateError(
                f"busy window already closed at q={q}; K is not minimal"
            )
    last = certificate.busy_times[-1]
    if last > target.activation.delta_minus(certificate.max_queue + 1):
        raise CertificateError(
            f"busy window not closed at the claimed K={certificate.max_queue}"
        )
    # WCL arithmetic.
    latencies = [
        b - target.activation.delta_minus(q)
        for q, b in enumerate(certificate.busy_times, start=1)
    ]
    if max(latencies) != certificate.wcl:
        raise CertificateError(
            f"WCL {certificate.wcl} != max latency {max(latencies)}"
        )


# ----------------------------------------------------------------------
# DMM certificates
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DmmCertificate:
    """Evidence for ``dmm(chain, k) == bound``."""

    chain_name: str
    k: int
    bound: int
    status: str
    n_b: int = 0
    wcl: float = math.inf
    #: combination -> (segment keys, cost, packing variable value)
    packing: Tuple[Tuple[Tuple[Tuple[str, int], ...], float, int], ...] = ()
    #: overload chain -> (omega, segment keys of that chain)
    capacities: Tuple[Tuple[str, float, Tuple[Tuple[str, int], ...]], ...] = ()


def dmm_certificate(result: ChainTwcaResult, k: int) -> DmmCertificate:
    """Extract a certificate for ``result.dmm(k)``."""
    bound = result.dmm(k)
    if result.status is not GuaranteeStatus.WEAKLY_HARD:
        return DmmCertificate(result.chain_name, k, bound, result.status.value)
    omegas = {name: result.omega(name, k) for name in result.active_segments}
    # Re-derive an optimal packing witness (the cached optimum value is
    # scaled by n_b; we need the variable assignment itself) from the
    # program result.dmm() solved: the inclusion-minimal combinations
    # suffice (a packed superset can always be replaced by a minimal
    # subset), and they keep the certificate bounded even when the
    # full combination set is exponential.
    combos = result.minimal_unschedulable()
    values: Sequence[float] = ()
    if combos and not any(math.isinf(o) for o in omegas.values()):
        values = solve(result.packing_program(omegas)).values
    packing = tuple(
        (combo.keys, combo.cost, int(value)) for combo, value in zip(combos, values)
    )
    capacities = tuple(
        (name, omegas[name], tuple(seg.key for seg in result.active_segments[name]))
        for name in sorted(result.active_segments)
    )
    return DmmCertificate(
        chain_name=result.chain_name,
        k=k,
        bound=bound,
        status=result.status.value,
        n_b=result.n_b,
        wcl=result.wcl,
        packing=packing,
        capacities=capacities,
    )


def check_dmm_certificate(system: System, certificate: DmmCertificate) -> None:
    """Re-verify a DMM certificate against the raw system model."""
    target = system[certificate.chain_name]
    if certificate.status == "schedulable":
        if certificate.bound != 0:
            raise CertificateError("schedulable chains have dmm == 0")
        return
    if certificate.status == "no-guarantee":
        if certificate.bound != certificate.k:
            raise CertificateError("no-guarantee chains have the vacuous dmm == k")
        return

    # 1. Capacity values are Lemma 4 quantities.
    window = target.activation.delta_plus(certificate.k) + certificate.wcl
    for name, omega, _ in certificate.capacities:
        expected = system[name].activation.eta_plus(window) + 1
        if omega != expected:
            raise CertificateError(
                f"Omega for {name}: certificate {omega}, recomputed {expected}"
            )

    # 2. Packing feasibility: per active segment, usage <= Omega.
    usage: Dict[Tuple[str, int], int] = {}
    for keys, _cost, value in certificate.packing:
        if value < 0:
            raise CertificateError("negative packing variable")
        for key in keys:
            usage[key] = usage.get(key, 0) + value
    for name, omega, keys in certificate.capacities:
        for key in keys:
            if usage.get(key, 0) > omega:
                raise CertificateError(
                    f"segment {key} used {usage[key]} > Omega {omega}"
                )

    # 3. Bound arithmetic: n_b * total packed, clamped to k.
    packed = sum(value for _, _, value in certificate.packing)
    expected = min(certificate.k, certificate.n_b * packed)
    if certificate.bound != expected:
        raise CertificateError(
            f"bound {certificate.bound} != min(k, n_b * packed) = {expected}"
        )
