"""Tests for certificate extraction and independent checking."""

import dataclasses

import pytest

from oracles.certificates import (CertificateError, check_dmm_certificate,
                                 check_latency_certificate, dmm_certificate,
                                 latency_certificate)

from repro import analyze_latency, analyze_twca


class TestLatencyCertificates:
    def test_case_study_certificates_verify(self, figure4):
        for name in ("sigma_c", "sigma_d"):
            result = analyze_latency(figure4, figure4[name])
            certificate = latency_certificate(result)
            check_latency_certificate(figure4, certificate)

    def test_typical_scan_certificates_verify(self, figure4):
        # The certificate takes the scan's interference scope from the
        # result: the typical sigma_c busy times are no fixed points of
        # the overload-inclusive sum.
        for name in ("sigma_c", "sigma_d"):
            result = analyze_latency(figure4, figure4[name],
                                     include_overload=False)
            certificate = latency_certificate(result)
            assert not certificate.include_overload
            check_latency_certificate(figure4, certificate)
        forged = dataclasses.replace(certificate, include_overload=True)
        with pytest.raises(CertificateError):
            check_latency_certificate(figure4, forged)

    def test_tampered_wcl_rejected(self, figure4):
        result = analyze_latency(figure4, figure4["sigma_c"])
        certificate = latency_certificate(result)
        forged = dataclasses.replace(certificate, wcl=300)
        with pytest.raises(CertificateError):
            check_latency_certificate(figure4, forged)

    def test_tampered_busy_time_rejected(self, figure4):
        result = analyze_latency(figure4, figure4["sigma_c"])
        certificate = latency_certificate(result)
        forged = dataclasses.replace(
            certificate, busy_times=(300.0,) + certificate.busy_times[1:])
        with pytest.raises(CertificateError):
            check_latency_certificate(figure4, forged)

    def test_truncated_queue_rejected(self, figure4):
        result = analyze_latency(figure4, figure4["sigma_c"])
        certificate = latency_certificate(result)
        forged = dataclasses.replace(
            certificate, busy_times=certificate.busy_times[:1],
            max_queue=1)
        with pytest.raises(CertificateError):
            check_latency_certificate(figure4, forged)

    def test_random_system_certificates_verify(self):
        import random
        from repro.synth import GeneratorConfig, generate_feasible_system
        rng = random.Random(17)
        for _ in range(5):
            system = generate_feasible_system(rng, GeneratorConfig(
                chains=3, overload_chains=1, utilization=0.5))
            for chain in system.typical_chains:
                result = analyze_latency(system, chain)
                check_latency_certificate(
                    system, latency_certificate(result))


class TestDmmCertificates:
    def test_case_study_certificate_verifies(self, figure4):
        result = analyze_twca(figure4, figure4["sigma_c"])
        for k in (1, 3, 7, 10):
            certificate = dmm_certificate(result, k)
            check_dmm_certificate(figure4, certificate)

    def test_schedulable_certificate(self, figure4):
        result = analyze_twca(figure4, figure4["sigma_d"])
        certificate = dmm_certificate(result, 10)
        assert certificate.status == "schedulable"
        check_dmm_certificate(figure4, certificate)

    def test_tampered_bound_rejected(self, figure4):
        result = analyze_twca(figure4, figure4["sigma_c"])
        certificate = dmm_certificate(result, 10)
        forged = dataclasses.replace(certificate,
                                     bound=certificate.bound + 1)
        with pytest.raises(CertificateError):
            check_dmm_certificate(figure4, forged)

    def test_tampered_capacity_rejected(self, figure4):
        result = analyze_twca(figure4, figure4["sigma_c"])
        certificate = dmm_certificate(result, 10)
        name, omega, keys = certificate.capacities[0]
        forged = dataclasses.replace(
            certificate,
            capacities=((name, omega + 1, keys),)
            + certificate.capacities[1:])
        with pytest.raises(CertificateError):
            check_dmm_certificate(figure4, forged)

    def test_overpacked_witness_rejected(self, figure4):
        result = analyze_twca(figure4, figure4["sigma_c"])
        certificate = dmm_certificate(result, 10)
        keys, cost, value = certificate.packing[0]
        forged = dataclasses.replace(
            certificate,
            packing=((keys, cost, value + 100),)
            + certificate.packing[1:])
        with pytest.raises(CertificateError):
            check_dmm_certificate(figure4, forged)

    def test_vacuous_certificate(self):
        from repro import PeriodicModel, SporadicModel, SystemBuilder
        system = (
            SystemBuilder("doomed")
            .chain("victim", PeriodicModel(100), deadline=20)
            .task("victim.a", priority=1, wcet=30)
            .chain("isr", SporadicModel(1000), overload=True)
            .task("isr.t", priority=2, wcet=5)
            .build()
        )
        result = analyze_twca(system, system["victim"])
        certificate = dmm_certificate(result, 10)
        assert certificate.status == "no-guarantee"
        check_dmm_certificate(system, certificate)
        forged = dataclasses.replace(certificate, bound=3)
        with pytest.raises(CertificateError):
            check_dmm_certificate(system, forged)
