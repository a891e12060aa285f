"""Residual verification: exactness, failure modes, convergence, invariances."""

from __future__ import annotations

import math

import numpy as np
import pytest

from solitonlab import residuals
from solitonlab.model import PhysicalParams, make_grid
from solitonlab.residuals import (
    auto_time_step, choquard_residual, full_family_audit,
    matter_residual_from_stack, residual_pair, scalar_residual_from_stack,
)
from solitonlab.solutions import (
    sample_solution, spec_1d_a, spec_1d_b, spec_3d_a, spec_3d_b,
)

P = PhysicalParams(M=1.0, m=0.5, v=1.0)


def grid_for(spec, params=P, n=2048, widths=40.0):
    from solitonlab.solutions import family_coefficients
    k = family_coefficients(spec, params).envelope_k
    return make_grid(1, n, widths / k)


class TestExactFamilies:
    @pytest.mark.parametrize("spec", [
        spec_3d_a(P, omega=1.5),
        spec_3d_b(P, mu=0.5),  # exact point mu = m
        spec_1d_a(P, phi_profile="sech_squared"),
        spec_1d_b(P),
    ], ids=["3d_a", "3d_b_matched", "1d_a_corrected", "1d_b"])
    def test_both_equations_below_gate(self, spec):
        g = grid_for(spec)
        matter, scalar = residual_pair(spec, P, g, t=0.3)
        assert matter.rel_residual < 1e-6
        assert scalar.rel_residual < 1e-6

    def test_reports_carry_terms_and_step(self):
        spec = spec_1d_b(P)
        rep = residual_pair(spec, P, grid_for(spec))[0]
        assert set(rep.term_magnitudes) == {"time", "kinetic", "coupling"}
        assert rep.fd_step == pytest.approx(auto_time_step(spec, P))
        rep = residual_pair(spec, P, grid_for(spec))[1]
        assert set(rep.term_magnitudes) == {"wave_operator", "mass", "source"}

    def test_scalar_wave_operator_is_grouped(self):
        # for the unit-speed printed profile, Lap phi alone reaches ~256
        # while the grouped wave operator stays O(1): the grouping is what
        # makes the relative defect honest
        spec = spec_1d_a(P)
        rep = residual_pair(spec, P, grid_for(spec))[1]
        assert rep.term_magnitudes["wave_operator"] < 10.0
        assert rep.rel_residual == pytest.approx(0.25, abs=2e-4)


class TestPrintedUnitSpeedProfile:
    """The sech scalar profile fails both equations; sech^2 repairs it."""

    def test_matter_defect(self):
        spec = spec_1d_a(P, phi_profile="sech")
        rep = residual_pair(spec, P, grid_for(spec))[0]
        assert rep.rel_residual == pytest.approx(0.1482, abs=2e-3)

    def test_scalar_defect(self):
        spec = spec_1d_a(P, phi_profile="sech")
        rep = residual_pair(spec, P, grid_for(spec))[1]
        assert rep.rel_residual == pytest.approx(0.25, abs=2e-3)

    def test_defect_is_resolution_independent(self):
        spec = spec_1d_a(P, phi_profile="sech")
        rels = []
        for n in (1024, 2048):
            _, scalar = residual_pair(spec, P, grid_for(spec, n=n))
            rels.append(scalar.rel_residual)
        assert rels[0] == pytest.approx(rels[1], rel=1e-3)

    def test_corrected_profile_restores_exactness(self):
        spec = spec_1d_a(P, phi_profile="sech_squared")
        matter, scalar = residual_pair(spec, P, grid_for(spec))
        assert matter.rel_residual < 1e-6
        assert scalar.rel_residual < 1e-6


class TestDetunedMomentum:
    def test_3d_b_only_exact_at_matched_momentum(self):
        g = grid_for(spec_3d_b(P, mu=0.5))
        _, scalar = residual_pair(spec_3d_b(P, mu=0.5), P, g)
        assert scalar.rel_residual < 1e-6
        spec = spec_3d_b(P, mu=0.8)
        _, scalar = residual_pair(spec, P, grid_for(spec))
        assert scalar.rel_residual > 0.1


class TestStackLevelInterface:
    def test_free_plane_wave_is_exact(self):
        # psi = e^(i(kx - w t)) with w = k^2/2M and phi = 0
        g = make_grid(1, 256, 32.0)
        k = 2.0 * np.pi * 5 / g.length
        w = k * k / (2.0 * P.M)
        h = 0.01
        stack = np.exp(1j * (k * g.axis[None, :]
                             - w * h * np.arange(-3, 4)[:, None]))
        rep = matter_residual_from_stack(stack, np.zeros(g.n), P, g, h)
        assert rep.rel_residual < 1e-10

    def test_zero_fields_zero_residual(self):
        g = make_grid(1, 64, 10.0)
        rep = matter_residual_from_stack(np.zeros((7, 64), dtype=complex),
                                         np.zeros(64), P, g, 0.01)
        assert rep.abs_residual == 0.0
        assert rep.rel_residual == 0.0
        rep = scalar_residual_from_stack(np.zeros((7, 64)),
                                         np.zeros(64, dtype=complex),
                                         P, g, 0.01)
        assert rep.rel_residual == 0.0

    def test_shape_and_step_validation(self):
        g = make_grid(1, 64, 10.0)
        with pytest.raises(ValueError, match="shape"):
            matter_residual_from_stack(np.zeros((5, 64), dtype=complex),
                                       np.zeros(64), P, g, 0.01)
        with pytest.raises(ValueError, match="positive"):
            scalar_residual_from_stack(np.zeros((7, 64)), np.zeros(64),
                                       P, g, -0.01)


class TestInvariances:
    def test_translation_leaves_residual_unchanged(self):
        spec = spec_1d_b(P)
        g = grid_for(spec)
        a = residual_pair(spec, P, g, t=0.2, x0=0.0)
        # shifts only move the truncation peak between nodes; the time
        # stencil carries a roundoff floor of eps |phi| / h^2 ~ 1e-11 that
        # rules out agreement much beyond the percent level here
        for x0 in (173 * g.spacing, 4.321):
            b = residual_pair(spec, P, g, t=0.2, x0=x0)
            assert a[0].abs_residual == pytest.approx(b[0].abs_residual,
                                                      rel=1e-2)
            assert a[1].abs_residual == pytest.approx(b[1].abs_residual,
                                                      rel=1e-2)

    def test_time_shift_leaves_residual_unchanged(self):
        spec = spec_3d_a(P, omega=1.5)
        g = grid_for(spec)
        a = residual_pair(spec, P, g, t=0.0)
        b = residual_pair(spec, P, g, t=1.7)
        assert a[1].abs_residual == pytest.approx(b[1].abs_residual,
                                                  rel=1e-3, abs=1e-12)

    def test_quasi_1d_transverse_member(self):
        # transverse wavenumbers enter the dispersion closure and the
        # kinetic term together; residual stays at the exact-family level
        gamma, eps = 0.3, 0.4
        spec = spec_3d_a(P, omega=1.0, gamma=gamma, eps=eps)
        from solitonlab.solutions import family_coefficients
        k = family_coefficients(spec, P).envelope_k
        g = make_grid(1, 2048, 40.0 / k, transverse_mode=(gamma, eps))
        matter, scalar = residual_pair(spec, P, g, t=0.3)
        assert matter.rel_residual < 1e-6
        assert scalar.rel_residual < 1e-6


class TestChoquard:
    PC = PhysicalParams(M=1.0, m=1.0, v=math.sqrt(2.0 / 3.0))

    def test_stationary_member_is_exact(self):
        g = make_grid(1, 2048, 64.0)
        s = sample_solution(spec_1d_b(self.PC), self.PC, g, t=0.0)
        rep = choquard_residual(s.psi, 0.5, self.PC, g)
        assert rep.rel_residual < 1e-10

    def test_half_prefactor_breaks_balance(self):
        # v -> v sqrt(2) halves the source 2M/v^2 and nothing else
        g = make_grid(1, 2048, 64.0)
        s = sample_solution(spec_1d_b(self.PC), self.PC, g, t=0.0)
        half = PhysicalParams(M=self.PC.M, m=self.PC.m,
                              v=self.PC.v * math.sqrt(2.0))
        rep = choquard_residual(s.psi, 0.5, half, g)
        assert rep.rel_residual > 0.1

    def test_wrong_rotation_frequency_detected(self):
        g = make_grid(1, 2048, 64.0)
        s = sample_solution(spec_1d_b(self.PC), self.PC, g, t=0.0)
        rep = choquard_residual(s.psi, 0.75, self.PC, g)
        assert rep.rel_residual > 0.1

    def test_input_validation(self):
        g = make_grid(1, 64, 10.0)
        with pytest.raises(ValueError, match="zero field"):
            choquard_residual(np.zeros(64), 0.5, P, g)
        with pytest.raises(ValueError, match="shape"):
            choquard_residual(np.ones(32), 0.5, P, g)


class TestFamilyAudit:
    def test_audit_covers_expected_cases(self):
        audit = full_family_audit(P, 1024)
        assert len(audit) == 6
        verdicts = {e.label: e.exact for e in audit}
        assert sum(verdicts.values()) == 4
        failing = [lbl for lbl, ok in verdicts.items() if not ok]
        assert any("as printed" in lbl for lbl in failing)
        assert any("detuned" in lbl for lbl in failing)

    def test_audit_with_convergence_ratios(self):
        audit = full_family_audit(P, 1024)
        exact = [e for e in audit if e.exact]
        assert all(min(e.ratios.values()) >= 16.0 for e in exact)

    def test_broken_profile_ratio_pins_near_one(self):
        # the printed profile's scalar defect is a property of the fields,
        # so halving the grid spacing and the time step leaves it in place
        printed, = [e for e in full_family_audit(P, 1024)
                    if "as printed" in e.label]
        assert printed.ratios["scalar"] == pytest.approx(1.0, abs=0.05)

    def test_fine_level_is_n_points_at_half_the_step(self):
        specs = [spec_3d_a(P, omega=P.M), spec_3d_b(P, mu=P.m),
                 spec_3d_b(P, mu=0.8 * P.M), spec_1d_a(P, phi_profile="sech"),
                 spec_1d_a(P, phi_profile="sech_squared"), spec_1d_b(P)]
        audit = full_family_audit(P, 1024)
        assert [e.family for e in audit] == [s.family.value for s in specs]
        for entry, spec in zip(audit, specs):
            for rep in (entry.matter, entry.scalar):
                # the coarse level runs at n/2 points and twice the step
                assert rep.grid_points == 1024
                assert rep.fd_step == auto_time_step(spec, P)

    def test_ratios_do_not_read_the_summation_order(self, monkeypatch):
        # both levels sit above the 1/h^2 stencil's roundoff floor, so the
        # ratios read the truncation order: reversing the order of the
        # stencil's weighted sums, a change at roundoff, moves none of them
        # by more than 1 % (n = 2048, verify-residuals' size)
        before = full_family_audit(P, 2048)
        stencil = residuals._stencil
        monkeypatch.setattr(residuals, "_stencil",
                            lambda w, stack: stencil(w[::-1], stack[::-1]))
        for a, b in zip(before, full_family_audit(P, 2048)):
            for equation, ratio in a.ratios.items():
                assert b.ratios[equation] == pytest.approx(ratio, rel=0.01)

    def test_audit_builds_its_lattices_with_make_grid(self, monkeypatch):
        # two levels for each of the six members, through the one lattice
        # constructor every other lattice is built with
        seen = []

        def spy(*args):
            seen.append(args[:2])
            return make_grid(*args)

        monkeypatch.setattr(residuals, "make_grid", spy)
        full_family_audit(P, 256)
        assert seen == [(1, 128), (1, 256)] * 6

    def test_audit_makes_no_blas_call(self, no_blas):
        # the time stencils are plain weighted sums: a BLAS contraction of
        # 7 samples costs milliseconds per call on a multithreaded BLAS
        with pytest.raises(AssertionError, match="BLAS"):
            np.tensordot(residuals._D1, np.ones((7, 4)), axes=(0, 0))
        audit = full_family_audit(P, 256)
        assert len(audit) == 6

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_stencil_matches_tensordot(self, dtype):
        rng = np.random.default_rng(8)
        stack = rng.standard_normal((7, 512)).astype(dtype)
        if dtype is complex:
            stack += 1j * rng.standard_normal((7, 512))
        for weights in (residuals._D1, residuals._D2):
            expect = np.tensordot(weights, stack, axes=(0, 0))
            got = residuals._stencil(weights, stack)
            assert got.dtype == expect.dtype
            assert np.max(np.abs(got - expect)) \
                < 1e-14 * np.max(np.abs(expect))
