"""Closed-form family generators: dispersion, velocities, norms, sampling."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from solitonlab.model import (Family, PhysicalParams, SolitonSpec, make_grid,
                              validate_params)
from solitonlab.solutions import (
    _sech, alpha_from_dispersion_3d_a, closed_form_norm, closed_form_width,
    family_coefficients, family_velocity, localization_length, matched_length,
    phase_velocity, sample_solution, soliton_velocity_1d_b, spec_1d_a,
    spec_1d_b, spec_3d_a, spec_3d_b,
)

P = PhysicalParams(M=1.0, m=0.5, v=1.0)
# the standing 1d_b member's edge (3/2) m^3 v^2 = M^3 at M = m = 1
EDGE_V = math.sqrt(2.0 / 3.0)


class TestDispersion:
    def test_examples(self):
        assert alpha_from_dispersion_3d_a(1.0, 0.0) == pytest.approx(1.0)
        assert alpha_from_dispersion_3d_a(1.0, 1.5) == pytest.approx(2.0)

    def test_negative_radicand(self):
        with pytest.raises(ValueError, match="radicand_positive"):
            spec_3d_a(P, omega=-0.6)


class TestSolitonVelocity:
    def test_saturated_bound_is_exactly_zero(self):
        assert soliton_velocity_1d_b(1.0, 1.0, math.sqrt(2.0 / 3.0)) == 0.0

    def test_reference_value(self):
        # arithmetic cross-checked by an independent evaluation and by the
        # peak-velocity fit of the evolved field (acceptance run)
        assert soliton_velocity_1d_b(1.0, 0.5, 1.0) == pytest.approx(
            0.982264602843857, abs=1e-15)

    def test_small_mass_limit(self):
        vs = soliton_velocity_1d_b(1.0, 1e-2, 1.0)
        assert 0.0 < vs < 1.0
        assert 1.0 - vs < 1e-11

    def test_bound_violation(self):
        # just past the edge too: no member, rather than V_s snapped to 0
        for v, margin in ((1.0, "-0.5"), (EDGE_V * (1.0 + 1e-13), "-2e-13")):
            with pytest.raises(ValueError, match=rf"velocity_real: .*"
                                                 rf"\(margin {margin}\)"):
                spec_1d_b(PhysicalParams(1.0, 1.0, v))


class TestSpecFactories:
    def test_3d_a_derives_alpha(self):
        s = spec_3d_a(P, omega=1.5)
        assert (s.alpha, s.omega) == (None, 1.5)
        assert family_coefficients(s, P).envelope_k == pytest.approx(2.0)

    def test_3d_a_derives_omega(self):
        s = spec_3d_a(P, alpha=2.0)
        assert (s.alpha, s.omega) == (2.0, None)
        assert family_coefficients(s, P).Omega == pytest.approx(1.5)

    def test_3d_a_rejects_inconsistent_pair(self):
        # a spec holds one of the two, so no pair, consistent or not, is
        # taken
        for alpha in (2.5, 2.0):
            with pytest.raises(ValueError, match="exactly one of alpha or "
                                                 "omega"):
                spec_3d_a(P, alpha=alpha, omega=1.5)

    def test_3d_a_needs_one_parameter(self):
        with pytest.raises(ValueError, match="alpha or omega"):
            spec_3d_a(P)

    def test_3d_b_rejects_superluminal_momentum(self):
        with pytest.raises(ValueError, match="momentum_bound"):
            spec_3d_b(P, mu=1.5)

    def test_3d_b_degenerate_at_mu_equals_M(self):
        # the zero-width member at |mu| = M is refused by the factory
        for mu in (1.0, -1.0):
            with pytest.raises(ValueError,
                               match=r"momentum_bound: .*\(margin 0\)"):
                spec_3d_b(P, mu=mu)

    def test_3d_b_amplitude_singular_at_equal_masses(self):
        p = PhysicalParams(M=1.0, m=1.0, v=1.0)
        with pytest.raises(ValueError, match="singular"):
            family_coefficients(spec_3d_b(p, mu=0.3), p)


class TestPhaseVelocity:
    def test_1d_a_reference_value(self):
        # (-M^4 + (mv)^4) / (2 (mv)^4) at M=1, mv=0.5
        assert phase_velocity(spec_1d_a(P), P) == pytest.approx(-7.5)

    def test_1d_a_vanishes_at_matched_scales(self):
        p = PhysicalParams(M=0.6, m=1.2, v=0.5)  # mv = M
        assert phase_velocity(spec_1d_a(p), p) == pytest.approx(0.0, abs=1e-15)

    def test_1d_b_reference_value(self):
        # -(2/9)(M/mv)^4 / V_s + V_s/2 evaluated with the full-precision V_s;
        # frozen from an independent arithmetic oracle
        assert phase_velocity(spec_1d_b(P), P) == pytest.approx(
            -3.1286210168402735, abs=1e-13)

    def test_undefined_at_zero_velocity(self):
        p = PhysicalParams(M=1.0, m=1.0, v=math.sqrt(2.0 / 3.0))
        with pytest.raises(ValueError, match="undefined"):
            phase_velocity(spec_1d_b(p), p)

    def test_rejects_3d_families(self):
        with pytest.raises(ValueError, match="1D"):
            phase_velocity(spec_3d_a(P, alpha=2.0), P)

    @given(M=st.floats(0.5, 2.0), m=st.floats(0.1, 0.8), v=st.floats(0.2, 1.0))
    def test_envelope_outruns_phase(self, M, m, v):
        # V_s >= V_p wherever both are defined
        if 1.5 * m**3 * v**2 > 0.999 * M**3:
            return
        p = PhysicalParams(M=M, m=m, v=v)
        spec = spec_1d_b(p)
        assert family_velocity(spec, p) >= phase_velocity(spec, p)


class TestLocalizationLength:
    def test_values(self):
        assert localization_length(spec_1d_b(P), P) == pytest.approx(0.75)
        assert localization_length(spec_1d_a(P), P) == pytest.approx(0.25)
        assert localization_length(spec_3d_a(P, alpha=2.0), P) == pytest.approx(0.5)
        lam = math.sqrt(1.0 - 0.25)
        assert localization_length(spec_3d_b(P, mu=0.5), P) == pytest.approx(
            2.0 * lam / 0.5)

    def test_small_width_regime(self):
        # a valid envelope velocity forces the width below the 1/M scale
        # once (mv)^2/M^2 <= 1/3
        p = PhysicalParams(M=1.0, m=0.4, v=1.0)
        assert (p.mv / p.M) ** 2 <= 1.0 / 3.0
        assert localization_length(spec_1d_b(p), p) <= 1.0 / p.M


class TestSampling:
    def test_1d_b_peak_amplitude(self):
        g = make_grid(1, 2048, 64.0)
        s = sample_solution(spec_1d_b(P), P, g, t=0.0)
        assert np.abs(s.psi).max() == pytest.approx(1.0, abs=1e-12)

    def test_1d_b_phi_depth(self):
        g = make_grid(1, 2048, 64.0)
        s = sample_solution(spec_1d_b(P), P, g, t=0.0)
        assert s.phi.min() == pytest.approx(-16.0 / 3.0, abs=1e-12)

    def test_domain_guard(self):
        g = make_grid(1, 512, 16.0)  # needs >= 22.5 for k = 4/3
        with pytest.raises(ValueError, match="domain too short"):
            sample_solution(spec_1d_b(P), P, g, t=0.0)

    def test_phi_nonpositive_everywhere(self):
        g = make_grid(1, 2048, 120.0)
        for spec in (spec_3d_a(P, alpha=2.0), spec_3d_b(P, mu=0.5),
                     spec_1d_a(P), spec_1d_b(P)):
            s = sample_solution(spec, P, g, t=0.7, x0=3.0)
            assert s.phi.max() <= 1e-15

    def test_envelope_even_about_center(self):
        g = make_grid(1, 1024, 40.0)
        n = g.n
        for spec in (spec_3d_a(P, alpha=2.0), spec_1d_b(P)):
            d = np.abs(sample_solution(spec, P, g, t=0.0).psi)
            # center x = 0 sits at index n/2
            np.testing.assert_allclose(d[n // 2 + 1:], d[1:n // 2][::-1],
                                       rtol=0, atol=1e-12)

    def test_periodicity_of_sampled_fields(self):
        # image-summed sampling is exactly periodic: the spectral content
        # at the seam shows no discontinuity defect above 1e-12
        g = make_grid(1, 2048, 64.0)
        s = sample_solution(spec_1d_b(P), P, g, t=0.37, x0=20.0)
        # the envelope center sits near +x edge; compare seam neighborhoods
        # via the analytic translation property instead: shift by one period
        # is exact identity by construction, so check the gradient across the
        # wrap stays smooth (no jump beyond neighboring differences)
        jumps = np.abs(np.diff(np.abs(s.psi)))
        seam = np.abs(np.abs(s.psi[0]) - np.abs(s.psi[-1]))
        assert seam <= 5.0 * (jumps.max() + 1e-15)

    def test_rigid_translation_at_unit_speed(self):
        # 3d_a envelope translates rigidly at speed 1: compare a spectral
        # shift of the t=0 envelope against the t=1 envelope
        g = make_grid(1, 2048, 20.0)
        spec = spec_3d_a(P, alpha=2.0)
        d0 = np.abs(sample_solution(spec, P, g, t=0.0).psi)
        d1 = np.abs(sample_solution(spec, P, g, t=1.0).psi)
        k = 2.0 * np.pi * np.fft.rfftfreq(g.n, d=g.spacing)
        shifted = np.fft.irfft(np.fft.rfft(d0) * np.exp(-1j * k * 1.0), g.n)
        np.testing.assert_allclose(d1, shifted, rtol=0, atol=1e-8)

    def test_quasi_1d_matches_3d_slice(self):
        gamma = 2.0 * np.pi * 2 / 16.0
        eps = 2.0 * np.pi * 4 / 16.0
        spec = spec_3d_a(P, alpha=2.0, gamma=gamma, eps=eps)
        g1 = make_grid(1, 32, 16.0, transverse_mode=(gamma, eps))
        g3 = make_grid(3, 32, 16.0)
        s1 = sample_solution(spec, P, g1, t=0.4)
        s3 = sample_solution(spec, P, g3, t=0.4)
        # y = z = -L/2 slice carries transverse phase e^{-i(gamma+eps)L/2} = 1
        # for even lattice-resonant mode numbers
        np.testing.assert_allclose(s3.psi[:, 0, 0], s1.psi, atol=1e-12)
        np.testing.assert_allclose(s3.phi[:, 0, 0], s1.phi, atol=1e-12)

    @pytest.mark.parametrize("x0", [0.0, 13.0, -9.5])
    def test_center_whole_periods_out_samples_the_same_member(self, x0):
        # the images are summed around the center, so a center 7 periods
        # out (or carried there by V t) is the member in the box
        g = make_grid(1, 1024, 30.0)
        spec = spec_1d_b(P)
        a = sample_solution(spec, P, g, t=0.0, x0=x0)
        for t, shift in ((0.0, x0 + 7 * g.length),
                         (7 * g.length / family_velocity(spec, P), x0)):
            b = sample_solution(spec, P, g, t=t, x0=shift)
            assert np.abs(np.abs(b.psi) - np.abs(a.psi)).max() <= 1e-15
            assert np.abs(b.phi - a.phi).max() <= 1e-15 * np.abs(a.phi).max()

    @pytest.mark.parametrize("boxes", [0.0, 1.5])
    @pytest.mark.parametrize("case", ["1d_b", "3d_b-quasi-1d", "3d_b-16^3"])
    def test_matches_per_image_carriers(self, case, boxes):
        # the sampler takes exp(iKx) once and each image's exp(iKjL) as a
        # constant; the reference evaluates exp(iK(x + jL)) per image.
        # Each rounds its own carrier phases, so they agree to a few ulp
        # of the largest phase K(x + jL) the images reach
        spec = spec_1d_b(P) if case == "1d_b" \
            else spec_3d_b(P, mu=0.5, gamma=0.3, eps=0.2)
        L = matched_length(spec, P)
        if case == "3d_b-16^3":
            g = make_grid(3, 16, L)
        else:
            g = make_grid(1, 2048, L, transverse_mode=(
                None if case == "1d_b" else (0.3, 0.2)))
        co = family_coefficients(spec, P)
        t, x0 = 0.7, boxes * L
        x = g.coords[0]
        center = x0 + co.velocity * t
        r = round(center / L)
        images = sum(_sech(co.envelope_k * (x + j * L - center))
                     ** co.envelope_power
                     * np.exp(1j * co.K_carrier * (x + j * L))
                     for j in (r - 1, r, r + 1))
        want = co.psi_amplitude * np.exp(1j * co.Omega * t) * images
        if g.dim == 3:
            want = want * np.exp(1j * (spec.gamma * g.coords[1]
                                       + spec.eps * g.coords[2]))
        got = sample_solution(spec, P, g, t=t, x0=x0).psi
        phase = abs(co.K_carrier) * (np.abs(x).max() + (abs(r) + 1) * L)
        ulp = np.finfo(float).eps * phase * np.abs(want).max()
        assert np.abs(got - want).max() <= 4.0 * ulp

    def test_moving_center_offset(self):
        g = make_grid(1, 2048, 64.0)
        spec = spec_1d_b(P)
        t = 5.0
        s = sample_solution(spec, P, g, t=t, x0=2.0)
        peak = g.axis[np.argmax(np.abs(s.psi))]
        expect = 2.0 + family_velocity(spec, P) * t
        assert abs(peak - expect) <= g.spacing


class TestNorms:
    def test_1d_families_normalize_to_one(self):
        assert closed_form_norm(spec_1d_a(P), P) == pytest.approx(1.0, abs=1e-14)
        assert closed_form_norm(spec_1d_b(P), P) == pytest.approx(1.0, abs=1e-14)

    def test_3d_a_norm_unity_iff_dispersion_width(self):
        # norm = m^2 v^2 alpha / M^3: unity exactly at alpha = M^3/(mv)^2
        alpha_star = P.M**3 / P.mv**2
        assert closed_form_norm(spec_3d_a(P, alpha=alpha_star), P) == \
            pytest.approx(1.0, abs=1e-14)
        assert closed_form_norm(spec_3d_a(P, alpha=2.0), P) == \
            pytest.approx(P.mv**2 * 2.0 / P.M**3, abs=1e-14)
        assert abs(closed_form_norm(spec_3d_a(P, alpha=1.1 * alpha_star), P)
                   - 1.0) > 0.09

    def test_3d_b_norm(self):
        lam = math.sqrt(0.75)
        expect = 1.5 * P.m**3 * P.v**2 / (P.M**3 * lam)
        assert closed_form_norm(spec_3d_b(P, mu=0.5), P) == pytest.approx(expect)

    def test_transverse_members_not_x_normalizable(self):
        with pytest.raises(ValueError, match="transverse"):
            closed_form_norm(spec_3d_a(P, alpha=2.0, gamma=0.5), P)

    @pytest.mark.parametrize("builder", [
        lambda p: spec_1d_a(p),
        lambda p: spec_1d_b(p),
        lambda p: spec_3d_a(p, alpha=p.M**3 / p.mv**2),
        lambda p: spec_3d_b(p, mu=0.5 * p.M),
    ])
    def test_lattice_norm_matches_closed_form(self, builder):
        rng = np.random.default_rng(11)
        for _ in range(3):
            M = rng.uniform(0.7, 1.4)
            m = rng.uniform(0.3, 0.6) * M
            v = rng.uniform(0.6, 1.2)
            if 1.5 * m**3 * v**2 > 0.9 * M**3:
                continue
            p = PhysicalParams(M=M, m=m, v=v)
            spec = builder(p)
            k = family_coefficients(spec, p).envelope_k
            g = make_grid(1, 4096, 48.0 / k)
            s = sample_solution(spec, p, g, t=0.0)
            lattice = float(np.sum(np.abs(s.psi) ** 2) * g.spacing)
            assert lattice == pytest.approx(closed_form_norm(spec, p), rel=1e-8)


class TestWidth:
    def test_sech_envelope_width(self):
        # variance of a sech^2 density with argument k is pi^2/(12 k^2);
        # quadrature oracle: 0.8224670334241135 at k = 1
        spec = spec_3d_a(P, alpha=2.0)
        assert closed_form_width(spec, P) == pytest.approx(
            math.sqrt(0.8224670334241135) / 2.0, rel=1e-12)

    def test_sech_squared_envelope_width(self):
        # variance of a sech^4 density with argument k is (pi^2 - 6)/(12 k^2);
        # quadrature oracle: 0.3224670334241131 at k = 1
        spec = spec_1d_b(P)
        k = family_coefficients(spec, P).envelope_k
        assert closed_form_width(spec, P) == pytest.approx(
            math.sqrt(0.3224670334241131) / k, rel=1e-12)

    def test_width_matches_lattice_quadrature(self):
        g = make_grid(1, 4096, 64.0)
        for spec in (spec_1d_a(P), spec_1d_b(P)):
            s = sample_solution(spec, P, g, t=0.0)
            d = np.abs(s.psi) ** 2
            c = np.sum(g.axis * d) / np.sum(d)
            w = math.sqrt(np.sum((g.axis - c) ** 2 * d) / np.sum(d))
            assert w == pytest.approx(closed_form_width(spec, P), rel=1e-8)


class TestCoefficients:
    def test_1d_a_profile_switch(self):
        assert family_coefficients(spec_1d_a(P, "sech"), P).phi_power == 1
        assert family_coefficients(spec_1d_a(P, "sech_squared"), P).phi_power == 2

    def test_family_velocities(self):
        assert family_velocity(spec_3d_a(P, alpha=2.0), P) == 1.0
        assert family_velocity(spec_3d_b(P, mu=0.5), P) == pytest.approx(0.5)
        assert family_velocity(spec_1d_a(P), P) == 1.0
        assert family_velocity(spec_1d_b(P), P) == pytest.approx(
            0.982264602843857)

    @settings(max_examples=25)
    @given(M=st.floats(0.5, 2.0), m=st.floats(0.1, 0.8), v=st.floats(0.2, 1.0),
           power=st.sampled_from(["a", "b"]))
    def test_phi_amplitude_nonpositive(self, M, m, v, power):
        p = PhysicalParams(M=M, m=m, v=v)
        if power == "a":
            spec = spec_1d_a(p)
        else:
            if 1.5 * m**3 * v**2 > M**3:
                return
            spec = spec_1d_b(p)
        assert family_coefficients(spec, p).phi_amplitude <= 0.0



def _one_verdict(build, given_spec: SolitonSpec, p: PhysicalParams) -> None:
    """build() returns exactly when validate_params passes given_spec, the
    member of the fields build was given; a returned member is usable."""
    passed = all(c.passed for c in validate_params(p, given_spec))
    try:
        spec = build()
    except ValueError as e:
        assert not passed
        assert str(e).startswith(
            f"parameters violate {given_spec.family.value} constraints: ")
        assert "(margin " in str(e)
        return
    assert passed
    family_coefficients(spec, p)
    assert localization_length(spec, p) > 0.0
    sample_solution(spec, p, make_grid(1, 64, matched_length(spec, p)), t=0.0)


class TestOneVerdict:
    @settings(max_examples=60, deadline=None)
    @given(M=st.floats(0.3, 3.0), m=st.floats(0.1, 3.0),
           v=st.floats(0.1, 2.0), mu=st.floats(-4.0, 4.0))
    @example(M=1.0, m=0.5, v=1.0, mu=1.0)
    @example(M=1.0, m=0.5, v=1.0, mu=-1.0)
    @example(M=1.0, m=1.0, v=EDGE_V * (1.0 + 1e-13), mu=0.5)
    @example(M=1.0, m=1.0, v=EDGE_V, mu=0.0)
    def test_3d_b_and_1d_b(self, M, m, v, mu):
        p = PhysicalParams(M=M, m=m, v=v)
        _one_verdict(lambda: spec_3d_b(p, mu=mu),
                     SolitonSpec(family=Family.THREED_B, mu=mu), p)
        _one_verdict(lambda: spec_1d_b(p),
                     SolitonSpec(family=Family.ONED_B), p)

    @settings(max_examples=60, deadline=None)
    @given(M=st.floats(0.3, 3.0), given_alpha=st.booleans(),
           value=st.floats(-5.0, 0.0) | st.floats(1e-3, 5.0),
           gamma=st.floats(0.0, 2.0), eps=st.floats(0.0, 2.0))
    @example(M=1.0, given_alpha=True, value=-2.0, gamma=0.0, eps=0.0)
    @example(M=1.0, given_alpha=True, value=0.0, gamma=0.0, eps=0.0)
    @example(M=1.0, given_alpha=False, value=-0.6, gamma=0.0, eps=0.0)
    @example(M=1.0, given_alpha=False, value=-0.5, gamma=0.0, eps=0.0)
    def test_3d_a(self, M, given_alpha, value, gamma, eps):
        p = PhysicalParams(M=M, m=0.5, v=1.0)
        field = "alpha" if given_alpha else "omega"
        _one_verdict(lambda: spec_3d_a(p, gamma=gamma, eps=eps,
                                       **{field: value}),
                     SolitonSpec(family=Family.THREED_A, gamma=gamma,
                                 eps=eps, **{field: value}), p)
