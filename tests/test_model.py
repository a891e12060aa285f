"""Parameter, spec, grid, and field-container contracts."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from solitonlab.model import (
    Family, PhysicalParams, SolitonSpec, Grid, FieldState,
    make_grid, require_valid, validate_params, weak_field_check,
)
from solitonlab.solutions import (family_coefficients, family_velocity,
                                  spec_1d_a, spec_1d_b, spec_3d_a)


class TestFamily:
    # the config's soliton.family values are the tags; the runner reads
    # them as Family(tag). Other spellings are refused by the config
    # (tests/test_config.py::TestParsing::test_alias_spelling_rejected)
    def test_parse_short_tags(self):
        assert Family("3d_a") is Family.THREED_A
        assert Family("1d_b") is Family.ONED_B

    def test_parse_unknown(self):
        with pytest.raises(ValueError, match="not a valid Family"):
            Family("2d_c")


class TestPhysicalParams:
    def test_valid(self):
        p = PhysicalParams(M=1.0, m=0.5, v=1.0)
        assert p.mv == 0.5

    @pytest.mark.parametrize("bad", [
        dict(M=0.0, m=1.0, v=1.0),
        dict(M=1.0, m=-0.5, v=1.0),
        dict(M=1.0, m=1.0, v=float("nan")),
        dict(M=float("inf"), m=1.0, v=1.0),
    ])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            PhysicalParams(**bad)


class TestSolitonSpec:
    def test_phi_profile_validated(self):
        with pytest.raises(ValueError, match="phi_profile"):
            SolitonSpec(family=Family.ONED_A, phi_profile="sech_cubed")

    def test_1d_families_reject_transverse(self):
        for family in (Family.ONED_A, Family.ONED_B):
            with pytest.raises(ValueError, match="takes no gamma"):
                SolitonSpec(family=family, gamma=0.3)
            with pytest.raises(ValueError, match="takes no eps"):
                SolitonSpec(family=family, eps=-0.2)

    @pytest.mark.parametrize("family, fields", [
        ("3d_a", {"alpha": 2.0}),
        ("3d_a", {"omega": -0.2, "gamma": 0.3, "eps": 0.1}),
        ("3d_b", {"mu": 0.5, "gamma": 0.3, "eps": 0.1}),
        ("1d_a", {}),
        ("1d_a", {"phi_profile": "sech_squared"}),
        ("1d_b", {}),
    ])
    def test_shape_rule_takes_the_given_parameters(self, family, fields):
        # the shape alone, with no constraint of the mass scale
        spec = SolitonSpec(family=Family(family), **fields)
        assert all(getattr(spec, k) == v for k, v in fields.items())

    @pytest.mark.parametrize("family, fields, named", [
        ("3d_a", {}, "takes exactly one of alpha or omega"),
        ("3d_a", {"gamma": 0.3}, "takes exactly one of alpha or omega"),
        ("3d_a", {"alpha": 2.0, "omega": 1.5},
         "takes exactly one of alpha or omega"),
        ("3d_a", {"omega": 1.5, "mu": 0.5}, "takes no mu"),
        ("3d_a", {"alpha": 2.0, "phi_profile": "sech_squared"},
         "takes no phi_profile"),
        ("3d_b", {}, "needs mu"),
        ("3d_b", {"gamma": 0.3}, "needs mu"),
        ("3d_b", {"mu": 0.5, "alpha": 0.5}, "takes no alpha"),
        ("3d_b", {"mu": 0.5, "omega": 1.0}, "takes no omega"),
        ("1d_a", {"alpha": 2.0}, "takes no alpha"),
        ("1d_a", {"mu": 0.5}, "takes no mu"),
        ("1d_b", {"alpha": 3.0}, "takes no alpha"),
        ("1d_b", {"omega": 1.0}, "takes no omega"),
        ("1d_b", {"mu": 0.2}, "takes no mu"),
        ("1d_b", {"phi_profile": "sech_squared"},
         "takes no phi_profile"),
    ])
    def test_shape_rule_refuses(self, family, fields, named):
        with pytest.raises(ValueError, match=f"family {family} {named}"):
            SolitonSpec(family=Family(family), **fields)


class TestGrid:
    def test_basic_1d(self):
        g = make_grid(1, 16, 16.0)
        assert g.spacing == 1.0
        assert g.shape == (16,)
        assert g.axis[0] == -8.0
        np.testing.assert_allclose(np.diff(g.axis), 1.0)

    def test_wavenumbers_standard_periodic_set(self):
        g = make_grid(1, 16, 16.0)
        k = g.wavenumbers[0]
        assert k[0] == 0.0
        np.testing.assert_allclose(k[1], 2.0 * np.pi / 16.0)
        # symmetric up to the Nyquist mode
        np.testing.assert_allclose(k[1:8], -k[:8:-1])
        np.testing.assert_allclose(k[8], -np.pi)

    def test_basic_3d(self):
        g = make_grid(3, 32, 20.0)
        assert g.shape == (32, 32, 32)
        assert g.spacing == 0.625
        assert g.k_squared.shape == (32, 32, 32)
        assert g.volume_element == pytest.approx(0.625**3)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            make_grid(1, 24, 16.0)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError, match="power of two"):
            make_grid(1, 8, 16.0)

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError, match="dim"):
            make_grid(2, 16, 16.0)

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError, match="length"):
            make_grid(1, 16, -4.0)

    def test_transverse_mode_only_1d(self):
        g = make_grid(1, 16, 16.0, transverse_mode=(0.3, 0.4))
        assert g.transverse_k2 == pytest.approx(0.25)
        with pytest.raises(ValueError, match="transverse_mode"):
            make_grid(3, 16, 16.0, transverse_mode=(0.3, 0.4))

    @pytest.mark.parametrize("dim,n", [(1, 64), (3, 16)])
    def test_rfft_k_squared_is_a_read_only_view(self, dim, n):
        # the half-spectrum |k|^2 equals the (2 pi rfftfreq)^2 table bitwise
        g = make_grid(dim, n, 7.3)
        k = 2.0 * np.pi * np.fft.fftfreq(n, d=g.spacing)
        khalf = 2.0 * np.pi * np.fft.rfftfreq(n, d=g.spacing)
        ref = khalf**2 if dim == 1 else (k[:, None, None] ** 2
                                         + k[None, :, None] ** 2
                                         + khalf[None, None, :] ** 2)
        got = g.rfft_k_squared
        assert got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()
        assert np.shares_memory(got, g.k_squared)
        for table in (got, g.k_squared):
            with pytest.raises(ValueError, match="read-only"):
                table[(0,) * dim] = 1.0

    def test_spacing_times_n_is_length(self):
        g = make_grid(1, 64, 17.3)
        assert g.spacing * g.n == pytest.approx(17.3, rel=1e-15)


class TestFieldState:
    def _state(self, **kw):
        g = make_grid(1, 16, 16.0)
        p = PhysicalParams(M=1.0, m=1.0, v=1.0)
        base = dict(t=0.0, psi=np.zeros(16, complex), phi=np.zeros(16),
                    params=p, grid=g)
        base.update(kw)
        return FieldState(**base)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="psi shape"):
            self._state(psi=np.zeros(8, complex))
        with pytest.raises(ValueError, match="phi shape"):
            self._state(phi=np.zeros(8))

    def test_phi_must_be_real(self):
        with pytest.raises(ValueError, match="real"):
            self._state(phi=np.zeros(16, complex))

    def test_phi_prev_checked(self):
        with pytest.raises(ValueError, match="phi_prev"):
            self._state(phi_prev=np.zeros(8))

    def test_norm(self):
        st = self._state(psi=np.ones(16, complex))
        assert st.norm() == pytest.approx(16.0)


def _checks(p: PhysicalParams, spec: SolitonSpec) -> dict:
    return {c.name: c for c in validate_params(p, spec)}


INEQUALITIES = ("alpha_positive", "radicand_positive", "mass_nondegenerate",
                "momentum_bound", "velocity_real")


class TestValidateParams:
    def test_oned_b_velocity_bound_fails(self):
        p = PhysicalParams(M=1.0, m=1.0, v=1.0)
        c, = validate_params(p, SolitonSpec(family=Family.ONED_B))
        assert c.name == "velocity_real"
        assert not c.passed
        assert c.margin == pytest.approx(-0.5)

    def test_oned_b_saturated_bound_passes(self):
        p = PhysicalParams(M=1.0, m=1.0, v=math.sqrt(2.0 / 3.0))
        spec = spec_1d_b(p)
        assert family_velocity(spec, p) == 0.0
        assert list(_checks(p, spec)) == ["velocity_real"]
        assert _checks(p, spec)["velocity_real"].passed

    def test_threed_b_momentum_bound_fails(self):
        p = PhysicalParams(M=1.0, m=0.5, v=1.0)
        spec = SolitonSpec(family=Family.THREED_B, mu=1.5)
        c = _checks(p, spec)["momentum_bound"]
        assert not c.passed
        assert c.margin == pytest.approx(-0.5)

    @pytest.mark.parametrize("mu,passed", [(1.0, False), (-1.0, False),
                                           (-1.5, False), (0.999, True),
                                           (-0.5, True)])
    def test_threed_b_momentum_bound_is_strict_in_abs_mu(self, mu, passed):
        # |mu| = M is the zero-width member that spec_3d_b refuses
        p = PhysicalParams(M=1.0, m=0.5, v=1.0)
        spec = SolitonSpec(family=Family.THREED_B, mu=mu)
        assert _checks(p, spec)["momentum_bound"].passed is passed

    def test_threed_a_dispersion_closure(self):
        # the spec holds the given one of alpha and omega, so there is no
        # closure left to check: the table holds the given one's inequality
        # and family_coefficients derives the other
        p = PhysicalParams(M=1.0, m=0.5, v=1.0)
        by_omega, by_alpha = spec_3d_a(p, omega=1.5), spec_3d_a(p, alpha=2.0)
        assert list(_checks(p, by_omega)) == ["radicand_positive"]
        assert list(_checks(p, by_alpha)) == ["alpha_positive"]
        assert family_coefficients(by_omega, p).envelope_k == 2.0
        assert family_coefficients(by_alpha, p).Omega == 1.5

    def test_nonrelativistic_advisory_is_not_fatal(self):
        # scalar depth 16 >> M: the advisory fails, the member is valid
        p = PhysicalParams(M=1.0, m=0.5, v=1.0)
        spec = spec_1d_a(p)
        assert "nonrelativistic_validity" not in _checks(p, spec)
        assert require_valid(p, spec) is spec
        depth = abs(family_coefficients(spec, p).phi_amplitude)
        warn = weak_field_check(depth, p.M)
        assert warn.name == "nonrelativistic_validity"
        assert not warn.passed
        assert warn.margin == pytest.approx(-15.0)

    def test_nonrelativistic_advisory_passes_for_shallow_field(self):
        p = PhysicalParams(M=1.0, m=0.5, v=1.0)
        spec = spec_3d_a(p, alpha=0.5)  # depth 0.25 < M
        depth = abs(family_coefficients(spec, p).phi_amplitude)
        assert weak_field_check(depth, p.M).passed


@settings(max_examples=60)
@given(M=st.floats(0.3, 3.0), m=st.floats(0.1, 3.0), v=st.floats(0.1, 2.0),
       shape=st.sampled_from(("3d_a-alpha", "3d_a-omega", "3d_b", "1d_a",
                              "1d_b")),
       value=st.floats(-4.0, 4.0), gamma=st.floats(-2.0, 2.0))
def test_table_holds_the_inequalities_only(M, m, v, shape, value, gamma):
    # valid or not, every member's table names only family inequalities
    family, _, given_field = shape.partition("-")
    fields = {}
    if family.startswith("3d"):
        fields = {given_field or "mu": value, "gamma": gamma}
    spec = SolitonSpec(family=Family(family), **fields)
    names = [c.name for c in validate_params(PhysicalParams(M, m, v), spec)]
    assert set(names) <= set(INEQUALITIES)
    assert len(names) == len(set(names))


# the derived fields keep the family relations: the dispersion relation of
# 3d_a from either given field, and the 1d_b velocity
@given(M=st.floats(0.3, 3.0), value=st.floats(0.01, 5.0),
       given_alpha=st.booleans(), gamma=st.floats(0.0, 2.0),
       eps=st.floats(0.0, 2.0))
def test_3d_a_dispersion_closure_property(M, value, given_alpha, gamma, eps):
    p = PhysicalParams(M=M, m=0.5, v=1.0)
    field = "alpha" if given_alpha else "omega"
    co = family_coefficients(
        spec_3d_a(p, gamma=gamma, eps=eps, **{field: value}), p)
    assert (co.envelope_k if given_alpha else co.Omega) == value
    expect = 2.0 * M * co.Omega + M * M + gamma * gamma + eps * eps
    assert co.envelope_k**2 == pytest.approx(expect, rel=1e-12)


@given(M=st.floats(0.5, 2.0), m=st.floats(0.1, 0.8), v=st.floats(0.1, 1.0))
def test_1d_b_velocity_closure_property(M, m, v):
    if 1.5 * m**3 * v**2 > M**3:
        return
    p = PhysicalParams(M=M, m=m, v=v)
    V = family_velocity(spec_1d_b(p), p)
    assert 0.0 <= V < 1.0
    assert V**2 + (2.25 * (m**3 * v**2 / M**3) ** 2) == pytest.approx(1.0, abs=1e-12)
