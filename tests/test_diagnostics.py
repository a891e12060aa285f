"""Observables: localization measures, velocity fits, spreading references."""

from __future__ import annotations

import math

import numpy as np
import pytest

from solitonlab.diagnostics import (
    ObservableRecord, SeriesObserver, fit_velocity, free_spreading_width,
    measure, spreading_ratio,
)
from solitonlab.evolution import state_from_solution
from solitonlab.model import FieldState, PhysicalParams, make_grid
from solitonlab.solutions import (closed_form_width, family_velocity,
                                  spec_1d_b, spec_3d_a)

P = PhysicalParams(M=1.0, m=0.5, v=1.0)
V_S = family_velocity(spec_1d_b(P), P)  # the 1d_b envelope velocity


def plane_wave_state(g, mode=3):
    k = 2.0 * np.pi * mode / g.length
    psi = np.exp(1j * k * g.axis) / math.sqrt(g.length)
    return FieldState(t=0.0, psi=psi, phi=np.zeros(g.n), params=P, grid=g)


class TestMeasure:
    def test_soliton_observables(self):
        g = make_grid(1, 4096, 60.0)
        rec = measure(state_from_solution(spec_1d_b(P), P, g))
        assert rec.norm == pytest.approx(1.0, abs=1e-12)
        assert rec.centroid == pytest.approx(0.0, abs=1e-12)
        assert rec.width == pytest.approx(closed_form_width(spec_1d_b(P), P),
                                          rel=1e-10)
        assert rec.peak_pos == pytest.approx(0.0, abs=1e-9)
        assert rec.phi_min == pytest.approx(-16.0 / 3.0, abs=1e-10)

    def test_validity_flag_tracks_field_scale(self):
        g = make_grid(1, 4096, 60.0)
        # phi_min = -16/3 dwarfs M = 1: flagged
        assert not measure(state_from_solution(spec_1d_b(P), P, g)).valid
        # a weak-field member: alpha = 0.3 gives |phi| = alpha^2/M^2 = 0.09
        spec = spec_3d_a(P, alpha=0.3)
        g2 = make_grid(1, 4096, 140.0)
        assert measure(state_from_solution(spec, P, g2)).valid

    def test_centroid_is_circular(self):
        # envelope parked on the seam: naive first moment would report ~0
        g = make_grid(1, 4096, 60.0)
        st = state_from_solution(spec_1d_b(P), P, g, x0=0.5 * g.length)
        rec = measure(st)
        assert abs(abs(rec.centroid) - 0.5 * g.length) < 1e-6
        assert rec.width == pytest.approx(closed_form_width(spec_1d_b(P), P),
                                          rel=1e-6)

    def test_cached_phase_factor_keeps_centroid_bitwise(self):
        g = make_grid(1, 1024, 60.0)
        st = state_from_solution(spec_1d_b(P), P, g, x0=0.31 * g.length)
        d = st.psi.real**2 + st.psi.imag**2
        angle = np.angle(np.sum(d * np.exp(2j * np.pi * g.axis / g.length)))
        assert measure(st).centroid == angle * g.length / (2.0 * np.pi)
        assert g.circular_phase is g.circular_phase
        assert not g.circular_phase.flags.writeable

    def test_peak_refinement_resolves_subgrid_offsets(self):
        g = make_grid(1, 1024, 60.0)
        x0 = 0.37 * g.spacing
        rec = measure(state_from_solution(spec_1d_b(P), P, g, x0=x0))
        assert rec.peak_pos == pytest.approx(x0, abs=0.05 * g.spacing)

    def test_unwrap_against_previous_record(self):
        g = make_grid(1, 2048, 60.0)
        near_edge = state_from_solution(spec_1d_b(P), P, g, x0=29.0)
        past_edge = state_from_solution(spec_1d_b(P), P, g, x0=31.0)
        r1 = measure(near_edge)
        r2 = measure(past_edge, prev=r1)
        assert r2.centroid == pytest.approx(31.0, abs=1e-6)
        r2_raw = measure(past_edge)
        assert r2_raw.centroid == pytest.approx(-29.0, abs=1e-6)

    def test_uniform_plane_wave_width(self):
        g = make_grid(1, 1024, 40.0)
        rec = measure(plane_wave_state(g))
        assert rec.norm == pytest.approx(1.0, rel=1e-12)
        # uniform density on a ring: width = L/sqrt(12) about any centroid
        assert rec.width == pytest.approx(g.length / math.sqrt(12.0),
                                          rel=1e-6)

    def test_zero_field_yields_nan_positions(self):
        g = make_grid(1, 256, 20.0)
        st = FieldState(t=0.0, psi=np.zeros(g.n, dtype=complex),
                        phi=np.zeros(g.n), params=P, grid=g)
        rec = measure(st)
        assert rec.norm == 0.0
        assert math.isnan(rec.centroid) and math.isnan(rec.width)

    def test_3d_reduces_transverse_plane(self):
        g = make_grid(3, 64, 24.0)
        st = state_from_solution(spec_3d_a(P, alpha=2.0), P, g)
        rec = measure(st)
        assert rec.centroid == pytest.approx(0.0, abs=1e-10)
        assert rec.width == pytest.approx(
            closed_form_width(spec_3d_a(P, alpha=2.0), P), rel=1e-3)

    def test_field_names_order(self):
        assert ObservableRecord.field_names() == (
            "t", "norm", "centroid", "width", "peak_pos", "phi_min", "valid")


def np_mod_measure(state, prev=None):
    """measure as it stood with np.mod, np.clip and max|phi|, and with the
    density, weighted phase and width sums out of place: the reference the
    lean observer must equal bit for bit."""
    g, L = state.grid, state.grid.length
    d = state.psi.real**2 + state.psi.imag**2
    if g.dim == 3:
        d = d.sum(axis=(1, 2))
    total = float(d.sum())
    angle = np.angle(np.sum(d * g.circular_phase))
    centroid = angle * L / (2.0 * np.pi)
    dist = np.mod(g.axis - centroid + 0.5 * L, L) - 0.5 * L
    width = math.sqrt(float(np.sum(dist * dist * d)) / total)
    j = int(np.argmax(d))
    dm, d0, dp = d[(j - 1) % g.n], d[j], d[(j + 1) % g.n]
    denom = dm - 2.0 * d0 + dp
    offset = 0.5 * (dm - dp) / denom if abs(denom) > 0.0 else 0.0
    peak = float(g.axis[j] + float(np.clip(offset, -0.5, 0.5)) * g.spacing)
    peak += L * round((centroid - peak) / L)
    if prev is not None and math.isfinite(prev.centroid):
        centroid += L * round((prev.centroid - centroid) / L)
        peak += L * round((prev.peak_pos - peak) / L)
    return ObservableRecord(
        t=state.t, norm=total * g.volume_element, centroid=centroid,
        width=width, peak_pos=peak, phi_min=float(state.phi.min()),
        valid=bool(np.max(np.abs(state.phi)) < state.params.M))


def bits(rec):
    return np.array([getattr(rec, f) for f in rec.field_names()],
                    dtype=float).tobytes()


def bump_state(g, nodes, weights, phi_scale=0.5):
    """Density only on the given nodes of the axis, phi a smooth dip."""
    psi = np.zeros(g.n, dtype=complex)
    psi[list(nodes)] = np.sqrt(weights)
    phi = -phi_scale * np.exp(-(g.axis / 4.0) ** 2)
    return FieldState(t=0.25, psi=psi, phi=phi, params=P, grid=g)


def random_state(g, seed, center=0.0):
    """A random field whose density gathers about center on the first
    axis, over a floor of noise."""
    rng = np.random.default_rng(seed)
    x = g.coords[0]
    L = g.length
    gap = (x - center + 0.5 * L) % L - 0.5 * L
    envelope = np.exp(-(gap / 3.0) ** 2) + 0.05
    psi = envelope * (rng.standard_normal(g.shape)
                      + 1j * rng.standard_normal(g.shape))
    phi = 0.3 * rng.standard_normal(g.shape)
    return FieldState(t=0.5, psi=psi, phi=phi, params=P, grid=g)


class TestMeasureMatchesNpMod:
    """The observer shifts the ends of the sorted axis - c + L/2 in place
    of np.mod, and squares, weights and sums in place; its records equal
    the np.mod form's bit for bit."""

    # L = n: the nodes are whole numbers, so a centroid on a node or on the
    # seam puts axis - c + L/2 exactly on 0 or on L
    G = make_grid(1, 64, 64.0)

    def assert_same(self, state):
        got, ref = measure(state), np_mod_measure(state)
        assert bits(got) == bits(ref), (got, ref)
        return got

    def test_centroid_on_the_seam(self):
        g = self.G
        # symmetric about the seam node -32: the centroid is -L/2 or L/2
        rec = self.assert_same(bump_state(g, (0, 1, 63), (2.0, 1.0, 1.0)))
        assert abs(rec.centroid) == 0.5 * g.length
        assert rec.phi_min == -0.5 and not math.isnan(rec.width)

    @pytest.mark.parametrize("nodes,weights", [
        ((31, 32, 33), (1.0, 3.0, 1.0)),    # about x = 0: c = 0
        ((0, 1, 63), (3.0, 1.0, 1.0)),      # about the seam: c = +-L/2
    ])
    def test_shifted_axis_lands_exactly_on_an_end(self, nodes, weights):
        g = self.G
        rec = self.assert_same(bump_state(g, nodes, weights))
        u = g.axis - rec.centroid + 0.5 * g.length
        assert 0.0 in u or g.length in u

    @pytest.mark.parametrize("x0", [0.5, -0.5, 0.49999, 0.123, -0.377])
    def test_members_across_the_box(self, x0):
        g = make_grid(1, 1024, 60.0)
        self.assert_same(state_from_solution(spec_1d_b(P), P, g,
                                             x0=x0 * g.length))

    def test_3d_state(self):
        g = make_grid(3, 16, 24.0)
        st = state_from_solution(spec_3d_a(P, alpha=2.0), P, g)
        self.assert_same(st)
        shifted = FieldState(t=0.0, psi=np.roll(st.psi, 5, axis=0),
                             phi=st.phi, params=P, grid=g)
        self.assert_same(shifted)

    def test_validity_from_either_end_of_phi(self):
        g = self.G
        st = bump_state(g, (10, 11, 12), (1.0, 2.0, 1.0))
        for phi in (st.phi * 3.0, -st.phi * 3.0, st.phi, -st.phi,
                    np.full(g.n, P.M), np.full(g.n, -P.M)):
            self.assert_same(FieldState(t=0.0, psi=st.psi, phi=phi,
                                        params=P, grid=g))

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("dim,n,L", [(1, 1024, 60.0), (1, 2048, 47.3),
                                         (3, 16, 24.0)])
    def test_random_states(self, dim, n, L, seed):
        g = make_grid(dim, n, L)
        st = random_state(g, seed, center=(seed - 1.5) * 0.2 * L)
        assert bits(measure(st)) == bits(np_mod_measure(st))

    def test_centroid_crossing_the_seam(self):
        # a random field carried across the seam: the records unwrap
        # against the previous one past L/2, identically
        g = make_grid(1, 1024, 60.0)
        got = ref = None
        for k, center in enumerate(np.linspace(20.0, 40.0, 9)):
            st = random_state(g, 10 + k, center=center)
            got, ref = measure(st, got), np_mod_measure(st, ref)
            assert bits(got) == bits(ref)
        assert got.centroid > 0.5 * g.length

    @pytest.mark.parametrize("x0", [3.3, -17.05, 0.25])
    def test_off_node_center(self, x0):
        g = make_grid(1, 2048, 60.0)
        st = state_from_solution(spec_1d_b(P), P, g, x0=x0)
        assert x0 / g.spacing % 1.0 != 0.0
        rec = measure(st)
        assert bits(rec) == bits(np_mod_measure(st))
        assert rec.centroid == pytest.approx(x0, abs=1e-6)


class TestVelocityFit:
    def sampled_series(self, g, times, x0=0.0):
        obs = SeriesObserver()
        for t in times:
            obs(state_from_solution(spec_1d_b(P), P, g, t0=t, x0=x0))
        return obs.records

    def test_recovers_soliton_velocity(self):
        g = make_grid(1, 4096, 60.0)
        recs = self.sampled_series(g, np.linspace(0.0, 20.0, 11))
        fit = fit_velocity(recs, g, use="centroid")
        assert not fit.degenerate
        assert fit.velocity == pytest.approx(V_S, rel=1e-9)
        assert fit.stderr < 1e-9

    def test_tracks_through_the_seam(self):
        g = make_grid(1, 4096, 60.0)
        recs = self.sampled_series(g, np.linspace(0.0, 30.0, 16), x0=20.0)
        fit = fit_velocity(recs, g, use="centroid")
        assert fit.velocity == pytest.approx(V_S, rel=1e-8)
        assert fit.displacement == pytest.approx(30.0 * V_S, rel=1e-6)

    def test_peak_based_fit(self):
        g = make_grid(1, 4096, 60.0)
        recs = self.sampled_series(g, np.linspace(0.0, 20.0, 11))
        fit = fit_velocity(recs, g, use="peak_pos")
        assert fit.velocity == pytest.approx(V_S, rel=1e-6)

    def test_too_few_records_degenerate(self):
        g = make_grid(1, 4096, 60.0)
        recs = self.sampled_series(g, [0.0, 1.0, 2.0])
        fit = fit_velocity(recs, g)
        assert fit.degenerate
        assert "need 5" in fit.reason
        assert fit.velocity == pytest.approx(V_S, rel=1e-6)

    def test_static_series_degenerate(self):
        g = make_grid(1, 4096, 60.0)
        obs = SeriesObserver()
        for t in np.linspace(0.0, 5.0, 8):
            st = state_from_solution(spec_1d_b(P), P, g, t0=0.0)
            obs(FieldState(t=t, psi=st.psi, phi=st.phi, params=P, grid=g))
        fit = fit_velocity(obs.records, g)
        assert fit.degenerate
        assert "displacement" in fit.reason
        assert fit.velocity == pytest.approx(0.0, abs=1e-10)

    @staticmethod
    def records(t, x):
        return [ObservableRecord(t=a, norm=1.0, centroid=b, width=1.0,
                                 peak_pos=b, phi_min=0.0, valid=True)
                for a, b in zip(t, x)]

    @pytest.mark.parametrize("count", [3, 5, 215])
    def test_closed_form_matches_polyfit(self, count):
        # np.polyfit's slope and the root of its cov[0, 0], to 1e-12: on
        # a random series, and on a track crossing the seam that is
        # unwrapped record by record as the observer does, its positions
        # scattered by a grid spacing. Both keep their residuals far above
        # roundoff, where the two methods' sums can agree that closely
        g = make_grid(1, 256, 60.0)
        L = g.length
        rng = np.random.default_rng(count)
        t_random = np.sort(rng.uniform(0.0, 20.0, count))
        x_random = rng.uniform(-3.0, 3.0) * t_random \
            + rng.uniform(0.1, 10.0) * rng.standard_normal(count)
        times = np.linspace(0.0, 30.0, count)
        track = 20.0 + 0.98 * times + g.spacing * rng.standard_normal(count)
        wrapped = ((track + 0.5 * L) % L - 0.5 * L).tolist()
        unwrapped = [wrapped[0]]
        for x in wrapped[1:]:
            unwrapped.append(x + L * round((unwrapped[-1] - x) / L))
        assert max(wrapped) < 30.0 < max(unwrapped)
        for t, x in ((t_random, x_random), (times, np.array(unwrapped))):
            fit = fit_velocity(self.records(t.tolist(), x.tolist()), g)
            (slope, _), cov = np.polyfit(t, x, 1, cov=True)
            assert fit.velocity == pytest.approx(slope, rel=1e-12)
            assert fit.stderr == pytest.approx(math.sqrt(cov[0, 0]),
                                               rel=1e-12)

    def test_closed_form_stderr_on_a_near_exact_track(self):
        # the observer's own track of an exact soliton through the seam
        # leaves residuals of 1e-6 on positions up to 50. There polyfit's
        # stderr is 2.5e-10 off the exact rational least-squares value
        # (1.5e-8 and 1.9e-8 at 3 and 5 records), the closed form's 8.7e-11
        from fractions import Fraction
        g = make_grid(1, 4096, 60.0)
        recs = self.sampled_series(g, np.linspace(0.0, 30.0, 215), x0=20.0)
        t = [Fraction(r.t) for r in recs]
        x = [Fraction(r.peak_pos) for r in recs]
        t_mean, x_mean = sum(t) / len(t), sum(x) / len(x)
        s_tt = sum((a - t_mean) ** 2 for a in t)
        slope = sum((a - t_mean) * (b - x_mean) for a, b in zip(t, x)) / s_tt
        r2 = sum((b - x_mean - slope * (a - t_mean)) ** 2
                 for a, b in zip(t, x))
        fit = fit_velocity(recs, g)
        assert fit.velocity == pytest.approx(float(slope), rel=1e-15)
        assert fit.stderr == pytest.approx(
            math.sqrt(float(r2 / ((len(t) - 2) * s_tt))), rel=1e-10)

    def test_bad_use_field(self):
        g = make_grid(1, 256, 60.0)
        with pytest.raises(ValueError, match="centroid"):
            fit_velocity([], g, use="norm")

    def test_empty_series(self):
        g = make_grid(1, 256, 60.0)
        fit = fit_velocity([], g)
        assert fit.degenerate and math.isnan(fit.velocity)


class TestSpreadingReferences:
    def test_width_law_values(self):
        assert free_spreading_width(0.5, 1.0, 0.0) == 0.5
        # doubling time: t = 2 M sigma0^2 sqrt(3)
        t2 = 2.0 * 1.0 * 0.25 * math.sqrt(3.0)
        assert free_spreading_width(0.5, 1.0, t2) == pytest.approx(1.0)
        assert free_spreading_width(0.5, 2.0, 1.0) < \
            free_spreading_width(0.5, 1.0, 1.0)

    def test_width_law_validation(self):
        with pytest.raises(ValueError):
            free_spreading_width(-0.5, 1.0, 0.0)
        with pytest.raises(ValueError):
            free_spreading_width(0.5, 0.0, 1.0)

    def rec(self, t, width):
        return ObservableRecord(t=t, norm=1.0, centroid=0.0, width=width,
                                peak_pos=0.0, phi_min=0.0, valid=True)

    def test_spreading_ratio(self):
        soliton = [self.rec(0.0, 0.4), self.rec(20.0, 0.41)]
        free = [self.rec(0.0, 0.4), self.rec(20.0, 4.0)]
        assert spreading_ratio(soliton, free) == pytest.approx(
            (0.41 / 0.4) / 10.0)

    def test_span_mismatch_rejected(self):
        a = [self.rec(0.0, 1.0), self.rec(10.0, 1.0)]
        b = [self.rec(0.0, 1.0), self.rec(12.0, 1.0)]
        with pytest.raises(ValueError, match="spans disagree"):
            spreading_ratio(a, b)
        with pytest.raises(ValueError, match="two records"):
            spreading_ratio(a, [self.rec(0.0, 1.0)])
