"""Split-step integrator: conservation, accuracy, reversal, blow-up aborts,
modes, the default step and the Gautschi scalar update."""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import replace

import numpy as np
import pytest

from solitonlab import evolution
from solitonlab.model import FieldState, PhysicalParams, make_grid
from solitonlab.evolution import (
    BlowUpError, default_dt, evolve,
    gaussian_packet, landing_steps, perturb, reverse_state, stability_limit,
    state_from_solution, state_with_static_field,
)
from solitonlab.runner import MAX_STEPS
from solitonlab.solutions import (family_coefficients, matched_length,
                                  sample_solution, spec_1d_b, spec_3d_a,
                                  spec_3d_b)

P = PhysicalParams(M=1.0, m=0.5, v=1.0)
# the standing point (3/2) m^3 v^2 = M^3 of the 1d_b member
PC = PhysicalParams(M=1.0, m=1.0, v=math.sqrt(2.0 / 3.0))


def soliton_state(n=1024, L=60.0, dt=None, t0=0.0):
    g = make_grid(1, n, L)
    return state_from_solution(spec_1d_b(P), P, g, t0=t0, dt=dt), g


def stationary_state(g):
    """The standing 1d_b member under its own slaved field."""
    s = sample_solution(spec_1d_b(PC), PC, g, t=0.0)
    return state_with_static_field(s.psi, PC, g)


def dividing_dt(T, g, params, safety=0.9):
    steps = math.ceil(T / (safety * stability_limit(g, params)))
    return T / steps


class TestStepControl:
    def test_stability_limit_formula(self):
        g = make_grid(1, 1024, 60.0)
        dx = g.spacing
        assert stability_limit(g, P) == min(dx / 2, 0.5 / P.m)

    def test_steps_land_on_T_exactly(self):
        st, g = soliton_state()
        traj = evolve(st, T=0.1, dt=0.9 * stability_limit(g, P))
        assert traj.initial is st
        assert traj.final.t == pytest.approx(0.1, abs=1e-15)
        assert traj.dt * traj.step_count == pytest.approx(0.1, abs=1e-15)

    @pytest.mark.parametrize("T", [0.001, 0.5, 7.3, 10.0, 20.0, 50.0,
                                   123.456])
    def test_a_step_of_T_over_N_lands_on_itself(self, T):
        # the absolute tolerance ceil(T/dt - 1e-12) re-lands 446,367 of the
        # N up to 10^7 at T = 20, the first at N = 18393, where the
        # roundoff of T/(T/N) passes 1e-12; the relative one re-lands none
        rng = random.Random(T)
        ns = {1, 2, 3, 18393, MAX_STEPS}
        ns |= {rng.randint(1, MAX_STEPS) for _ in range(5000)}
        assert [n for n in sorted(ns) if landing_steps(T, T / n) != n] == []
        assert math.ceil(20.0 / (20.0 / 18393) - 1e-12) == 18394

    def test_landing_steps_never_exceed_the_step(self):
        assert landing_steps(1.0, 0.3) == 4
        assert landing_steps(1.0, 1.0 / 3.0 * (1.0 - 1e-9)) == 4
        assert landing_steps(1.0, 2.0) == 1
        assert landing_steps(1e-300, 1.0) == 1

    def test_zero_T_returns_initial_only(self):
        st, _ = soliton_state()
        seen = []
        traj = evolve(st, T=0.0, observer=seen.append)
        assert traj.step_count == 0
        assert traj.initial is st and traj.final is st
        assert seen == [st]

    def test_negative_T_rejected(self):
        st, _ = soliton_state()
        with pytest.raises(ValueError, match="nonnegative"):
            evolve(st, T=-1.0)

    def test_bad_mode_and_prefactor(self):
        st, _ = soliton_state()
        with pytest.raises(ValueError, match="unknown evolution mode"):
            evolve(st, T=0.0, mode="fancy")
        # modes are plain strings, spelled exactly
        with pytest.raises(ValueError, match="unknown evolution mode"):
            evolve(st, T=0.0, mode="Coupled")

    @pytest.mark.parametrize("kwargs", [
        {"observer_stride": 0},
        {"observer_stride": 2.5},
    ])
    def test_bad_stride_rejected_before_any_step(self, kwargs):
        g = make_grid(1, 256, 30.0)
        st = state_from_solution(spec_1d_b(P), P, g)
        seen = []
        with pytest.raises(ValueError, match="stride must be an integer"):
            evolve(st, T=1.0, dt=0.05, observer=seen.append, **kwargs)
        assert seen == []

    def test_mismatched_history_step_warns(self):
        g = make_grid(1, 1024, 60.0)
        dt = 0.9 * stability_limit(g, P)  # does not divide T = 1
        st = state_from_solution(spec_1d_b(P), P, g, dt=dt)
        with pytest.warns(UserWarning, match="divides"):
            evolve(st, T=1.0, dt=dt)

    def test_history_warning_only_where_the_history_is_read(self):
        # the slaved field never reads phi_prev, so a step that does not
        # divide T is no reason to warn in choquard mode
        st = stationary_state(make_grid(1, 512, 64.0))
        st = replace(st, phi_prev=st.phi.copy())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            evolve(st, T=1.0, dt=0.07, mode="choquard")
        with pytest.warns(UserWarning, match="phi_prev"):
            evolve(st, T=1.0, dt=0.07, mode="coupled")

    @pytest.mark.parametrize("mode", ["coupled", "free"])
    @pytest.mark.parametrize("start", ["packet", "static"])
    def test_starts_at_rest_take_any_step_without_a_warning(self, mode,
                                                            start):
        # a packet and a static field start at rest (phi_prev None), which
        # the Gautschi update starts exactly, so a step that does not
        # divide T carries no history built for another step
        g = make_grid(1, 512, 64.0)
        st = gaussian_packet(g, P, sigma0=1.0) if start == "packet" \
            else stationary_state(g)
        assert st.phi_prev is None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = evolve(st, T=1.0, dt=0.3, mode=mode)
        assert traj.step_count == 4
        if start == "packet" and mode == "free":
            # a zero field at rest stays zero
            assert not traj.final.phi.any()


class TestConservationAndAccuracy:
    def test_norm_conserved_to_roundoff(self):
        st, g = soliton_state()
        traj = evolve(st, T=1.0, dt=dividing_dt(1.0, g, P))
        assert abs(traj.final.norm() - st.norm()) < 1e-12

    def test_tracks_closed_form(self):
        g = make_grid(1, 1024, 60.0)
        dt = 2.0 / 600  # accuracy-motivated: well below the stability edge
        st = state_from_solution(spec_1d_b(P), P, g, dt=dt)
        traj = evolve(st, T=2.0, dt=dt)
        ana = sample_solution(spec_1d_b(P), P, g, t=2.0)
        assert np.max(np.abs(traj.final.psi - ana.psi)) < 1e-3
        assert np.max(np.abs(traj.final.phi - ana.phi)) < 1e-3

    def test_second_order_in_dt(self):
        g = make_grid(1, 1024, 60.0)
        ana = sample_solution(spec_1d_b(P), P, g, t=1.0)
        errs = []
        for steps in (640, 1280, 2560):
            dt = 1.0 / steps
            st = state_from_solution(spec_1d_b(P), P, g, dt=dt)
            traj = evolve(st, T=1.0, dt=dt)
            errs.append(np.max(np.abs(traj.final.psi - ana.psi)))
        for coarse, fine in zip(errs, errs[1:]):
            assert coarse / fine == pytest.approx(4.0, abs=0.5)

    def test_quasi_1d_transverse_member(self):
        gamma, eps = 0.3, 0.4
        spec = spec_3d_a(P, omega=1.0, gamma=gamma, eps=eps)
        g = make_grid(1, 2048, 30.0, transverse_mode=(gamma, eps))
        dt = dividing_dt(0.5, g, P)
        st = state_from_solution(spec, P, g, dt=dt)
        traj = evolve(st, T=0.5, dt=dt)
        ana = sample_solution(spec, P, g, t=0.5)
        assert np.max(np.abs(traj.final.psi - ana.psi)) < 1e-3

    def test_reversal_retraces_exactly(self):
        g = make_grid(1, 1024, 60.0)
        dt = dividing_dt(2.0, g, P)
        coupled = state_from_solution(spec_1d_b(P), P, g, dt=dt)
        for mode, st in (("coupled", coupled),
                         ("choquard",
                          state_with_static_field(coupled.psi, P, g))):
            fwd = evolve(st, T=2.0, dt=dt, mode=mode)
            back = evolve(reverse_state(fwd.final, dt, mode), T=2.0, dt=dt,
                          mode=mode)
            assert np.max(np.abs(np.conj(back.final.psi) - st.psi)) < 1e-11
            assert np.max(np.abs(back.final.phi - st.phi)) < 1e-11


class TestBlowUp:
    # the start transforms and the first half kick, before the loop, take
    # the non-finite field too, under the loop's errstate: no warning
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("mode,values", [
        pytest.param(mode, values, id=mode + label)
        for label, values in (("", (np.nan,)), ("-inf", (np.inf,)),
                              ("-minus-inf", (-np.inf,)),
                              ("-inf-pair", (np.inf, -np.inf)))
        for mode in ("coupled", "free")])
    def test_non_finite_phi_aborts_after_one_step(self, mode, values):
        # non-finite nodes of phi (one NaN, +inf, -inf, or a +inf and a
        # -inf): the coupled kick carries them into psi, which trips the
        # |psi| check; the free mode kicks nothing, and the Gautschi update
        # spreads them over phi, which trips the phi check (its sum; an
        # inf and a -inf sum to NaN)
        st, g = soliton_state(dt=0.1, t0=1.5)
        phi = st.phi.copy()
        for i, value in enumerate(values):
            phi[g.n // 3 + 7 * i] = value
        bad = FieldState(t=st.t, psi=st.psi, phi=phi, params=P, grid=g,
                         phi_prev=st.phi_prev)
        with pytest.raises(BlowUpError) as exc:
            evolve(bad, T=1.0, dt=0.1, mode=mode)
        assert exc.value.t == pytest.approx(1.6, abs=1e-12)
        assert not math.isfinite(exc.value.amplitude)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("mode", ["coupled", "choquard", "free"])
    def test_non_finite_psi_aborts_after_one_step(self, mode, value):
        # a non-finite node of psi reaches the density the first step
        # ends with, in every mode, under the loop's errstate: no warning
        st, g = soliton_state(n=256, L=30.0, dt=0.1)
        psi = st.psi.copy()
        psi[g.n // 3] = value
        bad = FieldState(t=st.t, psi=psi, phi=st.phi, params=P, grid=g,
                         phi_prev=st.phi_prev)
        with pytest.raises(BlowUpError) as exc:
            evolve(bad, T=1.0, dt=0.1, mode=mode)
        assert exc.value.t == pytest.approx(0.1, abs=1e-12)
        assert not math.isfinite(exc.value.amplitude)


class TestObserverView:
    """The loop runs under one errstate that quiets overflow and invalid;
    the observer runs under the caller's settings, and the states it is
    handed own their arrays."""

    @pytest.mark.parametrize("settings", [
        None, dict(all="raise"),
        dict(divide="ignore", over="warn", under="raise", invalid="print")],
        ids=["default", "raise", "mixed"])
    @pytest.mark.parametrize("mode", ["coupled", "choquard", "free"])
    def test_observer_sees_the_callers_error_state(self, mode, settings):
        st, _ = soliton_state(n=256, L=30.0, dt=0.01)
        seen = []
        with np.errstate(**(settings or {})):
            caller = np.geterr()
            evolve(st, T=0.05, dt=0.01, mode=mode,
                   observer=lambda s: seen.append(np.geterr()),
                   observer_stride=2)
            assert np.geterr() == caller
        assert len(seen) == 4
        assert all(err == caller for err in seen)

    @pytest.mark.parametrize("mode", ["coupled", "choquard", "free"])
    def test_observer_warning_reaches_the_caller(self, mode):
        # the loop ignores overflow and invalid; an observer's own
        # overflow and invalid operation still warn, once per call
        st, _ = soliton_state(n=256, L=30.0, dt=0.01)

        def observer(state):
            np.array([1e308]) * 10.0
            np.sqrt(np.array([-1.0]))

        with pytest.warns(RuntimeWarning) as caught:
            evolve(st, T=0.03, dt=0.01, mode=mode, observer=observer)
        messages = [str(w.message) for w in caught]
        assert sum("overflow" in m for m in messages) == 4
        assert sum("invalid value" in m for m in messages) == 4

    @pytest.mark.parametrize("history", [True, False],
                             ids=["history", "at-rest"])
    @pytest.mark.parametrize("mode", ["coupled", "choquard", "free"])
    def test_kept_states_stay_as_observed(self, mode, history):
        # the loop rewrites psi, the kick, the density and the update's
        # results in place; every state handed out is a copy, so states
        # kept at stride 1 read after the run as they did when observed
        g = make_grid(1, 256, 30.0)
        st = state_from_solution(spec_1d_b(P), P, g,
                                 dt=0.01 if history else None)
        kept, observed = [], []

        def fields(state):
            return [None if a is None else a.tobytes()
                    for a in (state.psi, state.phi, state.phi_prev)]

        def observer(state):
            kept.append(state)
            observed.append(fields(state))

        traj = evolve(st, T=0.06, dt=0.01, mode=mode, observer=observer)
        assert len(kept) == 7 and kept[-1] is traj.final
        assert [fields(state) for state in kept] == observed
        arrays = [a for state in kept[1:]
                  for a in (state.psi, state.phi, state.phi_prev)
                  if a is not None]
        assert not any(np.shares_memory(a, b)
                       for i, a in enumerate(arrays) for b in arrays[:i])
        if mode != "choquard":
            assert all(state.phi_prev is not None for state in kept[1:])


class TestTrajectoryPlumbing:
    def test_endpoints_only_by_default(self):
        st, _ = soliton_state()
        traj = evolve(st, T=0.01, dt=0.001)
        assert traj.initial is st
        assert traj.final is not st
        assert traj.final.t == pytest.approx(0.01, abs=1e-15)
        assert traj.step_count == 10

    def test_observer_called_on_stride(self):
        st, _ = soliton_state()
        seen = []
        evolve(st, T=0.01, dt=0.001, observer=lambda s: seen.append(s.t),
               observer_stride=5)
        assert seen == pytest.approx([0.0, 0.005, 0.01])

    def test_kick_count(self):
        st, _ = soliton_state(dt=0.001)
        assert evolve(st, T=0.01, dt=0.001).kicks == 11
        flushed = evolve(st, T=0.01, dt=0.001, observer=lambda s: None,
                         observer_stride=1)
        assert flushed.kicks == 20
        assert evolve(st, T=0.01, dt=0.001, mode="free").kicks == 0

    @pytest.mark.parametrize("mode, per_step", [("coupled", 1),
                                                ("choquard", 3)])
    def test_observed_steps_reuse_the_flushed_kick(self, monkeypatch, mode,
                                                   per_step):
        # the flush before an observation leaves exp(i half phi) for the
        # next step's opening half kick, so observing every step adds no
        # phase evaluation: N + 1 coupled, 3N + 1 choquard
        calls = []
        kick = evolution._phase_kick
        monkeypatch.setattr(evolution, "_phase_kick",
                            lambda *a: calls.append(1) or kick(*a))
        st = stationary_state(make_grid(1, 512, 64.0))
        traj = evolve(st, T=1.0, dt=0.1, mode=mode,
                      observer=lambda s: None, observer_stride=1)
        assert len(calls) == per_step * 10 + 1
        assert traj.kicks == (per_step + 1) * 10

    def test_snapshots_carry_scalar_history(self):
        st, g = soliton_state(dt=0.001)
        traj = evolve(st, T=0.01, dt=0.001)
        assert traj.final.phi_prev is not None
        assert traj.final.phi_prev.shape == g.shape

    @pytest.mark.parametrize("history", [True, False],
                             ids=["history", "at-rest"])
    @pytest.mark.parametrize("mode", ["coupled", "free"])
    def test_loop_hands_phi_on_as_the_history(self, mode, history):
        # the loop keeps the x-space pair itself: one step later the
        # history is the phi the step started from, bit for bit
        g = make_grid(1, 256, 30.0)
        st = state_from_solution(spec_1d_b(P), P, g,
                                 dt=0.01 if history else None)
        one = evolve(st, T=0.01, dt=0.01, mode=mode).final
        two = evolve(st, T=0.02, dt=0.01, mode=mode).final
        assert one.phi_prev.tobytes() == st.phi.tobytes()
        assert two.phi_prev.tobytes() == one.phi.tobytes()

    @pytest.mark.parametrize("mode", ["coupled", "choquard", "free"])
    def test_initial_state_is_left_as_it_is(self, mode):
        # evolve reads the initial fields without copying phi; neither the
        # loop, the scalar update nor an observed flush writes into them
        st, _ = soliton_state(n=256, L=30.0, dt=0.01)
        before = [a.tobytes() for a in (st.psi, st.phi, st.phi_prev)]
        evolve(st, T=0.05, dt=0.01, mode=mode, observer=lambda s: None,
               observer_stride=1)
        assert [a.tobytes() for a in (st.psi, st.phi, st.phi_prev)] \
            == before

    def test_slaved_start_is_idempotent(self):
        # the sampled member (closed-form field, depth 5.333) and the same
        # member under its slaved field (1.708) make one and the same run
        spec = spec_1d_b(P)
        g = make_grid(1, 1024, matched_length(spec, P))
        raw = state_from_solution(spec, P, g)
        runs = [evolve(st, T=2.0, mode="choquard")
                for st in (raw, state_with_static_field(raw.psi, P, g))]
        assert [r.step_count for r in runs] == [35, 35]
        assert runs[0].final.psi.tobytes() == runs[1].final.psi.tobytes()
        assert runs[0].initial.phi.tobytes() == runs[1].initial.phi.tobytes()
        assert runs[0].initial.phi.min() == pytest.approx(-1.708, abs=1e-3)

    def test_choquard_start_is_solved_once(self, monkeypatch):
        # one solve for the start and three per step, and the first kick
        # reads the start's field bit for bit; 2M/v^2 = 3 is not a power of
        # two, so a second route to that field would round apart from it
        solves, kicked = [], []
        slaved_map, kick = evolution.slaved_map, evolution._phase_kick

        def counted(params, grid):
            update = slaved_map(params, grid)
            return lambda density: solves.append(1) or update(density)

        monkeypatch.setattr(evolution, "slaved_map", counted)
        monkeypatch.setattr(evolution, "_phase_kick", lambda phi, *a: (
            kicked.append(phi.copy()) or kick(phi, *a)))
        spec = spec_1d_b(PC)
        g = make_grid(1, 2048, matched_length(spec, PC))
        traj = evolve(sample_solution(spec, PC, g, t=0.0), T=0.5, dt=0.1,
                      mode="choquard")
        assert len(solves) == 3 * traj.step_count + 1
        assert traj.initial.phi.tobytes() == kicked[0].tobytes()

    def test_slaved_run_ends_without_history(self):
        st = stationary_state(make_grid(1, 512, 64.0))
        st = replace(st, phi_prev=st.phi.copy())
        final = evolve(st, T=0.2, dt=0.1, mode="choquard").final
        assert final.phi_prev is None


class TestModes:
    @pytest.mark.parametrize("mode", ["coupled", "choquard", "free"])
    def test_merged_kicks_match_every_step_flushed(self, mode):
        # observer_stride=1 closes the pending half kick after every step,
        # so nothing is merged; the merged run must land on the same state
        g = make_grid(1, 1024, 60.0)
        dt = dividing_dt(1.0, g, P)
        st = state_from_solution(spec_1d_b(P), P, g, dt=dt)
        if mode == "choquard":
            st = state_with_static_field(st.psi, P, g)
        merged = evolve(st, T=1.0, dt=dt, mode=mode)
        flushed = evolve(st, T=1.0, dt=dt, mode=mode,
                         observer=lambda s: None, observer_stride=1)
        assert np.max(np.abs(merged.final.psi - flushed.final.psi)) <= 1e-12
        assert np.max(np.abs(merged.final.phi - flushed.final.phi)) <= 1e-12

    def test_free_mode_matches_analytic_spreading(self):
        g = make_grid(1, 2048, 128.0)
        pk = gaussian_packet(g, P, sigma0=2.0)
        traj = evolve(pk, T=5.0, dt=dividing_dt(5.0, g, P), mode="free")
        d = np.abs(traj.final.psi) ** 2
        c = float(np.sum(g.axis * d) / np.sum(d))
        w = math.sqrt(float(np.sum((g.axis - c) ** 2 * d) / np.sum(d)))
        expect = 2.0 * math.sqrt(1.0 + (5.0 / (2.0 * P.M * 4.0)) ** 2)
        assert w == pytest.approx(expect, rel=1e-9)

    def test_free_mode_ignores_coupling(self):
        # identical packet, phi seeded nonzero: matter unaffected in free mode
        g = make_grid(1, 512, 64.0)
        pk = gaussian_packet(g, P, sigma0=2.0)
        seeded = FieldState(t=0.0, psi=pk.psi, phi=np.full(g.n, 0.3),
                            params=P, grid=g, phi_prev=np.full(g.n, 0.3))
        a = evolve(pk, T=0.5, dt=0.001, mode="free")
        b = evolve(seeded, T=0.5, dt=0.001, mode="free")
        np.testing.assert_allclose(a.final.psi, b.final.psi, atol=1e-14)

    def test_choquard_keeps_stationary_profile(self):
        g = make_grid(1, 1024, 64.0)
        s = sample_solution(spec_1d_b(PC), PC, g, t=0.0)
        st = state_with_static_field(s.psi, PC, g)
        traj = evolve(st, T=2.0, dt=dividing_dt(2.0, g, PC), mode="choquard")
        assert np.max(np.abs(np.abs(traj.final.psi) - np.abs(s.psi))) < 1e-5


class TestStateFactories:
    def test_transverse_mismatch_rejected(self):
        spec = spec_3d_a(P, omega=1.0, gamma=0.3, eps=0.4)
        g = make_grid(1, 1024, 40.0)  # no transverse_mode
        with pytest.raises(ValueError, match="transverse"):
            state_from_solution(spec, P, g)

    def test_analytic_history_matches_sampled(self):
        st, g = soliton_state(dt=0.002)
        expect = sample_solution(spec_1d_b(P), P, g, t=-0.002).phi
        np.testing.assert_allclose(st.phi_prev, expect, atol=1e-15)

    def test_gaussian_packet_contract(self):
        g = make_grid(1, 1024, 64.0)
        pk = gaussian_packet(g, P, sigma0=1.5, k0=0.7)
        assert pk.norm() == pytest.approx(1.0, abs=1e-12)
        d = np.abs(pk.psi) ** 2
        c = float(np.sum(g.axis * d) / np.sum(d))
        w = math.sqrt(float(np.sum((g.axis - c) ** 2 * d) / np.sum(d)))
        assert w == pytest.approx(1.5, rel=1e-6)
        with pytest.raises(ValueError, match="too short"):
            gaussian_packet(make_grid(1, 64, 8.0), P, sigma0=2.0)
        with pytest.raises(ValueError, match="1D"):
            gaussian_packet(make_grid(3, 16, 8.0), P, sigma0=0.5)

    def test_gaussian_packet_stays_in_the_lattice_band(self):
        # |k0| <= pi/dx - pi/sigma0: 50.265 - 2.094 = 48.171 here
        g = make_grid(1, 1024, 64.0)
        band = math.pi / g.spacing - math.pi / 1.5
        for k0 in (band - 1e-9, -band + 1e-9):
            pk = gaussian_packet(g, P, sigma0=1.5, k0=k0)
            assert pk.norm() == pytest.approx(1.0, abs=1e-12)
        for k0 in (band + 1e-9, -band - 1e-9, math.nan, 500.0):
            with pytest.raises(ValueError, match="lattice band"):
                gaussian_packet(g, P, sigma0=1.5, k0=k0)
        # at k0 = 0 the bound is sigma0 >= dx: one spacing is accepted
        gaussian_packet(g, P, sigma0=g.spacing)

    def test_static_field_matches_closed_form(self):
        g = make_grid(1, 1024, 64.0)
        s = sample_solution(spec_1d_b(PC), PC, g, t=0.0)
        st = state_with_static_field(s.psi, PC, g)
        np.testing.assert_allclose(st.phi, s.phi, atol=1e-10)


class TestPerturb:
    def setup_method(self):
        self.state, self.grid = soliton_state()

    @pytest.mark.parametrize("kind", ["amplitude_noise", "phase_noise",
                                      "width_rescale"])
    def test_norm_preserved_and_deterministic(self, kind):
        a = perturb(self.state, kind, 0.01, seed=7)
        b = perturb(self.state, kind, 0.01, seed=7)
        assert np.array_equal(a.psi, b.psi)
        assert a.norm() == pytest.approx(self.state.norm(), rel=1e-12)

    def test_different_seeds_differ(self):
        a = perturb(self.state, "amplitude_noise", 0.01, seed=1)
        b = perturb(self.state, "amplitude_noise", 0.01, seed=2)
        assert not np.array_equal(a.psi, b.psi)

    def test_noise_is_standard_normal(self):
        # on a flat real field the phase kind returns exp(i s eta) exactly,
        # and the amplitude kind draws the same eta for the same seed
        g = make_grid(1, 4096, 60.0)
        flat = FieldState(t=0.0, psi=np.ones(g.shape, dtype=complex),
                          phi=np.zeros(g.shape), params=P, grid=g)
        s = 0.01
        eta = np.angle(perturb(flat, "phase_noise", s, seed=5).psi) / s
        assert abs(eta.mean()) < 0.1
        assert abs(eta.std() - 1.0) < 0.1
        amp = perturb(flat, "amplitude_noise", s, seed=5).psi / (1 + s * eta)
        np.testing.assert_allclose(amp, amp[0], rtol=1e-12)

    def test_zero_strength_is_identity(self):
        for kind in ("amplitude_noise", "phase_noise", "width_rescale"):
            assert perturb(self.state, kind, 0.0, seed=3) is self.state

    def test_width_rescale_stretches_envelope(self):
        # the band-limited resampling stretches a resolved envelope exactly
        g = self.grid
        p = perturb(self.state, "width_rescale", 0.1)
        for st, expect in ((self.state, 1.0), (p, 1.1)):
            d = np.abs(st.psi) ** 2
            c = float(np.sum(g.axis * d) / np.sum(d))
            w = math.sqrt(float(np.sum((g.axis - c) ** 2 * d) / np.sum(d)))
            if expect == 1.0:
                base = w
            else:
                assert w / base == pytest.approx(expect, rel=1e-12)

    def test_width_rescale_matches_the_stretched_field_in_3d(self):
        # a packet that the lattice resolves, with a different width along
        # each axis, and that decays within the box once stretched
        g = make_grid(3, 64, 32.0)
        x, y, z = np.meshgrid(g.axis, g.axis, g.axis, indexing="ij")

        def packet(s):
            r2 = x**2 + 1.5 * y**2 + 0.75 * z**2
            return np.exp(-r2 / (4.0 * s * s) + 0.3j * x / s)
        st = FieldState(t=0.0, psi=packet(1.0), phi=np.zeros(g.shape),
                        params=P, grid=g)
        got = perturb(st, "width_rescale", 0.25).psi
        expect = packet(1.25)
        expect *= math.sqrt(st.norm() / (np.sum(np.abs(expect) ** 2)
                                         * g.volume_element))
        assert np.max(np.abs(got - expect)) < 1e-9

    def test_phase_noise_keeps_density(self):
        p = perturb(self.state, "phase_noise", 0.05, seed=11)
        np.testing.assert_allclose(np.abs(p.psi), np.abs(self.state.psi),
                                   rtol=1e-12)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown perturbation"):
            perturb(self.state, "resample", 0.1)


class TestDefaultStep:
    def test_choquard_rule(self):
        # the stationary member moves no envelope, so the kick rate
        # M max|phi| = 0.75 sets the step: 1/(10 r)
        g = make_grid(1, 1024, 64.0)
        st = stationary_state(g)
        peak = float(np.max(np.abs(st.phi)))
        assert peak == pytest.approx(0.75, abs=1e-10)
        assert default_dt(st, "choquard") \
            == pytest.approx(1.0 / (10.0 * PC.M * peak), rel=1e-15)
        # nothing to kick, travel or spread: the mass bound 0.9/2m
        empty = FieldState(t=0.0, psi=np.zeros(g.n, dtype=complex),
                           phi=np.zeros(g.n), params=PC, grid=g)
        assert default_dt(empty, mode="choquard") == 0.9 / (2.0 * PC.m)
        # a member carrying its closed-form field (M max|phi| = 5.33 at P)
        # gets the step of its slaved state (1.71)
        raw = state_from_solution(spec_1d_b(P), P, g)
        assert default_dt(raw, "choquard") \
            == default_dt(state_with_static_field(raw.psi, P, g), "choquard")

    @pytest.mark.parametrize("sigma0, depth", [(3.0, -0.8231), (8.0, None)],
                             ids=["sigma0=3", "sigma0=8"])
    def test_choquard_packet_steps_under_its_slaved_field(self, sigma0,
                                                          depth):
        # a packet carries phi = 0; its run starts under the field its
        # density sources, and the default step resolves that run: a
        # quarter of it moves |psi| by under 1e-3 of its peak
        g = make_grid(1, 512, 100.0)
        packet = gaussian_packet(g, P, sigma0)
        seen = []
        run = evolve(packet, T=20.0, mode="choquard", observer=seen.append,
                     observer_stride=MAX_STEPS)
        ref = evolve(packet, T=20.0, dt=run.dt / 4, mode="choquard")
        err = np.max(np.abs(np.abs(run.final.psi) - np.abs(ref.final.psi)))
        assert err / np.max(np.abs(ref.final.psi)) < 1e-3
        slaved = state_with_static_field(packet.psi, P, g)
        assert seen[0].phi.min() == slaved.phi.min()
        if depth is not None:
            assert seen[0].phi.min() == pytest.approx(depth, abs=1e-4)

    def test_choquard_has_no_stability_guard(self):
        st, g = soliton_state()
        st = state_with_static_field(st.psi, P, g)
        assert 0.05 > stability_limit(g, P)
        traj = evolve(st, T=0.2, dt=0.05, mode="choquard")
        assert traj.step_count == 4

    def test_gautschi_rule(self):
        # fine lattice: the kick bound 1/(8 M max|phi|) sets the step
        g = make_grid(1, 4096, 30.0)
        st = state_from_solution(spec_1d_b(P), P, g)
        peak = float(np.max(np.abs(st.phi)))
        assert default_dt(st) \
            == pytest.approx(1.0 / (8.0 * P.M * peak), rel=1e-15)
        # no field: the mass bound 0.9/2m, never below 0.9 stability_limit
        packet = gaussian_packet(g, P, sigma0=1.0)
        assert default_dt(packet, "free") == 0.9 / (2.0 * P.m)
        coarse = make_grid(1, 256, 30.0)
        deep = FieldState(t=0.0, psi=np.ones(coarse.n, dtype=complex),
                          phi=np.full(coarse.n, 50.0), params=P, grid=coarse)
        assert default_dt(deep) == 0.9 * stability_limit(coarse, P)

    def test_fast_narrow_member_gets_a_shorter_step(self):
        # 3d_b at mu = 0.99 M: the field depth does not depend on mu, but
        # the envelope narrows and speeds up; the step keeps its travel per
        # step near 1/8 of the width 1/k instead of most of it
        spec = spec_3d_b(P, mu=0.99)
        co = family_coefficients(spec, P)
        st = state_from_solution(spec, P, make_grid(1, 1024, matched_length(
            spec, P)))
        dt = default_dt(st)
        assert dt < 1.0 / (8.0 * P.M * abs(co.phi_amplitude)) / 3.0
        assert co.velocity * dt * co.envelope_k < 0.15

    def test_default_step_feeds_evolve(self):
        g = make_grid(1, 2048, 60.0)
        st = state_from_solution(spec_1d_b(P), P, g)
        dt = default_dt(st)
        assert dt > stability_limit(g, P)
        traj = evolve(st, T=1.0)
        assert traj.step_count == math.ceil(1.0 / dt)

def choquard_energy(state):
    """int |d psi|^2/2M + (M/2) phi[psi] |psi|^2, the functional the slaved
    dynamics conserves; phi is the state's slaved field."""
    g, M = state.grid, state.params.M
    hat = np.fft.fft(state.psi)
    kinetic = float(np.sum(g.k_squared * np.abs(hat) ** 2)) / g.n / (2.0 * M)
    potential = 0.5 * M * float(np.sum(state.phi * np.abs(state.psi) ** 2))
    return g.spacing * (kinetic + potential)


class TestTripleJump:
    """Properties of the choquard mode's fourth-order composed step, on the
    standing 1d_b member at n = 1024 on L = 64."""

    GRID = make_grid(1, 1024, 64.0)

    def test_norm_drift_on_random_data(self):
        g = self.GRID
        rng = np.random.default_rng(11)
        psi = rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n)
        psi /= math.sqrt(float(np.sum(np.abs(psi) ** 2)) * g.spacing)
        st = state_with_static_field(psi, PC, g)
        traj = evolve(st, T=1.0, dt=0.05, mode="choquard")
        assert abs(traj.final.norm() - st.norm()) / 1.0 < 1e-10

    def test_reversal_retraces(self):
        st = stationary_state(self.GRID)
        dt = 5.0 / math.ceil(5.0 / default_dt(st, mode="choquard"))
        fwd = evolve(st, T=5.0, dt=dt, mode="choquard")
        back = evolve(reverse_state(fwd.final, dt, "choquard"), T=5.0, dt=dt,
                      mode="choquard")
        assert np.max(np.abs(np.conj(back.final.psi) - st.psi)) < 1e-11
        assert np.max(np.abs(back.final.phi - st.phi)) < 1e-11

    def test_fourth_order_in_dt(self):
        g = self.GRID
        st = stationary_state(g)
        ana = sample_solution(spec_1d_b(PC), PC, g, t=2.0)
        errs = [float(np.max(np.abs(evolve(st, T=2.0, dt=2.0 / steps,
                                           mode="choquard").final.psi
                                    - ana.psi)))
                for steps in (16, 32, 64)]
        for coarse, fine in zip(errs, errs[1:]):
            assert coarse / fine == pytest.approx(16.0, abs=2.0)

    def test_kick_count(self):
        st = stationary_state(self.GRID)
        assert evolve(st, T=1.0, dt=0.1, mode="choquard").kicks == 31
        flushed = evolve(st, T=1.0, dt=0.1, mode="choquard",
                         observer=lambda s: None, observer_stride=1)
        assert flushed.kicks == 40

    def test_energy_held_at_the_default_step(self):
        st = stationary_state(self.GRID)
        energies = []
        traj = evolve(st, T=20.0, mode="choquard",
                      observer=lambda s: energies.append(choquard_energy(s)))
        assert traj.step_count == 150  # 10 r T, r = M max|phi| = 0.75
        assert len(energies) == traj.step_count + 1
        drift = max(abs(e - energies[0]) for e in energies)
        assert drift / abs(energies[0]) < 1e-9


class TestGautschi:
    """Criterion-9-style properties of the exact-in-time scalar update,
    at steps above stability_limit (n = 2048 on L = 60)."""

    GRID = make_grid(1, 2048, 60.0)

    def step_for(self, T):
        dt = default_dt(state_from_solution(spec_1d_b(P), P, self.GRID))
        assert dt > stability_limit(self.GRID, P)
        return T / math.ceil(T / dt)

    def test_no_stability_guard(self):
        st, g = soliton_state()
        traj = evolve(st, T=0.2, dt=2.0 * stability_limit(g, P))
        assert traj.step_count == 4

    def test_norm_drift_on_random_data(self):
        g = self.GRID
        rng = np.random.default_rng(11)
        psi = rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n)
        psi /= math.sqrt(float(np.sum(np.abs(psi) ** 2)) * g.spacing)
        st = FieldState(t=0.0, psi=psi, phi=rng.standard_normal(g.n) * 0.1,
                        params=P, grid=g)
        traj = evolve(st, T=1.0, dt=self.step_for(1.0))
        assert abs(traj.final.norm() - st.norm()) / 1.0 < 1e-10

    def test_reversal_retraces_T10(self):
        dt = self.step_for(10.0)
        start = state_from_solution(spec_1d_b(P), P, self.GRID, dt=dt)
        fwd = evolve(start, T=10.0, dt=dt)
        back = evolve(reverse_state(fwd.final, dt), T=10.0, dt=dt)
        assert np.max(np.abs(np.conj(back.final.psi) - start.psi)) < 1e-6
        assert np.max(np.abs(back.final.phi - start.phi)) < 1e-6

    def test_second_order_in_dt(self):
        # steps of 0.05, 0.025, 0.0125: the first two above stability_limit
        g = make_grid(1, 1024, 60.0)
        ana = sample_solution(spec_1d_b(P), P, g, t=1.0)
        errs = []
        for steps in (20, 40, 80):
            h = 1.0 / steps
            st = state_from_solution(spec_1d_b(P), P, g, dt=h)
            errs.append(float(np.max(np.abs(
                evolve(st, T=1.0, dt=h).final.psi
                - ana.psi))))
        for coarse, fine in zip(errs, errs[1:]):
            assert coarse / fine == pytest.approx(4.0, abs=0.5)

    def test_free_mode_oscillates_at_the_exact_frequency(self):
        # a cosine mode follows 0.7 cos(w t) exactly, even at a step far
        # above stability_limit, where an explicit second difference of the
        # wave equation would diverge
        g = make_grid(1, 256, 32.0)
        k1 = 2.0 * np.pi * 3 / g.length
        w = math.sqrt(k1**2 + P.m**2)
        dt = 0.3
        mode = np.cos(k1 * g.axis)
        st = FieldState(t=0.0, psi=np.zeros(g.n, dtype=complex),
                        phi=0.7 * mode, params=P, grid=g,
                        phi_prev=0.7 * math.cos(w * dt) * mode)
        states = []
        evolve(st, T=6.0, dt=dt, mode="free", observer=states.append)
        assert len(states) == 21
        for s in states:
            np.testing.assert_allclose(s.phi, 0.7 * math.cos(w * s.t) * mode,
                                       atol=1e-12)

    def test_free_mode_stays_on_the_exact_frequency_at_small_w_dt(self):
        # at w dt ~ 0.005 the increment A phi^ is 3e-5 of phi^; the summed
        # form adds it to the step phi^ - phi^- and not to 2 phi^ - phi^-,
        # so 2000 steps lose less than 2e-14 (the form that carries phi^-
        # loses about 2e-13)
        g = make_grid(1, 256, 32.0)
        k1 = 2.0 * np.pi / g.length
        w = math.sqrt(k1**2 + P.m**2)
        dt = 0.01
        mode = np.cos(k1 * g.axis)
        st = FieldState(t=0.0, psi=np.zeros(g.n, dtype=complex),
                        phi=0.7 * mode, params=P, grid=g,
                        phi_prev=0.7 * math.cos(w * dt) * mode)
        states = []
        evolve(st, T=20.0, dt=dt, mode="free", observer=states.append,
               observer_stride=100)
        assert len(states) == 21
        for s in states:
            np.testing.assert_allclose(s.phi, 0.7 * math.cos(w * s.t) * mode,
                                       rtol=0, atol=2e-14)

    @pytest.mark.parametrize("dim,n,mode", [(1, 256, "coupled"),
                                            (1, 256, "free"),
                                            (3, 16, "coupled")])
    def test_one_step_matches_separate_transforms(self, dim, n, mode):
        # reverse_state hands back the update's next field, so it exposes
        # one step; the reference transforms phi and the source apart
        from scipy import fft as sfft
        from solitonlab.model import scalar_source
        g = make_grid(dim, n, 20.0)
        rng = np.random.default_rng(3)
        psi = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        phi, phi_prev = rng.standard_normal(g.shape), rng.standard_normal(
            g.shape)
        st = FieldState(t=0.0, psi=psi, phi=phi, params=P, grid=g,
                        phi_prev=phi_prev)
        dt = 0.4
        got = reverse_state(st, dt, mode).phi_prev
        w2 = g.rfft_k_squared + P.m**2
        a = 2.0 * np.cos(np.sqrt(w2) * dt) - 2.0
        hat = a * sfft.rfftn(phi)
        if mode == "coupled":
            source = scalar_source(np.abs(psi) ** 2, P)
            hat += -2.0 * (1.0 - np.cos(np.sqrt(w2) * dt)) / w2 \
                * sfft.rfftn(source)
        expect = 2.0 * phi - phi_prev + sfft.irfftn(hat, s=g.shape)
        np.testing.assert_allclose(got, expect, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("history", [True, False],
                             ids=["history", "at-rest"])
    @pytest.mark.parametrize("dim,n,mode", [(1, 256, "coupled"),
                                            (1, 256, "free"),
                                            (3, 16, "coupled"),
                                            (3, 16, "free")])
    def test_half_spectrum_matches_x_space_recurrence(self, monkeypatch, dim,
                                                      n, mode, history):
        # the update carries phi^ on the half spectrum for the whole loop;
        # 50 steps of it agree with the x-space recurrence, which
        # transforms phi afresh every step and adds 2 phi - phi- in x space
        g = make_grid(dim, n, 20.0)
        rng = np.random.default_rng(5)
        psi = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        psi /= math.sqrt(float(np.sum(np.abs(psi) ** 2)) * g.volume_element)
        phi = 0.1 * rng.standard_normal(g.shape)
        phi_prev = phi + 0.01 * rng.standard_normal(g.shape) if history \
            else None
        st = FieldState(t=0.0, psi=psi, phi=phi, params=P, grid=g,
                        phi_prev=phi_prev)
        got = evolve(st, T=2.5, dt=0.05, mode=mode).final
        monkeypatch.setattr(evolution, "_Gautschi", XSpaceGautschi)
        ref = evolve(st, T=2.5, dt=0.05, mode=mode).final
        assert ref.t == got.t == pytest.approx(2.5)
        for a, b in ((got.psi, ref.psi), (got.phi, ref.phi),
                     (got.phi_prev, ref.phi_prev)):
            assert np.max(np.abs(a - b)) < 1e-12

    def test_two_transforms_per_scalar_step(self, monkeypatch):
        # per step the drift's complex pair, and the update's rfft of the
        # source and its irfft back to the phi the kick reads; the free mode
        # has no source. The update transforms phi and its history once,
        # when it is built, and the default step needs none when dt is
        # given; the package looks the transforms up on numpy.fft when
        # evolve starts
        calls = []
        for name in ("fftn", "ifftn", "rfftn", "irfftn", "fft", "ifft",
                     "rfft", "irfft"):
            original = getattr(np.fft, name)

            def counted(*args, _f=original, _n=name, **kwargs):
                calls.append(_n)
                return _f(*args, **kwargs)
            monkeypatch.setattr(np.fft, name, counted)
        st, _ = soliton_state(n=512, L=40.0, dt=0.05)
        for mode, rffts in (("coupled", 12), ("free", 2)):
            calls.clear()
            traj = evolve(st, T=0.5, dt=0.05, mode=mode)
            steps = traj.step_count
            assert steps == 10
            assert calls.count("fft") == calls.count("ifft") == steps
            assert calls.count("rfft") == rffts
            assert calls.count("irfft") == steps
            assert len(calls) == 3 * steps + rffts


@pytest.mark.parametrize("mode", ["coupled", "free", "choquard"])
def test_evolve_makes_no_blas_call(no_blas, mode):
    # the step loop, its default step and the observer run on FFTs and
    # ufuncs alone
    from solitonlab.diagnostics import SeriesObserver
    g = make_grid(1, 256, 30.0)
    st = state_from_solution(spec_1d_b(P), P, g)
    observer = SeriesObserver()
    traj = evolve(st, T=0.5, mode=mode, observer=observer,
                  observer_stride=2)
    assert traj.step_count > 0 and len(observer.records) > 2


class XSpaceGautschi:
    """The Gautschi update as an x-space recurrence, the reference for the
    half-spectrum one: phi+ = 2 phi - phi- + irfft(A (phi^ + s^/w^2)), with
    phi^ and s^ transformed afresh every step and the pair (phi, phi-)
    kept in x space."""

    def __init__(self, params, grid, dt, sourced, phi, phi_prev):
        from solitonlab.model import scalar_source
        self.source = (lambda d: scalar_source(d, params)) if sourced \
            else None
        self.w2 = grid.rfft_k_squared + params.m**2
        self.a = -4.0 * np.sin(0.5 * dt * np.sqrt(self.w2)) ** 2
        self.phi, self.phi_prev = phi, phi_prev

    def __call__(self, density):
        phi = self.phi
        hat = np.fft.rfftn(phi)
        if self.source is not None:
            hat += np.fft.rfftn(self.source(density)) / self.w2
        inc = np.fft.irfftn(self.a * hat, s=phi.shape, axes=range(phi.ndim))
        if self.phi_prev is None:
            # a field at rest has phi(t - dt) = phi(t + dt)
            self.phi_prev = phi + 0.5 * inc
        self.phi, self.phi_prev = 2.0 * phi - self.phi_prev + inc, phi
        return self.phi
