"""Time evolution of the coupled matter-scalar system.

The matter field advances by Strang splitting: a half kick by the scalar
potential, a full spectral kinetic drift, and a second half kick by the
updated potential. The scalar field advances by one scalar update, a
callable that maps a source density to phi(t + dt) and keeps any history
it reads itself; the loop keeps the x-space phi and phi(t - dt) that the
states carry. There are two:

  gautschi  the wave update of the coupled and free modes: the second
            difference of the driven wave equation with its exact-in-time
            multipliers under the source s = (2M/v^2)|psi|^2 captured at
            the step start (phase kicks do not change it, the drift would),
            on the rfft half spectrum: per mode,
            phi^+ = 2 phi^ - phi^- + A (phi^ + s^/w^2), A = 2 cos(w dt) - 2,
            w^2 = k^2 + m^2, with the k^2 the Laplacian uses (so no
            transverse term). It is exact for the linear part at any dt
            (Hochbruck & Lubich, Numer. Math. 83, 1999). The update
            transforms phi and its history once, when it is built, and
            carries phi^ and the step phi^ - phi^- (the summed form of
            Stormer's method) through the whole loop, so a step is one
            rfft of the source and one irfft that gives the phi the kick
            reads (the free mode has no source and takes the irfft alone)
  slaved    the choquard mode's field, the static screened inverse of the
            post-drift density (slaved_map, which also slaves every
            choquard start). The multiplier, screened inverse times source
            factor, is built once per map, so a substep is one rfft, one
            multiply, one irfft

Every transform is numpy.fft's, picked once per evolve (and per scalar
update) by spectral.transforms: the 1D calls on a 1D grid. The drift
transforms psi in place. Every inverse transform runs unscaled
(norm="forward"): its 1/N, exact because N is a power of two, is folded
into a multiplier the step applies anyway (the drift, the slaved
multiplier, the Gautschi source gain with phi^ carried at 1/N), so
the result is bitwise that of the scaled inverse. No BLAS call is made.

A step allocates nothing. psi, the kick and the density change in place;
the scalar updates write their transforms into arrays they own (numpy.fft's
out=), and the Gautschi update hands out its results in two that take
turns, phi and its history. The kick, spent once applied, holds the phase
it is made from and is the scratch that squares psi into the density, so
at an observation the loop holds no more arrays than a loop that
allocates per step. One numpy error-state scope covers the run; the
observer runs under the caller's.

Both scalar updates are time symmetric, and so is the Strang step, so a
trajectory can be retraced exactly: conjugate the matter field and hand
the scalar update's forward-time next field as the new previous one.

The choquard mode composes each step as Yoshida's symmetric triple jump
(Phys. Lett. A 150, 1990) of the Strang step: substeps of w1 dt, w0 dt and
w1 dt, w1 = 1/(2 - 2^(1/3)), w0 = 1 - 2 w1 < 0, which makes the step of
order four and keeps it symmetric. Its kick is exact at any substep,
because the slaved field depends only on |psi|^2, which a kick leaves
alone; so each substep costs one kick, one drift and one slaved solve, as
a Strang step does. The other modes take one substep of weight 1, the plain
Strang step.

The closing half kick of a substep of weight w_a, exp(-i M w_a dt/2 phi),
and the opening one of the next, of weight w_b, share phi, so the loop
merges them into one kick at (w_a + w_b)/2 the full rate (a full kick
between two plain Strang steps), so psi owes the closing half between
steps. That half kick is applied only before an observer call or the
return, so everything outside the loop sees fully kicked states, the same
ones the unmerged scheme produces up to roundoff. phi does not move between
that flush and the next step's opening half kick, so the opening reuses the
flushed kick instead of evaluating it again; the first opening half kick is
evaluated before the loop and reused the same way. The blow-up check reads
|psi|, which a kick does not change, so it runs every step regardless.

Three modes share one loop body: the optional kick, the wave update
(which reads the density at the step start, so it runs before the drift),
the drift, and the slaved update of the post-drift density:

  coupled   full dynamics, scalar field carries its own wave equation
            (gautschi with the density source)
  choquard  scalar field slaved to the instantaneous density through the
            static screened inverse, solved at the start and after every
            drift
  free      coupling switched off: no kicks, matter drifts freely, scalar
            field obeys the sourceless wave equation (gautschi)

No step is held to a stability window: the matter kick and drift are exact
unitary maps at any dt, and the Gautschi update is exact for the linear
wave part at any dt. The default step comes from accuracy, the rates at
which the initial state kicks, travels and spreads (default_dt), so a finer
lattice does not force more steps; the slaved field's fourth-order step is
set from the same rates, at 1/(10 r). For initial data with appreciable
power near the lattice Nyquist mode (noise studies), dt <= M dx^2
additionally keeps every kinetic phase increment below 2 pi and rules out
split-step resonances; pass such a dt explicitly where that matters.

The observer is the one way to see the states between the endpoints of a
run: evolve hands it the initial state, every observer_stride-th state and
the final one, and returns only the endpoints and the step-loop counters.
"""

from __future__ import annotations

import math
import numbers
import random
import warnings
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .model import FieldState, Grid, PhysicalParams, scalar_source
from .solutions import sample_solution
from .spectral import screened_inverse, transforms

BLOWUP_FACTOR = 1e3

MODES = ("coupled", "choquard", "free")
PERTURBATION_KINDS = ("amplitude_noise", "phase_noise", "width_rescale")

# Yoshida's symmetric triple jump: Strang substeps of w1 dt, w0 dt, w1 dt
# make one step of order four (w0 < 0 steps back in time)
_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_TRIPLE_JUMP = (_W1, 1.0 - 2.0 * _W1, _W1)


def _check_choice(what: str, value: str, valid: tuple[str, ...]) -> None:
    """Raise ValueError unless value is one of valid."""
    if value not in valid:
        raise ValueError(f"unknown {what} {value!r} "
                         f"(valid: {', '.join(valid)})")


class BlowUpError(RuntimeError):
    """Matter amplitude ran away; carries the failure time."""

    def __init__(self, t: float, amplitude: float):
        self.t = t
        self.amplitude = amplitude
        super().__init__(f"matter amplitude {amplitude:.3e} exceeded the "
                         f"blow-up threshold at t = {t:.6g}")


def stability_limit(grid: Grid, params: PhysicalParams) -> float:
    """min(dx/2, 1/2m), the stability limit of an explicit second-difference
    (leapfrog) wave update. No step is held to it; 90% of it is the floor
    of default_dt for the coupled and free modes."""
    dx = grid.spacing
    return min(0.5 * dx, 0.5 / params.m)


def default_dt(initial: FieldState, mode: str = "coupled") -> float:
    """The step evolve takes from initial when none is given, before it
    lands on T.

    With r the fastest rate of change of the initial state (_state_rate),
    in choquard mode under the slaved field evolve starts the run with:

      choquard         1/(10 r): the fourth-order step is held to accuracy
                       alone; 0.9/2m when r = 0
      coupled, free    max(0.9 stability_limit, min(0.9/2m, 1/(8 r))), so
                       that one step turns no phase by more than 1/8 and
                       moves the envelope by at most 1/8 of its width; the
                       mass bound resolves the scalar mass oscillation
    """
    _check_choice("evolution mode", mode, MODES)
    params = initial.params
    mass_bound = 0.9 / (2.0 * params.m)
    if mode == "choquard":
        rate = _state_rate(state_with_static_field(initial.psi, params,
                                                   initial.grid))
        return 1.0 / (10.0 * rate) if rate > 0.0 else mass_bound
    rate = _state_rate(initial)
    bound = 1.0 / (8.0 * rate) if rate > 0.0 else math.inf
    return max(0.9 * stability_limit(initial.grid, params),
               min(mass_bound, bound))


def landing_steps(T: float, dt: float) -> int:
    """The number of steps of at most dt that land on T: ceil(T/dt), at
    least 1. The tolerance is relative, so a step of T/N lands on itself
    at any N."""
    return max(1, math.ceil(T / dt * (1.0 - 1e-12)))


def _state_rate(state: FieldState) -> float:
    """The largest of three rates, per unit time:

      M max|phi|          phase one kick turns at the field's peak
      |<k>| sigma_k / M   envelope widths travelled: group velocity <k>/M
                          over the width 1/sigma_k
      sigma_k^2 / 2M      kinetic phase across the envelope's spectrum

    with <k> and sigma_k the mean and spread of |psi^|^2 along each axis.
    A moving or narrow member thus gets a shorter step than its field
    depth alone would give it.
    """
    M = state.params.M
    rate = M * float(np.max(np.abs(state.phi)))
    power = _density(transforms(state.grid).fft(state.psi))
    total = float(np.sum(power))
    if total == 0.0:
        return rate
    power /= total
    for k in state.grid.wavenumbers:
        mean = float(np.sum(power * k))
        spread = math.sqrt(max(float(np.sum(power * k * k)) - mean * mean,
                               0.0))
        rate = max(rate, abs(mean) * spread / M, spread * spread / (2.0 * M))
    return rate


@dataclass(frozen=True)
class Trajectory:
    """The endpoints of a run and its step-loop counters: steps taken
    (a choquard step is three Strang substeps), phase kicks applied and
    the step that landed on T."""

    initial: FieldState
    final: FieldState
    step_count: int
    kicks: int
    dt: float


def _density(psi: np.ndarray) -> np.ndarray:
    return psi.real**2 + psi.imag**2


def _phase_kick(phi: np.ndarray, rate: float, kick_re: np.ndarray,
                kick_im: np.ndarray) -> None:
    """exp(i rate phi) into the views kick_re and kick_im of the kick; the
    phase passes through kick_im."""
    np.multiply(phi, rate, out=kick_im)
    np.cos(kick_im, out=kick_re)
    np.sin(kick_im, out=kick_im)


class _Gautschi:
    """phi^+ = 2 phi^ - phi^- + A (phi^ + s^/w^2) on the rfft half
    spectrum, exact in time for a frozen source: A = 2 cos(w dt) - 2
    = -4 sin^2(w dt/2), w^2 = k^2 + m^2.

    The recurrence is carried in the summed form of Stormer's method
    (Hairer, Norsett & Wanner, Solving Ordinary Differential Equations I,
    2nd ed., 1993): the pair (phi^, d^) with the step d^ = phi^ - phi^-,
    and each call does d^ += A (phi^ + s^/w^2), then phi^ += d^. The
    small increment joins the small step, not 2 phi^ - phi^-, so its low
    bits survive: a cosine mode at w dt = 0.005 stays within 1e-14 over
    2000 steps, where carrying phi^- loses 2e-13. The inverse transform
    runs unscaled: phi^ is carried at 1/N of the rfft (N a power of two,
    so the scaling is exact), and the 1/N of each source transform joins
    the source gain.

    Built from phi(t) and its history phi(t - dt), which it transforms
    once in two single-row rffts (a stacked call would take numpy's
    vectorized multi-row pocketfft path, whose first use raises the peak
    RSS by about 128 KiB). A history of None is a field at rest, phi^- =
    phi^+, whose step starts at half the increment. Each call maps the
    density captured at the step start to phi(t + dt), the unscaled irfft
    of the new phi^, written over the older of its last two results (the
    loop holds both, as phi and its history).
    """

    def __init__(self, params: PhysicalParams, grid: Grid, dt: float,
                 sourced: bool, phi: np.ndarray,
                 phi_prev: np.ndarray | None):
        w2 = grid.rfft_k_squared + params.m**2
        # the sine form keeps full relative precision where w dt is small
        self.a = -4.0 * np.sin(0.5 * dt * np.sqrt(w2)) ** 2
        scale = 1.0 / phi.size
        # the source is linear in the density, so its factor and the 1/N
        # of its transform join 1/w^2
        self.source_gain = scalar_source(scale / w2, params) if sourced \
            else None
        tr = transforms(grid)
        self.rfft, self.irfft = tr.rfft, tr.irfft
        self.hat = self.rfft(phi) * scale
        self.step = None if phi_prev is None \
            else self.hat - self.rfft(phi_prev) * scale
        self.inc = np.empty_like(self.hat)
        self.fields = [np.empty(grid.shape), np.empty(grid.shape)]

    def __call__(self, density: np.ndarray) -> np.ndarray:
        hat, inc = self.hat, self.inc
        # inc = A (phi^ + s^/w^2), in place on the source transform
        if self.source_gain is None:
            np.multiply(hat, self.a, out=inc)
        else:
            self.rfft(density, out=inc)
            inc *= self.source_gain
            inc += hat
            inc *= self.a
        if self.step is None:
            # a field at rest has phi^- = phi^+: half the increment
            self.step = 0.5 * inc
        else:
            self.step += inc
        hat += self.step
        fields = self.fields
        fields.reverse()
        return self.irfft(hat, norm="forward", out=fields[0])


def slaved_map(params: PhysicalParams,
               grid: Grid) -> Callable[[np.ndarray], np.ndarray]:
    """The map from a density to its slaved field: the static screened
    inverse under the field equation's source 2M/v^2. Each call writes its
    result over the one before."""
    # the source is linear in the density, so its factor and the 1/N of
    # the unscaled inverse join the screened inverse in one multiplier
    multiplier = scalar_source(
        screened_inverse(params.m, grid) / grid.n, params)
    tr = transforms(grid)
    rfft, irfft = tr.rfft, tr.irfft
    # the loop reads each result before it asks for the next
    hat = np.empty(multiplier.shape, dtype=complex)
    field = np.empty(grid.shape)

    def update(density: np.ndarray) -> np.ndarray:
        np.multiply(rfft(density, out=hat), multiplier, out=hat)
        return irfft(hat, norm="forward", out=field)
    return update


def evolve(initial: FieldState, T: float, dt: float | None = None, *,
           mode: str = "coupled",
           observer: Callable[[FieldState], object] | None = None,
           observer_stride: int = 1) -> Trajectory:
    """Advance a state by T and return the run's endpoints and counters.

    The step count is landing_steps(T, dt), with the actual step shrunk to
    land on T exactly; the requested dt is never exceeded. dt defaults to
    default_dt for the mode and the initial field. mode is a plain string
    from MODES: the coupled and free modes step the scalar field with the
    Gautschi update, and the choquard mode slaves it under the source
    2M/v^2 and takes every step as a triple jump of three Strang substeps.
    A choquard run starts at initial.t under the field slaved to initial.psi
    (state_with_static_field), with no history, whatever phi and phi_prev
    initial carries. That start is the state the observer sees first, the
    trajectory's initial state and the field its first kick reads, and
    default_dt derives its rate r from that same slaved field.
    No step size is refused for stability. The observer is the only view of the
    states in between: when given, it is called on the initial state and every
    observer_stride steps after that (plus the final state), and its return
    value is ignored. observer_stride must be an integer >= 1. The returned
    trajectory counts the phase kicks it applied in kicks: for N steps with
    nothing observed in between, N + 1 coupled and 3N + 1 choquard; up to 2N
    and 4N when every step is observed; 0 in free mode. An observed step's
    closing half kick is reused as the next step's opening one, so the phase is
    evaluated N + 1 (coupled) or 3N + 1 (choquard) times at any
    observer_stride. The run aborts with BlowUpError once max|psi| exceeds
    BLOWUP_FACTOR times its initial value or a field turns non-finite; a phi
    whose sum overflows counts as blown up too.
    """
    _check_choice("evolution mode", mode, MODES)
    if T < 0.0:
        raise ValueError("T must be nonnegative; retrace a trajectory by "
                         "reversing the final state and evolving forward")
    if not isinstance(observer_stride, numbers.Integral) \
            or observer_stride < 1:
        raise ValueError(f"observer_stride must be an integer >= 1, "
                         f"got {observer_stride!r}")
    params, grid = initial.params, initial.grid
    slaved = mode == "choquard"
    if slaved:  # a non-finite psi overflows here; the loop aborts it
        with np.errstate(over="ignore", invalid="ignore"):
            initial = replace(state_with_static_field(initial.psi, params,
                                                      grid), t=initial.t)
    if dt is None:
        dt = default_dt(initial, mode)
    if dt <= 0.0:
        raise ValueError("dt must be positive")

    if observer is not None:
        observer(initial)
    if T == 0.0:
        return Trajectory(initial=initial, final=initial, step_count=0,
                          kicks=0, dt=dt)

    n_steps = landing_steps(T, dt)
    requested_dt, dt = dt, T / n_steps
    # a slaved start carries no history
    if (initial.phi_prev is not None
            and abs(dt - requested_dt) > 1e-9 * requested_dt):
        warnings.warn(
            f"dt adjusted from {requested_dt:.6e} to {dt:.6e} to land on T "
            f"exactly, but the supplied scalar history phi_prev was "
            f"presumably built for the requested step; the mismatch acts as "
            f"a spurious initial field velocity. Pass a dt that divides T.",
            stacklevel=2)

    t0 = initial.t
    psi = initial.psi.astype(complex, copy=True)
    # psi and the kick change in place, so their part views are made once
    psi_re, psi_im = psi.real, psi.imag
    kicked = mode != "free"
    density = _density(psi)
    k2 = grid.k_squared + grid.transverse_k2
    weights = _TRIPLE_JUMP if slaved else (1.0,)
    # the 1/N of the unscaled inverse transform joins the drift
    drifts = {w: np.exp(-0.5j * (w * dt) / params.M * k2) / psi.size
              for w in set(weights)}
    tr = transforms(grid)
    fft, ifft = tr.fft, tr.ifft
    kick_rate = -params.M * dt
    # each substep opens with the merged kick that closes the one before it
    # (the last substep of the previous step for the first): the two halves
    # share phi, so their rates add
    substeps = [(0.5 * (prev + w) * kick_rate, drifts[w])
                for prev, w in zip(weights[-1:] + weights[:-1], weights)]
    # the weights are symmetric: the first opening and the last closing
    # half kick are the same
    half = 0.5 * weights[0] * kick_rate
    kick = np.empty(grid.shape, dtype=complex)
    kick_re, kick_im = kick.real, kick.imag
    kicks = 0
    initial_peak = float(np.max(np.abs(psi)))
    threshold = BLOWUP_FACTOR * max(initial_peak, 1e-300)

    # a run that blows up overflows before the checks in the loop trip, and
    # a non-finite start field already does in the start transforms and
    # the first half kick; the abort is the handler, so numpy is kept quiet
    # about it from there to the return, but the observer runs under the
    # caller's settings
    caller = np.geterr()
    with np.errstate(over="ignore", invalid="ignore"):
        phi, phi_prev = initial.phi, initial.phi_prev
        if slaved:
            # the density is kick-invariant, so the slaved field at a step
            # start is the one from the previous step end; the start's is
            # the first
            update = slaved_map(params, grid)
        else:
            update = _Gautschi(params, grid, dt, mode == "coupled", phi,
                               phi_prev)
        # kick holds exp(i half phi), which the next opening applies as it
        # is (phi has not moved since): the first opening's, and after that
        # the one that flushed a closing half kick
        if kicked:
            _phase_kick(phi, half, kick_re, kick_im)
        flushed = kicked

        for i in range(n_steps):
            for merged, drift in substeps:
                if kicked:
                    if not flushed:
                        _phase_kick(phi, merged, kick_re, kick_im)
                    flushed = False
                    psi *= kick
                    kicks += 1
                if not slaved:
                    # the wave update reads the density at the step start
                    phi_prev, phi = phi, update(density)
                fft(psi, out=psi)
                psi *= drift
                ifft(psi, out=psi, norm="forward")
                # |psi|^2 in place, through the spent kick
                np.multiply(psi_re, psi_re, out=density)
                np.multiply(psi_im, psi_im, out=kick_re)
                density += kick_re
                if slaved:
                    phi = update(density)

            # max |psi| from the density; the closing half kick psi still
            # owes leaves it as is
            peak = math.sqrt(density.max())
            if peak > threshold or not math.isfinite(peak):
                raise BlowUpError(t0 + (i + 1) * dt, peak)
            # a NaN or an infinity anywhere makes the sum non-finite, and so
            # does a sum that overflows; max and min only word the error
            if not slaved and not math.isfinite(phi.sum()):
                raise BlowUpError(t0 + (i + 1) * dt,
                                  float(max(phi.max(), -phi.min())))

            last = i == n_steps - 1
            if last or (observer is not None
                        and (i + 1) % observer_stride == 0):
                if kicked:
                    # the closing half kick of the last substep
                    _phase_kick(phi, half, kick_re, kick_im)
                    psi *= kick
                    kicks += 1
                    flushed = True
                # the loop's arrays change on: the state takes copies
                final = FieldState(
                    t=t0 + (i + 1) * dt, psi=psi.copy(), phi=phi.copy(),
                    params=params, grid=grid,
                    phi_prev=None if phi_prev is None else phi_prev.copy())
                if observer is not None:
                    with np.errstate(**caller):
                        observer(final)

    return Trajectory(initial=initial, final=final, step_count=n_steps,
                      kicks=kicks, dt=dt)


def reverse_state(state: FieldState, dt: float,
                  mode: str = "coupled") -> FieldState:
    """Turn a state around for exact retracing.

    Conjugating the matter field reverses its motion under the same
    Hamiltonian. The state holds phi(t) and phi(t - dt); with time running
    backwards the previous field is phi(t + dt), which the mode's own
    scalar update supplies (swapping the two would move the state back by
    dt). Evolving the result forward by T with the same dt and mode
    reproduces the state from T earlier, exactly up to roundoff.
    """
    _check_choice("evolution mode", mode, MODES)
    phi_prev_back = None
    # the slaved field has no history to turn around
    if state.phi_prev is not None and mode != "choquard":
        phi_prev_back = _Gautschi(
            state.params, state.grid, dt, mode == "coupled", state.phi,
            state.phi_prev)(_density(state.psi))
    return FieldState(t=state.t, psi=np.conj(state.psi), phi=state.phi,
                      params=state.params, grid=state.grid,
                      phi_prev=phi_prev_back)


def state_from_solution(spec, params: PhysicalParams, grid: Grid,
                        t0: float = 0.0, dt: float | None = None,
                        x0: float = 0.0) -> FieldState:
    """Initial data from a closed-form family member.

    When dt is given, the scalar history phi(t0 - dt) is sampled
    analytically, which starts the scalar update on the exact trajectory
    instead of a field at rest.
    """
    spec_k2 = spec.gamma**2 + spec.eps**2
    if abs(spec_k2 - grid.transverse_k2) > 1e-12:
        raise ValueError(
            "transverse wavenumbers of the soliton spec and the quasi-1D "
            f"grid disagree: spec carries {spec_k2:.6g}, grid "
            f"{grid.transverse_k2:.6g}")
    state = sample_solution(spec, params, grid, t=t0, x0=x0)
    if dt is not None:
        state = replace(state, phi_prev=sample_solution(
            spec, params, grid, t=t0 - dt, x0=x0).phi)
    return state


def state_with_static_field(psi: np.ndarray, params: PhysicalParams,
                            grid: Grid) -> FieldState:
    """Initial data at t = 0 with the scalar field slaved to the density
    (slaved_map), at rest (phi_prev None)."""
    psi = np.asarray(psi, dtype=complex)
    phi = slaved_map(params, grid)(_density(psi))
    return FieldState(t=0.0, psi=psi, phi=phi, params=params, grid=grid)


def gaussian_packet(grid: Grid, params: PhysicalParams, sigma0: float,
                    k0: float = 0.0) -> FieldState:
    """Unit-norm Gaussian packet whose density has standard deviation sigma0.

    psi = N exp(-x^2 / 4 sigma0^2) exp(i k0 x), phi = 0 at rest, at t = 0.
    Intended for free-mode spreading runs; in coupled mode it simply starts
    the scalar field from rest at zero, and a choquard run under the slaved
    field (evolve). sigma0 must be at least one lattice spacing: a narrower
    packet is not resolved, and its measured width is 0.
    |k0| <= pi/dx - pi/sigma0 keeps the spectrum out to |k - k0| = pi/sigma0
    in the lattice band; past it the lattice samples an alias.
    """
    if sigma0 <= 0.0:
        raise ValueError("sigma0 must be positive")
    if sigma0 < grid.spacing:
        raise ValueError(f"packet width {sigma0:g} is below the lattice "
                         f"spacing {grid.spacing:g}; the lattice cannot "
                         f"resolve it")
    if grid.length < 12.0 * sigma0:
        raise ValueError(f"domain {grid.length:g} too short for a packet of "
                         f"width {sigma0:g}; need >= {12.0 * sigma0:g}")
    band = math.pi / grid.spacing - math.pi / sigma0
    if not abs(k0) <= band:
        raise ValueError(f"k0 = {k0:g} is outside the lattice band: a packet "
                         f"of width {sigma0:g} needs |k0| <= pi/dx - "
                         f"pi/sigma0 = {band:g} (pi/dx = "
                         f"{math.pi / grid.spacing:g})")
    x = grid.axis
    psi = np.exp(-x * x / (4.0 * sigma0**2)) * np.exp(1j * k0 * x)
    psi /= math.sqrt(float(np.sum(np.abs(psi) ** 2)) * grid.spacing)
    return FieldState(t=0.0, psi=psi, phi=np.zeros(grid.shape),
                      params=params, grid=grid)


def perturb(state: FieldState, kind: str, strength: float,
            seed: int | None = None) -> FieldState:
    """Perturb the matter field and renormalize to the original norm.

    amplitude_noise  psi (1 + strength eta), eta ~ N(0, 1) per node
    phase_noise      psi exp(i strength eta)
    width_rescale    envelope stretched about the domain center by the
                     factor 1 + strength (band-limited resampling, _stretch)

    eta comes from the stdlib random.Random(seed), node by node.
    strength = 0 returns the state unchanged for every kind. The
    scalar field and its history are left alone.
    """
    _check_choice("perturbation kind", kind, PERTURBATION_KINDS)
    if strength == 0.0:
        return state
    psi = state.psi
    if kind != "width_rescale":
        rng = random.Random(seed)
        eta = np.array([rng.gauss(0.0, 1.0) for _ in range(psi.size)])
    if kind == "amplitude_noise":
        psi = psi * (1.0 + strength * eta)
    elif kind == "phase_noise":
        psi = psi * np.exp(1j * strength * eta)
    else:
        factor = 1.0 + strength
        if factor <= 0.0:
            raise ValueError("width_rescale strength must exceed -1")
        psi = _stretch(psi, factor)
    old = math.sqrt(float(np.sum(np.abs(state.psi) ** 2)))
    new = math.sqrt(float(np.sum(np.abs(psi) ** 2)))
    if new == 0.0:
        raise ValueError("perturbation annihilated the field")
    psi = psi * (old / new)
    return FieldState(t=state.t, psi=psi, phi=state.phi, params=state.params,
                      grid=state.grid, phi_prev=state.phi_prev)


def _stretch(psi: np.ndarray, factor: float) -> np.ndarray:
    """psi at the fractional indices c + (j - c)/factor, c = n/2, from its
    band-limited trigonometric interpolant (exact for a field that the
    lattice resolves).

    With the node offset j - c and the wavenumber index kappa both in
    [-n/2, n/2), the values are sum_kappa g_kappa exp(2 pi i a kappa j),
    a = 1/(n factor), a scaled DFT of the centred spectrum g. Bluestein's
    2 kappa j = kappa^2 + j^2 - (j - kappa)^2 turns it into a chirp
    convolution, done by FFTs of length 2n.
    """
    n = psi.size
    j = np.arange(n) - n // 2
    t = np.arange(2 * n) - n  # the lags j - kappa, in ifftshift order below

    def chirp(u: np.ndarray) -> np.ndarray:
        return np.exp((1j * np.pi / (n * factor)) * (u * u))

    # the spectrum by kappa; (-1)^kappa moves its origin to the centre node
    g = np.fft.fftshift(np.fft.fft(psi))
    g *= (-1.0) ** j * chirp(j) / n
    lags = np.fft.fft(np.fft.ifftshift(np.conj(chirp(t))))
    return np.fft.ifft(np.fft.fft(g, 2 * n) * lags)[:n] * chirp(j)
