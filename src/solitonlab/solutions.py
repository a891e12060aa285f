"""Closed-form soliton families: samplers, dispersion relations, velocities.

Every family is a traveling sech-power envelope with a plane-wave phase:

    psi(x, t) = A sech^p(k (x - x0 - V t)) exp(i (Omega t + K x [+ gamma y + eps z]))
    phi(x, t) = C sech^pp(k (x - x0 - V t))

Samples live on a 1D lattice: the 3D families' y, z plane wave is exact
and carried quasi-1D by the grid's transverse_mode, not sampled.
family_coefficients is the single source of truth for (A, k, p, V, Omega, K,
C, pp); everything else (sampling, norms, widths, localization lengths)
derives from it. Samplers periodize by summing the three lattice images
nearest the envelope center, each with its own carrier phase, so the
result is exactly periodic; the leftover wrap defect is below 1e-12 once
the domain-length guard holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (Family, FieldState, Grid, PhysicalParams, SolitonSpec,
                    require_valid)

__all__ = [
    "FamilyCoefficients",
    "family_coefficients",
    "spec_3d_a",
    "spec_3d_b",
    "spec_1d_a",
    "spec_1d_b",
    "alpha_from_dispersion_3d_a",
    "soliton_velocity_1d_b",
    "phase_velocity",
    "localization_length",
    "matched_length",
    "family_velocity",
    "sample_solution",
    "closed_form_norm",
    "closed_form_width",
    "MIN_DOMAIN_WIDTHS",
]

# Envelope tails fall like e^(-k L/2) (sech) or e^(-k L) (sech^2) at the wrap
# seam; 30 envelope widths puts even the slowest case below 3e-7 pointwise and
# the image-summed sampler's defect below 1e-12.
MIN_DOMAIN_WIDTHS = 30.0


@dataclass(frozen=True)
class FamilyCoefficients:
    """Scalars that fully determine one closed-form family member."""

    psi_amplitude: float
    envelope_k: float       # inverse width: coefficient inside sech(...)
    envelope_power: int     # sech power of the matter envelope
    velocity: float         # envelope velocity V
    Omega: float            # temporal phase frequency
    K_carrier: float        # longitudinal carrier wavenumber
    phi_amplitude: float    # signed scalar-field amplitude (<= 0)
    phi_power: int          # sech power of the scalar profile


def _sech(u: np.ndarray) -> np.ndarray:
    """Overflow-safe sech; np.cosh overflows near |u| ~ 710."""
    a = np.abs(u)
    e = np.exp(-a)
    return 2.0 * e / (1.0 + e * e)


def alpha_from_dispersion_3d_a(M: float, omega: float, gamma: float = 0.0,
                               eps: float = 0.0) -> float:
    """Positive root of alpha^2 = 2 M omega + M^2 + gamma^2 + eps^2; the
    radicand is positive on every valid member."""
    return math.sqrt(2.0 * M * omega + M * M + gamma * gamma + eps * eps)


def soliton_velocity_1d_b(M: float, m: float, v: float) -> float:
    """Envelope velocity sqrt(1 - (9/4)(m^3 v^2 / M^3)^2), in [0, 1).

    Defined on valid members, (3/2) m^3 v^2 <= M^3. A saturated bound
    (radicand zero to rounding) snaps to exactly 0.
    """
    ratio = m**3 * v**2 / M**3
    radicand = 1.0 - 2.25 * ratio * ratio
    if abs(radicand) < 1e-12:
        return 0.0
    return math.sqrt(radicand)


def spec_3d_a(params: PhysicalParams, alpha: float | None = None,
              omega: float | None = None, gamma: float = 0.0,
              eps: float = 0.0) -> SolitonSpec:
    """Family 3d_a member, given exactly one of alpha and omega; raises
    ValueError unless it passes validate_params."""
    return require_valid(params, SolitonSpec(
        family=Family.THREED_A, alpha=alpha, omega=omega, gamma=gamma,
        eps=eps))


def spec_3d_b(params: PhysicalParams, mu: float, gamma: float = 0.0,
              eps: float = 0.0) -> SolitonSpec:
    """Family 3d_b member with longitudinal momentum mu; raises ValueError
    unless it passes validate_params (|mu| < M, m != M)."""
    return require_valid(params, SolitonSpec(
        family=Family.THREED_B, mu=mu, gamma=gamma, eps=eps))


def spec_1d_a(params: PhysicalParams, phi_profile: str = "sech") -> SolitonSpec:
    return SolitonSpec(family=Family.ONED_A, phi_profile=phi_profile)


def spec_1d_b(params: PhysicalParams) -> SolitonSpec:
    """Family 1d_b member; raises ValueError unless (3/2) m^3 v^2 <= M^3
    (validate_params)."""
    return require_valid(params, SolitonSpec(family=Family.ONED_B))


def family_coefficients(spec: SolitonSpec,
                        params: PhysicalParams) -> FamilyCoefficients:
    """Evaluate the family's closed-form scalars for a member that passes
    validate_params, as a spec_* factory's output does; its inequalities
    are not checked again. The fields a spec does not hold are derived
    here: 3d_a's other one of alpha and omega, and 1d_b's velocity V_s."""
    M, m, v = params.M, params.m, params.v
    mv = params.mv
    fam = spec.family
    if fam is Family.THREED_A:
        alpha = spec.alpha
        omega = spec.omega
        if alpha is None:
            alpha = alpha_from_dispersion_3d_a(M, omega, spec.gamma, spec.eps)
        else:
            omega = (alpha * alpha - M * M - spec.gamma * spec.gamma
                     - spec.eps * spec.eps) / (2.0 * M)
        return FamilyCoefficients(
            psi_amplitude=mv * alpha / (math.sqrt(2.0) * M**1.5),
            envelope_k=alpha, envelope_power=1, velocity=1.0,
            Omega=omega, K_carrier=M,
            phi_amplitude=-(alpha * alpha) / (M * M), phi_power=2)
    if fam is Family.THREED_B:
        mu = spec.mu
        lam2 = 1.0 - (mu / M) ** 2
        lam = math.sqrt(lam2)
        alpha2 = mu * mu + spec.gamma**2 + spec.eps**2
        return FamilyCoefficients(
            psi_amplitude=3.0 * m * m * v / (4.0 * M**1.5 * lam),
            envelope_k=m / (2.0 * lam), envelope_power=2, velocity=mu / M,
            Omega=(2.0 / M) * (m * m / (4.0 * lam2) - alpha2 / 4.0),
            K_carrier=mu,
            phi_amplitude=-0.75 * m * m / (M * M - m * m), phi_power=2)
    if fam is Family.ONED_A:
        return FamilyCoefficients(
            psi_amplitude=M**1.5 / (math.sqrt(2.0) * mv),
            envelope_k=M**3 / mv**2, envelope_power=1, velocity=1.0,
            Omega=M * (M**4 - mv**4) / (2.0 * mv**4), K_carrier=M,
            phi_amplitude=-(M**4) / mv**4,
            phi_power=1 if spec.phi_profile == "sech" else 2)
    if fam is Family.ONED_B:
        V_s = soliton_velocity_1d_b(M, m, v)
        return FamilyCoefficients(
            psi_amplitude=M**1.5 / (2.0 * mv),
            envelope_k=M**3 / (3.0 * mv**2), envelope_power=2, velocity=V_s,
            Omega=2.0 * M**5 / (9.0 * mv**4) - 0.5 * M * V_s * V_s,
            K_carrier=M * V_s,
            phi_amplitude=-(M / mv) ** 4 / 3.0, phi_power=2)
    raise ValueError(f"unknown family {fam!r}")


def family_velocity(spec: SolitonSpec, params: PhysicalParams) -> float:
    """Envelope velocity: 1 (families a), mu/M (3d_b), V_s (1d_b)."""
    return family_coefficients(spec, params).velocity


def phase_velocity(spec: SolitonSpec, params: PhysicalParams) -> float:
    """Speed of constant-phase surfaces, defined for the 1D families.

    1d_a: (-M^4 + (mv)^4) / (2 (mv)^4).
    1d_b: -(2/9)(M/mv)^4 / V_s + V_s/2; undefined at V_s = 0.
    For every valid 1d_b member the envelope outruns the phase, V_s >= V_p.
    """
    M, mv = params.M, params.mv
    if spec.family is Family.ONED_A:
        return (-(M**4) + mv**4) / (2.0 * mv**4)
    if spec.family is Family.ONED_B:
        V_s = family_velocity(spec, params)
        if V_s == 0.0:
            raise ValueError(
                "phase velocity undefined at V_s = 0 (formula contains 1/V_s)")
        return -(2.0 / 9.0) * (M / mv) ** 4 / V_s + 0.5 * V_s
    raise ValueError("phase velocity is defined for the 1D families only")


def localization_length(spec: SolitonSpec, params: PhysicalParams) -> float:
    """Characteristic envelope width, the inverse sech-argument coefficient.

    1/alpha (3d_a); (2/m) sqrt(1 - mu^2/M^2) (3d_b); (mv)^2/M^3 (1d_a);
    3 (mv)^2/M^3 (1d_b).
    """
    return 1.0 / family_coefficients(spec, params).envelope_k


def matched_length(spec: SolitonSpec, params: PhysicalParams) -> float:
    """Box length of 40 envelope decay lengths 1/k, the matched lattice.

    The residual audit, the lattice norms and the soliton runs size their
    box by it unless given a length; it clears MIN_DOMAIN_WIDTHS.
    """
    return 40.0 / family_coefficients(spec, params).envelope_k


def sample_solution(spec: SolitonSpec, params: PhysicalParams, grid: Grid,
                    t: float, x0: float = 0.0) -> FieldState:
    """The member's fields on the lattice at time t, exactly periodic, as
    a state with no scalar history (phi_prev None). |psi| is even about
    the moving center x0 + V t and phi <= 0 everywhere.

    Sums the three images of the traveling envelope nearest its center
    c = x0 + V t, j = r - 1, r, r + 1 with r = round(c / L), each with its
    carrier phase evaluated at x + jL, which makes the sum periodic by
    construction; a center in the box has r = 0. The transverse plane-wave
    factor of the 3D families is carried analytically by whoever consumes
    the sample (Grid.transverse_mode).
    """
    co = family_coefficients(spec, params)
    L = grid.length
    min_len = MIN_DOMAIN_WIDTHS / co.envelope_k
    if L < min_len:
        raise ValueError(
            f"domain too short: length {L:.6g} < {MIN_DOMAIN_WIDTHS:.0f} envelope "
            f"widths = {min_len:.6g}; wrap-around would exceed tolerance")
    x = grid.axis
    center = x0 + co.velocity * t
    r = round(center / L)
    phi = np.zeros(x.shape)
    images = np.zeros(x.shape, dtype=complex)
    for j in (r - 1, r, r + 1):
        s = _sech(co.envelope_k * (x + j * L - center))
        # the image's carrier exp(iK(x + jL)) is exp(iKx) times a constant
        shift = co.K_carrier * j * L
        images += s**co.envelope_power * complex(math.cos(shift),
                                                 math.sin(shift))
        phi += s**co.phi_power
    carrier_im = images * np.exp(1j * co.K_carrier * x)
    psi = co.psi_amplitude * np.exp(1j * co.Omega * t) * carrier_im
    phi = co.phi_amplitude * phi
    return FieldState(t=t, psi=psi, phi=phi, params=params, grid=grid)


def closed_form_norm(spec: SolitonSpec, params: PhysicalParams) -> float:
    """Exact x-axis integral of |psi|^2.

    Uses int sech^2(k u) du = 2/k and int sech^4(k u) du = 4/(3k). Both 1D
    families normalize to exactly 1; 3d_a gives m^2 v^2 alpha / M^3 (unity
    iff alpha = M^3/(mv)^2); 3d_b gives (3/2) m^3 v^2 / (M^3 lambda).
    3D members with transverse wavenumbers are not x-normalizable as a 1D
    integral and are rejected.
    """
    if spec.family in (Family.THREED_A, Family.THREED_B) \
            and (spec.gamma != 0.0 or spec.eps != 0.0):
        raise ValueError(
            "x-axis normalization applies to transverse-free members only "
            "(gamma = eps = 0)")
    co = family_coefficients(spec, params)
    if co.envelope_power == 1:
        return co.psi_amplitude**2 * 2.0 / co.envelope_k
    return co.psi_amplitude**2 * 4.0 / (3.0 * co.envelope_k)


def closed_form_width(spec: SolitonSpec, params: PhysicalParams) -> float:
    """Exact rms width of |psi|^2 about its center.

    Variance of a sech^2 density of argument k is pi^2/(12 k^2); of a sech^4
    density, (pi^2 - 6)/(12 k^2).
    """
    co = family_coefficients(spec, params)
    if co.envelope_power == 1:
        var = math.pi**2 / 12.0
    else:
        var = (math.pi**2 - 6.0) / 12.0
    return math.sqrt(var) / co.envelope_k
