"""Residual verification of closed-form solutions.

Plugs a sampled field pair into the coupled equations

    i dpsi/dt + (1/2M) Lap psi - M phi psi = 0
    (Lap - d^2/dt^2) phi - m^2 phi - (2M/v^2) |psi|^2 = 0

with spectral space derivatives and 6th-order centered finite differences in
time, and reports max-norm residuals both raw and relative to the largest
participating term. The relative normalization groups (Lap - d^2/dt^2) phi as
a single wave-operator term: for unit-speed envelopes the two pieces cancel
analytically, and measuring them separately would let a genuinely broken
profile hide behind that cancellation.

The time step for the stencil is chosen automatically from the fastest phase
scale of the sampled family so that the h^6 truncation error lands well below
the verification tolerances and above the 1/h^2 stencil's roundoff floor,
about 1e-10 at n = 1024, which half that step would already reach. A
step-halving study from twice that step to it therefore reads the order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Grid, PhysicalParams, SolitonSpec, make_grid, \
    scalar_source
from .solutions import family_coefficients, matched_length, \
    sample_solution, spec_1d_a, spec_1d_b, spec_3d_a, spec_3d_b
from .spectral import laplacian, yukawa_invert

_D1 = np.array([-1.0 / 60, 3.0 / 20, -3.0 / 4, 0.0,
                3.0 / 4, -3.0 / 20, 1.0 / 60])
_D2 = np.array([1.0 / 90, -3.0 / 20, 3.0 / 2, -49.0 / 18,
                3.0 / 2, -3.0 / 20, 1.0 / 90])
_STENCIL_OFFSETS = np.arange(-3, 4)
# the time at which full_family_audit samples every member
AUDIT_TIME = 0.3


def _stencil(weights: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """sum_j weights[j] stack[j] over the 7 time samples, as plain weighted
    sums: np.tensordot hands this to a threaded BLAS, which took
    milliseconds per call on complex stacks of 1024 points."""
    out = weights[0] * stack[0]
    for w, sample in zip(weights[1:], stack[1:]):
        if w:
            out += w * sample
    return out


@dataclass(frozen=True)
class ResidualReport:
    """Max-norm residual of one equation on one lattice."""

    equation: str
    abs_residual: float
    rel_residual: float
    term_magnitudes: dict[str, float]
    grid_points: int
    fd_step: float


def _relative(res: np.ndarray, terms: dict[str, float]) -> tuple[float, float]:
    abs_res = float(np.max(np.abs(res)))
    scale = max(terms.values(), default=0.0)
    return abs_res, (abs_res / scale if scale > 0.0 else 0.0)


def _kinetic_and_coupling(psi: np.ndarray, phi: np.ndarray,
                          params: PhysicalParams,
                          grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """(1/2M) Lap psi, quasi-1D transverse term included, and M phi psi."""
    lap = laplacian(psi, grid) - grid.transverse_k2 * psi
    return lap / (2.0 * params.M), params.M * phi * psi


def matter_residual_from_stack(psi_stack: np.ndarray, phi: np.ndarray,
                               params: PhysicalParams, grid: Grid,
                               h: float) -> ResidualReport:
    """Matter-equation residual from 7 time samples of psi around the center.

    psi_stack holds psi(t + j h) for j = -3..3 along axis 0; phi is evaluated
    at the center time. Useful directly for fields that are not family
    members (plane waves, perturbed data).
    """
    if psi_stack.shape != (7, *grid.shape):
        raise ValueError(f"psi_stack must have shape (7, *grid.shape), "
                         f"got {psi_stack.shape}")
    if h <= 0.0:
        raise ValueError("stencil step h must be positive")
    psi = psi_stack[3]
    dpsi_dt = _stencil(_D1, psi_stack) / h
    kinetic, coupling = _kinetic_and_coupling(psi, phi, params, grid)
    res = 1j * dpsi_dt + kinetic - coupling
    terms = {
        "time": float(np.max(np.abs(dpsi_dt))),
        "kinetic": float(np.max(np.abs(kinetic))),
        "coupling": float(np.max(np.abs(coupling))),
    }
    abs_res, rel = _relative(res, terms)
    return ResidualReport("matter", abs_res, rel, terms, grid.n, h)


def scalar_residual_from_stack(phi_stack: np.ndarray, psi: np.ndarray,
                               params: PhysicalParams, grid: Grid,
                               h: float) -> ResidualReport:
    """Scalar-equation residual from 7 time samples of phi around the center.

    The wave operator (Lap - d^2/dt^2) phi is reported as one grouped term;
    see the module docstring for why.
    """
    if phi_stack.shape != (7, *grid.shape):
        raise ValueError(f"phi_stack must have shape (7, *grid.shape), "
                         f"got {phi_stack.shape}")
    if h <= 0.0:
        raise ValueError("stencil step h must be positive")
    phi = phi_stack[3]
    phi_tt = _stencil(_D2, phi_stack) / (h * h)
    wave = laplacian(phi, grid) - phi_tt
    mass = params.m**2 * phi
    source = scalar_source(np.abs(psi) ** 2, params)
    res = wave - mass - source
    terms = {
        "wave_operator": float(np.max(np.abs(wave))),
        "mass": float(np.max(np.abs(mass))),
        "source": float(np.max(np.abs(source))),
    }
    abs_res, rel = _relative(res, terms)
    return ResidualReport("scalar", abs_res, rel, terms, grid.n, h)


def auto_time_step(spec: SolitonSpec, params: PhysicalParams) -> float:
    """Stencil step targeting truncation error around 1e-7 .. 1e-9.

    h = 0.15 / w_eff with w_eff the fastest phase rate of the family:
    carrier rotation plus carrier advection plus envelope advection. The h^6
    law then puts truncation three or more orders below the 1e-6 acceptance
    gates. At h/2 the scalar residual would sit near the 1/h^2 stencil's
    roundoff floor, so h is the fine step of the audit (see the module
    docstring).
    """
    c = family_coefficients(spec, params)
    w_eff = (abs(c.Omega) + abs(c.K_carrier * c.velocity)
             + 5.0 * c.envelope_k * abs(c.velocity))
    if w_eff == 0.0:
        return 0.15
    return max(0.15 / w_eff, 1e-12)


def residual_pair(spec: SolitonSpec, params: PhysicalParams, grid: Grid,
                  t: float = 0.0, x0: float = 0.0,
                  h: float | None = None) -> tuple[ResidualReport,
                                                   ResidualReport]:
    """Both equation residuals from one shared set of time samples."""
    if h is None:
        h = auto_time_step(spec, params)
    psi_stack = np.empty((7, *grid.shape), dtype=complex)
    phi_stack = np.empty((7, *grid.shape))
    for i, j in enumerate(_STENCIL_OFFSETS):
        s = sample_solution(spec, params, grid, t=t + j * h, x0=x0)
        psi_stack[i] = s.psi
        phi_stack[i] = s.phi
    return (matter_residual_from_stack(psi_stack, phi_stack[3], params,
                                       grid, h),
            scalar_residual_from_stack(phi_stack, psi_stack[3], params,
                                       grid, h))


def choquard_residual(psi: np.ndarray, rotation_frequency: float,
                      params: PhysicalParams, grid: Grid) -> ResidualReport:
    """Residual of the static-reduction (Choquard) equation.

    For psi(t) = psi e^(i Omega t) with the scalar field slaved to the
    instantaneous density, the equation reads

        -Omega psi + (1/2M) Lap psi - M phi[psi] psi = 0,
        phi[psi] = (Lap - m^2)^(-1) (2M/v^2) |psi|^2.

    No time stencil is involved; the rotation term is exact.
    """
    if psi.shape != grid.shape:
        raise ValueError(f"psi shape {psi.shape} does not match grid "
                         f"{grid.shape}")
    if not np.any(psi):
        raise ValueError("choquard residual of an identically zero field "
                         "is undefined")
    phi = yukawa_invert(scalar_source(np.abs(psi) ** 2, params),
                        m=params.m, grid=grid)
    kinetic, coupling = _kinetic_and_coupling(psi, phi, params, grid)
    rotation = rotation_frequency * psi
    res = -rotation + kinetic - coupling
    terms = {
        "rotation": float(np.max(np.abs(rotation))),
        "kinetic": float(np.max(np.abs(kinetic))),
        "coupling": float(np.max(np.abs(coupling))),
    }
    abs_res, rel = _relative(res, terms)
    return ResidualReport("choquard", abs_res, rel, terms, grid.n, 0.0)


@dataclass(frozen=True)
class FamilyAuditEntry:
    """One audited member: its residuals at (n, h) and, per equation, the
    decay ratio of the residuals from (n/2, 2h) to (n, h).

    For an exact family the h^6 stencil's truncation dominates both
    residuals, so each ratio reads the order: near 2^6 = 64, and above the
    2^4 = 16 the checks require. For a profile that genuinely fails an
    equation the ratio pins near 1: the defect is a property of the fields,
    not of the discretization.
    """

    label: str
    family: str
    phi_profile: str
    matter: ResidualReport
    scalar: ResidualReport
    ratios: dict[str, float]

    @property
    def exact(self) -> bool:
        return (self.matter.rel_residual < 1e-6
                and self.scalar.rel_residual < 1e-6)


def full_family_audit(params: PhysicalParams,
                      n: int) -> list[FamilyAuditEntry]:
    """Residual audit of all four families on matched quasi-1D lattices.

    The six entries come in this order: the bright-envelope member (width
    from the dispersion closure), the moving sech^2 member at its exact
    point mu = m and at a generic detuned momentum, the unit-speed member
    under the printed and the corrected scalar profile, and the subluminal
    sech^2 member. Each entry states whether the pair satisfies both
    equations at the 1e-6 relative gate, at t = AUDIT_TIME.

    The halving study runs residual_pair at (n/2, 2h) and (n, h), h from
    auto_time_step, so the reported residuals are the n-point ones at h,
    where the fine scalar residual stays clear of the stencil's roundoff
    floor; see FamilyAuditEntry for what the ratios read.
    """
    cases: list[tuple[str, SolitonSpec]] = [
        ("bright envelope, width from dispersion at omega = M",
         spec_3d_a(params, omega=params.M)),
        ("moving sech^2, matched momentum mu = m",
         spec_3d_b(params, mu=params.m)),
        ("moving sech^2, detuned momentum mu = 0.8 M",
         spec_3d_b(params, mu=0.8 * params.M)),
        ("unit-speed member, scalar profile as printed",
         spec_1d_a(params, phi_profile="sech")),
        ("unit-speed member, scalar profile corrected to sech^2",
         spec_1d_a(params, phi_profile="sech_squared")),
        ("subluminal sech^2 member",
         spec_1d_b(params)),
    ]
    out = []
    coarse_n = max(16, n // 2)
    for label, spec in cases:
        length = matched_length(spec, params)
        h = auto_time_step(spec, params)
        coarse, fine = (
            residual_pair(spec, params, make_grid(1, k, length),
                          t=AUDIT_TIME, h=step)
            for k, step in ((coarse_n, 2.0 * h), (2 * coarse_n, h)))
        ratios = {c.equation: (c.abs_residual / f.abs_residual
                               if f.abs_residual > 0.0 else np.inf)
                  for c, f in zip(coarse, fine)}
        out.append(FamilyAuditEntry(label=label, family=spec.family.value,
                                    phi_profile=spec.phi_profile,
                                    matter=fine[0], scalar=fine[1],
                                    ratios=ratios))
    return out
