"""Shared physical constants, soliton family descriptors, grids, and field containers.

Everything downstream (closed-form samplers, residual audits, time stepping,
diagnostics) consumes the types defined here. All types are immutable after
construction and safe to share across workers.

Units are natural (hbar = c = 1); every quantity is a dimensionless multiple
of the chosen mass scale.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

__all__ = [
    "Family",
    "PhysicalParams",
    "SolitonSpec",
    "Grid",
    "FieldState",
    "ConstraintCheck",
    "make_grid",
    "require_valid",
    "scalar_source",
    "validate_params",
]


class Family(enum.Enum):
    """The four closed-form soliton families.

    THREED_A / THREED_B live in three dimensions but depend on (x, t) only,
    with exact plane-wave factors in y and z; they are usually handled
    quasi-1D. ONED_A / ONED_B are genuinely one-dimensional.
    """

    THREED_A = "3d_a"
    THREED_B = "3d_b"
    ONED_A = "1d_a"
    ONED_B = "1d_b"


PHI_PROFILES = ("sech", "sech_squared")


@dataclass(frozen=True)
class PhysicalParams:
    """Model constants: particle mass M, scalar mass m, vacuum scale v.

    All three must be positive and finite. The matter field obeys
    i dpsi/dt + (1/2M) Lap psi - M phi psi = 0 and the scalar field
    (Lap - d2/dt2) phi - m^2 phi = (2M/v^2) |psi|^2.
    """

    M: float
    m: float
    v: float

    def __post_init__(self) -> None:
        for name in ("M", "m", "v"):
            val = getattr(self, name)
            if not (math.isfinite(val) and val > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {val!r}")

    @property
    def mv(self) -> float:
        """The combination m*v that sets the 1D family scales."""
        return self.m * self.v


def scalar_source(density: np.ndarray, params: PhysicalParams) -> np.ndarray:
    """Source term (2M/v^2) |psi|^2 of the scalar equation, from |psi|^2."""
    return 2.0 * params.M / params.v**2 * density


# the fields beyond family that each family takes
_FAMILY_FIELDS = {
    Family.THREED_A: ("alpha", "omega", "gamma", "eps"),
    Family.THREED_B: ("mu", "gamma", "eps"),
    Family.ONED_A: ("phi_profile",),
    Family.ONED_B: (),
}


@dataclass(frozen=True)
class SolitonSpec:
    """Descriptor of one member of a soliton family: its given parameters.

    Which fields a family takes:

    - THREED_A: exactly one of alpha (inverse width, > 0) and omega
      (frequency), and gamma, eps; family_coefficients derives the other
      one of alpha, omega from alpha^2 = 2 M omega + M^2 + gamma^2 + eps^2.
    - THREED_B: mu (longitudinal momentum, |mu| < M), gamma, eps; needs
      m != M.
    - ONED_A: phi_profile selects the scalar profile; "sech" is the
      printed first-power form, "sech_squared" the corrected one. Both are
      first class so the residual audit can present them side by side.
    - ONED_B: nothing; the member, with its envelope velocity
      sqrt(1 - (9/4)(m^3 v^2 / M^3)^2), is fixed by (M, m, v), real for
      (3/2) m^3 v^2 <= M^3.

    A field the family does not take, left at anything but its default,
    is a ValueError naming it. Constraints that involve the mass scale
    (the inequalities above) are written once, in validate_params, not
    here; the spec_* factories in solutions.py enforce them.
    """

    family: Family
    alpha: float | None = None
    omega: float | None = None
    gamma: float = 0.0
    eps: float = 0.0
    mu: float | None = None
    phi_profile: str = "sech"

    def __post_init__(self) -> None:
        if self.phi_profile not in PHI_PROFILES:
            raise ValueError(
                f"phi_profile must be one of {PHI_PROFILES}, got {self.phi_profile!r}")
        fam = self.family.value
        for f in fields(self)[1:]:
            value = getattr(self, f.name)
            if f.name not in _FAMILY_FIELDS[self.family] and value != f.default:
                raise ValueError(f"family {fam} takes no {f.name}, got {value!r}")
        if self.family is Family.THREED_A \
                and (self.alpha is None) == (self.omega is None):
            raise ValueError(f"family {fam} takes exactly one of alpha or omega")
        if self.family is Family.THREED_B and self.mu is None:
            raise ValueError(f"family {fam} needs mu")


@dataclass(frozen=True)
class Grid:
    """Uniform periodic lattice, 1D or 3D (cubic), coordinates centered on 0.

    transverse_mode optionally carries a (gamma, eps) pair for quasi-1D runs
    of the 3D families: the y, z plane-wave dependence is then exact and
    enters the matter kinetic term as a constant gamma^2 + eps^2 offset.
    The scalar field has no transverse dependence in that mode.
    """

    dim: int
    n: int
    length: float
    transverse_mode: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if self.dim not in (1, 3):
            raise ValueError(f"dim must be 1 or 3, got {self.dim}")
        if self.n < 16 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"n must be a power of two >= 16, got {self.n}")
        if not (math.isfinite(self.length) and self.length > 0.0):
            raise ValueError(f"length must be positive, got {self.length!r}")
        if self.transverse_mode is not None and self.dim != 1:
            raise ValueError("transverse_mode only applies to 1D (quasi-1D) grids")

    @property
    def spacing(self) -> float:
        return self.length / self.n

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.dim

    @cached_property
    def axis(self) -> np.ndarray:
        """Per-axis coordinates, identical on every axis: [-L/2, L/2)."""
        return np.arange(self.n) * self.spacing - 0.5 * self.length

    @cached_property
    def circular_phase(self) -> np.ndarray:
        """exp(2 pi i x / L) on the axis: the circular-mean weights; read-only."""
        phase = np.exp(2j * np.pi * self.axis / self.length)
        phase.flags.writeable = False
        return phase

    @cached_property
    def coords(self) -> tuple[np.ndarray, ...]:
        """Broadcastable coordinate arrays, one per axis."""
        if self.dim == 1:
            return (self.axis,)
        x = self.axis
        return (x[:, None, None], x[None, :, None], x[None, None, :])

    @cached_property
    def wavenumbers(self) -> tuple[np.ndarray, ...]:
        """Per-axis periodic wavenumbers 2*pi*fftfreq, broadcastable."""
        k = 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.spacing)
        if self.dim == 1:
            return (k,)
        return (k[:, None, None], k[None, :, None], k[None, None, :])

    @cached_property
    def k_squared(self) -> np.ndarray:
        """Lattice |k|^2, the spectral multiplier of -Laplacian; read-only."""
        out = np.zeros(self.shape)
        for ka in self.wavenumbers:
            out = out + ka**2
        out.flags.writeable = False
        return out

    @cached_property
    def rfft_k_squared(self) -> np.ndarray:
        """|k|^2 on the rfft half spectrum: a read-only view of k_squared.

        The last axis keeps the modes 0 .. n/2; fftfreq's -n/2 at index n/2
        squares to rfftfreq's +n/2, so the view equals the table built from
        rfftfreq bitwise.
        """
        return self.k_squared[..., : self.n // 2 + 1]

    @property
    def transverse_k2(self) -> float:
        """gamma^2 + eps^2 carried analytically in quasi-1D mode (else 0)."""
        if self.transverse_mode is None:
            return 0.0
        g, e = self.transverse_mode
        return g * g + e * e

    @property
    def volume_element(self) -> float:
        return self.spacing**self.dim


def make_grid(dim: int, n: int, length: float,
              transverse_mode: tuple[float, float] | None = None) -> Grid:
    """Build a periodic lattice; n must be a power of two >= 16, dim 1 or 3."""
    return Grid(dim=dim, n=n, length=float(length),
                transverse_mode=transverse_mode)


@dataclass(frozen=True)
class FieldState:
    """Matter field psi, scalar field phi, and the previous-step scalar.

    phi_prev holds phi at t - dt and is what the two-step Gautschi update
    of the scalar wave equation consumes; None means a field at rest (zero
    time derivative at t), from which the update builds its own first
    history. The free mode still evolves phi, by the sourceless wave
    equation, and the slaved (choquard) mode never reads phi_prev.
    """

    t: float
    psi: np.ndarray
    phi: np.ndarray
    params: PhysicalParams
    grid: Grid
    phi_prev: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.psi.shape != self.grid.shape:
            raise ValueError(
                f"psi shape {self.psi.shape} does not match grid {self.grid.shape}")
        if self.phi.shape != self.psi.shape:
            raise ValueError(
                f"phi shape {self.phi.shape} does not match psi {self.psi.shape}")
        if np.iscomplexobj(self.phi):
            raise ValueError("phi must be real-valued")
        if self.phi_prev is not None:
            if self.phi_prev.shape != self.phi.shape:
                raise ValueError("phi_prev shape does not match phi")
            if np.iscomplexobj(self.phi_prev):
                raise ValueError("phi_prev must be real-valued")

    def norm(self) -> float:
        """Lattice quadrature of |psi|^2."""
        return float(np.sum(np.abs(self.psi) ** 2) * self.grid.volume_element)


@dataclass(frozen=True)
class ConstraintCheck:
    """One checked constraint: name, outcome, and the violating margin.

    margin is positive slack when the constraint passes and the (negative)
    overshoot when it fails.
    """

    name: str
    passed: bool
    margin: float
    detail: str = ""


def validate_params(params: PhysicalParams,
                    spec: SolitonSpec) -> tuple[ConstraintCheck, ...]:
    """Every inequality tying params to a family member, with margins.

    The one place each family inequality is written; the spec_* factories
    enforce it through require_valid. Never raises.
    """
    checks: list[ConstraintCheck] = []
    M, m, v = params.M, params.m, params.v

    fam = spec.family
    if fam is Family.THREED_A:
        if spec.alpha is not None:
            checks.append(ConstraintCheck(
                name="alpha_positive", passed=spec.alpha > 0.0,
                margin=spec.alpha,
                detail="inverse width alpha must be positive"))
        else:
            radicand = 2.0 * M * spec.omega + M**2 + spec.gamma**2 + spec.eps**2
            checks.append(ConstraintCheck(
                name="radicand_positive", passed=radicand > 0.0, margin=radicand,
                detail="2 M omega + M^2 + gamma^2 + eps^2 must be positive"))
    elif fam is Family.THREED_B:
        checks.append(ConstraintCheck(
            name="mass_nondegenerate", passed=m != M, margin=abs(M - m),
            detail="m != M (the scalar amplitude -(3/4) m^2/(M^2 - m^2) "
                   "is singular at m = M)"))
        checks.append(ConstraintCheck(
            name="momentum_bound", passed=abs(spec.mu) < M,
            margin=M - abs(spec.mu),
            detail="|mu| < M (envelope width factor sqrt(1 - mu^2/M^2) "
                   "real and nonzero)"))
    elif fam is Family.ONED_B:
        bound = M**3 - 1.5 * m**3 * v**2
        checks.append(ConstraintCheck(
            name="velocity_real", passed=bound >= 0.0, margin=bound,
            detail="(3/2) m^3 v^2 <= M^3 required for a real envelope velocity"))
    return tuple(checks)


def weak_field_check(depth: float, M: float) -> ConstraintCheck:
    """The weak-field advisory on a field depth max|phi|: under M."""
    return ConstraintCheck(
        name="nonrelativistic_validity", passed=depth < M, margin=M - depth,
        detail=f"max|phi| = {depth:.6g} vs M = {M:.6g}; the weak-field "
               "treatment assumes |phi| < M")


def require_valid(params: PhysicalParams, spec: SolitonSpec) -> SolitonSpec:
    """spec, if it passes every constraint of validate_params; else a
    ValueError naming each failed one, with its detail and margin."""
    bad = [f"{c.name}: {c.detail} (margin {c.margin:.3g})"
           for c in validate_params(params, spec) if not c.passed]
    if bad:
        raise ValueError(f"parameters violate {spec.family.value} "
                         "constraints: " + "; ".join(bad))
    return spec
