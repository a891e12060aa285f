"""Observables of evolving field states, on their 1D lattice.

All localization measures respect the periodic topology: the centroid is a
circular mean, widths are second moments about it with minimum-image
distances, and the peak position refines the density argmax with a three
point parabola. Centroid and peak are reported on an unwrapped axis when the
previous record is supplied, so trajectories that cross the seam stay
monotone and can be fit for a velocity directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .model import FieldState, Grid


@dataclass(frozen=True)
class ObservableRecord:
    """One row of the observable time series."""

    t: float
    norm: float
    centroid: float
    width: float
    peak_pos: float
    phi_min: float
    valid: bool

    @classmethod
    def field_names(cls) -> tuple[str, ...]:
        return tuple(f.name for f in fields(cls))


def _unwrap(value: float, reference: float, L: float) -> float:
    """Shift value by whole periods to land nearest the reference."""
    return value + L * round((reference - value) / L)


def _parabolic_peak(density: np.ndarray, grid: Grid) -> float:
    j = int(density.argmax())
    n = grid.n
    dm, d0, dp = density[(j - 1) % n], density[j], density[(j + 1) % n]
    denom = dm - 2.0 * d0 + dp
    # flat tops fall back to the node position
    offset = 0.5 * (dm - dp) / denom if abs(denom) > 0.0 else 0.0
    offset = min(max(offset, -0.5), 0.5)
    return float(grid.axis[j] + offset * grid.spacing)


def _min_image(axis: np.ndarray, centroid: float, L: float) -> np.ndarray:
    """(axis - centroid + L/2) mod L - L/2, bitwise as np.mod gives it.

    The axis is sorted and lies in [-L/2, L/2), and the centroid in
    [-L/2, L/2], so u = axis - centroid + L/2 is sorted in [-L/2, 3L/2):
    only a head below 0 takes + L (the sum np.mod rounds too) and a tail
    at or above L takes - L (exact, as fmod is, by Sterbenz's lemma).
    """
    u = axis - centroid
    u += 0.5 * L
    head, tail = u.searchsorted((0.0, L))
    u[:head] += L
    u[tail:] -= L
    u -= 0.5 * L
    return u


def measure(state: FieldState,
            prev: ObservableRecord | None = None) -> ObservableRecord:
    """Observables of one state; prev unwraps positions across the seam."""
    grid = state.grid
    L = grid.length
    psi = state.psi
    d = psi.real * psi.real
    d += psi.imag * psi.imag
    total = float(d.sum())
    norm = total * grid.volume_element
    phi_min = float(state.phi.min())
    # max|phi|; a NaN anywhere makes both ends NaN, and the record invalid
    valid = bool(max(float(state.phi.max()), -phi_min) < state.params.M)
    if total <= 0.0:
        return ObservableRecord(t=state.t, norm=0.0, centroid=math.nan,
                                width=math.nan, peak_pos=math.nan,
                                phi_min=phi_min, valid=valid)
    angle = np.angle((d * grid.circular_phase).sum())
    centroid = angle * L / (2.0 * np.pi)
    # the squared distances, weighted by the density, in place
    dist = _min_image(grid.axis, centroid, L)
    dist *= dist
    dist *= d
    width = math.sqrt(float(dist.sum()) / total)
    peak = _parabolic_peak(d, grid)
    peak = _unwrap(peak, centroid, L)
    if prev is not None and math.isfinite(prev.centroid):
        centroid = _unwrap(centroid, prev.centroid, L)
        peak = _unwrap(peak, prev.peak_pos, L)
    return ObservableRecord(t=state.t, norm=norm, centroid=centroid,
                            width=width, peak_pos=peak, phi_min=phi_min,
                            valid=valid)


class SeriesObserver:
    """Stateful observer for evolve(): keeps records, unwraps positions."""

    def __init__(self) -> None:
        self.records: list[ObservableRecord] = []

    def __call__(self, state: FieldState) -> ObservableRecord:
        rec = measure(state, self.records[-1] if self.records else None)
        self.records.append(rec)
        return rec


@dataclass(frozen=True)
class VelocityFit:
    velocity: float
    stderr: float
    records_used: int
    displacement: float
    degenerate: bool
    reason: str = ""


def fit_velocity(records: Sequence[ObservableRecord],
                 grid: Grid) -> VelocityFit:
    """Least-squares slope of the unwrapped peak position vs time.

    Degenerate (slope not trustworthy) when fewer than 5 records are
    available or the total displacement stays under 3 grid spacings; the
    fitted numbers are still reported.

    The line is fit in closed form with numpy reductions, no LAPACK:
    slope = S_tx / S_tt and stderr = sqrt(sum r^2 / ((N - 2) S_tt)), with
    S_tx = sum (t - mean t)(x - mean x), S_tt = sum (t - mean t)^2 and r the
    residuals. That is np.polyfit(t, x, 1, cov=True)'s slope and the root
    of its covariance cov[0, 0], which it scales by the residual sum over
    N - 2 degrees of freedom; the two agree to roundoff.
    """
    t = np.array([r.t for r in records], dtype=float)
    x = np.array([r.peak_pos for r in records], dtype=float)
    keep = np.isfinite(x)
    t, x = t[keep], x[keep]
    if len(t) < 2 or np.ptp(t) == 0.0:
        return VelocityFit(math.nan, math.nan, len(t), 0.0, True,
                           "need at least two distinct times")
    disp = float(np.ptp(x))
    if len(t) == 2:
        slope = (x[1] - x[0]) / (t[1] - t[0])
        err = math.nan
    else:
        dt, dx = t - t.mean(), x - x.mean()
        s_tt = float(np.sum(dt * dt))
        slope = float(np.sum(dt * dx)) / s_tt
        resid = dx - slope * dt
        err = math.sqrt(float(np.sum(resid * resid)) / ((len(t) - 2) * s_tt))
    degenerate = False
    reason = ""
    if len(t) < 5:
        degenerate, reason = True, f"only {len(t)} records, need 5"
    elif disp < 3.0 * grid.spacing:
        degenerate = True
        reason = (f"displacement {disp:.3g} under 3 grid spacings "
                  f"({3.0 * grid.spacing:.3g})")
    return VelocityFit(float(slope), err, len(t), disp, degenerate, reason)


def free_spreading_width(sigma0: float, M: float, t: float) -> float:
    """Free Gaussian packet width sigma0 sqrt(1 + (t / 2 M sigma0^2)^2)."""
    if sigma0 <= 0.0 or M <= 0.0:
        raise ValueError("sigma0 and M must be positive")
    tau = t / (2.0 * M * sigma0 * sigma0)
    return sigma0 * math.sqrt(1.0 + tau * tau)


def spreading_ratio(soliton: Sequence[ObservableRecord],
                    free: Sequence[ObservableRecord]) -> float:
    """Relative width growth of a soliton run against a free reference.

    (w_s(T)/w_s(0)) / (w_f(T)/w_f(0)) for two series covering the same time
    span. Well below 1 means self-trapping beat dispersion.
    """
    if len(soliton) < 2 or len(free) < 2:
        raise ValueError("need at least two records per series")
    for a, b in ((soliton[0], free[0]), (soliton[-1], free[-1])):
        if abs(a.t - b.t) > 1e-9 * max(1.0, abs(a.t), abs(b.t)):
            raise ValueError(
                f"time spans disagree: soliton t = {a.t:.6g}, "
                f"free t = {b.t:.6g}")
    growth_s = soliton[-1].width / soliton[0].width
    growth_f = free[-1].width / free[0].width
    return growth_s / growth_f
