"""Config-driven experiment scenarios with reports and artifacts.

Each scenario reads its inputs from a ScenarioConfig, runs the relevant
engine pieces, and fills the RunReport that run_scenario hands it with
pass/fail checks, each tied to the acceptance criterion it realizes.
A member run's inputs and initial state come from one run plan (_plan),
every evolution goes through _evolve_observed, and a setting the engine
would reject is a ConfigError before the first step. run_scenario writes the
artifacts: a JSON report, observable CSVs, initial and final field
snapshots where fields exist, and a plot script. A run that dies part-way
still flushes what it has, plus a FAILED marker naming the scenario and
the error, before the exception propagates.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import operator
import random
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .artifacts import (write_observables_csv, write_plot_script,
                        write_snapshot)
from .config import (SCHEMA, ConfigError, ScenarioConfig, coerce_number,
                     serialize)
from .diagnostics import (ObservableRecord, SeriesObserver, VelocityFit,
                          fit_velocity, free_spreading_width,
                          spreading_ratio)
from .evolution import (Trajectory, default_dt, evolve, gaussian_packet,
                        landing_steps, perturb, slaved_map,
                        state_from_solution, state_with_static_field)
from .model import (FieldState, Family, Grid, PhysicalParams, SolitonSpec,
                    make_grid, require_valid)
from .residuals import FamilyAuditEntry, full_family_audit
from .solutions import (MIN_DOMAIN_WIDTHS, closed_form_width,
                        family_velocity, localization_length, matched_length,
                        sample_solution, spec_1d_a, spec_1d_b, spec_3d_a,
                        spec_3d_b)
from .spectral import (MAX_DIRECT_POINTS, yukawa_convolve_direct,
                       yukawa_invert)

FAILED_MARKER = "FAILED"
# the most steps one evolution may plan; a longer plan is a ConfigError
MAX_STEPS = 10**7
# the most points a [grid] lattice may have (3D 128^3: 32 MiB per
# complex field); a larger grid.n ** grid.dim is a ConfigError
MAX_GRID_POINTS = 2**21


@dataclass
class CriterionCheck:
    """One pass/fail entry, tied to exactly one acceptance criterion."""

    criterion: str
    description: str
    value: float
    threshold: float
    comparison: str  # the check passes when `value comparison threshold`
    passed: bool


def _check(criterion: str, description: str, value: float,
           threshold: float, comparison: str = "<") -> CriterionCheck:
    ops = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
           ">=": operator.ge}
    value = float(value)
    # NaN compares false against anything, which is the right failure mode
    passed = bool(ops[comparison](value, threshold))
    return CriterionCheck(criterion=criterion, description=description,
                          value=value, threshold=float(threshold),
                          comparison=comparison, passed=passed)


@dataclass
class RunReport:
    """Everything a run produced, self-contained.

    The echoed config (config_echo / config_text) is complete with
    defaults, so re-running from it reproduces every number below.
    """

    scenario: str
    config_echo: dict[str, dict[str, Any]]
    config_text: str
    checks: list[CriterionCheck] = field(default_factory=list)
    findings: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    details: dict[str, Any] = field(default_factory=dict)
    step_count: int = 0
    wall_time: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def status(self) -> str:
        return "passed" if self.passed else "failed"

    def to_dict(self) -> dict[str, Any]:
        return {
            "scenario": self.scenario,
            "status": self.status,
            "checks": [asdict(c) for c in self.checks],
            "findings": list(self.findings),
            "warnings": list(self.warnings),
            "details": self.details,
            "step_count": self.step_count,
            "wall_time_seconds": self.wall_time,
            "config": self.config_echo,
            "config_text": self.config_text,
        }

    def summary_lines(self) -> list[str]:
        lines = [f"scenario {self.scenario}: {self.status} "
                 f"({self.step_count} steps, {self.wall_time:.2f} s)"]
        for c in self.checks:
            tag = "PASS" if c.passed else "FAIL"
            lines.append(f"  [{tag}] {c.criterion}: {c.description}: "
                         f"{c.value:.6g} {c.comparison} {c.threshold:g}")
        for w in self.warnings:
            lines.append(f"  warning: {w}")
        for f in self.findings:
            lines.append(f"  note: {f}")
        return lines


@dataclass
class ScenarioArtifacts:
    """Field states and observable series run_scenario should write out."""

    records: dict[str, list[ObservableRecord]] = field(default_factory=dict)
    snapshots: dict[str, FieldState] = field(default_factory=dict)


def _physical_params(config: ScenarioConfig) -> PhysicalParams:
    return PhysicalParams(**config.settings["params"])


# the config key of each SolitonSpec field _soliton_spec sets
_SPEC_KEYS = {"alpha": "soliton.alpha", "omega": "soliton.omega",
              "mu": "soliton.mu", "gamma": "soliton.gamma",
              "eps": "soliton.eps", "phi_profile": "toggles.phi_profile"}


def _soliton_spec(config: ScenarioConfig,
                  params: PhysicalParams) -> SolitonSpec:
    """The [soliton] member, the one reader of every [soliton] value and
    toggles.phi_profile for an evolving member run. 3d_a given neither
    alpha nor omega takes omega = M (its width from the dispersion
    relation), and 3d_b without soliton.mu the matched momentum mu = m of
    the exact member. A member the spec's rule or the family's constraints
    refuse is a ConfigError; a field the family does not take is named by
    its key."""
    fam = Family(config.get("soliton", "family"))
    given = {f: config.get(*key.split(".")) for f, key in _SPEC_KEYS.items()}
    if fam is Family.THREED_A and given["alpha"] is None \
            and given["omega"] is None:
        given["omega"] = params.M
    if fam is Family.THREED_B and given["mu"] is None:
        given["mu"] = params.m
    try:
        return require_valid(params, SolitonSpec(family=fam, **given))
    except ValueError as e:
        key = next((k for f, k in _SPEC_KEYS.items()
                    if f"takes no {f}," in str(e)), "[soliton]")
        raise ConfigError(f"invalid {key}: {e}") from None


def _grid_for(config: ScenarioConfig, default_length: float,
              transverse: tuple[float, float] = (0.0, 0.0)) -> Grid:
    """The [grid] lattice; a 1D one carries the quasi-1D member's transverse
    wavenumbers (gamma, eps) when they are not both zero; one of more than
    MAX_GRID_POINTS points is refused before any field is built on it."""
    length = config.get("grid", "length")
    dim = config.get("grid", "dim")
    try:
        grid = make_grid(dim, config.get("grid", "n"),
                         default_length if length is None else length,
                         transverse if dim == 1 and any(transverse) else None)
    except ValueError as e:
        # Grid's messages open with the name of the offending field
        raise ConfigError(f"invalid [grid]: grid.{e}") from None
    if grid.n**grid.dim > MAX_GRID_POINTS:
        raise ConfigError(
            f"grid.n ** grid.dim = {grid.n}^{grid.dim} lattice points is "
            f"over the limit of {MAX_GRID_POINTS} (2^21)")
    return grid


def _member_grid(config: ScenarioConfig, spec: SolitonSpec,
                 params: PhysicalParams) -> Grid:
    """The member's [grid] lattice (auto: matched), long enough to sample
    it (MIN_DOMAIN_WIDTHS envelope widths) and fine enough to resolve it
    (a spacing at most one envelope width)."""
    grid = _grid_for(config, matched_length(spec, params),
                     (spec.gamma, spec.eps))
    width = localization_length(spec, params)
    if grid.length < MIN_DOMAIN_WIDTHS * width:
        raise ConfigError(
            f"grid.length = {grid.length:g} is under "
            f"{MIN_DOMAIN_WIDTHS:g} envelope widths of the "
            f"{spec.family.value} member ({MIN_DOMAIN_WIDTHS * width:.6g}); "
            f"its periodic images would overlap")
    if grid.spacing > width:
        raise ConfigError(
            f"lattice spacing grid.length / grid.n = {grid.spacing:g} is "
            f"wider than the {spec.family.value} member's envelope width "
            f"({width:.6g}); the lattice cannot resolve it")
    return grid


def _dividing_dt(T: float, requested: float | None, mode: str,
                 initial: FieldState) -> float:
    """A step that divides T exactly, at or under the requested step, else
    under evolution.default_dt for the mode and the initial state.

    evolve lands T/N on itself (evolution.landing_steps), so an
    analytically sampled scalar history stays consistent with the step
    actually taken. A plan of more than MAX_STEPS steps is a ConfigError.
    """
    dt = default_dt(initial, mode) if requested is None else requested
    if T / dt > MAX_STEPS:
        raise ConfigError(
            f"run.T / run.dt = {T:g} / {dt:g} plans {T / dt:.3g} steps, "
            f"over the limit of {MAX_STEPS:g}")
    return T / landing_steps(T, dt)


def _run_T(config: ScenarioConfig, default: float) -> float:
    T = config.get("run", "T")
    return default if T is None else T


def _stride(config: ScenarioConfig, n_steps: int) -> int:
    stride = config.get("run", "stride")
    return max(1, n_steps // 200) if stride is None else stride


def _member_start(spec: SolitonSpec, params: PhysicalParams, grid: Grid,
                  T: float, requested: float | None, mode: str,
                  x0: float) -> tuple[FieldState, float]:
    """The member's initial state, centred at x0, and the step that divides
    T. The member is sampled once, at t = 0, and the modes that read a
    history get the analytic phi(-dt); evolve starts a choquard run under
    the slaved field, and default_dt reads that field."""
    state = state_from_solution(spec, params, grid, x0=x0)
    dt = _dividing_dt(T, requested, mode, state)
    if mode != "choquard":
        state = replace(state, phi_prev=sample_solution(
            spec, params, grid, t=-dt, x0=x0).phi)
    return state, dt


def _plan(config: ScenarioConfig, T_default: float,
          mode: str = "coupled") -> tuple[
              PhysicalParams, SolitonSpec, FieldState, float, float, int]:
    """params, the [soliton] member (_soliton_spec), its initial state at
    soliton.x0 on the member's grid (auto: matched), T, dt, stride; the
    state and dt come from _member_start."""
    params = _physical_params(config)
    spec = _soliton_spec(config, params)
    grid = _member_grid(config, spec, params)
    T = _run_T(config, T_default)
    initial, dt = _member_start(spec, params, grid, T,
                                config.get("run", "dt"), mode,
                                config.get("soliton", "x0"))
    return params, spec, initial, T, dt, _stride(config, round(T / dt))


def _evolve_observed(report: RunReport, initial: FieldState, T: float,
                     dt: float, stride: int, mode: str
                     ) -> tuple[list[ObservableRecord], Trajectory]:
    """evolve, observed every stride steps; its steps count on the
    report."""
    observer = SeriesObserver()
    traj = evolve(initial, T, dt, mode=mode, observer=observer,
                  observer_stride=stride)
    report.step_count += traj.step_count
    return observer.records, traj


def _matched_state(spec: SolitonSpec, params: PhysicalParams) -> FieldState:
    """The member at t = 0 on its matched 2048-point lattice."""
    return state_from_solution(
        spec, params, make_grid(1, 2048, matched_length(spec, params)))


def _slaved_depths(state: FieldState) -> tuple[float, float]:
    """min(phi) of a slaved state (source 2M/v^2) and of the field slaved
    to half its density (the half-strength printed convention), which is
    bitwise half the first: halving is exact."""
    psi = state.psi
    half = slaved_map(state.params, state.grid)(
        0.5 * (psi.real**2 + psi.imag**2))
    return float(state.phi.min()), float(half.min())


def _speed_error(measured: float, expected: float) -> float:
    """|measured - expected| relative to |expected|; absolute for a member
    at rest, which has no relative error."""
    err = abs(measured - expected)
    return err / abs(expected) if expected else err


def _fit_dict(fit: VelocityFit) -> dict[str, Any]:
    return {**asdict(fit), "use": "peak_pos"}


def _audit_dict(e: FamilyAuditEntry) -> dict[str, Any]:
    return {"label": e.label, "family": e.family,
            "phi_profile": e.phi_profile, "exact": e.exact,
            "matter": asdict(e.matter), "scalar": asdict(e.scalar),
            "convergence_ratios": dict(e.ratios)}


# --------------------------------------------------------------------------
# scenarios


def _scenario_verify_residuals(config: ScenarioConfig, report: RunReport,
                               out: Path) -> ScenarioArtifacts:
    # the audit reads soliton.mu alone: a value left off its default in any
    # other [soliton] key or toggles.phi_profile would go unread, so it is
    # refused, as a spec refuses a field its family does not take
    for section, key in [("soliton", k) for k in SCHEMA["soliton"]
                         if k != "mu"] + [("toggles", "phi_profile")]:
        value = config.get(section, key)
        if value != SCHEMA[section][key].default:
            raise ConfigError(f"invalid {section}.{key}: verify-residuals "
                              f"does not read it (its one [soliton] value "
                              f"is soliton.mu), got {value!r}")
    params = _physical_params(config)
    # the audit's members that the parameters can rule out (the subluminal
    # one, and the moving one at mu = m) are checked before the audit
    # builds them, then the moving member at soliton.mu (default m); its
    # lattice is the [grid] one, so building it checks grid.n and
    # grid.length before the audit halves it
    mu = config.get("soliton", "mu")
    key = "[params]"
    try:
        spec_1d_b(params)
        spec_b = spec_3d_b(params, mu=params.m)
        if mu is not None:
            key = "soliton.mu"
            spec_b = spec_3d_b(params, mu=mu)
    except ValueError as e:
        raise ConfigError(f"invalid {key}: {e}") from None
    grid_b = _member_grid(config, spec_b, params)
    rng = random.Random(config.get("run", "seed"))

    audit = full_family_audit(params, grid_b.n)
    e_3da, e_3db, e_3db_detuned, e_1da_printed, e_1da_fixed, e_1db = audit
    report.details["family_audit"] = [_audit_dict(e) for e in audit]

    def residual_checks(criterion: str, entry: FamilyAuditEntry,
                        what: str) -> None:
        report.checks.append(_check(
            criterion, f"{what}: worst relative residual",
            max(entry.matter.rel_residual, entry.scalar.rel_residual), 1e-6))
        report.checks.append(_check(
            criterion, f"{what}: residual decay under grid+step halving",
            min(entry.ratios.values()), 16.0, ">="))

    residual_checks("criterion-1", e_3da,
                    "bright envelope, quasi-1D, width from dispersion")
    residual_checks("criterion-2", e_3db, "moving sech^2 at matched momentum")

    # translation speed of the sampled moving family, peak-position fit
    obs = SeriesObserver()
    for t in np.linspace(0.0, 20.0, 11):
        obs(state_from_solution(spec_b, params, grid_b, t0=t))
    fit = fit_velocity(obs.records, grid_b)
    target = spec_b.mu / params.M
    report.details["construction_velocity_fit"] = _fit_dict(fit)
    report.checks.append(_check(
        "criterion-2", f"sampled translation speed vs mu/M = {target:g}",
        abs(fit.velocity - target), 1e-6))

    residual_checks("criterion-3", e_1db, "subluminal sech^2 member")
    report.checks.append(_check(
        "criterion-3", "printed unit-speed scalar profile: scalar defect",
        e_1da_printed.scalar.rel_residual, 0.1, ">"))
    ratio = e_1da_printed.ratios["scalar"]
    report.checks.append(_check(
        "criterion-3", "printed scalar defect is resolution independent "
        "(halving ratio pins near 1)", abs(ratio - 1.0), 0.05))
    report.checks.append(_check(
        "criterion-3", "sech^2 scalar profile: worst relative residual",
        max(e_1da_fixed.matter.rel_residual,
            e_1da_fixed.scalar.rel_residual), 1e-6))
    report.findings.append(
        "profile contrast for the unit-speed member: as printed (sech "
        "scalar profile) the scalar equation misses by "
        f"{e_1da_printed.scalar.rel_residual:.6f} relative and the matter "
        "equation, whose coupling term M phi psi carries the same profile, "
        f"misses by {e_1da_printed.matter.rel_residual:.6f} (continuum "
        "value 4/27); with the sech^2 profile both residuals drop below "
        f"1e-6 ({e_1da_fixed.matter.rel_residual:.2e}, "
        f"{e_1da_fixed.scalar.rel_residual:.2e}).")
    report.findings.append(
        "detuned momentum control: at mu = 0.8 M the moving sech^2 member "
        f"leaves relative residuals {e_3db_detuned.matter.rel_residual:.3f} "
        f"(matter), {e_3db_detuned.scalar.rel_residual:.3f} (scalar); the "
        "family is exact only at mu = m.")

    # lattice norms on random valid triples
    norm_rows = []
    worst = 0.0
    for _ in range(3):
        while True:
            trial = PhysicalParams(M=rng.uniform(0.8, 1.6),
                                   m=rng.uniform(0.3, 0.7),
                                   v=rng.uniform(0.6, 1.2))
            try:
                member_b = spec_1d_b(trial)
                break
            except ValueError:
                continue
        for spec in (spec_1d_a(trial), member_b):
            norm = _matched_state(spec, trial).norm()
            worst = max(worst, abs(norm - 1.0))
            norm_rows.append({"family": spec.family.value,
                              "M": trial.M, "m": trial.m, "v": trial.v,
                              "lattice_norm": norm})
    report.details["norm_samples"] = norm_rows
    report.checks.append(_check(
        "criterion-4", "1D family lattice norms vs 1 "
        "(3 random valid triples)", worst, 1e-8))

    alpha_star = params.M**3 / (params.m * params.v) ** 2
    norm_at, norm_off = (_matched_state(spec_3d_a(params, alpha=a),
                                        params).norm()
                         for a in (alpha_star, 1.1 * alpha_star))
    report.details["threed_a_norms"] = {
        "alpha_star": alpha_star, "norm_at_alpha_star": norm_at,
        "norm_at_1.1_alpha_star": norm_off}
    report.checks.append(_check(
        "criterion-4", "bright-envelope x-norm vs 1 at alpha = M^3/(mv)^2",
        abs(norm_at - 1.0), 1e-8))
    report.checks.append(_check(
        "criterion-4", "bright-envelope x-norm departs from 1 off the "
        "normalizing alpha", abs(norm_off - 1.0), 0.05, ">"))

    # kernel prefactor contrast on a reference density
    member = _matched_state(spec_1d_b(params), params)
    full, half = _slaved_depths(state_with_static_field(
        member.psi, params, member.grid))
    depth_ratio = full / half
    report.details["kernel_prefactor_depth_ratio"] = depth_ratio
    report.findings.append(
        "kernel prefactor audit: the scalar equation's static reduction "
        "slaves phi to the density with source prefactor 2M/v^2; the "
        "half-strength closed-kernel convention gives exactly half the "
        f"field depth (measured depth ratio {depth_ratio:.9f}).")
    return ScenarioArtifacts()


def _scenario_soliton_propagation(config: ScenarioConfig, report: RunReport,
                                  out: Path) -> ScenarioArtifacts:
    mode = config.get("run", "mode") or "coupled"
    params, spec, initial, T, dt, stride = _plan(config, 20.0, mode)
    recs, traj = _evolve_observed(report, initial, T, dt, stride, mode)
    report.details["kicks"] = traj.kicks

    v_closed = family_velocity(spec, params)
    fit = fit_velocity(recs, initial.grid)
    norm_drift = max(abs(r.norm - recs[0].norm) for r in recs)
    width_change = abs(recs[-1].width - recs[0].width) / recs[0].width
    report.details["closed_form_velocity"] = v_closed
    report.details["velocity_fit"] = _fit_dict(fit)
    report.details["norm_drift"] = norm_drift
    report.details["width_change_rel"] = width_change

    if spec.family is Family.ONED_B and mode == "coupled":
        crit = "criterion-5"
        report.checks.append(_check(
            crit, "total norm drift over the run", norm_drift, 1e-8))
        report.checks.append(_check(
            crit, "relative width change over the run", width_change, 0.01))
        report.checks.append(_check(
            crit, f"fitted velocity vs closed form {v_closed:.6f}",
            _speed_error(fit.velocity, v_closed), 0.01))
    elif spec.family is Family.THREED_B and mode == "coupled":
        report.checks.append(_check(
            "criterion-2", f"evolved translation speed vs mu/M = "
            f"{v_closed:g}", _speed_error(fit.velocity, v_closed), 0.01))
        if abs(spec.mu) != params.m:
            report.findings.append(
                f"detuned member: mu = {spec.mu:g} while m = {params.m:g}; "
                "the moving sech^2 member is exact only at |mu| = m, so "
                "its envelope need not keep its shape or the speed mu/M")
    else:
        report.findings.append(
            "no acceptance criterion pins this family/mode combination; "
            "metrics above are informational")
    _weak_field(report, recs, params.M)
    return ScenarioArtifacts(
        records={"observables": recs},
        snapshots={"initial": traj.initial, "final": traj.final})


def _weak_field(report: RunReport, recs: list[ObservableRecord],
                M: float) -> None:
    """details["weak_field"], the one summary of the weak-field bound
    max|phi| < M that measure evaluates as each record's valid flag (a
    NaN field is invalid), and a warning when any record is past it. The
    deepest field depth |phi_min| is NaN if any record's is."""
    over = sum(1 for r in recs if not r.valid)
    depths = [abs(r.phi_min) for r in recs]
    deepest = (math.nan if any(math.isnan(d) for d in depths)
               else max(depths))
    report.details["weak_field"] = {"bound": M, "max_depth": deepest,
                                    "records_over": over,
                                    "records": len(recs)}
    if over:
        report.warnings.append(
            f"{over}/{len(recs)} records have max|phi| at or past the "
            f"weak-field bound M = {M:g} (deepest {deepest:.6g})")


def _scenario_free_spreading(config: ScenarioConfig, report: RunReport,
                             out: Path) -> ScenarioArtifacts:
    params = _physical_params(config)
    spec = _soliton_spec(config, params)
    T = _run_T(config, 20.0)
    sigma0 = config.get("packet", "sigma0")
    if sigma0 is None:
        # match the subluminal soliton's width so the contrast is like
        # against like
        sigma0 = closed_form_width(spec, params)
    sigma_T = free_spreading_width(sigma0, params.M, T)

    grid = _grid_for(config, max(14.0 * sigma_T, 40.0 * sigma0))
    try:
        packet = gaussian_packet(grid, params, sigma0,
                                 k0=config.get("packet", "k0"))
    except ValueError as e:
        raise ConfigError(f"invalid [grid] for packet.sigma0 and packet.k0: "
                          f"{e}") from None
    dt = _dividing_dt(T, config.get("run", "dt"), "free", packet)
    stride = _stride(config, round(T / dt))
    recs, traj = _evolve_observed(report, packet, T, dt, stride, "free")

    t_double = 2.0 * params.M * sigma0**2 * math.sqrt(3.0)
    early = [r for r in recs if r.t <= t_double * (1.0 + 1e-9)]
    law_err = max(abs(r.width - free_spreading_width(sigma0, params.M, r.t))
                  / free_spreading_width(sigma0, params.M, r.t)
                  for r in early)
    report.details["sigma0"] = sigma0
    report.details["width_doubling_time"] = t_double
    report.details["records_up_to_doubling"] = len(early)
    report.details["spreading_law_max_rel_error"] = law_err
    report.checks.append(_check(
        "criterion-6", "free packet width vs sigma(t) law up to doubling",
        law_err, 0.005))

    # self-trapped reference over the same span, on its own matched lattice
    # of at most grid.n points (with the member's transverse mode) at the
    # default step: run.dt and run.stride set the packet run only
    transverse = (spec.gamma, spec.eps)
    sol_grid = make_grid(1, min(grid.n, 1024), matched_length(spec, params),
                         transverse if any(transverse) else None)
    sol_initial, sol_dt = _member_start(
        spec, params, sol_grid, T, None, "coupled",
        config.get("soliton", "x0"))
    sol_recs, _ = _evolve_observed(report, sol_initial, T, sol_dt,
                                   max(1, round(T / sol_dt) // 50), "coupled")
    ratio = spreading_ratio(sol_recs, recs)
    report.details["spreading_ratio"] = ratio
    report.checks.append(_check(
        "criterion-6", "soliton/free relative width growth over the span",
        ratio, 0.5))
    report.findings.append(
        f"free packet width grew {recs[-1].width / recs[0].width:.1f}x "
        f"over T = {T:g} while the matched-width soliton grew "
        f"{sol_recs[-1].width / sol_recs[0].width:.4f}x")
    _weak_field(report, recs + sol_recs, params.M)
    return ScenarioArtifacts(
        records={"observables": recs, "soliton_reference": sol_recs},
        snapshots={"initial": traj.initial, "final": traj.final})


def _scenario_choquard_stationary(config: ScenarioConfig, report: RunReport,
                                  out: Path) -> ScenarioArtifacts:
    params, spec, initial, T, dt, stride = _plan(config, 50.0, "choquard")
    v_s = family_velocity(spec, params)
    if abs(v_s) > 1e-9:
        report.findings.append(
            f"the {spec.family.value} member's envelope moves at "
            f"{v_s:.6g}; the stationarity checks below assume a member at "
            "rest")

    recs, traj = _evolve_observed(report, initial, T, dt, stride,
                                  "choquard")

    width_drift = max(abs(r.width - recs[0].width) for r in recs) \
        / recs[0].width
    profile_drift = float(np.max(np.abs(np.abs(traj.final.psi)
                                        - np.abs(initial.psi))))
    report.details["width_drift_rel"] = width_drift
    report.details["profile_drift_maxabs"] = profile_drift
    report.checks.append(_check(
        "criterion-8", "relative width drift over the run",
        width_drift, 1e-4))
    report.checks.append(_check(
        "criterion-8", "|psi| profile drift vs t=0 (max-abs)",
        profile_drift, 1e-4))

    full, half = _slaved_depths(traj.initial)
    ratio = full / half
    report.details["slaved_depth_full"] = full
    report.details["slaved_depth_half"] = half
    report.details["slaved_depth_ratio"] = ratio
    report.checks.append(_check(
        "criterion-8", "slaved-field depth ratio between kernel "
        "prefactor conventions vs 2", abs(ratio - 2.0), 0.01))
    report.findings.append(
        f"slaved scalar depth: {full:.6f} under the full 2M/v^2 "
        f"source prefactor, {half:.6f} under the half "
        f"convention (ratio {ratio:.6f}); only the full convention "
        "reproduces the closed-form profile depth")
    _weak_field(report, recs, params.M)
    return ScenarioArtifacts(
        records={"observables": recs},
        snapshots={"initial": traj.initial, "final": traj.final})


def _smooth_random_source(grid: Grid, rng: random.Random) -> np.ndarray:
    """Random superposition of four periodized Gaussian bumps.

    Widths of 6 to 8 grid spacings keep the spectrum below machine noise
    at the Nyquist edge, so the spectral and quadrature routes see the
    same function rather than disagreeing on unresolved content. A bump
    and its periodic images factorize per axis: the outer product of the
    per-axis sums of the images at shifts -K .. K, where the first one
    left out, at least K boxes away, is below 1e-17 of the peak (K = 1 from
    n = 128 up; a cut image would leave a seam jump in the source).
    """
    length = grid.length
    out = np.zeros(grid.shape)
    for _ in range(4):
        center = [rng.uniform(-length / 2, length / 2)
                  for _ in range(grid.dim)]
        sig = rng.uniform(6.0, 8.0) * grid.spacing
        amp = rng.uniform(-1.0, 1.0)
        K = int(math.sqrt(2.0 * math.log(1e17)) * sig / length) + 1
        factors = [sum(np.exp(-0.5 * (grid.axis - c + shift * length) ** 2
                              / sig**2) for shift in range(-K, K + 1))
                   for c in center]
        out += amp * functools.reduce(np.multiply.outer, factors)
    return out


def _oracle_grid(config: ScenarioConfig, key: str, dim: int,
                 length: float) -> Grid:
    # the source build squares distances of up to two boxes (a farther
    # image's may overflow, to an exact 0 weight), and the 3D weights scale
    # by the cell volume, at most length^3: both must be finite
    if not math.isfinite(max(4.0 * length * length,
                             math.prod([length] * dim))):
        raise ConfigError(
            f"params.m = {config.get('params', 'm'):g} gives the {dim}D "
            f"oracle a box of length {length:g}, whose squared distances "
            f"or cell volumes overflow a float")
    n = config.get("oracle", key)
    try:
        grid = make_grid(dim, n, length)
    except ValueError as e:
        raise ConfigError(f"invalid oracle.{key}: {e}") from None
    if n**dim > MAX_DIRECT_POINTS:
        raise ConfigError(
            f"oracle.{key} = {n} gives {n**dim} points, over the direct "
            f"quadrature's limit of {MAX_DIRECT_POINTS}")
    return grid


def _oracle_case(grid: Grid, rng: random.Random, m: float,
                 case: int) -> dict[str, Any]:
    """Spectral vs direct screened inverse of one random smooth source."""
    s = _smooth_random_source(grid, rng)
    t0 = time.perf_counter()
    spectral = yukawa_invert(s, m=m, grid=grid)
    t1 = time.perf_counter()
    direct = yukawa_convolve_direct(s, m=m, grid=grid)
    t2 = time.perf_counter()
    rel = float(np.max(np.abs(spectral - direct)) / np.max(np.abs(direct)))
    return {"case": case, "dim": grid.dim, "n": grid.n, "rel_maxabs": rel,
            "spectral_seconds": t1 - t0, "direct_seconds": t2 - t1}


def _scenario_yukawa_oracle(config: ScenarioConfig, report: RunReport,
                            out: Path) -> ScenarioArtifacts:
    m = _physical_params(config).m
    rng = random.Random(config.get("run", "seed"))
    cases = config.get("oracle", "cases")
    g1 = _oracle_grid(config, "n_1d", 1, 40.0 / m)
    run_3d = config.get("oracle", "run_3d")
    if run_3d:
        g3 = _oracle_grid(config, "n_3d", 3, 20.0 / m)

    rows = [_oracle_case(g1, rng, m, i) for i in range(cases)]
    report.checks.append(_check(
        "criterion-7", f"1D spectral vs direct quadrature "
        f"({cases} random smooth sources)",
        max(r["rel_maxabs"] for r in rows), 1e-6))
    if run_3d:
        rows.append(_oracle_case(g3, rng, m, 0))
        report.checks.append(_check(
            "criterion-7", "3D spectral vs direct quadrature "
            "(random smooth source)", rows[-1]["rel_maxabs"], 1e-6))

    s0 = rng.uniform(0.5, 2.0)
    const = np.full(g1.shape, s0)
    phi_const = yukawa_invert(const, m=m, grid=g1)
    const_err = float(np.max(np.abs(phi_const + s0 / m**2))
                      / abs(s0 / m**2))
    report.details["oracle_cases"] = rows
    report.details["constant_source"] = {"s0": s0,
                                         "rel_error": const_err}
    report.checks.append(_check(
        "criterion-7", "constant source identity phi = -s0/m^2",
        const_err, 1e-12))
    return ScenarioArtifacts()


def _scenario_perturbation_stability(config: ScenarioConfig, report: RunReport,
                                     out: Path) -> ScenarioArtifacts:
    params, _, initial, T, dt, stride = _plan(config, 20.0)
    kind = config.get("perturb", "kind")
    strength = config.get("perturb", "strength")
    seed = config.get("run", "seed")

    def one_run() -> tuple[list[ObservableRecord], Trajectory]:
        try:
            noisy = perturb(initial, kind, strength, seed=seed)
        except ValueError as e:
            raise ConfigError(f"invalid [perturb]: {e}") from None
        return _evolve_observed(report, noisy, T, dt, stride, "coupled")

    recs, traj = one_run()
    repeat, _ = one_run()

    path_a = out / "observables.csv"
    path_b = out / "observables_repeat.csv"
    write_observables_csv(str(path_a), recs)
    write_observables_csv(str(path_b), repeat)
    identical = path_a.read_bytes() == path_b.read_bytes()
    report.details["repeat_runs_identical"] = identical
    report.checks.append(_check(
        "criterion-10", "repeated run under the same seed is byte-identical "
        "(0 = identical)", 0.0 if identical else 1.0, 0.5))

    width_ratio = recs[-1].width / recs[0].width
    norm_drift = max(abs(r.norm - recs[0].norm) for r in recs)
    survived = width_ratio < 2.0
    report.details["perturbation"] = {"kind": kind, "strength": strength,
                                      "seed": seed}
    report.details["width_ratio_final"] = width_ratio
    report.details["norm_drift"] = norm_drift
    report.details["classification"] = "survived" if survived \
        else "dispersed"
    report.findings.append(
        f"{kind} at strength {strength:g}: the soliton "
        f"{'survived' if survived else 'dispersed'} (final/initial width "
        f"{width_ratio:.4f}, threshold 2); classification is exploratory, "
        "determinism is the pass condition")
    _weak_field(report, recs, params.M)
    # the two CSVs are written above, byte-compared
    return ScenarioArtifacts(
        snapshots={"initial": traj.initial, "final": traj.final})


def _scenario_param_sweep(config: ScenarioConfig, report: RunReport,
                          out: Path) -> ScenarioArtifacts:
    child_name = config.get("sweep", "scenario")
    section, _, key = config.get("sweep", "key").partition(".")
    values = config.get("sweep", "values")

    def child_config(value: float) -> ScenarioConfig:
        settings = {s: dict(kv) for s, kv in config.settings.items()}
        settings["run"]["scenario"] = child_name
        child = ScenarioConfig(scenario=child_name, settings=settings)
        return child.replace(section, key, coerce_number(section, key, value))

    cases = [(i, v, child_config(v),
              out / f"case_{i:02d}_{section}.{key}_{v:g}")
             for i, v in enumerate(values)]

    merged, errors = [], []
    criteria: dict[str, list[CriterionCheck]] = {}
    for i, v, cfg, child_out in cases:
        row: dict[str, Any] = {"case": i, f"{section}.{key}": v,
                               "output_dir": str(child_out)}
        try:
            child = run_scenario(cfg, out_dir=child_out)
        except Exception as e:  # noqa: BLE001 - collected into the merge
            errors.append(e)
            err = f"{type(e).__name__}: {e}"
            row["status"] = "aborted"
            row["error"] = err
            report.findings.append(f"case {i} ({section}.{key} = {v:g}) "
                                   f"aborted: {err}")
        else:
            row["status"] = child.status
            row["checks"] = [asdict(c) for c in child.checks]
            row["step_count"] = child.step_count
            report.step_count += child.step_count
            report.warnings.extend(f"case {i} ({section}.{key} = {v:g}): {w}"
                                   for w in child.warnings)
            for c in child.checks:
                criteria.setdefault(c.criterion, []).append(c)
        merged.append(row)
    report.details["cases"] = merged
    # no case ran: the sweep's settings are at fault, not its physics
    if errors and len(errors) == len(cases) \
            and all(isinstance(e, ConfigError) for e in errors):
        raise ConfigError(f"all {len(cases)} sweep cases are misconfigured; "
                          f"case 0 ({section}.{key} = {values[0]:g}): "
                          f"{errors[0]}")

    aborted = len(errors)
    for crit in sorted(criteria):
        checks = criteria[crit]
        worst = max(checks, key=lambda c: (not c.passed, c.value))
        report.checks.append(CriterionCheck(
            criterion=crit,
            description=f"all {len(checks)} child checks across "
                        f"{len(values)} sweep cases (worst shown)",
            value=worst.value, threshold=worst.threshold,
            comparison=worst.comparison,
            passed=all(c.passed for c in checks) and aborted == 0))
    if aborted:
        report.checks.append(_check(
            "sweep", f"sweep cases aborted (of {len(values)})", aborted, 0,
            "<="))
        report.findings.append(f"{aborted}/{len(values)} sweep cases "
                               "aborted; their criteria count as failed")

    with open(out / "sweep_summary.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["case", f"{section}.{key}", "status", "steps"])
        for row in merged:
            w.writerow([row["case"], repr(float(row[f"{section}.{key}"])),
                        row["status"], row.get("step_count", "")])
    return ScenarioArtifacts()


_IMPLS: dict[str, Callable[[ScenarioConfig, RunReport, Path],
                           ScenarioArtifacts]] = {
    "verify-residuals": _scenario_verify_residuals,
    "soliton-propagation": _scenario_soliton_propagation,
    "free-spreading": _scenario_free_spreading,
    "choquard-stationary": _scenario_choquard_stationary,
    "yukawa-oracle": _scenario_yukawa_oracle,
    "perturbation-stability": _scenario_perturbation_stability,
    "param-sweep": _scenario_param_sweep,
}


def run_scenario(config: ScenarioConfig,
                 out_dir: str | Path | None = None) -> RunReport:
    """Run one scenario and write its artifacts under out_dir.

    Artifacts: report.json (the RunReport), observables CSVs, initial and
    final field snapshots where the scenario evolves fields, and a gnuplot
    script for the main observables table. An aborting run leaves a FAILED
    marker naming the scenario and the error next to whatever partial
    artifacts were flushed, then re-raises.
    """
    start = time.perf_counter()
    if config.scenario not in _IMPLS:
        raise ConfigError(f"unknown scenario {config.scenario!r}; valid: "
                          f"{', '.join(_IMPLS)}")
    # run.mode picks soliton-propagation's evolution; every other scenario
    # runs the modes its criteria are written for and would ignore it
    evolved = config.get("sweep", "scenario") \
        if config.scenario == "param-sweep" else config.scenario
    if config.get("run", "mode") is not None \
            and evolved != "soliton-propagation":
        raise ConfigError(f"run.mode is a soliton-propagation setting; "
                          f"{evolved} does not read it")
    out = Path(out_dir if out_dir is not None
               else f"runs/{config.scenario}")
    out.mkdir(parents=True, exist_ok=True)
    marker = out / FAILED_MARKER
    marker.unlink(missing_ok=True)
    report = RunReport(scenario=config.scenario,
                       config_echo={s: dict(kv)
                                    for s, kv in config.settings.items()},
                       config_text=serialize(config))
    try:
        artifacts = _IMPLS[config.scenario](config, report, out)
    except Exception as e:
        marker.write_text(f"scenario {config.scenario} aborted: "
                          f"{type(e).__name__}: {e}\n")
        partial = {"scenario": config.scenario, "status": "aborted",
                   "error": f"{type(e).__name__}: {e}",
                   "config": report.config_echo,
                   "wall_time_seconds": time.perf_counter() - start}
        (out / "report.json").write_text(json.dumps(partial, indent=2,
                                                    default=str) + "\n")
        raise
    report.wall_time = time.perf_counter() - start

    for name, series in artifacts.records.items():
        write_observables_csv(str(out / f"{name}.csv"), series)
    main_csv = "observables.csv"
    if (out / main_csv).exists():
        write_plot_script(str(out / "plot.gp"), main_csv, config.scenario)
    for name, state in artifacts.snapshots.items():
        ext = "csv" if state.grid.dim == 1 else "bin"
        write_snapshot(str(out / f"snapshot_{name}.{ext}"), state)
    (out / "report.json").write_text(
        json.dumps(report.to_dict(), indent=2, default=str) + "\n")
    return report
