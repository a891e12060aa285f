"""Scenario runner contracts: checks, artifacts, determinism, exit codes.

The heavy physics behind each scenario is covered by the module tests and
by the acceptance suite; here the runs are deliberately small and fast so
the plumbing (reports, files, error paths) can be exercised exhaustively.
"""

from __future__ import annotations

import functools
import json
import math
import os
import random
import subprocess
import sys
import textwrap
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

import solitonlab
from solitonlab import cli
from solitonlab.artifacts import read_observables_csv
from solitonlab.cli import main
from solitonlab.config import (ConfigError, ScenarioConfig, apply_overrides,
                               default_config, parse_config)
from solitonlab.diagnostics import ObservableRecord
from solitonlab.evolution import (BlowUpError, evolve, perturb,
                                  state_from_solution,
                                  state_with_static_field)
from solitonlab.model import PhysicalParams, make_grid
from solitonlab import runner
from solitonlab.runner import FAILED_MARKER, RunReport, _check, run_scenario
from solitonlab.solutions import (closed_form_width, matched_length,
                                  spec_1d_b, spec_3d_a, spec_3d_b)
from solitonlab.spectral import _direct_weights


def blow_up(initial, T, dt, **kwargs):
    """An evolve that aborts at its first step, as a runaway run does."""
    raise BlowUpError(initial.t + dt, math.inf)


class TestCheckSemantics:
    def test_comparisons(self):
        assert _check("c", "d", 1.0, 2.0, "<").passed
        assert not _check("c", "d", 3.0, 2.0, "<").passed
        assert _check("c", "d", 2.0, 2.0, "<=").passed
        assert _check("c", "d", 20.0, 16.0, ">=").passed
        assert not _check("c", "d", 15.9, 16.0, ">=").passed

    def test_nan_never_passes(self):
        for op in ("<", "<=", ">", ">="):
            assert not _check("c", "d", math.nan, 1.0, op).passed

    def test_infinite_ratio_passes_a_floor(self):
        # exact zero residual on the coarse level gives an inf ratio
        assert _check("c", "d", math.inf, 16.0, ">=").passed


class TestRunScenario:
    def test_report_and_artifacts(self, tmp_path):
        cfg = default_config("verify-residuals")
        report = run_scenario(cfg, out_dir=tmp_path)
        assert report.passed
        assert report.step_count == 0
        data = json.loads((tmp_path / "report.json").read_text())
        assert data["status"] == "passed"
        assert data["scenario"] == "verify-residuals"
        assert data["checks"] and all(
            set(c) >= {"criterion", "description", "value", "threshold",
                       "comparison", "passed"} for c in data["checks"])
        # the echoed config text reproduces the run exactly
        assert parse_config(data["config_text"]) == cfg

    def test_summary_has_one_line_per_check(self, tmp_path):
        report = run_scenario(default_config("verify-residuals"),
                              out_dir=tmp_path)
        lines = report.summary_lines()
        assert len([l for l in lines if "[PASS]" in l or "[FAIL]" in l]) \
            == len(report.checks)

    def test_failing_checks_do_not_abort(self, tmp_path):
        cfg = apply_overrides(default_config("verify-residuals"),
                              ["grid.n=64"])
        report = run_scenario(cfg, out_dir=tmp_path)
        assert not report.passed
        assert not (tmp_path / FAILED_MARKER).exists()
        data = json.loads((tmp_path / "report.json").read_text())
        assert data["status"] == "failed"

    def test_abort_leaves_a_marker(self, tmp_path, monkeypatch):
        # no default setting aborts (neither the Gautschi update nor the
        # slaved field has a stability limit), so the engine raises on cue
        monkeypatch.setattr(runner, "evolve", blow_up)
        cfg = apply_overrides(default_config("soliton-propagation"),
                              ["grid.n=256", "run.T=0.5"])
        with pytest.raises(BlowUpError):
            run_scenario(cfg, out_dir=tmp_path)
        marker = (tmp_path / FAILED_MARKER).read_text()
        assert "soliton-propagation" in marker
        assert "BlowUpError" in marker
        data = json.loads((tmp_path / "report.json").read_text())
        assert data["status"] == "aborted"

    def test_gautschi_has_no_stability_guard(self, tmp_path):
        # a step over stability_limit min(dx/2, 1/2m) runs under the
        # coupled mode's Gautschi update, as it does under the slaved field
        cfg = apply_overrides(
            default_config("soliton-propagation"),
            ["run.dt=0.2", "grid.n=256", "run.T=0.5"])
        report = run_scenario(cfg, out_dir=tmp_path)
        assert report.step_count == 3
        assert not (tmp_path / FAILED_MARKER).exists()

    def test_fast_exact_moving_member_passes_at_the_default_step(
            self, tmp_path):
        # 3d_b is exact at mu = m, which soliton.mu defaults to; at
        # m = 0.9 M the envelope moves fast and is narrow, and the default
        # step still holds criterion 2
        cfg = apply_overrides(
            default_config("soliton-propagation"),
            ["soliton.family=3d_b", "params.m=0.9", "grid.n=1024"])
        report = run_scenario(cfg, out_dir=tmp_path)
        assert report.passed
        assert [c.criterion for c in report.checks] == ["criterion-2"]
        assert not any("detuned" in f for f in report.findings)

    def test_detuned_moving_member_keeps_its_gate_and_says_so(self,
                                                              tmp_path):
        cfg = apply_overrides(
            default_config("soliton-propagation"),
            ["soliton.family=3d_b", "soliton.mu=0.4", "grid.n=256",
             "run.T=1"])
        report = run_scenario(cfg, out_dir=tmp_path)
        assert [c.criterion for c in report.checks] == ["criterion-2"]
        assert any("exact only at |mu| = m" in f for f in report.findings)

    def test_free_packet_is_sampled_before_its_width_doubles(self,
                                                             tmp_path):
        # criterion 6 compares the packet with the spreading law at every
        # record up to the doubling time; t = 0 alone would be vacuous
        report = run_scenario(default_config("free-spreading"),
                              out_dir=tmp_path)
        assert report.passed
        assert report.details["records_up_to_doubling"] >= 4

    @pytest.mark.parametrize("n, lattices", [(512, {512}),
                                             (2048, {2048, 1024})])
    def test_free_reference_lattice_follows_grid_n(self, tmp_path,
                                                   monkeypatch, n, lattices):
        # the self-trapped reference runs on min(grid.n, 1024) points, so a
        # small run does not step a 1024-point lattice at its fine step
        seen = set()

        def spy(*args):
            seen.add(args[1])
            return make_grid(*args)

        monkeypatch.setattr(runner, "make_grid", spy)
        cfg = apply_overrides(default_config("free-spreading"),
                              [f"grid.n={n}", "run.T=2.0"])
        run_scenario(cfg, out_dir=tmp_path)
        assert seen == lattices

    def test_success_clears_a_stale_marker(self, tmp_path):
        (tmp_path / FAILED_MARKER).write_text("left over\n")
        run_scenario(default_config("verify-residuals"), out_dir=tmp_path)
        assert not (tmp_path / FAILED_MARKER).exists()

    def test_unknown_scenario_refused(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown scenario"):
            run_scenario(ScenarioConfig("warp-drive", {}),
                         out_dir=tmp_path / "nope")
        assert not (tmp_path / "nope").exists()

    def test_evolving_scenario_writes_series_and_snapshots(self, tmp_path):
        cfg = apply_overrides(default_config("free-spreading"),
                              ["grid.n=512", "run.T=2.0"])
        report = run_scenario(cfg, out_dir=tmp_path)
        assert report.step_count > 0
        for name in ("observables.csv", "soliton_reference.csv", "plot.gp",
                     "snapshot_initial.csv", "snapshot_final.csv"):
            assert (tmp_path / name).exists(), name

    def test_1d_scenarios_make_no_blas_call(self, tmp_path, no_blas):
        # the step loop, the observer, the residual audit and the velocity
        # fit (criterion 5) run on FFTs, ufuncs and reductions alone
        with pytest.raises(AssertionError, match="numpy.polyfit"):
            np.polyfit([0.0, 1.0, 2.0], [0.0, 1.0, 2.0], 1)
        runs = {"verify-residuals": [],
                "soliton-propagation": ["grid.n=256", "run.T=0.5"]}
        for name, overrides in runs.items():
            cfg = apply_overrides(default_config(name), overrides)
            report = run_scenario(cfg, out_dir=tmp_path / name)
            assert report.checks, name

    @pytest.mark.parametrize("m, over", [(0.5, True), (0.8, False)])
    def test_weak_field_block_and_warning(self, tmp_path, m, over):
        # max|phi| = (M/mv)^4/3: 5.33 at the default m = 0.5, 0.81 at 0.8
        cfg = apply_overrides(default_config("soliton-propagation"),
                              ["grid.n=256", "run.T=0.5", f"params.m={m}"])
        report = run_scenario(cfg, out_dir=tmp_path)
        block = json.loads((tmp_path / "report.json").read_text())[
            "details"]["weak_field"]
        rows = (tmp_path / "observables.csv").read_text().splitlines()
        assert block["records"] == len(rows) - 1
        assert block["bound"] == 1.0
        assert block["max_depth"] == pytest.approx((1.0 / m) ** 4 / 3.0,
                                                   rel=1e-3)
        assert block["records_over"] == (block["records"] if over else 0)
        lines = report.summary_lines()
        warned = [l for l in lines if l.startswith("  warning: ")]
        assert len(warned) == (1 if over else 0)
        assert not any("weak-field" in l or "advisory" in l
                       for l in lines if l.startswith("  note: "))

    @pytest.mark.parametrize("nan_at", [0, 1, 2])
    def test_weak_field_nan_depth(self, nan_at):
        # a NaN depth is over the bound and makes the deepest NaN wherever
        # it falls, so a blown-up record cannot hide behind finite ones
        depths = [0.3, 0.6, 0.9]
        depths[nan_at] = math.nan
        recs = [ObservableRecord(t=float(i), norm=1.0, centroid=0.0,
                                 width=1.0, peak_pos=0.0, phi_min=-d,
                                 valid=d < 1.0)
                for i, d in enumerate(depths)]
        report = RunReport("soliton-propagation", {}, "")
        runner._weak_field(report, recs, 1.0)
        block = report.details["weak_field"]
        assert math.isnan(block["max_depth"])
        assert block["records_over"] == 1
        assert block["records"] == 3
        assert len(report.warnings) == 1
        assert "1/3 records" in report.warnings[0]
        assert "deepest nan" in report.warnings[0]

    def test_weak_field_counts_the_invalid_records(self):
        # the bound is measure's max|phi| < M: a record whose phi peaks
        # above M on its positive side is over, however shallow its
        # |phi_min|, and the deepest |phi_min| is still reported
        recs = [ObservableRecord(t=float(i), norm=1.0, centroid=0.0,
                                 width=1.0, peak_pos=0.0, phi_min=-0.3,
                                 valid=valid)
                for i, valid in enumerate((True, False, True))]
        report = RunReport("soliton-propagation", {}, "")
        runner._weak_field(report, recs, 1.0)
        assert report.details["weak_field"] == {
            "bound": 1.0, "max_depth": 0.3, "records_over": 1, "records": 3}
        assert len(report.warnings) == 1
        assert "1/3 records" in report.warnings[0]
        assert "deepest 0.3)" in report.warnings[0]

    @pytest.mark.parametrize("scenario, overrides, run_dir, series", [
        ("soliton-propagation", ["grid.n=256", "run.T=0.5"], "",
         ["observables"]),
        ("choquard-stationary", ["grid.n=256", "run.T=0.5"], "",
         ["observables"]),
        ("perturbation-stability", ["grid.n=256", "run.T=0.5"], "",
         ["observables"]),
        ("free-spreading", ["grid.n=512", "run.T=2.0"], "",
         ["observables", "soliton_reference"]),
        ("param-sweep", ["sweep.values=0.6", "run.T=0.5", "grid.n=256"],
         "case_00_params.m_0.6", ["observables"]),
    ], ids=["propagation", "stationary", "perturbation", "free-spreading",
            "sweep-case"])
    def test_weak_field_block_counts_the_invalid_cells(
            self, tmp_path, scenario, overrides, run_dir, series):
        # every evolving run summarizes the valid flags of the records it
        # writes, once: records_over is the count of false cells
        run_scenario(apply_overrides(default_config(scenario), overrides),
                     out_dir=tmp_path)
        out = tmp_path / run_dir
        block = json.loads((out / "report.json").read_text())[
            "details"]["weak_field"]
        cells = []
        for name in series:
            header, *rows = (out / f"{name}.csv").read_text().splitlines()
            column = header.split(",").index("valid")
            cells += [row.split(",")[column] for row in rows]
        assert block["records"] == len(cells)
        assert block["records_over"] == cells.count("false")

    def test_oracle_makes_no_lapack_call(self, tmp_path, no_lapack):
        # the Gauss rules of a cold weight build come from Newton steps on
        # the Legendre recurrence, not an eigenvalue solve; the build and
        # the apply use matmul alone
        with pytest.raises(AssertionError, match="numpy.linalg.eigvalsh"):
            np.linalg.eigvalsh(np.eye(2))
        _direct_weights.cache_clear()
        report = run_scenario(default_config("yukawa-oracle"),
                              out_dir=tmp_path)
        assert report.passed
        assert any(row["dim"] == 3
                   for row in report.details["oracle_cases"])

    @pytest.mark.parametrize("overrides", [
        ["oracle.n_1d=16", "oracle.run_3d=false"], ["oracle.n_3d=16"]])
    def test_oracle_passes_at_the_smallest_lattice(self, tmp_path,
                                                   overrides):
        # a bump up to 8 spacings wide reaches e^-2 of its peak one box
        # away at n = 16: summed over three images only, the source jumped
        # at the seam and criterion 7 read 2.9e-4 (1D) and 4.4e-4 (3D)
        cfg = apply_overrides(default_config("yukawa-oracle"), overrides)
        report = run_scenario(cfg, out_dir=tmp_path)
        assert report.passed
        assert {row["n"] for row in report.details["oracle_cases"]} >= {16}

    @pytest.mark.parametrize("dim, n", [(1, 16), (3, 16), (1, 32), (3, 32),
                                        (1, 128)])
    def test_oracle_source_sums_every_image_it_needs(self, dim, n):
        # against 41 images per axis: rounding at n = 16 and 32, and bitwise
        # the three images at n = 128, where the next ones are below e^-128
        grid = make_grid(dim, n, 40.0)
        source = runner._smooth_random_source(grid, random.Random(n + dim))
        rng, L = random.Random(n + dim), grid.length
        ref = np.zeros(grid.shape)
        for _ in range(4):
            center = [rng.uniform(-L / 2, L / 2) for _ in range(dim)]
            sig = rng.uniform(6.0, 8.0) * grid.spacing
            amp = rng.uniform(-1.0, 1.0)
            shifts = (-1, 0, 1) if n == 128 else range(-20, 21)
            factors = [sum(np.exp(-0.5 * (grid.axis - c + v * L) ** 2
                                  / sig**2) for v in shifts) for c in center]
            ref += amp * functools.reduce(np.multiply.outer, factors)
        if n == 128:
            assert np.array_equal(source, ref)
        else:
            assert np.abs(source - ref).max() <= 1e-15 * np.abs(ref).max()

    def test_propagation_reports_kick_count(self, tmp_path):
        cfg = apply_overrides(default_config("soliton-propagation"),
                              ["grid.n=256", "run.T=1.0", "run.stride=4"])
        report = run_scenario(cfg, out_dir=tmp_path)
        data = json.loads((tmp_path / "report.json").read_text())
        rows = (tmp_path / "observables.csv").read_text().splitlines()
        recorded = len(rows) - 2  # header and the initial state
        # one kick per step, plus one closing half kick per recorded state
        assert data["details"]["kicks"] == report.step_count + recorded
        assert recorded < report.step_count


class TestChoquardPlan:
    """A choquard run's default step reads the field the slaved update
    runs under, the screened inverse of the member's density, not the
    closed-form coupled field."""

    def plan(self, scenario, overrides, T_default):
        cfg = apply_overrides(default_config(scenario), overrides)
        *_, T, dt, _ = runner._plan(cfg, T_default, "choquard")
        return T, dt

    def test_propagation_steps_at_the_slaved_rate(self):
        # (M, m, v) = (1, 0.5, 1): M max|phi| reads 5.33 on the closed-form
        # field and 1.71 on the slaved one; 1067 steps under the former
        T, dt = self.plan("soliton-propagation", ["run.mode=choquard"], 20.0)
        assert round(T / dt) == 342

    def test_stationary_member_keeps_its_step(self):
        # at the standing point the slaved field is the closed-form one
        T, dt = self.plan("choquard-stationary", [], 50.0)
        assert round(T / dt) == 375
        assert dt == pytest.approx(50.0 / 375, rel=1e-15)

    def test_propagation_records_the_slaved_field_from_t0(self, tmp_path):
        # the plan hands evolve the sampled member; the t = 0 record, the
        # initial snapshot and the weak-field block read the field the run
        # steps under (depth 1.708), not the closed-form one (5.333) that
        # evolve replaces
        cfg = apply_overrides(default_config("soliton-propagation"),
                              ["run.mode=choquard", "run.T=2"])
        report = run_scenario(cfg, out_dir=tmp_path)
        _, _, initial, *_ = runner._plan(cfg, 20.0, "choquard")
        slaved = state_with_static_field(initial.psi, initial.params,
                                         initial.grid).phi
        rows = (tmp_path / "observables.csv").read_text().splitlines()
        header = rows[0].split(",")
        first = dict(zip(header, rows[1].split(",")))
        assert float(first["phi_min"]) == float(slaved.min())
        assert float(first["phi_min"]) == pytest.approx(-1.70805, abs=1e-5)
        snapshot = np.loadtxt(tmp_path / "snapshot_initial.csv",
                              delimiter=",", skiprows=2)
        assert np.array_equal(snapshot[:, 3], slaved)
        block = report.details["weak_field"]
        assert block["max_depth"] == pytest.approx(1.70805, abs=1e-5)
        assert "deepest 1.70805" in report.warnings[-1]

    def test_advisory_reads_the_slaved_depth(self, tmp_path):
        # the one weak-field warning names the one depth the run steps
        # under, 1.70805, not the closed-form member's 5.33333; the
        # standing member stays under the bound
        cfg = apply_overrides(default_config("soliton-propagation"),
                              ["run.mode=choquard", "run.T=2"])
        report = run_scenario(cfg, out_dir=tmp_path)
        assert len(report.warnings) == 1
        assert "36/36 records" in report.warnings[0]
        assert "deepest 1.70805" in report.warnings[0]
        stationary = run_scenario(
            apply_overrides(default_config("choquard-stationary"),
                            ["grid.n=256", "run.T=0.5"]),
            out_dir=tmp_path / "stationary")
        assert stationary.warnings == []
        block = stationary.details["weak_field"]
        assert block["records_over"] == 0 < block["records"]
        assert block["max_depth"] < 1.0

    @pytest.mark.parametrize("scenario, overrides, mode, x0", [
        ("soliton-propagation", ["soliton.x0=3.3"], "coupled", 3.3),
        ("perturbation-stability", [], "coupled", 0.0),
    ], ids=["propagation-off-node", "perturbation"])
    def test_advisory_reads_the_initial_field(self, tmp_path, scenario,
                                              overrides, mode, x0):
        # record 0, which the weak-field block counts, is the field the run
        # starts with; off a node that is the lattice depth, not the closed
        # form's
        cfg = apply_overrides(default_config(scenario),
                              ["grid.n=256", "run.T=0.5", *overrides])
        report = run_scenario(cfg, out_dir=tmp_path)
        _, _, initial, *_ = runner._plan(cfg, 20.0, mode)
        recs = read_observables_csv(str(tmp_path / "observables.csv"))
        assert recs[0].phi_min == float(initial.phi.min())
        assert not recs[0].valid
        block = report.details["weak_field"]
        assert block["records_over"] == block["records"] == len(recs)
        assert len(report.warnings) == 1
        if x0:
            assert -recs[0].phi_min < 16.0 / 3.0

    def test_free_spreading_advisory_reads_the_reference_start(self,
                                                               tmp_path):
        # the packet has no field; the self-trapped reference run starts on
        # a node with the member's depth (M/mv)^4/3 = 5.33333, and the one
        # block counts both series
        report = run_scenario(
            apply_overrides(default_config("free-spreading"),
                            ["grid.n=512", "run.T=10"]), out_dir=tmp_path)
        packet = read_observables_csv(str(tmp_path / "observables.csv"))
        reference = read_observables_csv(
            str(tmp_path / "soliton_reference.csv"))
        block = report.details["weak_field"]
        assert block["records"] == len(packet) + len(reference)
        assert block["records_over"] == len(reference)
        assert block["max_depth"] == pytest.approx(16.0 / 3.0, rel=1e-5)
        assert len(report.warnings) == 1
        assert "deepest 5.3333" in report.warnings[0]


class TestMemberStart:
    """_plan samples the member once, at t = 0, and once more for the
    scalar history at the step the run takes."""

    @pytest.mark.parametrize("scenario, overrides, calls", [
        ("soliton-propagation", ["grid.n=256", "run.T=0.5"], 2),
        ("soliton-propagation", ["grid.n=256", "run.T=0.5",
                                 "run.mode=choquard"], 1),
        ("free-spreading", ["grid.n=512", "run.T=2.0"], 2),
        ("perturbation-stability", ["grid.n=256", "run.T=0.5"], 2),
        ("choquard-stationary", ["grid.n=256", "run.T=0.5"], 1),
    ])
    def test_member_sampled_once_per_start(self, tmp_path, monkeypatch,
                                           scenario, overrides, calls):
        seen = []
        sample = runner.sample_solution

        def counted(*args, **kwargs):
            seen.append(kwargs.get("t"))
            return sample(*args, **kwargs)

        monkeypatch.setattr(runner, "sample_solution", counted)
        monkeypatch.setattr(solitonlab.evolution, "sample_solution", counted)
        cfg = apply_overrides(default_config(scenario), overrides)
        run_scenario(cfg, out_dir=tmp_path)
        assert len(seen) == calls
        assert seen[0] == 0.0

    def test_divided_step_runs_as_planned(self):
        # 20/18393 is a step that ceil(T/dt - 1e-12) re-lands on 18394
        # steps; the run takes the planned 18393, for which its history
        # phi(-dt) was sampled, and does not warn
        params = PhysicalParams(M=1.0, m=0.5, v=1.0)
        spec = spec_1d_b(params)
        grid = make_grid(1, 16, matched_length(spec, params))
        initial, dt = runner._member_start(
            spec, params, grid, 20.0, 0.0010873761070847989, "coupled", 0.0)
        assert dt == 20.0 / 18393
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = evolve(initial, 20.0, dt)
        assert traj.step_count == 18393
        assert traj.dt == dt


class TestSolitonMember:
    """choquard-stationary, perturbation-stability and free-spreading's
    self-trapped reference run the [soliton] member the config names."""

    def test_choquard_stationary_starts_at_soliton_x0(self, tmp_path):
        cfg = apply_overrides(default_config("choquard-stationary"),
                              ["grid.n=256", "run.T=0.5", "soliton.x0=3"])
        run_scenario(cfg, out_dir=tmp_path)
        P = runner._physical_params(cfg)
        spec = spec_1d_b(P)
        grid = make_grid(1, 256, matched_length(spec, P))
        snapshot = np.loadtxt(tmp_path / "snapshot_initial.csv",
                              delimiter=",", skiprows=2)
        psi = snapshot[:, 1] + 1j * snapshot[:, 2]
        assert np.array_equal(
            psi, state_from_solution(spec, P, grid, x0=3.0).psi)
        assert not np.array_equal(psi, state_from_solution(spec, P, grid).psi)

    def test_perturbation_perturbs_the_named_family(self, tmp_path,
                                                    monkeypatch):
        seen = []

        def spy(state, *args, **kwargs):
            seen.append(state)
            return perturb(state, *args, **kwargs)

        monkeypatch.setattr(runner, "perturb", spy)
        cfg = apply_overrides(default_config("perturbation-stability"),
                              ["grid.n=256", "run.T=0.5",
                               "soliton.family=3d_a"])
        run_scenario(cfg, out_dir=tmp_path)
        P = runner._physical_params(cfg)
        spec = spec_3d_a(P, omega=P.M)
        grid = make_grid(1, 256, matched_length(spec, P))
        expected = state_from_solution(spec, P, grid).psi
        assert len(seen) == 2
        assert all(np.array_equal(s.psi, expected) for s in seen)

    def test_free_spreading_reference_is_the_named_member(self, tmp_path,
                                                          monkeypatch):
        # a quasi-1D 3d_b reference carries its transverse mode on the
        # reference lattice, and the default packet matches its width
        starts = []

        def spy(initial, *args, **kwargs):
            starts.append(initial)
            return evolve(initial, *args, **kwargs)

        monkeypatch.setattr(runner, "evolve", spy)
        cfg = apply_overrides(default_config("free-spreading"),
                              ["grid.n=512", "run.T=0.5",
                               "soliton.family=3d_b", "soliton.gamma=0.1"])
        report = run_scenario(cfg, out_dir=tmp_path)
        P = runner._physical_params(cfg)
        spec = spec_3d_b(P, mu=P.m, gamma=0.1)
        grid = make_grid(1, 512, matched_length(spec, P), (0.1, 0.0))
        assert len(starts) == 2
        assert starts[1].grid == grid
        assert np.array_equal(starts[1].psi,
                              state_from_solution(spec, P, grid).psi)
        assert report.details["sigma0"] == closed_form_width(spec, P)


class TestSlavedDepths:
    def test_choquard_prefactor_halves_field_depth(self):
        # at the standing point the full source 2M/v^2 gives the closed-form
        # depth; the half convention's source is halved exactly, and so is
        # its field
        PC = PhysicalParams(M=1.0, m=1.0, v=math.sqrt(2.0 / 3.0))
        g = make_grid(1, 1024, 64.0)
        member = state_from_solution(spec_1d_b(PC), PC, g)
        full, half = runner._slaved_depths(
            state_with_static_field(member.psi, PC, g))
        assert half == 0.5 * full
        assert full == pytest.approx(-0.75, abs=1e-10)


def _last_lines(code: str, tmp_path: Path, count: int) -> list[str]:
    """Run code in a fresh interpreter on this package, with tmp_path as
    its argument, and return the last count lines it printed."""
    src = str(Path(solitonlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          env=env, capture_output=True, text=True,
                          timeout=60, check=True)
    return done.stdout.strip().splitlines()[-count:]


class TestImports:
    def test_package_and_scenarios_load_no_scipy(self, tmp_path):
        # scipy's import costs more than the package's own, and no run
        # needs it: width_rescale resamples with numpy FFTs
        code = textwrap.dedent("""
            import sys
            from solitonlab.config import apply_overrides, default_config
            from solitonlab.runner import run_scenario
            runs = {
                "soliton-propagation": ["grid.n=256", "run.T=0.5"],
                "free-spreading": ["grid.n=512", "run.T=0.5"],
                "yukawa-oracle": ["oracle.run_3d=false", "oracle.cases=1"],
                "perturbation-stability": ["perturb.kind=width_rescale",
                                           "grid.n=256", "run.T=0.5"],
            }
            for name, overrides in runs.items():
                config = apply_overrides(default_config(name), overrides)
                run_scenario(config, out_dir=sys.argv[1] + "/" + name)
            print(sorted(m for m in sys.modules
                         if m == "scipy" or m.startswith("scipy.")))
        """)
        assert _last_lines(code, tmp_path, 1) == ["[]"]
        assert (tmp_path / "free-spreading" / "report.json").exists()

    def test_runs_load_no_unused_modules(self, tmp_path):
        # seeded draws come from the stdlib random module, so no run maps
        # numpy.random or, through secrets, OpenSSL; the sweep runs no
        # thread pool; and the direct oracle's Gauss rules need no
        # numpy.polynomial
        code = textwrap.dedent('''
            import sys
            import solitonlab.cli
            from solitonlab.config import apply_overrides, default_config
            from solitonlab.runner import run_scenario
            UNUSED = ("numpy.random", "secrets", "_hashlib",
                      "concurrent.futures", "numpy.polynomial")
            def loaded(stage):
                print(stage, sorted(m for m in UNUSED if m in sys.modules))
            loaded("import")
            runs = {
                "soliton-propagation": ["grid.n=256", "run.T=0.5"],
                "free-spreading": ["grid.n=512", "run.T=0.5"],
                "choquard-stationary": ["grid.n=256", "run.T=1"],
                "verify-residuals": ["grid.n=256"],
                "perturbation-stability": ["grid.n=256", "run.T=0.5"],
                "param-sweep": ["grid.n=256", "run.T=0.5",
                                "sweep.values=0.5,0.6"],
            }
            for name, overrides in runs.items():
                config = apply_overrides(default_config(name), overrides)
                run_scenario(config, out_dir=sys.argv[1] + "/" + name)
            loaded("scenarios")
            config = apply_overrides(default_config("yukawa-oracle"),
                                     ["oracle.run_3d=false"])
            run_scenario(config, out_dir=sys.argv[1] + "/yukawa-oracle")
            loaded("oracle")
        ''')
        assert _last_lines(code, tmp_path, 3) == [
            "import []", "scenarios []", "oracle []"]
        for name in ("verify-residuals", "param-sweep", "yukawa-oracle"):
            assert (tmp_path / name / "report.json").exists()


class TestDeterminism:
    def test_perturbation_repeat_is_byte_identical(self, tmp_path):
        cfg = apply_overrides(default_config("perturbation-stability"),
                              ["grid.n=256", "run.T=2.0"])
        report = run_scenario(cfg, out_dir=tmp_path)
        assert report.passed
        first = (tmp_path / "observables.csv").read_bytes()
        repeat = (tmp_path / "observables_repeat.csv").read_bytes()
        assert first == repeat

    def test_same_seed_same_report(self, tmp_path):
        cfg = apply_overrides(default_config("perturbation-stability"),
                              ["grid.n=256", "run.T=1.0"])
        r1 = run_scenario(cfg, out_dir=tmp_path / "a")
        r2 = run_scenario(cfg, out_dir=tmp_path / "b")
        assert [c.value for c in r1.checks] == [c.value for c in r2.checks]
        assert (tmp_path / "a" / "observables.csv").read_bytes() \
            == (tmp_path / "b" / "observables.csv").read_bytes()


class TestSeededDraws:
    @pytest.mark.parametrize("dim, n", [(1, 128), (3, 16)])
    def test_smooth_source_follows_the_seed(self, dim, n):
        grid = make_grid(dim, n, 40.0)
        a, b, c = (runner._smooth_random_source(grid, random.Random(seed))
                   for seed in (3, 3, 4))
        assert a.shape == grid.shape
        assert np.array_equal(a, b)
        assert not np.allclose(a, c)


class TestParamSweep:
    def test_cases_keep_the_given_order(self, tmp_path, monkeypatch):
        # the cases run one after another in the calling thread
        def no_threads(self):
            raise AssertionError("the sweep started a thread")

        monkeypatch.setattr(threading.Thread, "start", no_threads)
        cfg = apply_overrides(
            default_config("param-sweep"),
            ["sweep.values=0.6,0.4", "run.T=2.0", "grid.n=256"])
        report = run_scenario(cfg, out_dir=tmp_path)
        summary = (tmp_path / "sweep_summary.csv").read_text().splitlines()
        assert summary[0].startswith("case,")
        assert summary[1].split(",")[1] == "0.6"
        assert summary[2].split(",")[1] == "0.4"
        assert (tmp_path / "case_00_params.m_0.6" / "report.json").exists()
        assert (tmp_path / "case_01_params.m_0.4" / "report.json").exists()
        assert len(report.details["cases"]) == 2
        assert [c["status"] for c in report.details["cases"]] \
            == ["passed", "passed"]
        assert [c["params.m"] for c in report.details["cases"]] == [0.6, 0.4]

    def test_integer_key_reaches_children_as_int(self, tmp_path):
        cfg = apply_overrides(
            default_config("param-sweep"),
            ["sweep.key=oracle.n_1d", "sweep.values=64,128",
             "sweep.scenario=yukawa-oracle", "oracle.run_3d=false"])
        report = run_scenario(cfg, out_dir=tmp_path)
        assert report.passed
        assert [c["status"] for c in report.details["cases"]] \
            == ["passed", "passed"]
        for i, n in enumerate((64, 128)):
            child = json.loads((tmp_path / f"case_{i:02d}_oracle.n_1d_{n}"
                                / "report.json").read_text())
            assert child["config"]["oracle"]["n_1d"] == n
            assert isinstance(child["config"]["oracle"]["n_1d"], int)

    def test_mode_reaches_soliton_propagation_cases(self, tmp_path):
        # run.mode is soliton-propagation's key, so its sweep passes it on
        cfg = apply_overrides(
            default_config("param-sweep"),
            ["sweep.values=0.6", "run.T=0.5", "grid.n=256",
             "run.mode=choquard"])
        report = run_scenario(cfg, out_dir=tmp_path)
        assert [c["status"] for c in report.details["cases"]] == ["passed"]
        child = json.loads((tmp_path / "case_00_params.m_0.6"
                            / "report.json").read_text())
        assert child["config"]["run"]["mode"] == "choquard"

    def test_fractional_integer_value_is_a_config_error(self, tmp_path):
        cfg = apply_overrides(
            default_config("param-sweep"),
            ["sweep.key=oracle.n_1d", "sweep.values=64.5",
             "sweep.scenario=yukawa-oracle"])
        with pytest.raises(ConfigError, match="integer"):
            run_scenario(cfg, out_dir=tmp_path)

    def test_non_positive_value_is_a_config_error(self, tmp_path):
        # a sweep value is read by the schema like a line or an override,
        # so a bad one stops the sweep before any case runs
        cfg = apply_overrides(
            default_config("param-sweep"),
            ["sweep.key=oracle.cases", "sweep.values=2,0",
             "sweep.scenario=yukawa-oracle"])
        with pytest.raises(ConfigError, match=r"oracle\.cases \(sweep "
                                              r"value\) must be positive"):
            run_scenario(cfg, out_dir=tmp_path)
        assert not list(tmp_path.glob("case_*"))

    def test_case_warnings_reach_the_sweep(self, tmp_path):
        # max|phi| = 2.57 at m = 0.6 and 13.0 at m = 0.4, against M = 1
        cfg = apply_overrides(
            default_config("param-sweep"),
            ["sweep.values=0.6,0.4", "run.T=0.5", "grid.n=256"])
        report = run_scenario(cfg, out_dir=tmp_path)
        expected = []
        for i, (m, case) in enumerate(zip(("0.6", "0.4"), sorted(
                tmp_path.glob("case_*")))):
            child = json.loads((case / "report.json").read_text())
            block = child["details"]["weak_field"]
            assert block["records_over"] == block["records"]
            assert block["max_depth"] == pytest.approx(
                (1.0 / float(m)) ** 4 / 3.0, rel=1e-3)
            assert len(child["warnings"]) == 1
            expected += [f"case {i} (params.m = {m}): {w}"
                         for w in child["warnings"]]
        assert report.warnings == expected
        saved = json.loads((tmp_path / "report.json").read_text())
        assert saved["warnings"] == expected
        assert [l for l in report.summary_lines() if "warning: " in l] \
            == [f"  warning: {w}" for w in expected]

    def test_all_cases_aborted_fails(self, tmp_path, monkeypatch):
        # each child's run blows up: the sweep finishes and fails
        monkeypatch.setattr(runner, "evolve", blow_up)
        cfg = apply_overrides(
            default_config("param-sweep"),
            ["sweep.values=0.5,0.6", "grid.n=256"])
        report = run_scenario(cfg, out_dir=tmp_path)
        assert not report.passed
        assert [c["status"] for c in report.details["cases"]] \
            == ["aborted", "aborted"]
        assert [c.criterion for c in report.checks if not c.passed] \
            == ["sweep"]

    def test_one_case_run_keeps_the_merge(self, tmp_path):
        # m = 0.9 has no subluminal 1d_b member (a configuration error),
        # but the case at 0.5 runs: the sweep finishes, failed by the first
        cfg = apply_overrides(
            default_config("param-sweep"),
            ["sweep.values=0.9,0.5", "run.T=0.5", "grid.n=256"])
        report = run_scenario(cfg, out_dir=tmp_path)
        assert [c["status"] for c in report.details["cases"]] \
            == ["aborted", "passed"]
        assert "sweep" in [c.criterion for c in report.checks
                           if not c.passed]


class TestCliExitCodes:
    def test_pass_is_zero(self, tmp_path, capsys):
        code = main(["verify-residuals", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "[PASS]" in out

    def test_failed_checks_are_one(self, tmp_path, capsys):
        code = main(["verify-residuals", "--out", str(tmp_path),
                     "--override", "grid.n=64"])
        assert code == 1
        assert "[FAIL]" in capsys.readouterr().out

    def test_config_error_is_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[run]\nscenario = verify-residuals\nbanana = 1\n")
        code = main(["verify-residuals", "--config", str(bad),
                     "--out", str(tmp_path)])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    def test_missing_config_file_is_two(self, tmp_path, capsys):
        code = main(["verify-residuals", "--config",
                     str(tmp_path / "absent.ini"), "--out", str(tmp_path)])
        assert code == 2

    def test_scenario_mismatch_is_two(self, tmp_path, capsys):
        cfg = tmp_path / "other.ini"
        cfg.write_text("[run]\nscenario = free-spreading\n")
        code = main(["yukawa-oracle", "--config", str(cfg),
                     "--out", str(tmp_path)])
        assert code == 2
        assert "mismatch" in capsys.readouterr().err

    def test_all_aborted_sweep_is_nonzero(self, tmp_path, capsys,
                                          monkeypatch):
        monkeypatch.setattr(runner, "evolve", blow_up)
        code = main(["param-sweep", "--out", str(tmp_path),
                     "--override", "sweep.values=0.5,0.6",
                     "--override", "grid.n=256"])
        assert code == 1
        out = capsys.readouterr().out
        assert "param-sweep: failed" in out
        assert "[FAIL] sweep" in out

    @pytest.mark.parametrize("scenario", ["soliton-propagation",
                                          "verify-residuals"])
    def test_misconfigured_sweep_is_two(self, tmp_path, capsys, scenario):
        # every case refuses soliton.gamma: the first refusal is named
        code = main(["param-sweep", "--out", str(tmp_path),
                     "--override", "sweep.key=soliton.gamma",
                     "--override", "sweep.values=0.1,0.2",
                     "--override", f"sweep.scenario={scenario}"])
        assert code == 2
        err = capsys.readouterr().err
        assert "configuration error: all 2 sweep cases are misconfigured; " \
            "case 0 (soliton.gamma = 0.1): invalid soliton.gamma" in err

    @pytest.mark.parametrize("override", [
        "oracle.n_3d=30", "oracle.n_3d=8", "oracle.n_1d=100",
        "oracle.n_3d=64", "params.m=1e-300", "params.m=1e-150"])
    def test_bad_oracle_size_is_two_before_any_work(self, tmp_path, capsys,
                                                    monkeypatch, override):
        # not a power of two >= 16, over the direct route's point limit
        # (64^3), or a box 40/m (1D) or 20/m (3D) whose squared distances
        # or cell volumes overflow: refused before the first source is drawn
        def no_work(*args, **kwargs):
            raise AssertionError("oracle work ran before the size check")

        monkeypatch.setattr(runner, "_smooth_random_source", no_work)
        code = main(["yukawa-oracle", "--out", str(tmp_path),
                     "--override", override])
        assert code == 2
        assert override.split("=")[0] in capsys.readouterr().err

    def test_small_scalar_mass_under_the_box_bound_runs(self, tmp_path):
        # the 3D box 20/m = 2e101 keeps its cell volume a finite float
        assert main(["yukawa-oracle", "--out", str(tmp_path),
                     "--override", "params.m=1e-100"]) == 0

    @pytest.mark.parametrize("scenario,overrides,named", [
        ("free-spreading", ["grid.n=1000"], "grid.n"),
        ("free-spreading", ["grid.dim=3", "grid.n=64"], "1D"),
        ("free-spreading", ["grid.length=10", "packet.sigma0=1"],
         "too short"),
        # past pi/dx - pi/sigma0 the lattice samples an aliased packet
        ("free-spreading", ["packet.k0=500"], "packet.k0"),
        ("verify-residuals", ["grid.n=1000"], "grid.n"),
        ("perturbation-stability",
         ["perturb.kind=width_rescale", "perturb.strength=-2"], "strength"),
        ("verify-residuals", ["soliton.mu=2"], "invalid soliton.mu"),
        ("verify-residuals", ["soliton.mu=1.0"], "invalid soliton.mu"),
        ("soliton-propagation", ["soliton.family=3d_b", "soliton.mu=1.0"],
         "mu"),
        ("soliton-propagation", ["soliton.family=3d_b", "soliton.mu=-1.0"],
         "mu"),
        # (3/2) m^3 v^2 > M^3: no subluminal 1d_b member
        ("verify-residuals", ["params.m=0.9"],
         "invalid [params]: parameters violate 1d_b constraints: "
         "velocity_real: (3/2) m^3 v^2"),
        ("free-spreading", ["params.m=0.9"], "m^3 v^2"),
        ("perturbation-stability", ["params.m=0.9"], "m^3 v^2"),
        # the default packet (the 1d_b width) is 0.011 lattice spacings
        ("free-spreading", ["params.v=0.1", "run.T=0.5"], "spacing"),
        # a box under MIN_DOMAIN_WIDTHS envelope widths of the member
        ("soliton-propagation", ["grid.length=1"], "grid.length"),
        ("choquard-stationary", ["grid.length=1"], "grid.length"),
        ("perturbation-stability", ["grid.length=1"], "grid.length"),
        ("verify-residuals", ["grid.length=1"], "grid.length"),
        # the moving member is singular at m = M, and the audit's one at
        # mu = m needs m < M, whatever soliton.mu says
        ("soliton-propagation", ["soliton.family=3d_b", "params.m=1.0",
                                 "params.v=0.75"], "m != M"),
        ("verify-residuals", ["params.m=1.0", "params.v=0.75",
                              "soliton.mu=0"],
         "invalid [params]: parameters violate 3d_b constraints: "
         "mass_nondegenerate: m != M"),
        ("verify-residuals", ["params.M=0.95", "params.m=1.0",
                              "params.v=0.6", "soliton.mu=0"],
         "momentum_bound"),
        # about 1e299 steps
        ("soliton-propagation", ["run.T=0.1", "run.dt=1e-300"], "run.dt"),
        # numpy's generators take no negative seed
        ("verify-residuals", ["run.seed=-1"], "run.seed"),
        ("yukawa-oracle", ["run.seed=-1"], "run.seed"),
        ("soliton-propagation", ["run.seed=-1"], "run.seed"),
        # the factories refuse the zero-width 3d_b member and a negative
        # 3d_a inverse width, naming the constraint
        ("soliton-propagation", ["soliton.family=3d_b", "soliton.mu=1.0"],
         "momentum_bound"),
        ("soliton-propagation", ["soliton.family=3d_a", "soliton.alpha=-2"],
         "alpha_positive"),
        # a lattice spacing wider than the member: it falls between nodes
        ("soliton-propagation", ["grid.length=1e9", "grid.n=256"],
         "spacing"),
        # 2048^3 points: 128 GiB per complex field
        ("soliton-propagation", ["grid.dim=3"], "grid.n"),
        # run.mode is read by soliton-propagation alone
        ("perturbation-stability", ["run.mode=choquard"], "run.mode"),
        ("choquard-stationary", ["run.mode=coupled"], "run.mode"),
        ("free-spreading", ["run.mode=free"], "run.mode"),
        ("param-sweep", ["sweep.scenario=perturbation-stability",
                         "run.mode=choquard"], "run.mode"),
        # every [soliton] value reaches the member or is refused, naming
        # the field its family does not take
        ("soliton-propagation", ["soliton.gamma=0.3"], "takes no gamma"),
        ("soliton-propagation", ["soliton.mu=0.2"], "takes no mu"),
        ("soliton-propagation", ["soliton.alpha=3"], "takes no alpha"),
        ("soliton-propagation", ["soliton.family=3d_b", "soliton.alpha=5"],
         "takes no alpha"),
        ("soliton-propagation", ["toggles.phi_profile=sech_squared"],
         "invalid toggles.phi_profile: family 1d_b takes no phi_profile"),
        # a consistent pair too: the member takes one of the two
        ("soliton-propagation", ["soliton.family=3d_a", "soliton.alpha=2",
                                 "soliton.omega=1.5"],
         "exactly one of alpha or omega"),
        # so do the other evolving member runs, naming the key
        ("free-spreading", ["soliton.alpha=3"],
         "invalid soliton.alpha: family 1d_b takes no alpha"),
        ("choquard-stationary", ["soliton.gamma=0.3"],
         "invalid soliton.gamma: family 1d_b takes no gamma"),
        ("perturbation-stability", ["toggles.phi_profile=sech_squared"],
         "invalid toggles.phi_profile: family 1d_b takes no phi_profile"),
        # verify-residuals reads soliton.mu alone: any other [soliton]
        # value or toggles.phi_profile off its default is refused
        ("verify-residuals", ["soliton.family=3d_a"],
         "invalid soliton.family: verify-residuals does not read it"),
        ("verify-residuals", ["soliton.gamma=0.3"],
         "invalid soliton.gamma: verify-residuals does not read it"),
        ("verify-residuals", ["soliton.alpha=2"],
         "invalid soliton.alpha: verify-residuals does not read it"),
        ("verify-residuals", ["soliton.omega=1.5"],
         "invalid soliton.omega: verify-residuals does not read it"),
        ("verify-residuals", ["soliton.eps=0.1"],
         "invalid soliton.eps: verify-residuals does not read it"),
        ("verify-residuals", ["soliton.x0=2"],
         "invalid soliton.x0: verify-residuals does not read it"),
        ("verify-residuals", ["toggles.phi_profile=sech_squared"],
         "invalid toggles.phi_profile: verify-residuals does not read it"),
    ], ids=["free-n", "free-dim", "free-length", "free-aliased-k0",
            "verify-n",
            "rescale-strength", "verify-mu-2", "verify-mu-M",
            "propagate-mu-M", "propagate-mu-minus-M", "verify-1d_b-m",
            "free-1d_b-m", "perturb-1d_b-m", "free-packet-below-spacing",
            "propagate-short-box", "choquard-short-box", "perturb-short-box",
            "verify-short-box", "propagate-3d_b-m-equals-M",
            "verify-m-equals-M", "verify-m-above-M", "propagate-step-count",
            "verify-negative-seed", "oracle-negative-seed",
            "propagate-negative-seed", "propagate-3d_b-mu-M-constraint",
            "propagate-3d_a-negative-alpha", "propagate-spacing-over-width",
            "propagate-3d-too-many-points", "perturb-mode",
            "choquard-mode", "free-mode", "sweep-perturb-mode",
            "propagate-1d_b-gamma", "propagate-1d_b-mu",
            "propagate-1d_b-alpha", "propagate-3d_b-alpha",
            "propagate-1d_b-phi-profile", "propagate-3d_a-pair",
            "free-1d_b-alpha", "choquard-1d_b-gamma",
            "perturb-1d_b-phi-profile", "verify-family", "verify-gamma",
            "verify-alpha", "verify-omega", "verify-eps", "verify-x0",
            "verify-phi-profile"])
    def test_engine_rejected_setting_is_two_before_any_work(
            self, tmp_path, capsys, monkeypatch, scenario, overrides, named):
        # lattice sizes, packet widths, momenta and rescale strengths the
        # engine would reject are configuration errors, raised before any
        # evolution or residual audit starts
        def no_work(*args, **kwargs):
            raise AssertionError("work ran before the settings were checked")

        monkeypatch.setattr(runner, "evolve", no_work)
        monkeypatch.setattr(runner, "full_family_audit", no_work)
        argv = [scenario, "--out", str(tmp_path)]
        for override in overrides:
            argv += ["--override", override]
        assert main(argv) == 2
        assert named in capsys.readouterr().err

    def test_verify_residuals_runs_at_its_defaults_written_out(
            self, tmp_path, capsys):
        # the refusal reads values, not whether a key was given: the
        # defaults spelled out run, and soliton.mu is still read
        code = main(["verify-residuals", "--out", str(tmp_path),
                     "--override", "soliton.family=1d_b",
                     "--override", "soliton.gamma=0",
                     "--override", "soliton.x0=0",
                     "--override", "toggles.phi_profile=sech",
                     "--override", "soliton.mu=0.45"])
        assert code == 0
        assert "vs mu/M = 0.45" in capsys.readouterr().out

    @pytest.mark.parametrize("dim, n, kept", [(1, 16384, True),
                                              (3, 128, True),
                                              (3, 256, False)])
    def test_member_lattice_point_limit(self, dim, n, kept):
        # Grid allocates nothing until a field asks, so this builds no array
        cfg = apply_overrides(default_config("soliton-propagation"),
                              [f"grid.dim={dim}", f"grid.n={n}"])
        params = runner._physical_params(cfg)
        if kept:
            assert runner._member_grid(cfg, spec_1d_b(params), params).n == n
        else:
            with pytest.raises(ConfigError, match="grid.dim"):
                runner._member_grid(cfg, spec_1d_b(params), params)

    def test_packet_lattice_point_limit(self, tmp_path, capsys, monkeypatch):
        # free-spreading's packet lattice is held to the same limit, and
        # refused before the packet is sampled on it
        def no_field(*args, **kwargs):
            raise AssertionError("a field was built on the lattice")

        monkeypatch.setattr(runner, "gaussian_packet", no_field)
        code = main(["free-spreading", "--out", str(tmp_path),
                     "--override", "grid.n=4194304"])
        assert code == 2
        assert "grid.n" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides", [
        ["soliton.family=3d_b", "soliton.gamma=0.1"],
        ["soliton.family=3d_a", "soliton.eps=0.2"],
    ], ids=["3d_b-gamma", "3d_a-eps"])
    def test_transverse_member_runs_on_a_quasi_1d_lattice(self, tmp_path,
                                                          overrides):
        # a nonzero gamma or eps rides on the lattice as its transverse mode
        argv = ["soliton-propagation", "--out", str(tmp_path),
                "--override", "grid.n=1024"]
        for override in overrides:
            argv += ["--override", override]
        assert main(argv) == 0
        header = (tmp_path / "snapshot_final.csv").read_text().splitlines()[0]
        assert "transverse=gamma:" in header
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["step_count"] > 0

    def test_fractional_stride_is_two(self, tmp_path, capsys):
        code = main(["free-spreading", "--out", str(tmp_path),
                     "--override", "run.stride=2.7"])
        assert code == 2
        assert "run.stride" in capsys.readouterr().err

    def test_numerical_abort_is_three(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(runner, "evolve", blow_up)
        code = main(["soliton-propagation", "--out", str(tmp_path),
                     "--override", "grid.n=256",
                     "--override", "run.T=0.5"])
        assert code == 3
        assert "numerical abort" in capsys.readouterr().err
        assert (tmp_path / FAILED_MARKER).exists()

    def test_internal_error_is_four(self, tmp_path, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("engine fault\nsecond line")

        monkeypatch.setattr(cli, "run_scenario", broken)
        code = main(["verify-residuals", "--out", str(tmp_path)])
        assert code == cli.EXIT_INTERNAL_ERROR == 4
        err = capsys.readouterr().err
        assert "internal error: RuntimeError: engine fault" in err
