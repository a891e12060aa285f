"""Spans around the calls into each solitonlab module, from outside the package.

A Tracer replaces module attributes with wrappers that record one span per
call: (name, parent span id, start, end, tag). Calls are found where the
calling modules bound them, so `from .spectral import laplacian` in
evolution is wrapped through solitonlab.evolution.laplacian, and the
scipy.fft / numpy.fft transforms through those modules' attributes, which
the package looks up at call time. Spans stay in memory until the run ends.
Nothing inside evolve is split: kick, drift, scalar update and guard stay
in evolution.evolve's self time.

per_layer() turns the spans into the metrics listed in PER_LAYER.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Any, Callable

# (span name, defining module, attribute)
TARGETS = (
    ("model.make_grid", "solitonlab.model", "make_grid"),
    ("model.validate_params", "solitonlab.model", "validate_params"),
    ("solutions.sample_solution", "solitonlab.solutions", "sample_solution"),
    ("solutions.state_build", "solitonlab.evolution", "state_from_solution"),
    ("solutions.state_build", "solitonlab.evolution",
     "state_with_static_field"),
    ("solutions.state_build", "solitonlab.evolution", "gaussian_packet"),
    ("solutions.state_build", "solitonlab.evolution", "perturb"),
    ("residuals.full_family_audit", "solitonlab.residuals",
     "full_family_audit"),
    ("evolution.evolve", "solitonlab.evolution", "evolve"),
    ("spectral.laplacian", "solitonlab.spectral", "laplacian"),
    ("spectral.yukawa_invert", "solitonlab.spectral", "yukawa_invert"),
    ("spectral.direct", "solitonlab.spectral", "yukawa_convolve_direct"),
    ("diagnostics.measure", "solitonlab.diagnostics", "measure"),
    ("artifacts.write", "solitonlab.artifacts", "write_snapshot"),
    ("artifacts.write", "solitonlab.artifacts", "write_observables_csv"),
    ("artifacts.write", "solitonlab.artifacts", "write_plot_script"),
)
FFT_COMPLEX = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn")
FFT_REAL = ("rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn")
SCENARIOS = ("verify-residuals", "soliton-propagation", "free-spreading",
             "choquard-stationary", "yukawa-oracle", "perturbation-stability")

# metric name -> (unit, better); BENCHMARK.json lists the same
PER_LAYER: dict[str, tuple[str, str]] = {
    "init.import_s": ("s", "lower"),
    "config.build_s": ("s", "lower"),
    "model.make_grid.calls": ("count", "lower"),
    "model.make_grid.s": ("s", "lower"),
    "model.validate_params.calls": ("count", "lower"),
    "model.validate_params.s": ("s", "lower"),
    "solutions.sample_solution.calls": ("count", "lower"),
    "solutions.sample_solution.s": ("s", "lower"),
    "solutions.state_build_s": ("s", "lower"),
    "residuals.full_family_audit.s": ("s", "lower"),
    "evolution.evolve.calls": ("count", "lower"),
    "evolution.evolve.s": ("s", "lower"),
    "evolution.evolve.self_s": ("s", "lower"),
    "evolution.steps": ("count", "lower"),
    "evolution.self_us_per_step": ("us", "lower"),
    "spectral.fft.complex.calls": ("count", "lower"),
    "spectral.fft.real.calls": ("count", "lower"),
    "spectral.fft.s": ("s", "lower"),
    "spectral.fft.per_step": ("count/step", "lower"),
    "spectral.laplacian.calls": ("count", "lower"),
    "spectral.laplacian.s": ("s", "lower"),
    "spectral.yukawa_invert.calls": ("count", "lower"),
    "spectral.yukawa_invert.s": ("s", "lower"),
    "spectral.direct.cold_s": ("s", "lower"),
    "spectral.direct.warm_s": ("s", "lower"),
    "spectral.direct.madds": ("count", "lower"),
    "spectral.direct.gmadd_per_s": ("Gmadd/s", "higher"),
    "diagnostics.measure.calls": ("count", "lower"),
    "diagnostics.measure.s": ("s", "lower"),
    "diagnostics.measure_us_per_call": ("us", "lower"),
    "artifacts.write_s": ("s", "lower"),
    "artifacts.bytes": ("B", "lower"),
    "artifacts.mb_per_s": ("MB/s", "higher"),
    **{f"runner.scenario.{s}.s": ("s", "lower") for s in SCENARIOS},
    "runner.run_scenario.self_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


class Tracer:
    """Records spans and counts; one thread, so one stack of open spans."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, float, float, str] | None] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.direct_largest: tuple | None = None  # (points, args, result, s)
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []

    def call(self, name: str, fn: Callable, *args, tag: str = "",
             **kwargs) -> Any:
        spans, stack = self.spans, self._stack
        sid = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            spans[sid] = (name, parent, start, end, tag)

    def _wrapper(self, name: str, fn: Callable) -> Callable:
        if name == "evolution.evolve":
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                traj = self.call(name, fn, *args, **kwargs)
                self.counts["evolution.steps"] += traj.step_count
                return traj
        elif name == "spectral.direct":
            @functools.wraps(fn)
            def traced(source, m, grid):
                start = time.perf_counter()
                out = self.call(name, fn, source, m, grid)
                seconds = time.perf_counter() - start
                best = self.direct_largest
                if best is None or source.size > best[0]:
                    self.direct_largest = (source.size, (source, m, grid),
                                           out, seconds)
                return out
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                return self.call(name, fn, *args, **kwargs)
        return traced

    def _replace(self, original: Any, wrapper: Any,
                 modules: list[Any]) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        """Wrap every target wherever a solitonlab module bound it."""
        import numpy.fft
        import scipy.fft
        package = [mod for key, mod in list(sys.modules.items())
                   if key == "solitonlab" or key.startswith("solitonlab.")]
        for name, module, attr in TARGETS:
            original = getattr(sys.modules[module], attr)
            self._replace(original, self._wrapper(name, original), package)
        for mod in (scipy.fft, numpy.fft):
            for kind, attrs in (("complex", FFT_COMPLEX), ("real", FFT_REAL)):
                for attr in attrs:
                    original = getattr(mod, attr)
                    self._replace(original,
                                  self._wrapper(f"spectral.fft.{kind}",
                                                original), [mod])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def per_layer(self) -> dict[str, float]:
        """Calls, total and self seconds per span name, and derived ratios.

        A span's self time is its duration minus its direct children's.
        """
        spans = self.spans
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        child: list[float] = [0.0] * len(spans)
        for name, parent, start, end, _ in spans:
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        scenario_s: dict[str, float] = defaultdict(float)
        fft_in_evolve = 0
        for sid, (name, parent, start, end, tag) in enumerate(spans):
            self_s[name] += end - start - child[sid]
            if tag:
                scenario_s[tag] += end - start
            if name.startswith("spectral.fft."):
                p = parent
                while p >= 0 and spans[p][0] != "evolution.evolve":
                    p = spans[p][1]
                fft_in_evolve += p >= 0

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        steps = self.counts["evolution.steps"]
        fft_calls = calls["spectral.fft.complex"] + calls["spectral.fft.real"]
        fft_s = total["spectral.fft.complex"] + total["spectral.fft.real"]
        out = {
            "model.make_grid.calls": calls["model.make_grid"],
            "model.make_grid.s": total["model.make_grid"],
            "model.validate_params.calls": calls["model.validate_params"],
            "model.validate_params.s": total["model.validate_params"],
            "solutions.sample_solution.calls":
                calls["solutions.sample_solution"],
            "solutions.sample_solution.s": total["solutions.sample_solution"],
            "solutions.state_build_s": total["solutions.state_build"],
            "residuals.full_family_audit.s":
                total["residuals.full_family_audit"],
            "evolution.evolve.calls": calls["evolution.evolve"],
            "evolution.evolve.s": total["evolution.evolve"],
            "evolution.evolve.self_s": self_s["evolution.evolve"],
            "evolution.steps": steps,
            "evolution.self_us_per_step":
                1e6 * ratio(self_s["evolution.evolve"], steps),
            "spectral.fft.complex.calls": calls["spectral.fft.complex"],
            "spectral.fft.real.calls": calls["spectral.fft.real"],
            "spectral.fft.s": fft_s,
            "spectral.fft.per_step": ratio(fft_in_evolve, steps),
            "spectral.laplacian.calls": calls["spectral.laplacian"],
            "spectral.laplacian.s": total["spectral.laplacian"],
            "spectral.yukawa_invert.calls": calls["spectral.yukawa_invert"],
            "spectral.yukawa_invert.s": total["spectral.yukawa_invert"],
            "diagnostics.measure.calls": calls["diagnostics.measure"],
            "diagnostics.measure.s": total["diagnostics.measure"],
            "diagnostics.measure_us_per_call":
                1e6 * ratio(total["diagnostics.measure"],
                            calls["diagnostics.measure"]),
            "artifacts.write_s": total["artifacts.write"],
            "runner.run_scenario.self_s": self_s["runner.run_scenario"],
        }
        for s in SCENARIOS:
            out[f"runner.scenario.{s}.s"] = scenario_s[s]
        return out
