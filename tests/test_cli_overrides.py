"""Drawn --override sets through the CLI: a setting is a pass, a failed
check, a configuration error or a numerical abort, never an internal error.

Each draw runs one scenario in-process at grid.n <= 512 and run.T <= 0.5,
with physical, soliton, toggle, packet, lattice and step values drawn
both inside and just outside their valid ranges. The examples pin seven
settings that once ended in tracebacks, and one that would without its
fix: a quasi-1D member with a transverse wavenumber (its lattice lacked
the transverse mode, and so would free-spreading's reference), a packet
far narrower than the lattice spacing (its measured width was 0), a
moving member at rest (its speed check divided by the zero speed), a box
shorter than the member's sampling needs (the sampler raised mid-run), an
infinite value (it reached the engine as inf), a scalar mass equal to M
(the audit's moving member is singular there) and a lattice spacing far
wider than the member (its measured width was 0).
"""

from __future__ import annotations

import math

from hypothesis import example, given, settings, strategies as st

from solitonlab.cli import main
from solitonlab.model import PHI_PROFILES

SCENARIOS = ("verify-residuals", "soliton-propagation", "free-spreading",
             "choquard-stationary", "perturbation-stability")


# valid values per key, and values just outside the valid range. The
# (3/2) m^3 v^2 = M^3 bound of the 1d_b member runs through the params
# box; the box keeps that member at least 0.03 wide, since the step count
# grows as its width shrinks (about 190000 steps at M = 2, mv = 0.02)
INSIDE = {
    "params.M": st.floats(0.6, 1.4),
    "params.m": st.floats(0.4, 1.0),
    "params.v": st.floats(0.6, 1.4),
    "soliton.family": st.sampled_from(("1d_a", "1d_b", "3d_a", "3d_b")),
    "soliton.mu": st.floats(-0.9, 0.9),
    "soliton.gamma": st.floats(-0.5, 0.5),
    "soliton.eps": st.floats(-0.5, 0.5),
    "packet.sigma0": st.floats(0.5, 4.0),
    "packet.k0": st.floats(-2.0, 2.0),
    "run.dt": st.floats(0.01, 0.5),
    "run.mode": st.sampled_from(("coupled", "choquard", "free")),
    "toggles.phi_profile": st.sampled_from(PHI_PROFILES),
}
OUTSIDE = {
    "params.M": (0.0, -1.0),
    "params.m": (0.0, -0.5),
    "params.v": (0.0, -1.0),
    "soliton.family": ("2d_c",),
    "soliton.mu": (1.0, -1.0, 2.0),
    "soliton.gamma": (3.0,),
    "soliton.eps": (3.0,),
    "packet.sigma0": (0.0, -1.0, 0.01),
    "packet.k0": (50.0, math.inf),
    "run.dt": (0.0, -0.1, math.inf),
    "run.T": (math.inf,),
    "perturb.strength": (math.inf,),
    "soliton.x0": (-math.inf,),
    "grid.length": (1.0, 1e9),
    "toggles.phi_profile": ("as_printed_sech",),
}


@st.composite
def override_sets(draw) -> dict:
    """Some keys at valid values; in half the sets one key outside."""
    chosen = draw(st.fixed_dictionaries({}, optional=INSIDE))
    bad = draw(st.one_of(st.none(), st.sampled_from(tuple(OUTSIDE))))
    if bad is not None:
        chosen[bad] = draw(st.sampled_from(OUTSIDE[bad]))
    return chosen


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(scenario=st.sampled_from(SCENARIOS),
       n=st.sampled_from((128, 256, 512)),
       T=st.floats(0.05, 0.5),
       overrides=override_sets())
@example(scenario="soliton-propagation", n=256, T=0.5,
         overrides={"soliton.family": "3d_b", "soliton.gamma": 0.1})
@example(scenario="free-spreading", n=512, T=0.5,
         overrides={"params.v": 0.1})
@example(scenario="soliton-propagation", n=128, T=0.5,
         overrides={"soliton.family": "3d_b", "soliton.mu": 0.0})
@example(scenario="choquard-stationary", n=128, T=0.5,
         overrides={"grid.length": 1.0})
@example(scenario="free-spreading", n=256, T=0.5,
         overrides={"packet.k0": math.inf})
@example(scenario="verify-residuals", n=128, T=0.5,
         overrides={"params.m": 1.0, "params.v": 0.75, "soliton.mu": 0.0})
@example(scenario="soliton-propagation", n=256, T=0.5,
         overrides={"grid.length": 1e9})
@example(scenario="free-spreading", n=512, T=0.5,
         overrides={"soliton.family": "3d_b", "soliton.gamma": 0.1})
def test_no_override_set_is_an_internal_error(tmp_path_factory, scenario, n,
                                              T, overrides):
    if scenario not in ("soliton-propagation", "param-sweep"):
        # run.mode is soliton-propagation's key (the sweep's default case),
        # exit 2 before any work elsewhere (TestCliExitCodes); such a set
        # would test nothing else
        overrides = {k: v for k, v in overrides.items() if k != "run.mode"}
    argv = [scenario, "--out", str(tmp_path_factory.mktemp(scenario)),
            "--override", f"grid.n={n}", "--override", f"run.T={T!r}"]
    for key, value in overrides.items():
        argv += ["--override", f"{key}={value}"]
    assert main(argv) in (0, 1, 2, 3)
