"""The benchmark's workloads: named lists of scenario configs made from a seed.

- propagate-1d: the coupled 1d_b run at n=4096, T=20. The hot step loop of
  evolve and its complex FFTs; no oracle work.
- oracle-3d: yukawa-oracle at its defaults, 1D cases at n=128 and 32^3. The
  direct-quadrature weight build and apply; no step loop.
- scenarios-small: five scenarios at their defaults, n <= 2048. The same
  layers at small n, where per-call overhead counts: all three evolve
  modes, dense observation, the residual audit, snapshots and repeat CSVs.

Each workload is a list of scenario configs built with the package's own
default_config and apply_overrides, so the program sees only config values.
The seed fixes every generated value:

- propagate-1d: soliton.x0, uniform over one box length of the 1d_b run;
- oracle-3d, verify-residuals, perturbation-stability: run.seed.

The other scenarios take their defaults. This module imports solitonlab only
inside build(), after the caller has started its set-up clock.
"""

from __future__ import annotations

import random

# scenarios that run the step loop; each must report step_count > 0
EVOLVING = frozenset({"soliton-propagation", "free-spreading",
                      "choquard-stationary", "perturbation-stability"})

# for the self-test, an override that makes each workload's first scenario
# raise: a step above the leapfrog guard raises StabilityError, no oracle
# cases and a grid size that is not a power of two raise ConfigError
_FAILURE = {
    "soliton-propagation": "run.dt=1.0",
    "yukawa-oracle": "oracle.cases=0",
    "verify-residuals": "grid.n=1000",
}


def build(workload: str, seed: int, tiny: bool = False,
          inject_failure: bool = False) -> tuple[list, dict]:
    """The workload's ScenarioConfigs and the inputs drawn from the seed.

    tiny shrinks the two large workloads for the self-test: propagate-1d
    runs at n=256 and oracle-3d skips the 3D case. scenarios-small takes a
    few seconds at its defaults and stays as it is. inject_failure adds to
    the first scenario an override that makes it raise.
    """
    from solitonlab.config import apply_overrides, default_config
    from solitonlab.model import PhysicalParams
    from solitonlab.solutions import family_coefficients, spec_1d_b

    rng = random.Random(seed)
    run_seed = rng.randrange(2**31)
    if workload == "propagate-1d":
        base = default_config("soliton-propagation")
        params = PhysicalParams(M=base.get("params", "M"),
                                m=base.get("params", "m"),
                                v=base.get("params", "v"))
        # the box length the runner picks for grid.length = auto
        box = 40.0 / family_coefficients(spec_1d_b(params),
                                         params).envelope_k
        x0 = (rng.random() - 0.5) * box
        plan = [("soliton-propagation",
                 [f"grid.n={256 if tiny else 4096}", f"soliton.x0={x0!r}"])]
        inputs = {"soliton.x0": x0, "box_length": box}
    elif workload == "oracle-3d":
        plan = [("yukawa-oracle", [f"run.seed={run_seed}"]
                 + (["oracle.run_3d=false"] if tiny else []))]
        inputs = {"run.seed": run_seed}
    elif workload == "scenarios-small":
        plan = [("verify-residuals", [f"run.seed={run_seed}"]),
                ("soliton-propagation", ["soliton.family=3d_b"]),
                ("free-spreading", []),
                ("choquard-stationary", []),
                ("perturbation-stability", [f"run.seed={run_seed}"])]
        inputs = {"run.seed": run_seed}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if inject_failure:
        name, overrides = plan[0]
        plan[0] = (name, overrides + [_FAILURE[name]])
    configs = [apply_overrides(default_config(name), overrides)
               for name, overrides in plan]
    return configs, inputs
