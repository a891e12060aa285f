"""Numerical laboratory for matter wave packets bound by a massive scalar field.

A non-relativistic matter field psi coupled to a real scalar field phi:

    i dpsi/dt + (1/2M) Lap psi - M phi psi = 0
    (Lap - d2/dt2) phi - m^2 phi = (2M/v^2) |psi|^2

The package provides the four closed-form traveling-soliton families of this
system, a spectral residual audit that checks them against the equations, a
split-step evolution engine with a Gautschi scalar update (coupled and
free modes) or a slaved field (choquard mode), diagnostics, and a
config-driven experiment runner.
"""

# runner first, the largest module. Where no bytecode is cached (as under
# PYTHONDONTWRITEBYTECODE) every start compiles the package, and
# compiling runner takes up to about 1 MB of transient heap: compiled
# before the other modules' long-lived objects exist, that space is reused
# by their compiles instead of pinned under them, which lowers a run's
# peak RSS by 0.3-0.8 MiB. With cached bytecode the order makes no
# difference.
from .runner import run_scenario

__version__ = "0.1.0"
