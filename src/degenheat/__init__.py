"""Numerical laboratory for the semilinear heat equation with degenerate
power weights: kernel construction, weighted Lorentz calculus, mild-solution
Picard evolution, and the blow-up/global-existence dichotomy at desk scale."""

from .blowup import (
    CellOutcome,
    DichotomyReport,
    classify,
    critical_log_growth,
    kaplan_bound_series,
    subcritical_escape,
    sweep_dichotomy,
)
from .constants import FittedConstants
from .evolve import (
    EvolveConfig,
    GlobalRun,
    Outcome,
    PicardRun,
    picard_iterate,
    solve_global_small,
    solve_local,
    split_step_reference,
    stability_check,
)
from .kernel import KernelSuite, KernelTable, build_kernel, kernel_bounds, verify_kernel
from .lorentz import (
    InequalityParams,
    LorentzIndex,
    RearrangementTable,
    StepFunction,
    distribution_fn,
    inequality_suite,
    lorentz_norm,
    rearrangement,
    spherical_rearrangement,
    weighted_lp_norm,
)
from .semigroup import apply_semigroup, decay_rates, heat_core_lower
from .weights import (
    Grid,
    GridFunction,
    WeightCase,
    WeightSpec,
    ball_mass,
    ball_mass_bounds,
    fit_ball_constants,
    make_grid,
    weight_at,
)

__version__ = "0.1.0"
