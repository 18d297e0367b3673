"""Numerical machinery around the second-order exponential-class embedding
on the first Heisenberg group: sharp constants, rearrangement checks,
capacity-normalized extremal families, and a mountain-pass solver for the
singularly weighted biharmonic problem."""

from .group import Q
from .constants import QuadratureOptions, SharpConstants, compute_constants
from .grids import (
    GridDomain,
    GridField,
    ball_grid,
    box_grid,
    gauge_power_field,
    group_lattice_grid,
    load_field,
    save_field,
    zeros,
)
from .operators import (
    integrate_weighted,
    sublaplacian,
)
from .convolve import riesz_convolve
from .rearrange import (
    RearrangementProfile,
    decreasing_rearrangement,
    double_star,
    hardy_littlewood_slack,
    kernel_double_star,
    kernel_star,
    one_d_reduction,
    oneil_slack,
)
from .extremals import (
    AdamsFunction,
    CapacityProfile,
    adams_function,
    capacity_profile,
    sharpness_probe,
    singular_mt_functional,
)
from .varsolve import (
    MountainPassState,
    NonlinearitySpec,
    SolveOptions,
    critical_continuation,
    critical_model,
    cubic_model,
    energy,
    grad_energy,
    lambda_estimate,
    level_bound,
    mountain_pass_solve,
    tail_differences_decreasing,
    validate_hypotheses,
)

__version__ = "0.1.0"
