"""Conformal fractional Laplacians on model geometries.

Numerical routines for the fractional conformal operator and its curvature on
the round sphere, the flat cylinder and Euclidean space, the Caffarelli-
Silvestre extension realization, and the periodic (Delaunay) solutions of the
constant-curvature equation on the cylinder.
"""

from types import ModuleType as _ModuleType

from .cylinder import (
    calibrate_kernel,
    cyl_curvature,
    cyl_kernel,
    cyl_symbol,
    kernel_base,
    kernel_multiplier,
    periodized_kernel,
    theta0,
)
from .delaunay import (
    DelaunaySolution,
    asymptotic_profile,
    bifurcation_period,
    bubble_tower_defect,
    continue_branch,
    delaunay_residual,
    functional_FL,
    kernel_functional_FL,
    limit_amplitude,
    solve_delaunay,
)
from .errors import (
    ConflapError,
    NewtonDivergenceError,
    NonConvergenceError,
    ParameterError,
    SingularityError,
    SupportError,
)
from .euclidean import (
    commutator_check,
    covariance_bridge,
    frac_lap_integral,
    frac_lap_spectral,
)
from .extension import (
    d_s_const,
    d_star_const,
    solve_extension_mode,
    weighted_volume_coefficient,
)
from .params import FracParams, GridFunction, KernelSpec
from .specfun import hyp2f1, log_gamma, log_gamma_abs2
from .sphere import (
    ModeSpectrum,
    apply_sphere,
    apply_sphere_grid,
    calibrate_sphere_kernel,
    frac_lap_constant,
    gjms_symbol,
    singular_integral_apply,
    sphere_curvature,
    sphere_kernel,
    sphere_symbol,
    vol_sphere,
)

__version__ = "0.1.0"

__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
