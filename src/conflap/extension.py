"""Degenerate-elliptic extension realization of the fractional Laplacian.

For each tangential frequency xi the extension problem

    -d/dy (y^a dU/dy) + xi^2 y^a U = 0,   U(0) = 1,  U -> 0 at infinity,

with a = 1 - 2s is solved on a graded mesh in flux form, and the weighted
Neumann trace -d*_s lim y^a U'(y) recovers the multiplier |xi|^(2s).  The
normalizing constants d_s and d*_s tie the trace to the singular-integral
convention.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .errors import ParameterError
from .specfun import log_gamma, signed_gamma


def _require_order(s):
    if not 0.0 < s < 1.0:
        raise ParameterError(f"extension constants need s in (0, 1), got {s!r}")


def d_s_const(s):
    """2^(2s) Gamma(s) / Gamma(-s); negative on (0, 1), equal to -1 at s = 1/2."""
    _require_order(s)
    sign, log_abs = signed_gamma(-s)
    return sign * math.exp(2.0 * s * math.log(2.0) + log_gamma(s) - log_abs)


def d_star_const(s):
    """-d_s / (2s), the positive weight in front of the Neumann trace."""
    return -d_s_const(s) / (2.0 * s)


def weighted_volume_coefficient(p, curvature, volume):
    """Q vol / (d_s (n/2 - s)), the coefficient tying total curvature to the
    weighted volume of the extension."""
    if not (math.isfinite(curvature) and math.isfinite(volume) and volume > 0.0):
        raise ParameterError("need finite curvature and positive volume")
    if abs(p.n - 2.0 * p.s) < 1e-12:
        raise ParameterError("coefficient is undefined at s = n/2")
    return curvature * volume / (d_s_const(p.s) * (p.n / 2.0 - p.s))


@dataclass(frozen=True)
class ExtensionSolution:
    """Solution record for one tangential frequency.

    ``mesh`` and ``values`` include the boundary node y = 0 with U = 1;
    ``dtn`` is the fitted weighted Neumann trace and ``boundary_flux`` the
    raw discrete interface flux c_(1/2) (U_1 - U_0) entering the energy
    identity.
    """

    s: float
    xi: float
    mesh: np.ndarray
    values: np.ndarray
    dtn: float
    boundary_flux: float

    def __post_init__(self):
        for name in ("mesh", "values"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def _graded_mesh(s, xi, size, y_max):
    if y_max is None:
        # the solution decays like e^(-xi y), so it lives on y <~ 30 / xi
        y_max = 30.0 / max(abs(xi), 1e-30)
    grading = max(2.0, 1.0 / s)
    return y_max * (np.arange(size + 1) / size) ** grading


def _flux_coefficients(y, s):
    """Exact-flux couplings 2s / (y_(k+1)^(2s) - y_k^(2s)) across each cell."""
    gaps = np.diff(y ** (2.0 * s))
    if not np.all(gaps > 0.0):
        # the grading 1/s underflows the first nodes to 0 for small s
        raise ParameterError(
            f"graded mesh degenerates at s = {s!r}, mesh_size = {y.size - 1}: "
            "consecutive nodes have equal y^(2s)"
        )
    return 2.0 * s / gaps


def _mass_weights(y, s):
    """Cell integrals of y^(1-2s) around each interior node (and the last)."""
    expo = 2.0 - 2.0 * s
    mids = 0.5 * (y[:-1] + y[1:])
    edges = np.concatenate([[0.0], mids, [y[-1]]])
    cells = np.diff(edges**expo) / expo
    return cells[1:]


def solve_extension_mode(p, xi, mesh_size=600, y_max=None):
    """Solve the extension problem for one frequency and recover the trace.

    The mesh is graded toward y = 0 where U behaves like 1 + A y^(2s); flux
    couplings are integrated exactly against the degenerate weight, and the
    far end carries the radiation closure U' = -|xi| U.  The trace is fitted
    on the leading nodes against the y^(2s) and y^2 branches, which removes
    the smooth contamination that a raw one-sided flux would keep.
    """
    s = p.s
    _require_order(s)
    xi = abs(float(xi))
    if not math.isfinite(xi):
        raise ParameterError(f"frequency must be finite, got {xi!r}")
    if mesh_size < 32:
        raise ParameterError(f"mesh_size must be at least 32, got {mesh_size}")
    xi_sq = xi * xi
    if not math.isfinite(xi_sq):
        raise ParameterError(f"frequency {xi!r} is too large: xi^2 overflows")
    y = _graded_mesh(s, xi, mesh_size, y_max)
    if xi == 0.0:
        return ExtensionSolution(
            s=s, xi=0.0, mesh=y, values=np.ones(y.size), dtn=0.0, boundary_flux=0.0
        )

    flux = _flux_coefficients(y, s)
    mass = _mass_weights(y, s)
    size = mesh_size
    diag = np.empty(size)
    diag[:-1] = flux[:-1] + flux[1:]
    diag[-1] = flux[-1] + xi * y[-1] ** (1.0 - 2.0 * s)
    diag += xi_sq * mass
    upper = -flux[1:]
    rhs = np.zeros(size)
    rhs[0] = flux[0]

    banded = np.zeros((3, size))
    banded[0, 1:] = upper
    banded[1, :] = diag
    banded[2, :-1] = upper
    interior = solve_banded((1, 1), banded, rhs)

    values = np.concatenate([[1.0], interior])
    boundary_flux = flux[0] * (interior[0] - 1.0)

    # fit over a fixed physical window so refining the mesh adds nodes
    # instead of shrinking the span (which would let the branches collude)
    cap = 0.05 * min(1.0, 1.0 / xi)
    count = int(np.searchsorted(y, cap))
    count = min(max(count, 8), size)
    # in the scaled variable xi y the branches stay O(1) at any frequency
    t_fit = xi * y[1 : count + 1]
    design = np.stack(
        [t_fit ** (2.0 * s), t_fit**2, t_fit ** (2.0 + 2.0 * s)], axis=1
    )
    coeffs, *_ = np.linalg.lstsq(design, values[1 : count + 1] - 1.0, rcond=None)
    dtn = d_s_const(s) * coeffs[0] * xi ** (2.0 * s)
    return ExtensionSolution(
        s=s, xi=xi, mesh=y, values=values, dtn=float(dtn),
        boundary_flux=float(boundary_flux),
    )


def energy_of_extension(sol):
    """Weighted Dirichlet energy of the discrete extension,

        sum c (Delta U)^2 + xi^2 sum w U^2 + |xi| y_K^a U_K^2 ,

    which by summation against the discrete equations collapses to the
    boundary term -c_(1/2) (U_1 - U_0); with the trace weight it satisfies
    energy = dtn_flux / d*_s > 0.
    """
    s = sol.s
    if sol.xi == 0.0:
        return 0.0
    y = sol.mesh
    u = sol.values
    flux = _flux_coefficients(y, s)
    mass = _mass_weights(y, s)
    energy = float(flux @ np.diff(u) ** 2)
    energy += sol.xi**2 * float(mass @ u[1:] ** 2)
    energy += sol.xi * y[-1] ** (1.0 - 2.0 * s) * u[-1] ** 2
    return energy
