"""Degenerate-elliptic extension realization of the fractional Laplacian.

For a tangential frequency xi the extension problem

    -d/dy (y^a dU/dy) + xi^2 y^a U = 0,   U(0) = 1,  U -> 0 at infinity,

with a = 1 - 2s is free of xi in the variable t = |xi| y, so it is solved
once per (s, mesh_size) in flux form and rescaled by |xi|^(2s).  The weighted
Neumann trace -d*_s lim y^a U'(y) recovers the multiplier |xi|^(2s); the
constants d_s and d*_s tie it to the singular-integral convention.
"""

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import solve_banded

from .errors import ParameterError
from .params import read_only, require_int, require_unit_order
from .specfun import log_gamma


def d_s_const(s):
    """2^(2s) Gamma(s) / Gamma(-s); negative on (0, 1), equal to -1 at s = 1/2.

    Written as -4^s Gamma(1+s) / Gamma(1-s), which has no pole at s = 0 and
    no cancellation, so it tends to -1 as s -> 0.
    """
    require_unit_order(s, "the extension constants")
    return -math.exp(2.0 * s * math.log(2.0) + log_gamma(1.0 + s) - log_gamma(1.0 - s))


def d_star_const(s):
    """-d_s / (2s), the positive weight in front of the Neumann trace;
    ParameterError where it overflows, for s below about 1e-308."""
    out = -d_s_const(s) / (2.0 * s)
    if not math.isfinite(out):
        raise ParameterError(f"d*_s overflows at s = {s!r}")
    return out


def weighted_volume_coefficient(p, curvature, volume):
    """Q vol / (d_s (n/2 - s)), the coefficient tying total curvature to the
    weighted volume of the extension."""
    if not (math.isfinite(curvature) and math.isfinite(volume) and volume > 0.0):
        raise ParameterError("need finite curvature and positive volume")
    p.require_noncritical("the weighted volume coefficient")
    return curvature * volume / (d_s_const(p.s) * (p.n / 2.0 - p.s))


@dataclass(frozen=True)
class ExtensionSolution:
    """Solution record for one tangential frequency.

    ``mesh`` and ``values`` include the boundary node y = 0 with U = 1;
    ``dtn`` is the fitted weighted Neumann trace.
    """

    s: float
    xi: float
    mesh: np.ndarray
    values: np.ndarray
    dtn: float

    def __post_init__(self):
        for name in ("mesh", "values"):  # the record's own copies
            object.__setattr__(self, name, read_only(np.array(getattr(self, name), dtype=float)))


# the solution decays like e^(-t), so it lives on t <~ 30
_T_MAX = 30.0
# the trace fit window in t; fixed, so refining adds nodes to the fit
_FIT_WINDOW = 0.05


@lru_cache(maxsize=64)
def _unit_mode(s, mesh_size):
    """The xi = 1 problem on the mesh t_k = 30 (k / K)^g, g = min(max(2, 1/s), 4),
    carried as log t so that the exact flux couplings
    2s / (t_(k+1)^(2s) - t_k^(2s)) keep their digits for small s, with the
    closure U' = -U.  Returns the mesh, the values and the amplitude A of
    U = U_reg + A t^(2s) (1 + ...).
    """
    # a steeper grading puts nearly every node at t ~ 0 once s is small
    grading = min(max(2.0, 1.0 / s), 4.0)
    log_t = math.log(_T_MAX) + grading * np.log(np.arange(1, mesh_size + 1) / mesh_size)
    t = np.concatenate([[0.0], np.exp(log_t)])
    t_2s = np.exp(2.0 * s * log_t)
    # t_(k+1)^(2s) - t_k^(2s) as t_k^(2s) expm1(2s dlog t): no cancellation at small s
    flux = 2.0 * s / np.append(t_2s[0], t_2s[:-1] * np.expm1(2.0 * s * np.diff(log_t)))
    # cell integrals of t^(1-2s) around each interior node (and the last)
    expo = 2.0 - 2.0 * s
    edges = np.concatenate([[0.0], 0.5 * (t[:-1] + t[1:]), [t[-1]]])
    mass = np.diff(edges**expo)[1:] / expo
    closure = _T_MAX ** (1.0 - 2.0 * s)

    banded = np.zeros((3, mesh_size))
    banded[0, 1:] = banded[2, :-1] = -flux[1:]
    banded[1] = mass + flux + np.append(flux[1:], closure)
    rhs = np.zeros(mesh_size)
    rhs[0] = flux[0]
    values = np.concatenate([[1.0], solve_banded((1, 1), banded, rhs)])

    # U(0) = 1 fixes the regular Frobenius part; the one unknown A of the
    # t^(2s) branch is a one-column least-squares ratio
    fit = t[1:] <= _FIT_WINDOW
    tf = t[1:][fit]
    regular = 1.0 + tf**2 / (4.0 * (1.0 - s)) + tf**4 / (32.0 * (1.0 - s) * (2.0 - s))
    branch = t_2s[fit] * (1.0 + tf**2 / (4.0 * (1.0 + s)))
    amplitude = float(branch @ (values[1:][fit] - regular) / (branch @ branch))
    return read_only(t), read_only(values), amplitude  # every caller gets these arrays


def _frequency_scale(s, xi):
    """xi^(2s) for xi > 0; refused where it or 30/xi leaves the normal floats."""
    try:
        scale = xi ** (2.0 * s)
    except OverflowError:
        scale = math.inf
    if not (sys.float_info.min <= scale <= sys.float_info.max and _T_MAX / xi < math.inf):
        raise ParameterError(
            f"frequency {xi!r} is out of range at s = {s!r}: "
            "xi^(2s) or 30/xi leaves the normal floats"
        )
    return scale


def solve_extension_mode(p, xi, mesh_size=600):
    """Solve the extension problem for one frequency and recover the trace.

    In t = |xi| y the problem is scale-free, so it is solved once per
    (s, mesh_size) at xi = 1 and cached.  The mesh is graded toward t = 0,
    where U = U_reg + A t^(2s) (1 + ...); U(0) = 1 fixes the regular
    Frobenius part 1 + t^2/(4(1-s)) + t^4/(32(1-s)(2-s)), and A is fitted on
    the nodes t <= 0.05.  Each frequency takes the mesh t / |xi| and the
    trace d_s A |xi|^(2s): exact rescalings of the discrete system.  So
    agreement with |xi|^(2s) at xi != 1 is a scaling identity; the scheme's
    accuracy shows across s at xi = 1 and under mesh refinement.  xi = 0
    gives U = 1 on the single node y = 0.  Where |xi|^(2s) or 30/|xi| leaves
    the normal floats, or s is below them, ParameterError.
    """
    s = p.s
    require_unit_order(s, "the extension")
    if s < sys.float_info.min:
        # 2s expm1(2s dlog t) underflows there and the fluxes divide by 0
        raise ParameterError(f"the extension needs s in the normal floats, got s = {s!r}")
    xi = abs(float(xi))
    if not math.isfinite(xi):
        raise ParameterError(f"frequency must be finite, got {xi!r}")
    require_int(mesh_size, "mesh_size")
    if mesh_size < 32:
        raise ParameterError(f"mesh_size must be at least 32, got {mesh_size}")
    if xi == 0.0:
        return ExtensionSolution(s=s, xi=0.0, mesh=np.zeros(1), values=np.ones(1), dtn=0.0)
    scale = _frequency_scale(s, xi)
    t, values, amplitude = _unit_mode(s, mesh_size)
    return ExtensionSolution(
        s=s, xi=xi, mesh=t / xi, values=values, dtn=d_s_const(s) * amplitude * scale
    )

