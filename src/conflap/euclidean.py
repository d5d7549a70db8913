"""Fractional Laplacian on the line and its conformal ties to the circle.

Two independent realizations of (-Delta)^s on uniform symmetric grids, both
taking the samples as zero off the grid: the Fourier multiplier |xi|^(2s)
through a continuum Fourier quadrature, whose panels are one grid frequency
wide, and the trapezoid rule for the singular difference integral with
closed-form zeta corrections at the singularity and the closed-form constant
C_(1,s), so the two routes agree as a check, not by a fit.  Both are kernels
on the grid, applied by one convolution.  On top of those sit the commutator
identity check for the weight (1+|x|^2)/2 and the stereographic bridge that
pushes the operator forward to the round circle; both take (-Delta)^s from
the same continuum quadrature.
"""

import math

import numpy as np
from numpy.polynomial.chebyshev import chebval
from scipy.special import zeta

from .errors import ParameterError, SupportError
from .params import GridFunction, require_dimension, require_unit_order
from .specfun import jacobi_unit_rule, panel_rule
from .sphere import frac_lap_constant, sphere_symbol

#: Gauss-Jacobi size for the near part of _factor_power_flat_lap
_JACOBI_SIZE = 112
#: Gauss-Jacobi size for the continuum quadrature's first panel (0, 2 pi / L)
_FIRST_PANEL_SIZE = 16
#: 12-point Gauss-Legendre rule on the unit panel (0, 1)
_PANEL_RULE = panel_rule(0.0, 1.0, 1)
#: relative size below which the commutator check counts input as zero
_SUPPORT_TOL = 1e-10
#: half-width of the window |x| <= cap where the bridge compares both sides
_COMPARE_CAP = 4.0
#: the bridge's grid (half-width W, size N): the untruncated tail costs
#: O(W^-3) at fixed dx, under 1e-5 over degrees 0..8 for s in [0.01, 0.99]
BRIDGE_GRID = (250.0, 1 << 13)


def frac_lap_spectral(p, f):
    """(-Delta)^s on the line as the Fourier multiplier |xi|^(2s) of the
    samples taken as zero off the grid: the continuum Fourier quadrature
    of _continuum_frac_lap, up to the band limit pi/dx."""
    require_dimension(p.n, "the line", most=1)
    return GridFunction(f.length, _continuum_frac_lap(f.values, f.dx, p.s))


def _difference_weights(size, h, s):
    """Weights w_d, d = 0 .. size, with int_0^inf g(t) t^(-1-2s) dt ~
    sum_d w_d g(d h) for smooth even g, g(0) = 0: the trapezoid rule
    h^(-2s) d^(-1-2s), w_0 = 0, less its closed-form error (Navot, J. Math.
    Phys. 40, 1961) sum_k zeta(2s-1-2k) c_k h^(2+2k-2s) for
    g(t) = sum_k c_k t^(2+2k), with c_0 .. c_3 fitted through g(h) .. g(4h):
    an error O(h^(10-2s))."""
    k = np.arange(4)
    weights = np.append(0.0, np.arange(1.0, size + 1.0) ** (-1.0 - 2.0 * s))
    vand = np.arange(1.0, 5.0)[:, None] ** (2.0 + 2.0 * k)
    weights[1:5] -= np.linalg.solve(vand.T, zeta(2.0 * s - 1.0 - 2.0 * k))
    return h ** (-2.0 * s) * weights


def frac_lap_integral(p, f):
    """(-Delta)^s through the singular difference integral.

    C_(1,s) times the corrected trapezoid sum (``_difference_weights``) of
    int_0^inf (2u(x) - u(x+t) - u(x-t)) t^(-1-2s) dt.  u is taken as zero
    beyond the grid, so past d = N the sum is 2 u(x) times the weights' tail
    h^(-2s) sum_(d > N) d^(-1-2s), by Euler-Maclaurin from a = N + 1 with
    its integral a^(-2s)/(2s) exact in s (zeta(1 + 2s, a) rounds s off).
    """
    require_dimension(p.n, "the line", most=1)
    require_unit_order(p.s, "the singular-integral route")
    s = p.s
    values = f.values
    a = values.size + 1.0
    weights = _difference_weights(values.size, f.dx, s)
    tail = (a * f.dx) ** (-2.0 * s) * (
        1.0 / (2.0 * s) + 0.5 / a + (1.0 + 2.0 * s) / (12.0 * a**2)
        - (1.0 + 2.0 * s) * (2.0 + 2.0 * s) * (3.0 + 2.0 * s) / (720.0 * a**4)
    )
    out = 2.0 * values * (weights.sum() + tail) - _toeplitz(values, weights)
    return GridFunction(f.length, frac_lap_constant(p) * out)


# ----------------------------------------------------------------------
# continuum Fourier quadrature and the commutator identity
# ----------------------------------------------------------------------


def _fourier_kernel(size, lam, first_rule, first_lam):
    """K(m) = sum_t w_t t^lam e^(2 pi i t m / N), m = 0 .. N, over the nodes
    t of the continuum quadrature in units of w = 2 pi / L: the Legendre
    panels p + c, p = 1 .. N/2 - 1, at order lam, and the nodes of
    ``first_rule`` on the first panel (0, 1) at order first_lam.  With
    hat(u)(xi) = (2 pi)^(-1/2) int u e^(-i xi x) by the trapezoid rule,
    sum_t w_t t^lam hat(u)(t w) e^(i t w x_j) = dx/sqrt(2 pi) sum_k u_k K(j-k).
    Over p it is one inverse FFT per Legendre node, taken node by node so
    that no array outgrows the grid."""
    m = np.arange(size + 1)
    band = np.zeros(size)
    kernel = np.zeros(size + 1, dtype=complex)
    for node, weight in zip(*_PANEL_RULE):
        band[1 : size // 2] = weight * (np.arange(1, size // 2) + node) ** lam
        lattice = size * np.fft.ifft(band)
        kernel += np.exp(2j * math.pi / size * node * m) * np.append(lattice, lattice[0])
    for node, weight in zip(*first_rule):
        kernel += weight * node**first_lam * np.exp(2j * math.pi / size * node * m)
    return kernel


def _toeplitz(values, kernel, odd=False):
    """sum_k u_k K(j - k) over the last axis of ``values`` (size n), for a
    real kernel K(m), m = 0 .. n, even in m or, with ``odd``, odd.  Only
    |j - k| <= n - 1 enters, so a circular convolution of length 2n holds it."""
    n = values.shape[-1]
    full = np.concatenate([kernel[: n + 1], (-1.0 if odd else 1.0) * kernel[n - 1 : 0 : -1]])
    return np.fft.irfft(np.fft.rfft(values, 2 * n) * np.fft.rfft(full), 2 * n)[..., :n]


def _continuum_frac_lap(values, dx, s):
    """(-Delta)^s on the centred grid of data that is zero off it, over the
    last axis: sqrt(2/pi) int_0^pi/dx xi^(2s) Re(hat(u)(xi) e^(i xi x)) d xi,
    the Jacobi rule carrying (xi/w)^(2s) on the first panel (0, w)."""
    size = values.shape[-1]
    step = 2.0 * math.pi / (size * dx)
    rule = jacobi_unit_rule(2.0 * s, _FIRST_PANEL_SIZE)
    kernel = _fourier_kernel(size, 2.0 * s, rule, 0.0).real
    return step ** (2.0 * s + 1.0) * dx / math.pi * _toeplitz(values, kernel)


def commutator_check(p, f):
    """Numerically test [(-Delta)^s, B] f = -s (2 X + n + 2(s-1)) (-Delta)^(s-1) f
    on the line, with B the multiplication by (1 + |x|^2)/2.

    Both sides are assembled from continuum Fourier quadrature of the
    compactly supported input (a grid FFT misrepresents the slowly decaying
    order s-1 term), sharing nothing but the input.  The panels are one grid
    frequency step w = 2 pi / L wide and end at the band limit
    xi_max = pi/dx: a 16-node Gauss-Jacobi rule on (0, w) and the 12-point
    Gauss-Legendre rule on the rest.  Each side tabulates the quadrature's
    kernel (_fourier_kernel) and convolves the input with it (_toeplitz):
    order 2s on the left; order 2s - 2, with the finite part added as a
    constant, and the odd kernel of order 2s - 1 for f' on the right.
    Returns a report dict with the relative l2 residual over the grid points
    with |x| <= L/4, their count, xi_max and the panel count N/2.

    s = 1/2 is rejected: the second xi-derivative of |xi|^(2s) produces a
    genuine Dirac term at the origin exactly there, so the displayed identity
    fails by a point mass.  s = 1, the local limit where the right side is
    -(2 x f' + f), takes the same quadrature.
    """
    require_dimension(p.n, "the line", most=1)
    s = p.s
    if s == 0.5:
        raise ParameterError(
            "s = 1/2 is excluded: the identity picks up a Dirac term at xi = 0"
        )
    if not 0.0 < s <= 1.0:
        raise ParameterError(f"commutator check needs s in (0, 1], got s = {s}")
    x = f.x
    u = f.values
    mask = np.abs(x) <= 0.25 * f.length
    targets = x[mask]
    report = {
        "s": s,
        "residual": 0.0,
        "targets": int(targets.size),
        "xi_max": float(math.pi / f.dx),
        "panels": f.size // 2,
    }
    scale = np.max(np.abs(u))
    if scale == 0.0:
        return report
    outside = np.abs(x) > 0.375 * f.length
    if np.max(np.abs(u[outside])) > _SUPPORT_TOL * scale:
        raise SupportError(
            "input must be supported in the inner three quarters of the grid"
        )
    weight = 0.5 * (1.0 + x**2)
    lap_s_u, lap_s_bu = _continuum_frac_lap(np.stack([u, weight * u]), f.dx, s)
    lhs = (lap_s_bu - weight * lap_s_u)[mask]

    # the order s-1 sides in units of w: the Jacobi rule on (0, w) carries
    # (xi/w)^(lam+1), and the finite part, which peels off hat(u)(0), is a
    # constant added to the kernel; d/dx brings i xi, and Re(i z) = -Im z
    # takes the odd kernel of order lam + 1
    step = 2.0 * math.pi / f.length
    lam = 2.0 * s - 2.0
    rule_shift = jacobi_unit_rule(lam + 1.0, _FIRST_PANEL_SIZE)
    finite_part = 1.0 / (lam + 1.0) - np.sum(rule_shift[1] / rule_shift[0])
    kernel = _fourier_kernel(f.size, lam, rule_shift, -1.0).real + finite_part
    g = step ** (lam + 1.0) * f.dx / math.pi * _toeplitz(u, kernel)
    kernel = _fourier_kernel(f.size, lam + 1.0, rule_shift, 0.0).imag
    g_prime = -(step ** (lam + 2.0)) * f.dx / math.pi * _toeplitz(u, kernel, odd=True)
    rhs = -s * (2.0 * targets * g_prime[mask] + (2.0 * s - 1.0) * g[mask])

    denom = max(np.linalg.norm(lhs), np.linalg.norm(rhs))
    report["residual"] = float(np.linalg.norm(lhs - rhs) / denom)
    return report


# ----------------------------------------------------------------------
# stereographic bridge to the circle
# ----------------------------------------------------------------------


def _factor_power_flat_lap(p, points):
    """(-Delta)^s of ((1 + x^2)/2)^(s - 1/2) at the given points.

    The profile does not decay (it grows like |x|^(2s-1), still below order
    2s), so no grid transform applies.  The difference integral is split at
    unit distance: inside, a Gauss-Jacobi rule absorbs the t^(-1-2s) weight;
    outside, the substitution y = x +- 1/tau turns both half-lines into
    smooth unit-interval integrals.  Scaled by C_(1,s), like the gridded
    integral route.
    """
    s = p.s
    expo = s - 0.5
    pts = points[:, None]
    center = (0.5 * (1.0 + points**2)) ** expo

    # second difference written through expm1/log1p: the raw subtraction
    # loses half the digits at the smallest nodes once divided by t^2
    near_nodes, near_weights = jacobi_unit_rule(1.0 - 2.0 * s, _JACOBI_SIZE)
    base = 1.0 + pts**2
    shift_plus = (2.0 * pts * near_nodes + near_nodes**2) / base
    shift_minus = (-2.0 * pts * near_nodes + near_nodes**2) / base
    second_diff = np.expm1(expo * np.log1p(shift_plus)) + np.expm1(
        expo * np.log1p(shift_minus)
    )
    near = -(center[:, None] * second_diff / near_nodes**2) @ near_weights

    tau, tau_weights = panel_rule(0.0, 1.0, 16)
    quad_plus = (1.0 + 2.0 * pts * tau + (1.0 + pts**2) * tau**2) ** expo
    quad_minus = (1.0 - 2.0 * pts * tau + (1.0 + pts**2) * tau**2) ** expo
    far = 2.0**-expo * ((quad_plus + quad_minus) @ tau_weights)

    return frac_lap_constant(p) * (near + center / s - far)


def covariance_bridge(p, spectrum, half_width=BRIDGE_GRID[0], size=BRIDGE_GRID[1]):
    """Push (-Delta)^s through stereographic projection and compare against
    the intrinsic circle operator mode by mode.

    The circle data u = sum c_m cos(m alpha) is split at the projection pole
    alpha = pi: the part vanishing there transplants to a decaying profile
    that takes the commutator check's continuum Fourier quadrature, while
    the leftover constant rides through an exact quadrature of the
    non-decaying conformal-factor power.
    Recombining and weighting by ((1 + x^2)/2)^(s + 1/2) must reproduce
    sum c_m theta(m) cos(m alpha) with theta the circle symbol.  Returns a
    report dict with the mismatch over |x| <= 4 (``compare_cap``).
    """
    require_dimension(p.n, "the line", most=1)
    require_unit_order(p.s, "the singular-integral route")
    if spectrum.n != 1:
        raise ParameterError(f"bridge expects circle data, got n = {spectrum.n}")
    coeffs = spectrum.coeffs
    if not np.any(coeffs):
        raise ParameterError("bridge needs a nonzero mode spectrum")
    s = p.s
    signs = (-1.0) ** np.arange(coeffs.size)
    pole_value = float(signs @ coeffs)
    reduced = coeffs * 1.0
    reduced[0] -= pole_value

    x = -half_width + (2.0 * half_width / size) * np.arange(size)
    alpha = 2.0 * np.arctan(x)
    factor = 0.5 * (1.0 + x**2)
    # sum_m c_m cos(m alpha) = sum_m c_m T_m(cos alpha)
    flat = factor ** (s - 0.5) * chebval(np.cos(alpha), reduced)
    # after the pole split the profile decays like |x|^(2s-3), so cutting it
    # off at |x| = W leaves an O(W^-3) error in the comparison window
    line = GridFunction(2.0 * half_width, flat)
    transformed = _continuum_frac_lap(line.values, line.dx, s)

    mask = np.abs(x) <= _COMPARE_CAP
    points = x[mask]
    if pole_value != 0.0:
        pole_term = pole_value * _factor_power_flat_lap(p, points)
    else:
        pole_term = np.zeros(points.size)
    pushed = factor[mask] ** (s + 0.5) * (transformed[mask] + pole_term)

    multipliers = sphere_symbol(p, np.arange(coeffs.size))
    circle_side = chebval(np.cos(alpha[mask]), coeffs * multipliers)

    # When the symbol annihilates the whole spectrum (s = 1/2 kills the
    # constant mode) the circle side vanishes identically; fall back to the
    # input coefficient mass so the report stays a finite relative measure.
    scale = float(np.max(np.abs(circle_side)))
    l2_scale = float(np.linalg.norm(circle_side))
    if scale == 0.0:
        scale = float(np.sum(np.abs(coeffs)))
        l2_scale = scale * math.sqrt(circle_side.size)
    gap = pushed - circle_side
    return {
        "s": s,
        "mismatch_max": float(np.max(np.abs(gap)) / scale),
        "mismatch_l2": float(np.linalg.norm(gap) / l2_scale),
        "points": int(points.size),
        "pole_constant": pole_value,
        "half_width": half_width,
        "size": size,
        "compare_cap": _COMPARE_CAP,
    }
