"""Fractional Laplacian on the line and its conformal ties to the circle.

Two independent realizations of (-Delta)^s on uniform symmetric grids: a
Fourier multiplier |xi|^(2s) for tapered data, and a product-integration
quadrature of the singular difference integral with its closed-form
constant C_(1,s), so the two routes agree as a check, not by a fit.  On top
of those sit the commutator identity check for the weight (1+|x|^2)/2,
whose continuum Fourier quadrature runs on panels one grid frequency wide
so that its transforms are plain FFTs, and the stereographic bridge that
pushes the operator forward to the round circle.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.chebyshev import chebval

from .errors import ParameterError, SupportError, TaperError
from .params import GridFunction, require_dimension, require_unit_order
from .specfun import jacobi_unit_rule, panel_rule
from .sphere import frac_lap_constant, sphere_symbol

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
#: Gauss-Jacobi size for the near part of _factor_power_flat_lap
_JACOBI_SIZE = 112
#: Gauss-Jacobi size for the commutator check's first panel (0, 2 pi / L)
_FIRST_PANEL_SIZE = 16
#: 12-point Gauss-Legendre rule on the unit panel (0, 1)
_PANEL_RULE = panel_rule(0.0, 1.0, 1)
#: relative size below which the commutator check counts input as zero
_SUPPORT_TOL = 1e-10
#: half-width of the window |x| <= cap where the bridge compares both sides
_COMPARE_CAP = 4.0

#: cubic Lagrange basis on offsets {-1, 0, 1, 2}, coefficients in tau^k
_CUBIC_BASIS = np.array(
    [
        [0.0, -1.0 / 3.0, 0.5, -1.0 / 6.0],
        [1.0, -0.5, -1.0, 0.5],
        [0.0, 1.0, 0.5, -0.5],
        [0.0, -1.0 / 6.0, 0.0, 1.0 / 6.0],
    ]
)


def cosine_taper(size, fraction=0.1):
    """Window that is 1 in the core and rolls off to 0 over the outer
    ``fraction`` of samples on each side with a smooth half-cosine."""
    if not 0.0 < fraction < 0.5:
        raise ParameterError(f"taper fraction must lie in (0, 0.5), got {fraction!r}")
    ramp = max(2, int(round(size * fraction)))
    window = np.ones(size)
    edge = 0.5 * (1.0 - np.cos(math.pi * np.arange(ramp) / ramp))
    window[:ramp] = edge
    window[-ramp:] = edge[::-1]
    return window


def frac_lap_spectral(p, f, edge_tol=1e-7):
    """(-Delta)^s on the line as the Fourier multiplier |xi|^(2s).

    The data must be negligible at the grid edges (relative size below
    ``edge_tol``), since the FFT silently periodizes; violations raise
    TaperError rather than returning wrapped-around garbage.
    """
    require_dimension(p.n, "the line", most=1)
    values = f.values
    n = values.size
    band = max(2, n // 64)
    scale = np.max(np.abs(values))
    if scale > 0.0:
        edge = max(np.max(np.abs(values[:band])), np.max(np.abs(values[-band:])))
        if edge > edge_tol * scale:
            raise TaperError(
                f"edge magnitude {edge:.3e} exceeds {edge_tol:.1e} of the peak; "
                "taper the input before the spectral route"
            )
    out = np.fft.irfft(np.fft.rfft(values) * f.frequencies ** (2.0 * p.s), n)
    return GridFunction(f.length, out)


def _difference_weights(size, h, s):
    """Product-integration weights w_d with
    int_0^(D h) g(t) t^(-1-2s) dt ~ sum_d w_d g(d h) for smooth even g,
    g(0) = 0.  Interior cells (d h, (d + 1) h) interpolate g by cubics; their
    moments h^(-2s) int_0^1 tau^k (d + tau)^(-1-2s) d tau have integrands
    analytic on [0, 1] for d >= 1, so the 12-point Gauss rule gives them to
    round-off.  The first cell fits an even polynomial through three nodes.
    """
    d = np.arange(1.0, size)
    weights = np.zeros(size + 3)
    tau, tau_weights = _PANEL_RULE
    basis = _CUBIC_BASIS @ tau ** np.arange(4)[:, None]
    kernel = tau_weights * (d[:, None] + tau) ** (-1.0 - 2.0 * s)
    moments = h ** (-2.0 * s) * basis @ kernel.T
    for r in range(4):
        weights[r : r + d.size] += moments[r]
    # first cell: g even with g(0) = 0, fit a tau^2, tau^4, tau^6 polynomial
    vand = np.array([[j ** (2 * k + 2) for k in range(3)] for j in (1, 2, 3)], float)
    first_moments = np.array(
        [h ** (-2.0 * s) / (2.0 * k + 2.0 - 2.0 * s) for k in range(3)]
    )
    weights[1:4] += np.linalg.solve(vand.T, first_moments)
    return weights


def frac_lap_integral(p, f):
    """(-Delta)^s through the singular difference integral.

    C_(1,s) times a quadrature of int_0^inf (2u(x) - u(x+t) - u(x-t))
    t^(-1-2s) dt.  u is treated as identically zero beyond the grid, so the
    tail reduces to 2 u(x) integrated in closed form past the weighted range.
    """
    require_dimension(p.n, "the line", most=1)
    require_unit_order(p.s, "the singular-integral route")
    s = p.s
    values = f.values
    n = values.size
    h = f.dx
    weights = _difference_weights(n, h, s)
    # correlated_i = sum_k u_k w_|i-k| needs w_0 .. w_(n-1) only, so a
    # circular convolution of length 2n with the even kernel holds it
    kernel = np.concatenate([weights[: n + 1], weights[n - 1 : 0 : -1]])
    correlated = np.fft.irfft(
        np.fft.rfft(values, 2 * n) * np.fft.rfft(kernel), 2 * n
    )[:n]
    tail = (n * h) ** (-2.0 * s) / (2.0 * s)
    # sum_d w_d (2u_i - u_(i+d) - u_(i-d)) over d >= 1, with the symmetric
    # convolution counting the d = 0 weight once
    out = values * (2.0 * weights.sum() - weights[0] + 2.0 * tail) - correlated
    return GridFunction(f.length, frac_lap_constant(p) * out)


@dataclass(frozen=True)
class Bubble:
    """Algebraic extremal profile C (mu / (|x - x0|^2 + mu^2))^((n-2s)/2)."""

    amplitude: float
    width: float
    center: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.width) and self.width > 0.0):
            raise ParameterError(f"bubble width must be positive, got {self.width!r}")
        if not math.isfinite(self.amplitude) or self.amplitude == 0.0:
            raise ParameterError(
                f"bubble amplitude must be finite and nonzero, got {self.amplitude!r}"
            )


def bubble_eval(p, bubble, x):
    """Evaluate a bubble profile; needs s < n/2 so the exponent is positive."""
    p.require_subcritical("the bubble profile")
    r2 = (np.asarray(x, dtype=float) - bubble.center) ** 2
    out = bubble.amplitude * (bubble.width / (r2 + bubble.width**2)) ** (
        0.5 * (p.n - 2.0 * p.s)
    )
    return float(out) if np.isscalar(x) else out


def line_quotient(p, f):
    """Trace Rayleigh quotient int u (-Delta)^s u / (int u^(2*))^(2/2*).

    Numerator through the spectral route (input must be tapered), denominator
    by the periodic trapezoid rule.  Scale-invariant by construction.
    """
    two_star = p.two_star
    w = frac_lap_spectral(p, f)
    h = f.dx
    num = h * float(f.values @ w.values)
    den = h * float(np.sum(np.abs(f.values) ** two_star))
    return num / den ** (2.0 / two_star)


# ----------------------------------------------------------------------
# commutator identity
# ----------------------------------------------------------------------


def _lattice_sum(values, dx, rule, powers, first=False):
    """sum_(c, p) w_c (p + c)^lam hat(u)((p + c) w) e^(i (p + c) w x) at every
    point x of the centred grid, for each order lam in ``powers``, over the
    last axis of ``values``; shape (len(powers), ..., N).

    Here w = 2 pi / L, hat(u)(xi) = (2 pi)^(-1/2) int u e^(-i xi x) by the
    trapezoid rule, and (c, w_c) are the nodes and weights of ``rule``.  The
    band is p = 1 .. N/2 - 1, or p = 0 with ``first``.  For each node c the
    sum is a Fourier multiplier on u e^(-i c w x): one FFT, the band times
    (p + c)^lam, one inverse FFT.
    """
    size = values.shape[-1]
    # w x_k = -pi + 2 pi k / N on the centred grid
    theta = math.pi * (2.0 * np.arange(size) / size - 1.0)
    band = slice(0, 1) if first else slice(1, size // 2)
    sums = np.zeros((len(powers),) + values.shape, dtype=complex)
    padded = np.zeros(values.shape, dtype=complex)
    for node, weight in zip(*rule):
        tilt = np.exp(1j * node * theta)
        spectrum = np.fft.fft(values * tilt.conj())[..., band]
        lattice = np.arange(size)[band] + node
        for out, lam in zip(sums, powers):
            padded[..., band] = weight * lattice**lam * spectrum
            out += tilt * np.fft.ifft(padded)
    return size * dx / math.sqrt(2.0 * math.pi) * sums


def commutator_check(p, f):
    """Numerically test [(-Delta)^s, B] f = -s (2 X + n + 2(s-1)) (-Delta)^(s-1) f
    on the line, with B the multiplication by (1 + |x|^2)/2.

    Both sides are assembled from continuum Fourier quadrature of the
    compactly supported input (a grid FFT misrepresents the slowly decaying
    order s-1 term), sharing nothing but the transform of f.  The panels
    are one grid frequency step w = 2 pi / L wide and end at the band limit
    xi_max = pi/dx: a 16-node Gauss-Jacobi rule on (0, w) and the 12-point
    Gauss-Legendre rule on the rest.  Each rule is one shifted-lattice sum
    (_lattice_sum), so every panel costs one FFT per Gauss node and one
    inverse FFT per order.  Returns a report dict with the relative l2
    residual over the grid points with |x| <= L/4, their count, xi_max and
    the panel count N/2.

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
    scale = np.max(np.abs(u))
    if scale == 0.0:
        return {"s": s, "residual": 0.0, "targets": 0}
    outside = np.abs(x) > 0.375 * f.length
    if np.max(np.abs(u[outside])) > _SUPPORT_TOL * scale:
        raise SupportError(
            "input must be supported in the inner three quarters of the grid"
        )
    weight = 0.5 * (1.0 + x**2)
    mask = np.abs(x) <= 0.25 * f.length
    targets = x[mask]

    # sqrt(2/pi) int_0^inf xi^lam Re(hat(v)(xi) e^(i xi x)) d xi in units
    # of w: the Jacobi rule on (0, w) carries (xi/w)^(2s), or (xi/w)^(lam+1)
    # for the order s-1 sides, whose finite part peels off hat(u)(0)
    step = 2.0 * math.pi / f.length
    lam = 2.0 * s - 2.0
    rule_s = jacobi_unit_rule(2.0 * s, _FIRST_PANEL_SIZE)
    rule_shift = jacobi_unit_rule(lam + 1.0, _FIRST_PANEL_SIZE)
    stacked = np.stack([u, weight * u])

    lap_s = _lattice_sum(stacked, f.dx, _PANEL_RULE, (2.0 * s,)) + _lattice_sum(
        stacked, f.dx, rule_s, (0.0,), first=True
    )
    lap_s_u, lap_s_bu = _SQRT_2_OVER_PI * step ** (2.0 * s + 1.0) * lap_s[0].real
    lhs = (lap_s_bu - weight * lap_s_u)[mask]

    g, g_prime = _lattice_sum(u, f.dx, _PANEL_RULE, (lam, lam + 1.0)) + _lattice_sum(
        u, f.dx, rule_shift, (-1.0, 0.0), first=True
    )
    fhat_zero = f.dx * np.sum(u) / math.sqrt(2.0 * math.pi)
    finite_part = fhat_zero * (1.0 / (lam + 1.0) - np.sum(rule_shift[1] / rule_shift[0]))
    g = _SQRT_2_OVER_PI * step ** (lam + 1.0) * (g.real + finite_part)
    # d/dx brings i xi: Re(i z) = -Im z of the order lam + 1 sum
    g_prime = -_SQRT_2_OVER_PI * step ** (lam + 2.0) * g_prime.imag
    rhs = -s * (2.0 * targets * g_prime[mask] + (2.0 * s - 1.0) * g[mask])

    denom = max(np.linalg.norm(lhs), np.linalg.norm(rhs))
    resid = np.linalg.norm(lhs - rhs) / denom
    return {
        "s": s,
        "residual": float(resid),
        "targets": int(targets.size),
        "xi_max": float(math.pi / f.dx),
        "panels": f.size // 2,
    }


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


def covariance_bridge(p, spectrum, half_width=2000.0, size=1 << 17):
    """Push (-Delta)^s through stereographic projection and compare against
    the intrinsic circle operator mode by mode.

    The circle data u = sum c_m cos(m alpha) is split at the projection pole
    alpha = pi: the part vanishing there transplants to a decaying profile
    handled spectrally after tapering, while the leftover constant rides
    through an exact quadrature of the non-decaying conformal-factor power.
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
    tapered = GridFunction(2.0 * half_width, flat * cosine_taper(size, 0.1))
    # after the pole split the profile decays like |x|^(2s-3); what the taper
    # removes feeds back into the comparison window at the 1e-8 level, well
    # inside the relaxed edge tolerance
    transformed = frac_lap_spectral(p, tapered, edge_tol=1e-3).values

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
