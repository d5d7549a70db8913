"""Fractional Laplacian on the line and its conformal ties to the circle.

Two independent realizations of (-Delta)^s on uniform symmetric grids: a
Fourier multiplier |xi|^(2s) for tapered data, and a product-integration
quadrature of the singular difference integral with its closed-form
constant C_(1,s), so the two routes agree as a check, not by a fit.  On top
of those sit the commutator identity check for the weight (1+|x|^2)/2 and
the stereographic bridge that pushes the operator forward to the round
circle.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SupportError, TaperError
from .params import GridFunction
from .specfun import jacobi_unit_rule, panel_rule
from .sphere import ModeSpectrum, frac_lap_constant, sphere_symbol

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
#: Gauss-Jacobi size for the unit-interval parts of the line quadratures
_JACOBI_SIZE = 112
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


def _require_line(p):
    if p.n != 1:
        raise ParameterError(f"line routines are one-dimensional, got n = {p.n}")


def frac_lap_spectral(p, f, edge_tol=1e-7):
    """(-Delta)^s on the line as the Fourier multiplier |xi|^(2s).

    The data must be negligible at the grid edges (relative size below
    ``edge_tol``), since the FFT silently periodizes; violations raise
    TaperError rather than returning wrapped-around garbage.
    """
    _require_line(p)
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


def _require_integral_order(p):
    _require_line(p)
    if not 0.0 < p.s < 1.0:
        raise ParameterError(
            f"the singular-integral route needs s in (0, 1), got s = {p.s}"
        )


def _cell_moments(d, q, h, s):
    """int over [d h, (d+1) h] of t^q t^(-1-2s) dt, exact, vectorized in d.

    Written through expm1 so the q = 2s case (a logarithm) and its
    neighborhood are handled without cancellation.
    """
    e = q - 2.0 * s
    ratio = np.log1p(1.0 / d)
    if e == 0.0:
        return ratio
    return (d * h) ** e * np.expm1(e * ratio) / e


def _difference_weights(size, h, s):
    """Product-integration weights w_d with
    int_0^(D h) g(t) t^(-1-2s) dt ~ sum_d w_d g(d h) for smooth even g,
    g(0) = 0.  Interior cells use cubic interpolation against exact moments;
    the first cell fits an even polynomial through the first three nodes.
    """
    d = np.arange(1.0, size)
    weights = np.zeros(size + 3)
    mu = np.zeros((4, d.size))
    binom = [[1], [1, 1], [1, 2, 1], [1, 3, 3, 1]]
    moments = [_cell_moments(d, q, h, s) for q in range(4)]
    for k in range(4):
        acc = np.zeros(d.size)
        for j in range(k + 1):
            acc += binom[k][j] * (-d) ** (k - j) * h ** (-j) * moments[j]
        mu[k] = acc
    for r in range(4):
        contrib = _CUBIC_BASIS[r] @ mu
        np.add.at(weights, (d + r - 1).astype(int), contrib)
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
    _require_integral_order(p)
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


def _nudft(values, x, xi, dx):
    """Trapezoid Fourier transform hat(u)(xi) = (2 pi)^(-1/2) int u e^(-i xi x)
    over the last axis of ``values``.

    Spectrally accurate for smooth data vanishing at the grid edges; evaluated
    in blocks of 64 frequencies so the phase matrix never gets large.
    """
    xi = np.asarray(xi, dtype=float)
    out = np.empty(values.shape[:-1] + (xi.size,), dtype=complex)
    for start in range(0, xi.size, 64):
        block = xi[start : start + 64]
        out[..., start : start + 64] = values @ np.exp(-1j * np.outer(block, x)).T
    return dx / math.sqrt(2.0 * math.pi) * out


def _chirp(alpha, j):
    """exp(i alpha j^2 / 2) for integer arrays j.

    alpha is split into a head short enough that head * j^2 is exact and a
    small remainder, so the phase stays accurate to roundoff in the result
    even where alpha j^2 runs into the thousands.
    """
    j2 = (j * j).astype(float)
    mant, expo = math.frexp(alpha)
    bits = 52 - int(j2.max()).bit_length()
    head = math.ldexp(round(math.ldexp(mant, bits)), expo - bits)
    return np.exp(0.5j * head * j2) * np.exp(0.5j * (alpha - head) * j2)


def _chirp_sum(values, x0, dx, start, step, count):
    """sum_k v_k exp(-i (start + m step)(x0 + k dx)) for m = 0 .. count-1.

    The chirp-z transform (Rabiner, Schafer and Rader, 1969) by Bluestein's
    convolution on a power-of-two FFT, over the last axis of ``values``.
    Both indices are centred (k - size//2, m - count//2), which keeps the
    chirp phases and the linear phase of a centred grid small; _chirp keeps
    the quadratic phases exact where they are still large, so the roundoff
    floor matches the dense sum's.
    """
    size = values.shape[-1]
    k = np.arange(size) - size // 2
    m = np.arange(count) - count // 2
    xi_c = start + (count // 2) * step
    x_c = x0 + (size // 2) * dx
    alpha = step * dx
    # (xi_c + m step)(x_c + k dx) = xi_c x_c + xi_c dx k + step x_c m + alpha m k
    # and m k = (m^2 + k^2 - (m - k)^2) / 2
    pre = np.exp(-1j * xi_c * dx * k) * np.conj(_chirp(alpha, k))
    lag = np.arange(1 - size, count) + (size // 2 - count // 2)
    length = 1 << (size + count - 2).bit_length()
    conv = np.fft.ifft(
        np.fft.fft(values * pre, length) * np.fft.fft(_chirp(alpha, lag), length)
    )[..., size - 1 : size - 1 + count]
    post = np.exp(-1j * (xi_c * x_c + step * x_c * m)) * np.conj(_chirp(alpha, m))
    return post * conv


def _panel_nudft(values, x, dx, layout):
    """_nudft at the nodes of panel_rule(lo, lo + count width, count).

    Node j*12 + g sits at lo + (j + c_g) width, with c_g the Gauss offsets in
    a unit panel, so each g is a chirp-z sum over the uniform grid x.  Works
    over the last axis of ``values``.
    """
    lo, width, count = layout
    offsets = panel_rule(0.0, 1.0, 1)[0]
    out = np.empty(values.shape[:-1] + (count, offsets.size), dtype=complex)
    for g, c in enumerate(offsets):
        out[..., g] = _chirp_sum(values, x[0], dx, lo + c * width, width, count)
    return dx / math.sqrt(2.0 * math.pi) * out.reshape(values.shape[:-1] + (-1,))


def _panel_phase_sum(coeffs, layout, t0, dt, count):
    """sum_p c_p e^(i xi_p t) at t = t0 + m dt over the panel nodes of
    _panel_nudft: per Gauss offset, the conjugate of a chirp-z sum over
    the panel index."""
    lo, width, panels = layout
    offsets = panel_rule(0.0, 1.0, 1)[0]
    by_offset = np.conj(coeffs).reshape(panels, offsets.size)
    out = np.zeros(count, dtype=complex)
    for g, c in enumerate(offsets):
        out += _chirp_sum(by_offset[:, g], lo + c * width, width, t0, dt, count)
    return np.conj(out)


def _halfline_apply(lam, unit_rule, fhat_unit, layout, fhat_panel, targets,
                    target_step, fhat_zero=None):
    """sqrt(2/pi) * int_0^inf xi^lam Re(fhat(xi) e^(i xi x)) d xi at each target.

    ``unit_rule`` carries the Jacobi weight xi^lam on (0, 1).  Given
    ``fhat_zero`` = fhat(0), it carries xi^(lam+1) instead, and the unit
    piece peels off the constant Re(fhat(0)): the Hadamard finite part for
    lam in (-2, -1), and the plain integral for lam > -1.

    Beyond xi = 1 the integral runs on the panels ``layout`` = (lo, width,
    count) of _panel_nudft.  The targets must be uniform with spacing
    ``target_step``, so _panel_phase_sum does the panel sum as chirp-z sums.
    """
    unit_nodes, unit_weights = unit_rule
    lo, width, count = layout
    panel_nodes, panel_weights = panel_rule(lo, lo + count * width, count)
    coeffs = fhat_panel * panel_nodes**lam * panel_weights
    unit = (fhat_unit[None, :] * np.exp(1j * np.outer(targets, unit_nodes))).real
    if fhat_zero is None:
        out = unit @ unit_weights
    else:
        r0 = fhat_zero.real
        out = ((unit - r0) / unit_nodes[None, :]) @ unit_weights + r0 / (lam + 1.0)
    out += _panel_phase_sum(coeffs, layout, targets[0], target_step, targets.size).real
    return _SQRT_2_OVER_PI * out


def commutator_check(p, f, max_targets=257):
    """Numerically test [(-Delta)^s, B] f = -s (2 X + n + 2(s-1)) (-Delta)^(s-1) f
    on the line, with B the multiplication by (1 + |x|^2)/2.

    Both sides are assembled from continuum Fourier quadrature of the
    compactly supported input (a grid FFT misrepresents the slowly decaying
    order s-1 term), sharing nothing but the transform of f: Gauss-Jacobi
    rules on (0, 1) and width-1/8 Gauss-Legendre panels on (1, xi_max), with
    xi_max = pi/dx the band limit of the grid.  Returns a report dict with
    the relative l2 residual over the target points, xi_max and the panel
    count.

    s = 1/2 is rejected: the second xi-derivative of |xi|^(2s) produces a
    genuine Dirac term at the origin exactly there, so the displayed identity
    fails by a point mass.  s = 1, the local limit where the right side is
    -(2 x f' + f), takes the same quadrature.
    """
    _require_line(p)
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

    stride = max(1, int(math.ceil(u.size / max_targets)))
    mask = np.abs(x) <= 0.25 * f.length
    targets = x[mask][::stride]
    target_step = stride * f.dx

    xi_max = math.pi / f.dx
    lam = 2.0 * s - 2.0
    rule_s = jacobi_unit_rule(2.0 * s, _JACOBI_SIZE)
    rule_shift = jacobi_unit_rule(2.0 * s - 1.0, _JACOBI_SIZE)
    count = max(1, math.ceil(8.0 * (xi_max - 1.0)))
    layout = (1.0, (xi_max - 1.0) / count, count)

    stacked = np.stack([u, weight * u])
    # one dense transform at both Jacobi rules' nodes and at xi = 0
    unit_nodes = np.concatenate([rule_s[0], rule_shift[0], [0.0]])
    fh_unit = _nudft(stacked, x, unit_nodes, f.dx)
    fh_u_s, fh_bu_s = fh_unit[:, :_JACOBI_SIZE]
    fh_u_shift, fh_zero = fh_unit[0, _JACOBI_SIZE:-1], fh_unit[0, -1]
    fh_u_panel, fh_bu_panel = _panel_nudft(stacked, x, f.dx, layout)

    lap_s_bu = _halfline_apply(
        2.0 * s, rule_s, fh_bu_s, layout, fh_bu_panel, targets, target_step,
    )
    lap_s_u = _halfline_apply(
        2.0 * s, rule_s, fh_u_s, layout, fh_u_panel, targets, target_step,
    )
    weight_t = 0.5 * (1.0 + targets**2)
    lhs = lap_s_bu - weight_t * lap_s_u

    g = _halfline_apply(
        lam, rule_shift, fh_u_shift, layout, fh_u_panel, targets, target_step,
        fhat_zero=fh_zero,
    )
    # d/dx brings i xi: the order lam + 1 integral of i fhat
    g_prime = _halfline_apply(
        lam + 1.0, rule_shift, 1j * fh_u_shift, layout, 1j * fh_u_panel,
        targets, target_step,
    )
    rhs = -s * (2.0 * targets * g_prime + (2.0 * s - 1.0) * g)

    denom = max(np.linalg.norm(lhs), np.linalg.norm(rhs))
    resid = np.linalg.norm(lhs - rhs) / denom
    return {
        "s": s,
        "residual": float(resid),
        "targets": int(targets.size),
        "xi_max": float(xi_max),
        "panels": count,
    }


# ----------------------------------------------------------------------
# stereographic bridge to the circle
# ----------------------------------------------------------------------


def _mode_values(spectrum, alpha):
    """Evaluate sum_m c_m cos(m alpha)."""
    out = np.zeros_like(alpha)
    for m, c in enumerate(spectrum.coeffs):
        if c != 0.0:
            out += c * np.cos(m * alpha)
    return out


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
    _require_integral_order(p)
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
    flat = factor ** (s - 0.5) * _mode_values(ModeSpectrum(1, reduced), alpha)
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
    circle_side = _mode_values(ModeSpectrum(1, coeffs * multipliers), alpha[mask])

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
