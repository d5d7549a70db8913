"""Fractional conformal operator on the flat cylinder R x S^(n-1).

Functions split over spherical harmonics on the cross-section and Fourier
frequencies xi along the axis; the operator multiplies each (m, xi) component
by a ratio of squared Gamma moduli.  The translation-invariant part also has
a convolution kernel in the axial variable, a hypergeometric profile with an
algebraic singularity at 0 and exponential decay, which this module evaluates
directly, normalizes in closed form, checks against the symbol, and
periodizes for the study of periodic solutions.
"""

import math

import numpy as np

from .errors import NonConvergenceError, ParameterError, SingularityError
from .params import KernelSpec, require_dimension
from .sphere import _check_mode, frac_lap_constant, vol_sphere
from .specfun import hyp2f1, jacobi_unit_rule, log_gamma, log_gamma_abs2, panel_rule

_PERIODIZE_REL_TOL = 1e-15
_PERIODIZE_MAX_SHELLS = 400
#: largest |xi| ``kernel_multiplier`` accepts: the 64-node Jacobi rule on
#: (0, 1) resolves 1 - cos(xi h) to about 1e-9 up to here, and not past it
KERNEL_MULTIPLIER_XI_MAX = 200.0


def cyl_mode_parameter(n, m):
    """Shift beta_m = sqrt((n/2-1)^2 + mu_m) for cross-sectional degree m.

    mu_m = m (m + n - 2) is the S^(n-1) eigenvalue, and the square root
    collapses to m + n/2 - 1.
    """
    if _check_mode(m).ndim:
        raise ParameterError(f"the cylinder takes one mode degree, got {m!r}")
    mu = m * (m + n - 2)
    return math.sqrt((0.5 * n - 1.0) ** 2 + mu)


def cyl_symbol(p, m, xi):
    """Symbol Theta_s^m(xi) of the conformal operator on the cylinder.

    Equals 2^(2s) |Gamma((1 + s + beta_m)/2 + i xi/2)|^2 /
    |Gamma((1 - s + beta_m)/2 + i xi/2)|^2, positive and even in xi.
    Accepts scalar or array xi.  Needs 0 < s < n/2.
    """
    require_dimension(p.n, "the cylinder", least=2)
    p.require_subcritical("the cylinder symbol")
    beta = cyl_mode_parameter(p.n, m)
    x_plus = 0.5 * (1.0 + p.s + beta)
    x_minus = 0.5 * (1.0 - p.s + beta)
    y = 0.5 * np.asarray(xi, dtype=float)
    log_ratio = log_gamma_abs2(x_plus, y) - log_gamma_abs2(x_minus, y)
    out = np.exp(2.0 * p.s * math.log(2.0) + log_ratio)
    return float(out) if np.isscalar(xi) else out


def theta0(p, xi):
    """Axial symbol of the zero cross-sectional mode."""
    return cyl_symbol(p, 0, xi)


def cyl_curvature(p):
    """Constant fractional curvature of the cylinder metric.

    Closed form 2^(2s) (Gamma((n/2+s)/2) / Gamma((n/2-s)/2))^2, which is the
    zero-mode symbol evaluated at xi = 0.
    """
    require_dimension(p.n, "the cylinder", least=2)
    p.require_subcritical("the cylinder curvature")
    lg = log_gamma(0.5 * (0.5 * p.n + p.s)) - log_gamma(0.5 * (0.5 * p.n - p.s))
    return math.exp(2.0 * p.s * math.log(2.0) + 2.0 * lg)


def kernel_base(p, h):
    """Unnormalized axial kernel profile at separations h > 0.

    sinh(h)^(-1-2s) cosh(h)^((2-n+2s)/2) 2F1(a, b; n/2; sech^2 h) with
    a = (n-2s-2)/4 and b = (n-2s)/4.  Behaves like h^(-1-2s) at 0 and decays
    like 2^(s+n/2) e^(-(n+2s)h/2).  Accepts scalar or array h; a scalar gives
    a float.  Raises SingularityError where h is so small that the profile
    overflows float64.
    """
    require_dimension(p.n, "the cylinder", least=2)
    hs = np.asarray(h, dtype=float)
    if not ((hs > 0.0) & np.isfinite(hs)).all():
        raise ParameterError(f"kernel profile needs finite h > 0, got {h}")
    s, n = p.s, p.n
    # sinh, cosh and sech^2 through e^(-2h); near h = 1e308 the products
    # below overflow to -inf, which the exponential takes to a profile of 0
    with np.errstate(over="ignore"):
        decay = np.exp(-2.0 * hs)
        z = 4.0 * decay / (1.0 + decay) ** 2
        hyp = hyp2f1((n - 2.0 * s - 2.0) / 4.0, (n - 2.0 * s) / 4.0, 0.5 * n, z)
        log_sinh = hs - math.log(2.0) + np.log(-np.expm1(-2.0 * hs))
        log_cosh = hs - math.log(2.0) + np.log1p(decay)
        log_out = (-1.0 - 2.0 * s) * log_sinh + 0.5 * (2.0 - n + 2.0 * s) * log_cosh
        out = np.exp(log_out) * hyp
    if not np.isfinite(out).all():
        raise SingularityError(f"kernel profile overflows float64 at h = {h}")
    return float(out) if hs.ndim == 0 else out


def _difference_integral(p, xi):
    """int_R (1 - cos(xi h)) K0(h) dh for the unnormalized profile.

    On (0, 1) the integrand is h^(1-2s) times a smooth even function, so the
    algebraic factor goes into a Gauss-Jacobi weight.  On (1, h_cut)
    composite Gauss-Legendre panels of width 1/max(4, xi) resolve the decay
    and the oscillation, and the closed-form exponential tail covers
    h > h_cut.
    """
    s = p.s
    h_cut = 45.0 / p.sigma
    nodes, weights = jacobi_unit_rule(1.0 - 2.0 * s, 64)
    smooth = nodes ** (1.0 + 2.0 * s) * kernel_base(p, nodes)
    osc = 2.0 * np.sin(0.5 * xi * nodes) ** 2 / (nodes * nodes)
    inner = float(weights @ (osc * smooth))
    count = math.ceil((h_cut - 1.0) * max(4.0, xi))
    h, w = panel_rule(1.0, h_cut, count)
    outer = float(w @ ((1.0 - np.cos(xi * h)) * kernel_base(p, h)))
    lam = p.sigma
    amp = 2.0 ** (p.s + 0.5 * p.n)
    decay = math.exp(-lam * h_cut)
    osc = complex(lam, -xi)
    tail = amp * (decay / lam - (np.exp(complex(-lam, xi) * h_cut) / osc).real)
    return 2.0 * (inner + outer + tail)


def calibrate_kernel(p):
    """Kernel normalization C_(n,s) |S^(n-1)| 2^(-(n+2s)/2), checked on theta0.

    The axial kernel is |x - y|^(-n-2s) pulled back to the cylinder and
    integrated over the cross-section.  The record holds the relative
    residuals of c + norm * int (1 - cos(xi h)) K0(h) dh against Theta0(xi)
    at xi = 1 and 2; neither is fitted, and ``residual`` is the larger.
    Needs n >= 2 and, like ``frac_lap_constant``, 0 < s < 1.
    """
    require_dimension(p.n, "the cylinder", least=2)
    norm = frac_lap_constant(p) * vol_sphere(p.n - 1) * 2.0 ** (-p.sigma)
    spec = KernelSpec(p, norm)
    check_xi = [1.0, 2.0]
    residuals = [abs(kernel_multiplier(spec, xi) / theta0(p, xi) - 1.0) for xi in check_xi]
    record = {"check_xi": check_xi, "residuals": residuals, "residual": max(residuals)}
    return KernelSpec(p, norm, record)


def cyl_kernel(spec, xi):
    """Calibrated axial kernel at separations xi != 0 (even in xi).

    Accepts scalar or array xi; a scalar gives a float.
    """
    h = np.abs(np.asarray(xi, dtype=float))
    if np.any(h == 0.0):
        raise SingularityError("cylinder kernel diverges at zero separation")
    return spec.normalization * kernel_base(spec.params, h)


def kernel_multiplier(spec, xi):
    """Zero-mode multiplier recovered from the kernel by quadrature.

    Returns c + norm * int (1 - cos(xi h)) K0(h) dh, which equals Theta0(xi)
    when the closed-form normalization and the profile are both right;
    comparing the two is the duality check.
    Needs finite |xi| <= KERNEL_MULTIPLIER_XI_MAX.
    """
    p = spec.params
    xi = abs(float(xi))
    if not xi <= KERNEL_MULTIPLIER_XI_MAX:
        raise ParameterError(
            f"kernel multiplier needs finite |xi| <= {KERNEL_MULTIPLIER_XI_MAX}, got {xi!r}"
        )
    return cyl_curvature(p) + spec.normalization * _difference_integral(p, xi)


def periodized_kernel(spec, period, xi):
    """Lattice sum K_L(xi) = sum_j K(xi - j L) of the calibrated kernel.

    Shells are added until an exponential bound on the remainder drops below
    1e-15 of the running total at every entry.  xi may be any finite
    non-lattice real, scalar or array (a scalar gives a float); the result is
    L-periodic and symmetric about L/2 by construction.
    """
    period = float(period)
    if not period > 0.0 or not math.isfinite(period):
        raise ParameterError(f"period must be positive and finite, got {period!r}")
    xs = np.asarray(xi, dtype=float)
    if not np.isfinite(xs).all():
        raise ParameterError(f"periodized kernel needs finite xi, got {xi}")
    x = np.mod(xs, period)
    xc = np.minimum(x, period - x)
    if not np.all(xc > 1e-9 * period):
        raise SingularityError(
            f"periodized kernel diverges on the period lattice (xi = {xi})"
        )
    p = spec.params
    norm = spec.normalization
    # K(h) e^(lam h) decreases toward its limit, so the last shell's left
    # term bounds the geometric remainder of both sides from above.
    remainder_ratio = 2.0 * 1.05 / math.expm1(p.sigma * period)
    total = norm * kernel_base(p, xc)
    for j in range(1, _PERIODIZE_MAX_SHELLS + 1):
        left = norm * kernel_base(p, j * period - xc)
        total = total + left + norm * kernel_base(p, j * period + xc)
        if np.all(remainder_ratio * left < _PERIODIZE_REL_TOL * total):
            return float(total) if xs.ndim == 0 else total
    raise NonConvergenceError(
        f"periodized kernel did not converge within {_PERIODIZE_MAX_SHELLS} shells"
    )
