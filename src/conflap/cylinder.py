"""Fractional conformal operator on the flat cylinder R x S^(n-1).

Functions split over spherical harmonics on the cross-section and Fourier
frequencies xi along the axis; the operator multiplies each (m, xi) component
by a ratio of squared Gamma moduli.  The translation-invariant part also has
a convolution kernel in the axial variable, a hypergeometric profile with an
algebraic singularity at 0 and exponential decay, which this module evaluates
directly, calibrates against the symbol, and periodizes for the study of
periodic solutions.
"""

import math

import numpy as np

from .errors import NonConvergenceError, ParameterError, SingularityError
from .params import FracParams, KernelSpec
from .specfun import hyp2f1, jacobi_unit_rule, log_gamma, log_gamma_abs2_vec, panel_rule

_PERIODIZE_REL_TOL = 1e-15
_PERIODIZE_MAX_SHELLS = 400


def _check_cylinder_dim(p):
    if p.n < 2:
        raise ParameterError(f"the cylinder needs n >= 2, got n = {p.n}")


def cyl_mode_parameter(n, m):
    """Shift beta_m = sqrt((n/2-1)^2 + mu_m) for cross-sectional degree m.

    mu_m = m (m + n - 2) is the S^(n-1) eigenvalue, and the square root
    collapses to m + n/2 - 1.
    """
    if isinstance(m, bool) or not isinstance(m, (int, np.integer)):
        raise ParameterError(f"mode degree must be an int, got {m!r}")
    if m < 0:
        raise ParameterError(f"mode degree must be >= 0, got {m}")
    mu = m * (m + n - 2)
    return math.sqrt((0.5 * n - 1.0) ** 2 + mu)


def cyl_symbol(p, m, xi):
    """Symbol Theta_s^m(xi) of the conformal operator on the cylinder.

    Equals 2^(2s) |Gamma((1 + s + beta_m)/2 + i xi/2)|^2 /
    |Gamma((1 - s + beta_m)/2 + i xi/2)|^2, positive and even in xi.
    Accepts scalar or array xi.  Needs 0 < s < n/2.
    """
    _check_cylinder_dim(p)
    if p.s >= 0.5 * p.n:
        raise ParameterError(
            f"cylinder symbol needs s < n/2, got n = {p.n}, s = {p.s}"
        )
    beta = cyl_mode_parameter(p.n, m)
    x_plus = 0.5 * (1.0 + p.s + beta)
    x_minus = 0.5 * (1.0 - p.s + beta)
    y = 0.5 * np.asarray(xi, dtype=float)
    log_ratio = log_gamma_abs2_vec(x_plus, y) - log_gamma_abs2_vec(x_minus, y)
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
    _check_cylinder_dim(p)
    if p.s >= 0.5 * p.n:
        raise ParameterError(
            f"cylinder curvature needs s < n/2, got n = {p.n}, s = {p.s}"
        )
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
    _check_cylinder_dim(p)
    hs = np.asarray(h, dtype=float)
    if not (hs > 0.0).all():
        raise ParameterError(f"kernel profile needs h > 0, got {h!r}")
    s, n = p.s, p.n
    # sinh, cosh and sech^2 through e^(-2h), which cannot overflow
    decay = np.exp(-2.0 * hs)
    z = 4.0 * decay / (1.0 + decay) ** 2
    hyp = hyp2f1((n - 2.0 * s - 2.0) / 4.0, (n - 2.0 * s) / 4.0, 0.5 * n, z)
    log_sinh = hs - math.log(2.0) + np.log(-np.expm1(-2.0 * hs))
    log_cosh = hs - math.log(2.0) + np.log1p(decay)
    log_out = (-1.0 - 2.0 * s) * log_sinh + 0.5 * (2.0 - n + 2.0 * s) * log_cosh
    with np.errstate(over="ignore"):
        out = np.exp(log_out) * hyp
    if not np.isfinite(out).all():
        raise SingularityError(f"kernel profile overflows float64 at h = {h!r}")
    return float(out) if hs.ndim == 0 else out


def _require_kernel_params(p):
    _check_cylinder_dim(p)
    if p.s == math.floor(p.s):
        raise ParameterError(
            f"integer s = {p.s}: the operator is local and has no kernel "
            "representation to calibrate"
        )
    if not 0.0 < p.s < 1.0:
        raise ParameterError(f"kernel calibration needs s in (0, 1), got s = {p.s}")


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


def calibrate_kernel(p, xi_star=1.0):
    """Fix the kernel normalization against the zero-mode symbol.

    Matches c + norm * int (1 - cos(xi* h)) K0(h) dh = Theta0(xi*) at a single
    frequency xi* in [0.5, 2].  The recorded residual rechecks the calibrated
    kernel at 2 xi*, so it probes the kernel shape rather than the matched
    constant.
    """
    _require_kernel_params(p)
    xi_star = float(xi_star)
    if not 0.5 <= xi_star <= 2.0:
        raise ParameterError(f"calibration frequency must lie in [0.5, 2], got {xi_star}")
    c = cyl_curvature(p)
    raw = _difference_integral(p, xi_star)
    target = theta0(p, xi_star) - c
    norm = target / raw
    if norm <= 0.0:
        raise ParameterError("kernel calibration produced a non-positive constant")
    xi_check = 2.0 * xi_star
    predicted = c + norm * _difference_integral(p, xi_check)
    reference = theta0(p, xi_check)
    record = {
        "xi_star": xi_star,
        "target": target,
        "raw_integral": raw,
        "check_xi": xi_check,
        "check_value": predicted,
        "residual": abs(predicted - reference) / abs(reference),
    }
    return KernelSpec(p, norm, record)


def cyl_kernel(spec, xi):
    """Calibrated axial kernel at separation xi != 0 (even in xi)."""
    h = abs(float(xi))
    if h == 0.0:
        raise SingularityError("cylinder kernel diverges at zero separation")
    return spec.normalization * kernel_base(spec.params, h)


def kernel_multiplier(spec, xi):
    """Zero-mode multiplier recovered from the calibrated kernel by quadrature.

    Returns c + norm * int (1 - cos(xi h)) K0(h) dh, which the calibration
    promises equals Theta0(xi); comparing the two is the duality check.
    """
    p = spec.params
    return cyl_curvature(p) + spec.normalization * _difference_integral(p, abs(float(xi)))


def periodized_kernel(spec, period, xi):
    """Lattice sum K_L(xi) = sum_j K(xi - j L) of the calibrated kernel.

    Shells are added until an exponential bound on the remainder drops below
    1e-15 of the running total at every entry.  xi may be any non-lattice
    real, scalar or array (a scalar gives a float); the result is L-periodic
    and symmetric about L/2 by construction.
    """
    period = float(period)
    if not period > 0.0 or not math.isfinite(period):
        raise ParameterError(f"period must be positive and finite, got {period!r}")
    xs = np.asarray(xi, dtype=float)
    x = np.mod(xs, period)
    xc = np.minimum(x, period - x)
    if not np.all(xc > 1e-9 * period):
        raise SingularityError(
            f"periodized kernel diverges on the period lattice (xi = {xi!r})"
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
