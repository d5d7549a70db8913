"""Fractional conformal operator on the flat cylinder R x S^(n-1).

Functions split over spherical harmonics on the cross-section and Fourier
frequencies xi along the axis; the operator multiplies each (m, xi) component
by a ratio of squared Gamma moduli, which only this module evaluates, and the
root Theta^0(xi0) = c_(n,s) q of its zero mode fixes the bifurcation period of
the Delaunay branch.  The translation-invariant part also has a convolution
kernel in the axial variable, a hypergeometric profile with an algebraic
singularity at 0 and exponential decay, which this module evaluates directly,
normalizes in closed form, checks against the symbol, and periodizes for the
study of periodic solutions, past separation 1 as one exponential series.
"""

import math
import sys
from functools import lru_cache

import numpy as np
from scipy.special import hyp2f1, loggamma, psi

from .errors import NonConvergenceError, ParameterError, SingularityError
from .params import KernelSpec, mode_degrees, read_only, require, require_dimension
from .sphere import frac_lap_constant, vol_sphere
from .specfun import jacobi_unit_rule, log_gamma

#: most shells ``periodized_kernel`` evaluates directly, those whose
#: separation can fall below 1; it refuses periods below about 1/400.5
_PERIODIZE_MAX_SHELLS = 400
#: about the most values ``periodized_kernel`` holds at once, 2J+1 direct
#: and twice the series' terms per entry
_PERIODIZE_BLOCK = 2**16
#: largest |xi| ``kernel_multiplier`` accepts: the 64-node Jacobi rule on
#: (0, 1) resolves 1 - cos(xi h) to about 1e-9 up to here, and not past it;
#: the exponential series takes h > 1 in closed form at every xi
KERNEL_MULTIPLIER_XI_MAX = 200.0
#: terms ``_kernel_series`` holds; at separations >= 1 and 0 < s < 1 at most
#: 23 of them reach 1e-17 of the first
_SERIES_TERMS = 40
#: absolute tolerance of ``bifurcation_period`` on xi
BIFURCATION_XTOL = 1e-12
#: largest n whose kernel profile goes through Pfaff's form.  scipy's 2F1 on
#: its argument below -1 loses digits as c = n/2 grows: the worst error
#: against 40-digit mpmath over h in [1e-15, 30] is 2.4e-12 at n = 28,
#: 6.2e-12 at 32, 3.4e-11 at 40, 2.7e-6 at 100 and some hundreds at 200,
#: where calibrate_kernel would fail; up to 28 it stays near 1e-12
_PFAFF_MAX_N = 28
_LOG2 = math.log(2.0)
#: largest x with a finite e^x
_LOG_FLOAT_MAX = math.log(sys.float_info.max)
_ZERO_SEPARATION = "cylinder kernel diverges at zero separation, got xi = {}"
#: scipy's 2F1 is inf near z = 1 from n = 344 at s = 0.3, where the true
#: value, about 3.6e50 there, is finite and the power factor is not large
_NONFINITE_2F1 = "kernel profile's 2F1 factor is not finite at h = {}"


def cyl_mode_parameter(n, m):
    """Shift beta_m = sqrt((n/2-1)^2 + mu_m) = m + n/2 - 1 for cross-sectional
    degree m, where mu_m = m (m + n - 2) is the S^(n-1) eigenvalue."""
    if mode_degrees(m).ndim:
        raise ParameterError(f"the cylinder takes one mode degree, got {m!r}")
    return int(m) + 0.5 * n - 1.0


def _gamma_shifts(p, m):
    """Shifts A, B = (1 +- s + beta_m)/2 of Theta^m_s, after the checks on n, s and m."""
    require_dimension(p.n, "the cylinder", least=2)
    p.require_subcritical("the cylinder symbol")
    beta = cyl_mode_parameter(p.n, m)
    return 0.5 * (1.0 + p.s + beta), 0.5 * (1.0 - p.s + beta)


def _log_ratio(a, b, xi):
    """log |Gamma(A + i xi/2)|^2 - log |Gamma(B + i xi/2)|^2 = log Theta - 2s log 2."""
    return 2.0 * loggamma(a + 0.5j * xi).real - 2.0 * loggamma(b + 0.5j * xi).real


def cyl_symbol(p, m, xi):
    """Symbol Theta_s^m(xi) of the conformal operator on the cylinder.

    Equals 2^(2s) |Gamma((1 + s + beta_m)/2 + i xi/2)|^2 /
    |Gamma((1 - s + beta_m)/2 + i xi/2)|^2, positive and even in xi.
    Accepts finite scalar or array xi; a scalar or 0-d xi gives a float.
    Needs 0 < s < n/2.
    """
    a, b = _gamma_shifts(p, m)
    xs = np.asarray(xi, dtype=float)
    require(np.isfinite(xs), "the cylinder symbol needs finite xi, got xi = {}", xi)
    out = np.exp(2.0 * p.s * math.log(2.0) + _log_ratio(a, b, xs))
    return float(out) if xs.ndim == 0 else out


def theta0(p, xi):
    """Axial symbol of the zero cross-sectional mode."""
    return cyl_symbol(p, 0, xi)


@lru_cache(maxsize=64)  # solve_delaunay's seed reuses the caller's L0 root
def _bifurcation_root(p):
    """xi0 = 2 pi / L0, the root of the increasing Theta^0(xi) = c_(n,s) q, and
    the slope Im psi(B + i xi0/2) - Im psi(A + i xi0/2) of log Theta^0 there,
    by a doubling bracket, then Newton on log Theta^0 that bisects on leaving it."""
    offset = 2.0 * p.s * math.log(2.0) - math.log(cyl_curvature(p) * p.q)
    a, b = _gamma_shifts(p, 0)

    def excess(xi):  # log Theta^0(xi) - log(c q) and its xi-derivative
        slope = psi(b + 0.5j * xi).imag - psi(a + 0.5j * xi).imag
        return offset + _log_ratio(a, b, xi), slope

    lo, hi = 0.0, 1.0
    while excess(hi)[0] < 0.0:
        lo, hi = hi, 2.0 * hi
        if hi > 1e8:
            raise NonConvergenceError("no bifurcation frequency below 1e8")
    xi = 0.5 * (lo + hi)
    for _ in range(100):
        value, slope = excess(xi)
        lo, hi = (xi, hi) if value < 0.0 else (lo, xi)
        step = xi - value / slope
        if not lo < step < hi:
            step = 0.5 * (lo + hi)
        if abs(step - xi) <= BIFURCATION_XTOL:
            return step, slope
        xi = step
    raise NonConvergenceError("bifurcation frequency did not converge in 100 steps")


def cyl_curvature(p):
    """Constant fractional curvature of the cylinder metric.

    Closed form 2^(2s) (Gamma((n/2+s)/2) / Gamma((n/2-s)/2))^2, which is the
    zero-mode symbol evaluated at xi = 0.
    """
    require_dimension(p.n, "the cylinder", least=2)
    p.require_subcritical("the cylinder curvature")
    lg = log_gamma(0.5 * (0.5 * p.n + p.s)) - log_gamma(0.5 * (0.5 * p.n - p.s))
    return math.exp(2.0 * p.s * math.log(2.0) + 2.0 * lg)


def _profile_factors(p, h, real):
    """The two factors of the profile at h > 0, a float or an array: the log
    of a power factor and a 2F1, with the powers of sinh h, cosh h and
    1 - e^(-2h) carried as logs through e^(-2h).

    Up to n = _PFAFF_MAX_N the quadratic transformation and then Pfaff's
    (DLMF 15.8) turn the profile into
    (2 e^(-h))^sigma (1 - e^(-2h))^(-1-s) 2F1(1+s, -s; n/2; e^(-2h) / (e^(-2h) - 1)),
    whose argument keeps every digit and stays finite for h > 0.  Above it,
    where scipy's 2F1 loses digits on that argument below -1 as n/2 grows,
    the profile stays sinh(h)^(-1-2s) cosh(h)^((2-n+2s)/2) 2F1(a, b; n/2; sech^2 h),
    with a = (n-2s-2)/4 and b = a + 1/2.  So does it at a = 0, as at
    (3, 1/2): there that 2F1 is exactly 1, while scipy takes Pfaff's
    2F1(1+s, -s; 1+s; z) = (1-z)^s about five times as long.

    ``real`` takes e^(-2h), its gap to 1 and the log terms out of numpy
    scalars on the float path (``float``), since a numpy scalar product or
    quotient warns where it overflows, near h = 1e308 and below h ~ 3e-309;
    on arrays it is ``np.asarray``, which leaves them as they are.
    """
    s, n = p.s, p.n
    a = (n - 2.0 * s - 2.0) / 4.0
    decay = real(np.exp(-2.0 * h))
    if n <= _PFAFF_MAX_N and a != 0.0:
        gap = real(np.expm1(-2.0 * h))  # e^(-2h) - 1, to full relative precision
        # scipy unwrapped: the argument is <= 0, and -inf only below
        # h ~ 3e-309, where the power factor already overflows
        hyp = hyp2f1(1.0 + s, -s, 0.5 * n, decay / gap)
        return p.sigma * (_LOG2 - h) - (1.0 + s) * real(np.log(-gap)), hyp
    # Below h ~ 3e-9 sech^2 h rounds above 1; the series converges at z = 1,
    # since c - a - b = s + 1/2 > 0
    z = np.minimum(4.0 * decay / (1.0 + decay) ** 2, 1.0)
    # scipy unwrapped: c = n/2 >= 1, c-a-b > 0 and the clamped z keep it in domain
    hyp = hyp2f1(a, (n - 2.0 * s) / 4.0, 0.5 * n, z)
    # the log terms come after the 2F1: holding one more array through it
    # made this branch about 1.6 times as slow on 14 000-entry arrays
    log_sinh = h - _LOG2 + real(np.log(-np.expm1(-2.0 * h)))
    log_cosh = h - _LOG2 + real(np.log1p(decay))
    return (-1.0 - 2.0 * s) * log_sinh + 0.5 * (2.0 - n + 2.0 * s) * log_cosh, hyp


def kernel_base(p, h):
    """Unnormalized axial kernel profile at separations h > 0.

    sinh(h)^(-1-2s) cosh(h)^((2-n+2s)/2) 2F1(a, b; n/2; sech^2 h) with
    a = (n-2s-2)/4 and b = (n-2s)/4, evaluated up to n = _PFAFF_MAX_N and
    for a != 0 in Pfaff's form (``_profile_factors``), which keeps the
    digits that 1 - sech^2 h loses near h = 0.  Behaves like h^(-1-2s) at 0
    and decays like 2^(s+n/2) e^(-(n+2s)h/2).  Accepts scalar or array h,
    evaluated as an array; a scalar or 0-d h gives a float.  Raises
    SingularityError where scipy's 2F1 is not finite, as near h = 0 from
    n = 344 at s = 0.3, and where h is so small that the power factor
    overflows float64.
    """
    require_dimension(p.n, "the cylinder", least=2)
    hs = np.asarray(h, dtype=float)
    require((hs > 0.0) & np.isfinite(hs), "kernel profile needs finite h > 0, got {}", h)
    # near h = 1e308 the products in the log factor overflow to -inf, which
    # the exponential takes to a profile of 0
    with np.errstate(over="ignore"):
        log_power, hyp = _profile_factors(p, hs, np.asarray)
        out = np.exp(log_power) * hyp
    require(np.isfinite(hyp), _NONFINITE_2F1, h, SingularityError)
    require(np.isfinite(out), "kernel profile overflows float64 at h = {}", h, SingularityError)
    return float(out) if hs.ndim == 0 else out


@lru_cache(maxsize=64)  # every kernel_multiplier and periodized_kernel call at p reuses it
def _kernel_series(p):
    """Rates lambda_k = sigma + 2k and log amplitudes log a_k, k < 40, of
    K0(h) = (2 e^(-h))^sigma 2F1(1+s, n/2+s; n/2; e^(-2h)) = sum_k a_k e^(-lambda_k h),
    Pfaff's transformation (DLMF 15.8.1) of the profile's Pfaff form, as
    read-only arrays: a_k = 2^sigma c_k, c_0 = 1 and
    c_(k+1)/c_k = (1+s+k)(n/2+s+k)/((n/2+k)(k+1)) > 0.  Logs, since at
    n = 343 2^sigma is about 4e51 and e^(-lambda h) underflows before it."""
    k = np.arange(_SERIES_TERMS - 1.0)
    ratios = (1.0 + p.s + k) * (0.5 * p.n + p.s + k) / ((0.5 * p.n + k) * (k + 1.0))
    log_amps = p.sigma * _LOG2 + np.concatenate([[0.0], np.cumsum(np.log(ratios))])
    return read_only(p.sigma + 2.0 * np.arange(_SERIES_TERMS)), read_only(log_amps)


def _series_terms(p, gap):
    """Rates and log amplitudes of the series terms at least 1e-17 (e^-39.2) of
    the first at separation gap, a prefix since log a_k - lambda_k gap is concave in k."""
    rates, log_amps = _kernel_series(p)
    keep = np.count_nonzero(log_amps - log_amps[0] - (rates - p.sigma) * gap >= -39.2)
    if keep == _SERIES_TERMS:
        raise NonConvergenceError(f"kernel series needs over {_SERIES_TERMS} terms at s = {p.s}")
    return rates[:keep], log_amps[:keep]


@lru_cache(maxsize=64)  # every periodized_kernel call at (p, L) reuses it
def _shell_series(p, period, shells):
    """Rates and log amplitudes of the series past J = ``shells`` direct shells
    at period L, the sum over shells 1/(1 - e^(-lam_k L)) folded in."""
    # as in periodized_kernel, an overflow to inf at huge L is a term of 0
    with np.errstate(over="ignore"):
        lam, log_amps = _series_terms(p, (shells + 0.5) * period)
        return lam, read_only(log_amps - np.log(-np.expm1(-lam * period)))


@lru_cache(maxsize=64)  # every kernel_multiplier call at p reuses it
def _difference_table(p):
    """Nodes and weighted kernel values of the 64-node Gauss-Jacobi rule for
    int_0^1 (1 - cos(xi h)) K0(h) dh, whose integrand is h^(1-2s) times a
    smooth even function: weights * h^(2s-1) K0(h), the same at every xi."""
    nodes, weights = jacobi_unit_rule(1.0 - 2.0 * p.s, 64)
    return nodes, read_only(weights * nodes ** (2.0 * p.s - 1.0) * kernel_base(p, nodes))


def _difference_integral(p, xi):
    """int_R (1 - cos(xi h)) K0(h) dh for the unnormalized profile: the table
    (``_difference_table``) on (0, 1) and the series in closed form beyond,
    e^(-lam) (2 lam^2 sin^2(xi/2) + xi (xi + lam sin xi)) / (lam (lam^2 + xi^2))
    per rate lam, which is e^(-lam) (1/lam - Re(e^(i xi) / (lam - i xi)))
    without its loss of digits as xi -> 0."""
    nodes, table = _difference_table(p)
    body = float(table @ (2.0 * np.sin(0.5 * xi * nodes) ** 2))
    lam, log_amps = _series_terms(p, 1.0)
    bracket = 2.0 * (lam * math.sin(0.5 * xi)) ** 2 + xi * (xi + lam * math.sin(xi))
    tail = np.exp(log_amps - lam) * bracket / (lam * (lam**2 + xi**2))
    return 2.0 * (body + float(tail.sum()))


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

    Accepts scalar or array xi.  An array goes through ``kernel_base``.  A
    real scalar (float, int or numpy float64), as in a direct lattice sum,
    is evaluated as a float, without the array machinery, with the same
    refusals, and gives a float with the bits of the one-entry array's value.
    """
    p = spec.params
    if not isinstance(xi, (float, int)):
        h = np.abs(np.asarray(xi, dtype=float))
        require(h != 0.0, _ZERO_SEPARATION, xi, SingularityError)
        return spec.normalization * kernel_base(p, h)
    h = abs(float(xi))
    if h == 0.0:
        raise SingularityError(_ZERO_SEPARATION.format(xi))
    require_dimension(p.n, "the cylinder", least=2)
    if not math.isfinite(h):
        raise ParameterError(f"kernel profile needs finite h > 0, got {h}")
    # near h = 1e308 the log factor is -inf in float arithmetic, which the
    # exponential takes to a profile of 0; np.exp would warn on overflow
    log_power, hyp = _profile_factors(p, h, float)
    if not math.isfinite(hyp):
        raise SingularityError(_NONFINITE_2F1.format(h))
    out = float(np.exp(log_power)) * float(hyp) if log_power <= _LOG_FLOAT_MAX else math.inf
    if not math.isfinite(out):
        raise SingularityError(f"kernel profile overflows float64 at h = {h}")
    return spec.normalization * out


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

    With xc = dist(xi, L Z) <= L/2, shell j holds K(j L - xc) and K(j L + xc).
    ``kernel_base`` evaluates the central term and the J = max(0, ceil(1/L -
    1/2)) shells that can come closer than 1 (none for L >= 2; past 400, for
    L below about 1/400.5, the call is refused), and the exponential series
    sums every farther shell at once, as sum_k a_k (e^(-lam_k ((J+1) L - xc))
    + e^(-lam_k ((J+1) L + xc))) / (1 - e^(-lam_k L)).  The entries go in
    blocks of at most about _PERIODIZE_BLOCK values, and each entry's sum
    runs in the same order whatever its block.

    xi may be any finite non-lattice real, scalar or array (a scalar gives a
    float); the result is L-periodic and symmetric about L/2 by construction.
    """
    period = float(period)
    if not period > 0.0 or not math.isfinite(period):
        raise ParameterError(f"period must be positive and finite, got {period!r}")
    xs = np.asarray(xi, dtype=float)
    require(np.isfinite(xs), "periodized kernel needs finite xi, got {}", xi)
    x = np.mod(xs, period)
    xc = np.minimum(x, period - x)
    message = "periodized kernel diverges on the period lattice (xi = {})"
    require(xc > 1e-9 * period, message, xi, SingularityError)
    reach = 1.0 / period - 0.5  # inf below L ~ 5e-309
    if not reach <= _PERIODIZE_MAX_SHELLS:
        message = f"periodized kernel needs over {_PERIODIZE_MAX_SHELLS} shells at L = {period!r}"
        raise NonConvergenceError(message)
    shells = max(0, math.ceil(reach))
    p = spec.params
    offsets = period * np.arange(-shells, shells + 1.0)
    far = (shells + 1) * period
    entries = xc.reshape(-1)
    total = np.empty(entries.size)
    lam, log_amps = _shell_series(p, period, shells)
    # from L ~ 1e306 on, products with L overflow to inf, and the series
    # terms they enter are 0
    with np.errstate(over="ignore"):
        # the direct terms in one row per entry, summed along the row alone,
        # and the series terms in one column per gap, at least two columns,
        # which numpy sums term by term: every entry's sum runs in one order
        # whatever its block
        rows = max(1, _PERIODIZE_BLOCK // (offsets.size + 2 * lam.size))
        for lo in range(0, entries.size, rows):
            block = entries[lo : lo + rows]
            gaps = np.concatenate([far - block, far + block])
            tail = np.exp(log_amps[:, None] - np.multiply.outer(lam, gaps)).sum(axis=0)
            tail = tail[: block.size] + tail[block.size :]
            direct = kernel_base(p, np.abs(block[:, None] - offsets)).sum(axis=1)
            total[lo : lo + rows] = spec.normalization * (direct + tail)
    total = total.reshape(xs.shape)
    return float(total) if xs.ndim == 0 else total
