"""Fractional conformal operator on the flat cylinder R x S^(n-1).

Functions split over spherical harmonics on the cross-section and Fourier
frequencies xi along the axis; the operator multiplies each (m, xi) component
by a ratio of squared Gamma moduli, which only this module evaluates, and the
root Theta^0(xi0) = c_(n,s) q of its zero mode fixes the bifurcation period of
the Delaunay branch.  The translation-invariant part also has a convolution
kernel in the axial variable, a hypergeometric profile with an algebraic
singularity at 0 and exponential decay, which this module evaluates directly,
normalizes in closed form, checks against the symbol, and periodizes for the
study of periodic solutions.
"""

import math
import sys
from functools import lru_cache

import numpy as np
from scipy.special import hyp2f1, loggamma, psi

from .errors import NonConvergenceError, ParameterError, SingularityError
from .params import KernelSpec, mode_degrees, read_only, require, require_dimension
from .sphere import frac_lap_constant, vol_sphere
from .specfun import jacobi_unit_rule, log_gamma, panel_rule

_PERIODIZE_REL_TOL = 1e-15
_PERIODIZE_MAX_SHELLS = 400
#: about the most (2J+1) x entries kernel values ``periodized_kernel`` holds at once
_PERIODIZE_BLOCK = 2**16
#: largest |xi| ``kernel_multiplier`` accepts: the 64-node Jacobi rule on
#: (0, 1) resolves 1 - cos(xi h) to about 1e-9 up to here, and not past it
KERNEL_MULTIPLIER_XI_MAX = 200.0
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


@lru_cache(maxsize=64)  # every kernel_multiplier call at (p, density) reuses it
def _difference_table(p, density):
    """Nodes and weighted kernel values of the quadrature for
    int_0^h_cut (1 - cos(xi h)) K0(h) dh, as read-only arrays.

    On (0, 1) the integrand is h^(1-2s) times a smooth even function of h,
    so the 64-node Gauss-Jacobi rule for that weight takes weights *
    h^(2s-1) K0(h); on (1, h_cut) composite Gauss-Legendre panels of width
    1/density take weights * K0(h).  Neither depends on xi.  From sigma = 45
    on (n >= 90 at s = 0.3) h_cut <= 1 and there are no panels: the near
    rule and the tail then overlap on (h_cut, 1), where K0 is below
    e^(-45) of its amplitude.
    """
    nodes, weights = jacobi_unit_rule(1.0 - 2.0 * p.s, 64)
    weights = weights * nodes ** (2.0 * p.s - 1.0)
    h_cut = 45.0 / p.sigma
    if h_cut > 1.0:
        far, far_weights = panel_rule(1.0, h_cut, math.ceil((h_cut - 1.0) * density))
        nodes, weights = np.concatenate([nodes, far]), np.concatenate([weights, far_weights])
    return read_only(nodes), read_only(weights * kernel_base(p, nodes))


def _difference_integral(p, xi):
    """int_R (1 - cos(xi h)) K0(h) dh for the unnormalized profile.

    One table per (p, density) (``_difference_table``) covers h < h_cut =
    45/sigma, and the closed-form exponential tail covers h > h_cut.  The
    panels on (1, h_cut) have width 1/density, with density 4 up to xi = 16
    and doubling with each doubling of xi past 16, so each 12-point panel
    spans at most 4 radians of cos(xi h) and every xi <= 16 at p reads the
    same table.
    """
    density = 4 if xi <= 16.0 else 4 * 2 ** math.ceil(math.log2(xi / 16.0))
    nodes, table = _difference_table(p, density)
    body = float(table @ (2.0 * np.sin(0.5 * xi * nodes) ** 2))
    h_cut = 45.0 / p.sigma
    lam = p.sigma
    amp = 2.0 ** (p.s + 0.5 * p.n)
    decay = math.exp(-lam * h_cut)
    osc = complex(lam, -xi)
    tail = amp * (decay / lam - (np.exp(complex(-lam, xi) * h_cut) / osc).real)
    return 2.0 * (body + tail)


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
    K(h) e^(sigma h) decreases for h > 0, so both are at most
    K(xc) e^(-sigma (j-1) L), and the shells past shell J add at most
    2.1 K(J L - xc) / (e^(sigma L) - 1).  J is the least count at which that
    bound drops below 1e-15 of K(xc), fixed before any evaluation and capped
    at 400.  The entries go in equal blocks of about _PERIODIZE_BLOCK / (2J+1)
    or fewer, each block's 2J+1 terms come from one ``kernel_base`` call and
    are summed over the shell axis in the same order as one whole table would
    be, and every entry is then checked against the remainder bound on its
    own last term.

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
    p = spec.params
    decay = p.sigma * period
    # log of 2.1 / (e^(sigma L) - 1), the remainder bound over the last left
    # term, in a form that does not overflow on long periods
    log_ratio = math.log(2.1) - decay - math.log(-math.expm1(-decay))
    needed = math.ceil((log_ratio - math.log(_PERIODIZE_REL_TOL)) / decay)
    shells = min(_PERIODIZE_MAX_SHELLS, 1 + max(0, needed))
    lattice = period * np.arange(1.0, shells + 1.0)
    entries = xc.reshape(-1)
    total = np.empty(entries.size)
    # equal blocks, so that no block of a longer call holds a single entry:
    # numpy sums a lone column pairwise and a wider block row by row
    blocks = max(1, math.ceil(entries.size * (2 * shells + 1) / _PERIODIZE_BLOCK))
    edges = [entries.size * k // blocks for k in range(blocks + 1)]
    for lo, hi in zip(edges, edges[1:]):
        block = entries[lo:hi]
        h = np.concatenate(
            [block[None], np.subtract.outer(lattice, block), np.add.outer(lattice, block)]
        )
        terms = spec.normalization * kernel_base(p, h)
        sums = terms.sum(axis=0)
        if not (math.exp(log_ratio) * terms[shells] < _PERIODIZE_REL_TOL * sums).all():
            raise NonConvergenceError(
                f"periodized kernel did not converge within {_PERIODIZE_MAX_SHELLS} shells"
            )
        total[lo:hi] = sums
    total = total.reshape(xs.shape)
    return float(total) if xs.ndim == 0 else total
