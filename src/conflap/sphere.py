"""Fractional conformal operator on the round sphere.

The operator acts diagonally on spherical-harmonic degrees with multiplier
``Gamma(m + n/2 + s) / Gamma(m + n/2 - s)``; its zeroth multiplier is the
constant fractional curvature of the round metric.  The same operator has a
singular-integral form ``A u(z) + PV int (u(z) - u(zeta)) K(z . zeta)`` with
the power-law kernel ``kappa (1 - z . zeta)^(-(n+2s)/2)``.  This module
provides both routes plus the integer-order factorizations, so they can be
checked against each other.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import legvander
from scipy.special import poch, roots_jacobi

from .errors import ParameterError, SingularityError
from .params import KernelSpec, require_dimension, require_unit_order
from .specfun import legendre_rule, log_gamma

#: The S^1 moment corrections act on modes up to the grid size over this;
#: above it they would only amplify round-off.
_BAND_FRACTION = 3
#: least Gauss-Jacobi size of the S^2 multipliers
_S2_QUAD_SIZE = 40

_MIN_GRID = 16


def _check_mode(m):
    """A degree or an integer array of degrees, as an array."""
    degrees = np.asarray(m)
    if degrees.dtype.kind not in "iu":
        raise ParameterError(f"mode degree must be an int, got {m!r}")
    if (degrees < 0).any():
        raise ParameterError(f"mode degree must be >= 0, got {m}")
    return degrees


def mode_eigenvalue(n, m):
    """Laplace-Beltrami eigenvalue m (m + n - 1) of degree-m harmonics on S^n."""
    m = _check_mode(m)
    out = m * (m + n - 1.0)
    return float(out) if out.ndim == 0 else out


def sphere_symbol(p, m):
    """Spectral multiplier of the order-2s conformal operator on S^n.

    Equals Gamma(m + n/2 + s) / Gamma(m + n/2 - s), the Pochhammer symbol
    (m + n/2 - s)_(2s).  For s >= n/2 this is the analytic continuation of
    the ratio; it vanishes at poles of the denominator Gamma and may be
    negative between them.  m is an int (a float is returned) or an integer
    array of degrees.  Raises ParameterError where the ratio overflows.
    """
    out = poch(_check_mode(m) + 0.5 * p.n - p.s, 2.0 * p.s)
    if not np.isfinite(out).all():
        raise ParameterError(f"sphere symbol overflows at n = {p.n}, s = {p.s}, m = {m}")
    return float(out) if out.ndim == 0 else out


def sphere_curvature(p):
    """Constant fractional curvature of the round S^n (the m = 0 multiplier)."""
    return sphere_symbol(p, 0)


def conformal_laplacian_eigenvalue(n, m):
    """Eigenvalue of -Delta + n(n-2)/4 on degree-m harmonics."""
    return mode_eigenvalue(n, m) + 0.25 * n * (n - 2)


def gjms_symbol(n, k, m):
    """Multiplier of the order-2k product operator on S^n.

    The product runs over j = 1..k with factors -Delta + (n/2+j-1)(n/2-j);
    for k = 1 this is the conformal Laplacian.
    """
    if not isinstance(k, int) or k < 1:
        raise ParameterError(f"order k must be an int >= 1, got {k!r}")
    mu = mode_eigenvalue(n, m)
    out = 1.0
    for j in range(1, k + 1):
        out *= mu + (0.5 * n + j - 1) * (0.5 * n - j)
    return out


def factored_symbol(p0, k, m):
    """Multiplier of the order 2(s0+k) operator assembled by factorization.

    Multiplies the order-2s0 symbol by k shifted conformal-Laplacian factors
    with shifts c_j = -(s0+j-1)(s0+j).  Requires s0 in (0, 1) and
    s0 + k < n/2, the range where the factorization identity holds.
    """
    if not isinstance(k, int) or k < 1:
        raise ParameterError(f"factor count k must be an int >= 1, got {k!r}")
    s0 = p0.s
    require_unit_order(s0, "the factored symbol's base order")
    if s0 + k >= 0.5 * p0.n:
        raise ParameterError(
            f"factored symbol needs s0 + k < n/2, got s0 = {s0}, k = {k}, n = {p0.n}"
        )
    lam = conformal_laplacian_eigenvalue(p0.n, m)
    out = sphere_symbol(p0, m)
    for j in range(1, k + 1):
        out *= lam - (s0 + j - 1.0) * (s0 + j)
    return out


def vol_sphere(n):
    """Volume of the unit round S^n."""
    require_dimension(n)
    return 2.0 * math.pi ** (0.5 * (n + 1)) / math.exp(log_gamma(0.5 * (n + 1)))


@dataclass(frozen=True)
class ModeSpectrum:
    """Coefficients c_m of a zonal harmonic expansion on S^n."""

    n: int
    coeffs: np.ndarray

    def __post_init__(self):
        require_dimension(self.n)
        c = np.asarray(self.coeffs, dtype=float)
        if c.ndim != 1 or c.size == 0:
            raise ParameterError("coeffs must be a non-empty 1-d array")
        if not np.all(np.isfinite(c)):
            raise ParameterError("coeffs must be finite")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)


def apply_sphere(p, f):
    """Apply the conformal operator to a zonal spectrum, degree by degree."""
    if f.n != p.n:
        raise ParameterError(
            f"spectrum dimension {f.n} does not match parameters n = {p.n}"
        )
    return ModeSpectrum(f.n, f.coeffs * sphere_symbol(p, np.arange(f.coeffs.size)))


def _circle_moment(alpha):
    """int_0^{2 pi} (1 - cos t)^alpha dt for alpha > -1/2, in closed form."""
    return (
        2.0 ** (alpha + 1.0)
        * math.sqrt(math.pi)
        * math.exp(log_gamma(alpha + 0.5) - log_gamma(alpha + 1.0))
    )


def frac_lap_constant(p):
    """C_(n,s) = s 4^s Gamma(n/2 + s) / (pi^(n/2) Gamma(1 - s)), for 0 < s < 1.

    The normalization of (-Delta)^s u(x) = C_(n,s) PV int (u(x) - u(y))
    |x - y|^(-n-2s) dy on R^n (Di Nezza, Palatucci & Valdinoci 2012).  The
    sphere and cylinder kernels pull back |x - y|^(-n-2s), so their
    normalizations are this constant too.
    """
    require_unit_order(p.s, "the singular-kernel representation")
    log_ratio = log_gamma(0.5 * p.n + p.s) - log_gamma(1.0 - p.s)
    return p.s * 4.0**p.s * math.exp(log_ratio) / math.pi ** (0.5 * p.n)


def calibrate_sphere_kernel(p):
    """Kernel constant kappa = C_(n,s) 2^(-(n+2s)/2), checked on two degrees.

    |z - zeta|^2 = 2 (1 - z . zeta) turns the Euclidean kernel into the
    power of 1 - z . zeta.  The record holds the relative residuals of the
    kernel route against the multipliers of degrees 1 and 2, both through
    closed-form moments; neither is fitted, and ``residual`` is the larger.
    """
    if p.n not in (1, 2):
        raise ParameterError(f"kernel calibration implemented for n in {{1, 2}}, got {p.n}")
    kappa = frac_lap_constant(p) * 2.0 ** (-p.sigma)
    curv = sphere_curvature(p)
    if p.n == 1:
        moment1 = _circle_moment(0.5 - p.s)
        # 1 - cos 2t = 4 (1 - cos t) - 2 (1 - cos t)^2
        moments = (moment1, 4.0 * moment1 - 2.0 * _circle_moment(1.5 - p.s))
    else:
        # zonal kernel on S^2 in t = cos(geodesic distance), measure 2 pi dt
        j1 = 2.0 ** (1.0 - p.s) / (1.0 - p.s)
        j2 = 3.0 * j1 - 1.5 * 2.0 ** (2.0 - p.s) / (2.0 - p.s)
        moments = (2.0 * math.pi * j1, 2.0 * math.pi * j2)
    symbols = sphere_symbol(p, np.arange(1, 3))
    residuals = (np.abs(curv + kappa * np.array(moments) - symbols) / symbols).tolist()
    record = {"check_modes": [1, 2], "residuals": residuals, "residual": max(residuals)}
    return KernelSpec(p, kappa, record)


def sphere_kernel(spec, cos_theta):
    """Kernel kappa (1 - cos theta)^(-(n+2s)/2) between points at angle theta."""
    c = np.asarray(cos_theta, dtype=float)
    if np.any(c >= 1.0):
        raise SingularityError("sphere kernel diverges on the diagonal (cos theta = 1)")
    if np.any(c < -1.0) or not np.all(np.isfinite(c)):
        raise ParameterError("cos theta must lie in [-1, 1)")
    out = spec.normalization * (1.0 - c) ** (-spec.params.sigma)
    return float(out) if np.isscalar(cos_theta) else out


def _circle_multipliers(spec, size):
    """Kernel-route multipliers on the uniform S^1 grid of ``size`` points.

    The PV trapezoid sum is a circulant, so mode m is an eigenvector with
    eigenvalue h (sum K - rfft(K)_m).  Up to m = size/3 the even part of
    u(theta) - u(theta + t) is matched by a2 (1-cos t) + a4 (1-cos t)^2
    through order t^4, with a2 = m^2 and a4 = (m^2 - m^4)/6; those comparison
    terms get their closed-form integrals in place of the trapezoid sums,
    which leaves an O(h^(6-2s)) quadrature error.  Inputs are band-limited
    by precondition, so the higher modes carry only round-off.
    """
    p = spec.params
    kappa = spec.normalization
    h = 2.0 * math.pi / size
    one_minus_cos = 1.0 - np.cos(h * np.arange(size))
    kernel = np.zeros(size)
    kernel[1:] = kappa * one_minus_cos[1:] ** (-p.sigma)
    m2 = np.arange(size // 2 + 1) ** 2.0
    m2[m2 > (size // _BAND_FRACTION) ** 2] = 0.0
    # closed-form moments minus their trapezoid sums
    err1 = kappa * _circle_moment(0.5 - p.s) - h * (kernel @ one_minus_cos)
    err2 = kappa * _circle_moment(1.5 - p.s) - h * (kernel @ one_minus_cos**2)
    lam = h * (kernel.sum() - np.fft.rfft(kernel).real)
    return sphere_curvature(p) + lam + m2 * err1 + (m2 - m2**2) / 6.0 * err2


@lru_cache(maxsize=8)  # r x r floats each, so fewer entries than legendre_rule
def _legendre_vandermonde(r):
    """P_0 .. P_(r-1) at the r Gauss-Legendre nodes, as a read-only array."""
    vand = legvander(legendre_rule(r)[0], r - 1)
    vand.flags.writeable = False
    return vand


def _legendre_coefficients(values):
    """Legendre coefficients of samples at the Gauss-Legendre nodes, and the
    Vandermonde that maps them back."""
    r = values.size
    vand = _legendre_vandermonde(r)
    scale = (2.0 * np.arange(r) + 1.0) / 2.0
    return scale * (vand.T @ (legendre_rule(r)[1] * values)), vand


def _s2_multipliers(spec, max_degree):
    """Kernel-route multipliers on S^2 by Gauss-Jacobi quadrature.

    J_m = int (1 - P_m(t)) (1-t)^(-1-s) dt is computed with the weight
    (1-t)^(-s) applied to the degree m-1 polynomial (1 - P_m(t))/(1 - t),
    which the rule integrates exactly; the kernel constant is the spec's.
    """
    p = spec.params
    nq = max(_S2_QUAD_SIZE, max_degree // 2 + 4)
    # not specfun.jacobi_unit_rule(-s, nq) mapped to (-1, 1): that is the same
    # rule, but its (1-t)^j moments at nq = 40 are off by up to 9.8e-10
    # relative at s = 0.995, against 1.4e-10 from roots_jacobi directly
    tq, wq = roots_jacobi(nq, -p.s, 0.0)
    vand = legvander(tq, max_degree)
    ratios = (1.0 - vand) / (1.0 - tq)[:, None]
    j = ratios.T @ wq
    return sphere_curvature(p) + 2.0 * math.pi * spec.normalization * j


def singular_integral_apply(spec, values):
    """Apply the operator through its singular-kernel representation.

    For n = 1 ``values`` are samples on the uniform grid theta_i = 2 pi i / N
    (N >= 16) and the kernel is summed as a corrected PV trapezoid rule; for
    n = 2 they are zonal samples at the Gauss-Legendre nodes
    t_i = cos(gamma_i), and the kernel is integrated by Gauss-Jacobi
    quadrature.  Both sums act diagonally on the grid's modes, so either
    route is a multiplier table applied to the modes of ``values``.
    """
    p = spec.params
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or not np.all(np.isfinite(values)):
        raise ParameterError("values must be a finite 1-d array")
    if p.n == 1:
        n = values.size
        if n < _MIN_GRID:
            raise ParameterError(f"need at least {_MIN_GRID} circle samples, got {n}")
        return np.fft.irfft(np.fft.rfft(values) * _circle_multipliers(spec, n), n)
    if p.n == 2:
        r = values.size
        if r < 4:
            raise ParameterError("need at least 4 Gauss-Legendre samples")
        coeffs, vand = _legendre_coefficients(values)
        return vand @ (coeffs * _s2_multipliers(spec, r - 1))
    raise ParameterError(f"singular-integral route implemented for n in {{1, 2}}, got {p.n}")


def apply_sphere_grid(p, values):
    """Spectral route on the uniform S^1 grid: multiply FFT bins by the symbol."""
    if p.n != 1:
        raise ParameterError("grid application is for n = 1; use apply_sphere otherwise")
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size < 2:
        raise ParameterError("values must be a 1-d array with at least 2 samples")
    spec = np.fft.rfft(values)
    return np.fft.irfft(spec * sphere_symbol(p, np.arange(spec.size)), values.size)


def yamabe_quotient_sphere(p, values):
    """Rayleigh quotient int u P_s u / (int u^(2*))^(2/2*) on S^1 or S^2.

    Positive input only; the numerator goes through the spectral multipliers
    and the denominator through the grid's native quadrature (trapezoid on
    S^1, Gauss-Legendre weights on S^2).  Constants realize the round
    sphere's value Q_s vol(S^n)^(2s/n).
    """
    two_star = p.two_star
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or not np.all(np.isfinite(values)):
        raise ParameterError("values must be a finite 1-d array")
    if np.any(values <= 0.0):
        raise ParameterError("the quotient is defined for positive u only")
    if p.n == 1:
        applied = apply_sphere_grid(p, values)
        energy = 2.0 * math.pi / values.size * float(values @ applied)
        mass = 2.0 * math.pi * float(np.mean(values**two_star))
    elif p.n == 2:
        r = values.size
        _, w = legendre_rule(r)
        coeffs, _ = _legendre_coefficients(values)
        degrees = np.arange(r)
        mult = sphere_symbol(p, degrees)
        energy = float(np.sum(coeffs**2 * mult * 4.0 * math.pi / (2.0 * degrees + 1.0)))
        mass = 2.0 * math.pi * float(np.sum(w * values**two_star))
    else:
        raise ParameterError(f"quotient implemented for n in {{1, 2}}, got {p.n}")
    return energy / mass ** (2.0 / two_star)
