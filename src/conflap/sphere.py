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
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import beta, eval_gegenbauer, poch

from .errors import ParameterError, SingularityError
from .params import (
    KernelSpec,
    mode_degrees,
    read_only,
    require,
    require_dimension,
    require_unit_order,
)
from .specfun import jacobi_rule, log_gamma

#: The S^1 moment corrections act on modes up to the grid size over this;
#: above it they would only amplify round-off.
_BAND_FRACTION = 3

_MIN_GRID = 16


def _mode_eigenvalue(n, m):
    """Laplace-Beltrami eigenvalue m (m + n - 1) of degree-m harmonics on S^n."""
    m = mode_degrees(m)
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
    out = poch(mode_degrees(m) + 0.5 * p.n - p.s, 2.0 * p.s)
    require(np.isfinite(out), f"sphere symbol overflows at n = {p.n}, s = {p.s}, m = {{}}", m)
    return float(out) if out.ndim == 0 else out


def sphere_curvature(p):
    """Constant fractional curvature of the round S^n (the m = 0 multiplier)."""
    return sphere_symbol(p, 0)


def conformal_laplacian_eigenvalue(n, m):
    """Eigenvalue of -Delta + n(n-2)/4 on degree-m harmonics."""
    return _mode_eigenvalue(n, m) + 0.25 * n * (n - 2)


def gjms_symbol(n, k, m):
    """Multiplier of the order-2k product operator on S^n.

    The product runs over j = 1..k with factors -Delta + (n/2+j-1)(n/2-j);
    for k = 1 this is the conformal Laplacian.
    """
    if not isinstance(k, int) or k < 1:
        raise ParameterError(f"order k must be an int >= 1, got {k!r}")
    mu = _mode_eigenvalue(n, m)
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
    """Volume 2 pi^((n+1)/2) / Gamma((n+1)/2) of the unit round S^n, through
    its log, since Gamma((n+1)/2) leaves the floats from n = 343 and the
    volume only later; ParameterError from n = 438, where it drops below the
    normal floats."""
    require_dimension(n)
    half = 0.5 * (n + 1)
    volume = math.exp(math.log(2.0) + half * math.log(math.pi) - log_gamma(half))
    if volume < sys.float_info.min:
        raise ParameterError(f"vol(S^n) underflows float64 at n = {n}")
    return volume


@dataclass(frozen=True)
class ModeSpectrum:
    """Coefficients c_m of a zonal harmonic expansion on S^n."""

    n: int
    coeffs: np.ndarray

    def __post_init__(self):
        require_dimension(self.n)
        c = np.array(self.coeffs, dtype=float)  # the record's own copy
        if c.ndim != 1 or c.size == 0:
            raise ParameterError("coeffs must be a non-empty 1-d array")
        require(np.isfinite(c), "coeffs must be finite, got {}", self.coeffs)
        object.__setattr__(self, "coeffs", read_only(c))


def apply_sphere(p, f):
    """Apply the conformal operator to a zonal spectrum, degree by degree."""
    if f.n != p.n:
        raise ParameterError(
            f"spectrum dimension {f.n} does not match parameters n = {p.n}"
        )
    return ModeSpectrum(f.n, f.coeffs * sphere_symbol(p, np.arange(f.coeffs.size)))


def _jacobi_moment(a, b):
    """int_-1^1 (1 - t)^a (1 + t)^b dt = 2^(a+b+1) B(a+1, b+1), a, b > -1."""
    return 2.0 ** (a + b + 1.0) * beta(a + 1.0, b + 1.0)


def frac_lap_constant(p):
    """C_(n,s) = s 4^s Gamma(n/2 + s) / (pi^(n/2) Gamma(1 - s)), for 0 < s < 1.

    The normalization of (-Delta)^s u(x) = C_(n,s) PV int (u(x) - u(y))
    |x - y|^(-n-2s) dy on R^n (Di Nezza, Palatucci & Valdinoci 2012).  The
    sphere and cylinder kernels pull back |x - y|^(-n-2s), so their
    normalizations are this constant too.  Evaluated through its log, since
    Gamma(n/2 + s) and pi^(n/2) leave the floats from n = 343 and C_(n,s)
    only later; ParameterError where the constant overflows, from n = 439 at
    s = 0.3.
    """
    require_unit_order(p.s, "the singular-kernel representation")
    log_ratio = log_gamma(0.5 * p.n + p.s) - log_gamma(1.0 - p.s)
    log_c = math.log(p.s) + p.s * math.log(4.0) + log_ratio - 0.5 * p.n * math.log(math.pi)
    try:
        return math.exp(log_c)
    except OverflowError:
        raise ParameterError(f"C_(n,s) overflows at n = {p.n}, s = {p.s}") from None


def calibrate_sphere_kernel(p):
    """Kernel constant kappa = C_(n,s) 2^(-(n+2s)/2), checked on two degrees.

    |z - zeta|^2 = 2 (1 - z . zeta) turns the Euclidean kernel into the
    power of 1 - z . zeta.  The record holds the relative residuals of the
    kernel route against the multipliers of degrees 1 and 2, both through
    closed-form Beta moments for every n; neither is fitted, and
    ``residual`` is the larger.
    """
    kappa = frac_lap_constant(p) * 2.0 ** (-p.sigma)
    curv = sphere_curvature(p)
    # Funk-Hecke in t = z . zeta, measure |S^(n-1)| (1 - t^2)^((n-2)/2) dt, with
    # (1 - P_1)/(1 - t) = 1, (1 - P_2)/(1 - t) = (n + 1)(1 + t)/n and |S^0| = 2
    area = vol_sphere(p.n - 1) if p.n > 1 else 2.0
    b = 0.5 * p.n - 1.0
    moments = [_jacobi_moment(-p.s, b), (p.n + 1.0) / p.n * _jacobi_moment(-p.s, b + 1.0)]
    symbols = sphere_symbol(p, np.arange(1, 3))
    residuals = (np.abs(curv + kappa * area * np.array(moments) - symbols) / symbols).tolist()
    record = {"check_modes": [1, 2], "residuals": residuals, "residual": max(residuals)}
    return KernelSpec(p, kappa, record)


def sphere_kernel(spec, cos_theta):
    """Kernel kappa (1 - cos theta)^(-(n+2s)/2) between points at angle theta."""
    c = np.asarray(cos_theta, dtype=float)
    # cos theta >= 1, inf among them, is the diagonal; NaN and -inf are out of range
    diverges = "sphere kernel diverges on the diagonal (cos theta = 1), got {}"
    require(~(c >= 1.0), diverges, cos_theta, SingularityError)
    require(c >= -1.0, "cos theta must lie in [-1, 1), got {}", cos_theta)
    with np.errstate(over="ignore"):
        out = spec.normalization * (1.0 - c) ** (-spec.params.sigma)
    n = spec.params.n
    require(np.isfinite(out), f"sphere kernel overflows float64 at n = {n}, got {{}}", cos_theta)
    return float(out) if c.ndim == 0 else out


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
    err1 = 2.0 * kappa * _jacobi_moment(-p.s, -0.5) - h * (kernel @ one_minus_cos)
    err2 = 2.0 * kappa * _jacobi_moment(1.0 - p.s, -0.5) - h * (kernel @ one_minus_cos**2)
    lam = h * (kernel.sum() - np.fft.rfft(kernel).real)
    return sphere_curvature(p) + lam + m2 * err1 + (m2 - m2**2) / 6.0 * err2


def _zonal_harmonics(n, t, degree):
    """P_0 .. P_degree at the points t, P_m = C_m^((n-1)/2) / C_m^((n-1)/2)(1)
    the degree-m zonal harmonic of S^n."""
    m = np.arange(degree + 1)
    return eval_gegenbauer(m, 0.5 * (n - 1), t[:, None]) / eval_gegenbauer(m, 0.5 * (n - 1), 1.0)


@lru_cache(maxsize=8)  # 2 r^2 floats each, so fewer entries than jacobi_rule
def _zonal_table(n, r):
    """P_0 .. P_(r-1) at the r Gauss-Gegenbauer nodes of S^n, and the map from
    samples there to the coefficients of the P_m, as read-only arrays.

    The rule is exact on P_j P_k for j + k < 2r, so its own weights project.
    """
    b = 0.5 * n - 1.0
    nodes, weights = jacobi_rule(b, b, r)
    table = _zonal_harmonics(n, nodes, r - 1)
    weighted = weights[:, None] * table
    projector = (weighted / (table * weighted).sum(axis=0)).T
    return read_only(table), read_only(projector)


def _zonal_multipliers(spec, max_degree):
    """Kernel-route multipliers on S^n, n >= 2, by Funk-Hecke and Gauss-Jacobi.

    J_m = int (1 - P_m(t)) (1-t)^(-1-s) (1+t)^((n-2)/2) dt is computed with the
    weight (1-t)^(-s) (1+t)^((n-2)/2) applied to the degree m-1 polynomial
    (1 - P_m(t))/(1 - t), which the rule integrates exactly.  The rule has the
    least exact size: its round-off grows with the size, 4x from 24 to 64
    nodes at s = 0.995.  The kernel constant is the spec's.
    """
    p = spec.params
    tq, wq = jacobi_rule(-p.s, 0.5 * p.n - 1.0, max_degree // 2 + 1)
    ratios = (1.0 - _zonal_harmonics(p.n, tq, max_degree)) / (1.0 - tq)[:, None]
    return sphere_curvature(p) + vol_sphere(p.n - 1) * spec.normalization * (ratios.T @ wq)


def singular_integral_apply(spec, values):
    """Apply the operator through its singular-kernel representation.

    For n = 1 ``values`` are samples on the uniform grid theta_i = 2 pi i / N
    (N >= 16) and the kernel is summed as a corrected PV trapezoid rule; for
    n >= 2 they are zonal samples at the Gauss-Gegenbauer nodes
    t_i = cos(gamma_i) (the Gauss-Legendre nodes on S^2), and the kernel is
    integrated by Funk-Hecke and Gauss-Jacobi quadrature.  Both sums act
    diagonally on the grid's modes, so either route is a multiplier table
    applied to the modes of ``values``.
    """
    p = spec.params
    values = np.asarray(values, dtype=float)
    message = "values must be a finite 1-d array"
    if values.ndim != 1:
        raise ParameterError(message)
    require(np.isfinite(values), message + ", got {}", values)
    size = values.size
    if p.n == 1:
        if size < _MIN_GRID:
            raise ParameterError(f"need at least {_MIN_GRID} circle samples, got {size}")
        return np.fft.irfft(np.fft.rfft(values) * _circle_multipliers(spec, size), size)
    if size < 4:
        raise ParameterError("need at least 4 Gauss-Gegenbauer samples")
    table, projector = _zonal_table(p.n, size)
    multipliers = _zonal_multipliers(spec, size - 1)
    # the mean takes Q_s exactly, so the round-off that the higher
    # multipliers amplify scales with the oscillation of values, not its size
    mean = projector[0] @ values
    return table @ (multipliers * (projector @ (values - mean))) + multipliers[0] * mean


def apply_sphere_grid(p, values):
    """Spectral route on the uniform S^1 grid: multiply FFT bins by the symbol."""
    if p.n != 1:
        raise ParameterError("grid application is for n = 1; use apply_sphere otherwise")
    values = np.asarray(values, dtype=float)
    message = "values must be a finite 1-d array with at least 2 samples"
    if values.ndim != 1 or values.size < 2:
        raise ParameterError(message)
    require(np.isfinite(values), message + ", got {}", values)
    spec = np.fft.rfft(values)
    return np.fft.irfft(spec * sphere_symbol(p, np.arange(spec.size)), values.size)

