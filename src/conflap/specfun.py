"""Special functions and quadrature rules backing the symbol and kernel routines.

Two functions are needed beyond the stdlib: the squared modulus
``|Gamma(x+iy)|^2`` along vertical lines in the complex plane, and the Gauss
hypergeometric function on ``[0, 1]``.  They are thin validated wrappers
over ``scipy.special``, one evaluation path each: the wrappers raise
ParameterError on poles and out-of-domain input instead of returning inf or
NaN.  The quadrature rules shared by the sphere, cylinder and line routines
live here too, built by one generator, so each rule exists once: the
Gauss-Jacobi rule on (-1, 1), its map to the unit interval, and composite
panels of its alpha = beta = 0 case, the 12-point Gauss-Legendre rule.
"""

import math
from functools import lru_cache

import numpy as np
from scipy import special

from .errors import ParameterError
from .params import read_only, require


def _require_finite(**values):
    for name, v in values.items():
        if not math.isfinite(v):
            raise ParameterError(f"{name} must be finite, got {v!r}")


def _is_nonpositive_int(v):
    return v <= 0.0 and v == math.floor(v)


def log_gamma(x):
    """Natural log of Gamma(x) for real x > 0; ParameterError above about
    2.5e305, where it overflows."""
    _require_finite(x=x)
    if x <= 0.0:
        raise ParameterError(f"log_gamma requires x > 0, got {x!r}")
    try:
        return math.lgamma(x)
    except OverflowError:
        raise ParameterError(f"log Gamma overflows at x = {x!r}") from None


def log_gamma_abs2(x, y):
    """``log |Gamma(x + i y)|^2`` for real scalar x and real y away from poles.

    y may be a scalar (a float is returned) or an array.
    """
    _require_finite(x=x)
    ys = np.asarray(y, dtype=float)
    require(np.isfinite(ys), "y must be finite, got {}", y)
    if _is_nonpositive_int(x):
        require(ys != 0.0, f"Gamma has a pole at z = {x!r}, got y = {{}}", y)
    out = 2.0 * special.loggamma(x + 1j * ys).real
    return float(out) if ys.ndim == 0 else out


def hyp2f1(a, b, c, z):
    """Gauss hypergeometric function 2F1(a, b; c; z) for z in [0, 1].

    The parameters are scalars; z may be a scalar (a float is returned) or an
    array.  scipy's evaluation stays at full precision where c-a-b is an
    integer, as for the cylinder kernel at s = 1/2.  At z = 1 the series
    converges only for c-a-b > 0, unless a or b is a non-positive integer and
    the series terminates.
    """
    _require_finite(a=a, b=b, c=c)
    zs = np.asarray(z, dtype=float)
    require(np.isfinite(zs), "z must be finite, got {}", z)
    require((zs >= 0.0) & (zs <= 1.0), "hyp2f1 implemented for z in [0, 1], got {}", z)
    if _is_nonpositive_int(c):
        raise ParameterError(f"2F1 undefined for c a non-positive integer, got {c!r}")
    terminating = _is_nonpositive_int(a) or _is_nonpositive_int(b)
    if not terminating and c - a - b <= 0.0 and (zs == 1.0).any():
        raise ParameterError(f"2F1 diverges at z = 1 for c-a-b = {c - a - b!r} <= 0")
    out = special.hyp2f1(a, b, c, zs)
    return float(out) if zs.ndim == 0 else out


@lru_cache(maxsize=32)
def jacobi_rule(alpha, beta, size):
    """Gauss rule for int_-1^1 (1-t)^alpha (1+t)^beta g(t) dt with smooth g,
    alpha, beta > -1, as read-only arrays; the one roots_jacobi call."""
    # a singular (1-t) side comes from here, not from jacobi_unit_rule mapped
    # to (-1, 1): that is the same rule, but at size 40 and alpha = -0.995
    # its (1-t)^j moments are off by up to 9.8e-10 relative, against 1.4e-10
    # from roots_jacobi directly
    nodes, weights = special.roots_jacobi(size, alpha, beta)
    return read_only(nodes), read_only(weights)


@lru_cache(maxsize=32)
def jacobi_unit_rule(beta, size):
    """Gauss rule for int_0^1 t^beta g(t) dt with smooth g, beta > -1, as
    read-only arrays: jacobi_rule(0, beta, size) mapped to (0, 1)."""
    x, w = jacobi_rule(0.0, beta, size)
    return read_only((x + 1.0) / 2.0), read_only(w * 2.0 ** (-beta - 1.0))


_GAUSS_LEGENDRE_12 = jacobi_rule(0.0, 0.0, 12)


def panel_rule(lo, hi, count):
    """Composite 12-point Gauss-Legendre nodes and weights on (lo, hi),
    split into ``count`` equal panels; ParameterError for count < 1."""
    if count < 1:
        raise ParameterError(f"a panel rule needs at least one panel, got {count!r}")
    glx, glw = _GAUSS_LEGENDRE_12
    edges = lo + (hi - lo) * np.arange(count + 1) / count
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * glx[None, :]).ravel()
    weights = (half[:, None] * glw[None, :]).ravel()
    return nodes, weights
