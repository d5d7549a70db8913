"""Periodic ground states of the fractional curvature equation on cylinders.

Solves L v = c_(n,s) v^q for positive L-periodic profiles v(t), where L is
the full nonlocal operator diagonalized by the zero-mode cylinder symbol.
The constant v = 1 always solves; past the bifurcation period the branch of
single-bump profiles exists, approaching a superposition of translated
sech-type limit profiles as the period grows.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import circulant

from .cylinder import cyl_curvature, cyl_symbol, periodized_kernel
from .errors import NewtonDivergenceError, NonConvergenceError, ParameterError
from .params import FracParams, GridFunction

_RESIDUAL_CAP = 1e-10
_CONSTANT_GAP = 1e-6
#: absolute tolerance of the bisection in ``bifurcation_period``, on xi
BIFURCATION_XTOL = 1e-12


def apply_Ls_periodic(p, f):
    """Apply the nonlocal operator to a periodic profile through its modes."""
    theta = cyl_symbol(p, 0, f.frequencies)
    return GridFunction(f.length, np.fft.irfft(np.fft.rfft(f.values) * theta, f.size))


def delaunay_residual(p, f):
    """Pointwise defect L v - c_(n,s) v^q of the curvature equation."""
    if np.any(f.values <= 0.0):
        raise ParameterError("the curvature-equation defect needs v > 0")
    applied = apply_Ls_periodic(p, f).values
    return applied - cyl_curvature(p) * f.values ** p.q


def bifurcation_period(p):
    """Period at which the constant branch loses rigidity.

    The first nonconstant mode appears when theta(2 pi / L) = c_(n,s) q;
    the symbol is strictly increasing, so the root is bracketed by doubling
    and pinned by bisection.
    """
    target = cyl_curvature(p) * p.q

    def gap(xi):
        return cyl_symbol(p, 0, xi) - target

    hi = 1.0
    while gap(hi) < 0.0:
        hi *= 2.0
        if hi > 1e8:
            raise NonConvergenceError("no bifurcation frequency below 1e8")
    lo = 1e-12
    for _ in range(math.ceil(math.log2(hi / BIFURCATION_XTOL))):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if gap(mid) < 0.0 else (lo, mid)
    return 4.0 * math.pi / (lo + hi)


def _symmetrize(values):
    """Project onto profiles even about x = 0, the grid midpoint (and hence
    about x = -L/2, the first node)."""
    return 0.5 * (values + np.roll(values[::-1], 1))


def _center_peak(values):
    """Roll the maximum to index N/2, the node x = 0 of the centred grid."""
    shift = values.size // 2 - int(np.argmax(values))
    return np.roll(values, shift)


@dataclass(frozen=True)
class DelaunaySolution:
    """Converged periodic profile with its certification data."""

    n: int
    s: float
    period: float
    values: np.ndarray
    residual_norm: float
    energy: float
    nonconstant: bool

    def __post_init__(self):
        if not self.residual_norm < _RESIDUAL_CAP:
            raise ParameterError(
                f"solution residual {self.residual_norm:.3e} exceeds {_RESIDUAL_CAP:.1e}"
            )
        v = np.asarray(self.values, dtype=float).copy()
        if not np.all(v > 0.0):
            raise ParameterError("solution values must be positive pointwise")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def grid(self):
        return GridFunction(self.period, self.values)


def solve_delaunay(p, period, init="auto", size=512, tol=1e-11, max_iter=60):
    """Newton solve of L v = c_(n,s) v^q on one period.

    ``init`` is "auto" (the constant where theta(2 pi / L) >= c_(n,s) q, at
    or below the bifurcation period, else the periodized limit profile,
    which tracks the bump branch down to the bifurcation), "constant", or an
    array on the solver grid.  Iterates are projected onto even profiles and
    the peak is pinned to the grid midpoint x = 0, removing the translation
    degeneracy of the Jacobian.  Collapse onto the constant solution is
    reported through the ``nonconstant`` flag rather than treated as failure.
    The Newton loop works on raw arrays, since its trial iterates may be
    non-finite; a trial that is not positive everywhere halves the step
    before its residual is formed.
    """
    q = p.q
    curvature = cyl_curvature(p)
    grid = GridFunction(period, np.ones(size))
    if isinstance(init, str):
        if init == "auto" and cyl_symbol(p, 0, 2.0 * math.pi / period) < curvature * q:
            v = _tower_values(p, period, grid.x)
        elif init in ("auto", "constant"):
            v = np.ones(size)
        else:
            raise ParameterError(f"unknown init {init!r}")
    else:
        v = np.asarray(init, dtype=float)
        if v.shape != (size,):
            raise ParameterError(
                f"init array must have shape ({size},), got {v.shape}"
            )
        v = _symmetrize(_center_peak(v))

    theta = cyl_symbol(p, 0, grid.frequencies)
    full_theta = np.concatenate([theta, theta[-2:0:-1]])
    operator = circulant(np.fft.ifft(full_theta).real)

    def residual_of(w):
        return np.fft.irfft(np.fft.rfft(w) * theta, size) - curvature * w**q

    res = residual_of(v)
    norm = float(np.max(np.abs(res)))
    for _ in range(max_iter):
        if norm < tol:
            break
        jacobian = operator - np.diag(curvature * q * v ** (q - 1.0))
        step = np.linalg.solve(jacobian, -res)
        scale = 1.0
        for _ in range(20):
            trial = _symmetrize(_center_peak(v + scale * step))
            if np.all(trial > 0.0):
                trial_res = residual_of(trial)
                trial_norm = float(np.max(np.abs(trial_res)))
                if trial_norm < norm:
                    break
            scale *= 0.5
        else:
            raise NewtonDivergenceError(
                "line search stalled", last_residual=norm
            )
        v, res, norm = trial, trial_res, trial_norm
    else:
        raise NewtonDivergenceError(
            "Newton did not reach tolerance", last_residual=norm
        )

    mean = float(np.mean(v))
    gap = math.sqrt(grid.dx * float(np.sum((v - mean) ** 2)))
    profile = GridFunction(period, v)
    return DelaunaySolution(
        n=p.n,
        s=p.s,
        period=period,
        values=v,
        residual_norm=norm,
        energy=functional_FL(p, profile),
        nonconstant=gap > _CONSTANT_GAP,
    )


def _critical_mass(p, f):
    """Denominator (int v^(2*))^(2/2*) shared by both functional routes."""
    if np.any(f.values <= 0.0):
        raise ParameterError("the curvature quotient needs v > 0")
    two_star = p.two_star
    mass = f.dx * float(np.sum(f.values**two_star))
    return mass ** (2.0 / two_star)


def functional_FL(p, f):
    """Curvature quotient <v, L v> / (int v^(2*))^(2/2*) via the mode sums.

    The numerator is the quadratic form dx v . (L v) with L applied through
    its modes, the denominator the critical Lebesgue norm, so the value is
    invariant under v -> lam v and the constant profile scores
    c_(n,s) L^(1 - 2/2*).  Nonconstant minimizers beat the constant exactly
    when the period exceeds the bifurcation period.
    """
    quadratic = f.dx * float(f.values @ apply_Ls_periodic(p, f).values)
    return quadratic / _critical_mass(p, f)


def kernel_functional_FL(spec, f):
    """The same quotient with its numerator assembled from the kernel.

    Independent of the spectral route: the calibrated kernel is two-sided,
    so the quadratic form becomes c int v^2 + (1/2) iint (v - v')^2 K_L,
    and the diagonal of the double sum is dropped (the squared difference
    vanishes there faster than the kernel blows up).
    """
    p = spec.params
    denominator = _critical_mass(p, f)
    values = f.values
    size = f.size
    h = f.dx
    kernel = periodized_kernel(spec, f.length, h * np.arange(1, size))
    # ||v - roll(v, -j)||^2 = 2 (||v||^2 - c_j), c the circular autocorrelation
    norm2 = float(values @ values)
    autocorr = np.fft.irfft(np.abs(np.fft.rfft(values)) ** 2, size)
    acc = 2.0 * float(kernel @ (norm2 - autocorr[1:]))
    quadratic = cyl_curvature(p) * h * norm2
    quadratic += 0.5 * h * h * acc
    return quadratic / denominator


def continue_branch(p, periods, size=512, tol=1e-11):
    """Solve along a list of periods, reusing each profile as the next start.

    A warm start that falls back onto the constant while the previous
    period carried a bump is retried from the limit-profile ansatz, so a
    too-large period step does not silently drop off the branch.
    """
    sols = []
    guess = "auto"
    for period in periods:
        sol = solve_delaunay(p, period, init=guess, size=size, tol=tol)
        if not sol.nonconstant and not isinstance(guess, str):
            retry = solve_delaunay(p, period, init="auto", size=size, tol=tol)
            if retry.nonconstant:
                sol = retry
        sols.append(sol)
        guess = sol.values
    return sols


_CAL_WINDOW = 3.0
_CAL_SPREAD_CAP = 1e-3


@lru_cache(maxsize=32)
def limit_amplitude(p):
    """Calibrated peak value of the infinite-period profile: the amplitude
    that makes amp * cosh(t)^(-(n-2s)/2) solve the limit equation.

    The operator is linear and the nonlinearity homogeneous, so for the unit
    shape w the ratio [L w] / (c_(n,s) w^q) must equal the constant
    amp^(q-1).  The ratio is measured on a period long enough that the shape
    decays to round-off before wrapping, and its flatness across |t| <= 3
    certifies that the shape is genuinely a solution rather than a fit.
    """
    decay = 0.5 * (p.n - 2.0 * p.s)
    period = max(60.0, 24.0 / decay)
    size = 4096
    t = (period / size) * np.arange(size) - period / 2.0
    shape = np.cosh(t) ** (-decay)
    applied = apply_Ls_periodic(p, GridFunction(period, shape)).values
    window = np.abs(t) <= _CAL_WINDOW
    ratio = applied[window] / (cyl_curvature(p) * shape[window] ** p.q)
    mean = float(np.mean(ratio))
    spread = float(np.std(ratio)) / mean
    if not spread < _CAL_SPREAD_CAP:
        raise NonConvergenceError(
            "limit-profile calibration: the operator-to-nonlinearity ratio "
            f"is not constant (spread {spread:.1e})"
        )
    return mean ** (1.0 / (p.q - 1.0))


def asymptotic_profile(p, t):
    """Single-bump limit profile amp * cosh(t)^(-(n-2s)/2)."""
    amp = limit_amplitude(p)
    return amp * np.cosh(np.asarray(t, dtype=float)) ** (-0.5 * (p.n - 2.0 * p.s))


def _tower_values(p, period, t):
    """Sum of limit bumps centered at the lattice j * period, truncated once
    the omitted copies contribute less than 1e-12 anywhere on the period."""
    decay = 0.5 * (p.n - 2.0 * p.s)
    amp = limit_amplitude(p)
    copies = 1
    while amp * 2.0**decay * math.exp(-decay * (copies * period - period / 2.0)) > 1e-12:
        copies += 1
    tower = np.zeros(np.asarray(t).size)
    for j in range(-copies, copies + 1):
        tower += asymptotic_profile(p, t - j * period)
    return tower


def bubble_tower_defect(sol):
    """L2(0, L) distance between a periodic profile and the tower of limit
    bumps translated by the period lattice."""
    p = FracParams(sol.n, sol.s)
    grid = sol.grid()
    tower = _tower_values(p, sol.period, grid.x)
    return math.sqrt(grid.dx * float(np.sum((sol.values - tower) ** 2)))
