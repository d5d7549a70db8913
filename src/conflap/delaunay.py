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
from scipy.optimize import bisect

from .cylinder import cyl_curvature, cyl_symbol, periodized_kernel
from .errors import NewtonDivergenceError, NonConvergenceError, ParameterError
from .params import FracParams

_RESIDUAL_CAP = 1e-10
_CONSTANT_GAP = 1e-6
#: absolute tolerance of the bisection in ``bifurcation_period``, on xi
BIFURCATION_XTOL = 1e-12


@dataclass(frozen=True)
class PeriodicGridFunction:
    """Samples on the periodic grid t_j = j L / N, j = 0 .. N-1."""

    period: float
    values: np.ndarray

    def __post_init__(self):
        length = float(self.period)
        if not math.isfinite(length) or length <= 0.0:
            raise ParameterError(f"period must be positive, got {self.period!r}")
        object.__setattr__(self, "period", length)
        v = np.asarray(self.values, dtype=float)
        n = v.size
        if v.ndim != 1 or n < 8 or n & (n - 1) != 0:
            raise ParameterError(
                f"values must be 1-d with a power-of-two length >= 8, got shape {v.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise ParameterError("values must be finite")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def size(self):
        return self.values.size

    @property
    def dt(self):
        return self.period / self.values.size

    @property
    def t(self):
        return self.dt * np.arange(self.values.size)


def _mode_multipliers(p, period, size):
    """Zero-mode symbol at the discrete frequencies 2 pi k / period."""
    xi = 2.0 * math.pi * np.fft.rfftfreq(size, d=period / size)
    return cyl_symbol(p, 0, xi)


def apply_Ls_periodic(p, f):
    """Apply the nonlocal operator to a periodic profile through its modes."""
    theta = _mode_multipliers(p, f.period, f.size)
    out = np.fft.irfft(np.fft.rfft(f.values) * theta, f.size)
    return PeriodicGridFunction(f.period, out)


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
    root = bisect(gap, 1e-12, hi, xtol=BIFURCATION_XTOL)
    return 2.0 * math.pi / root


def _symmetrize(values):
    """Project onto profiles even across t = 0 (and hence t = L/2)."""
    return 0.5 * (values + np.roll(values[::-1], 1))


def _center_peak(values):
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
        return PeriodicGridFunction(self.period, self.values)


def solve_delaunay(p, period, init="auto", size=512, tol=1e-11, max_iter=60):
    """Newton solve of L v = c_(n,s) v^q on one period.

    ``init`` is "auto" (the periodized limit profile, which tracks the bump
    branch all the way down to the bifurcation), "constant", or an array on
    the solver grid.  Iterates are projected onto even profiles and the peak
    is pinned to the grid midpoint, removing the translation degeneracy of
    the Jacobian.  Collapse onto the constant solution is reported through
    the ``nonconstant`` flag rather than treated as failure.
    """
    q = p.q
    curvature = cyl_curvature(p)
    if size < 8 or size & (size - 1) != 0:
        raise ParameterError(f"size must be a power of two >= 8, got {size}")
    if isinstance(init, str):
        if init == "auto":
            t = (period / size) * np.arange(size) - period / 2.0
            v = _tower_values(p, period, t)
        elif init == "constant":
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

    theta = _mode_multipliers(p, period, size)
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
    gap = math.sqrt(period / size * float(np.sum((v - mean) ** 2)))
    profile = PeriodicGridFunction(period, v)
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
    mass = f.dt * float(np.sum(f.values**two_star))
    return mass ** (2.0 / two_star)


def functional_FL(p, f):
    """Curvature quotient <v, L v> / (int v^(2*))^(2/2*) via the mode sums.

    The numerator is the spectral quadratic form L sum_k w_k theta_k |c_k|^2
    (real-FFT weights), the denominator the critical Lebesgue norm, so the
    value is invariant under v -> lam v and the constant profile scores
    c_(n,s) L^(1 - 2/2*).  Nonconstant minimizers beat the constant exactly
    when the period exceeds the bifurcation period.
    """
    denominator = _critical_mass(p, f)
    theta = _mode_multipliers(p, f.period, f.size)
    coeffs = np.fft.rfft(f.values) / f.size
    weights = np.full(theta.size, 2.0)
    weights[0] = 1.0
    if f.size % 2 == 0:
        weights[-1] = 1.0
    quadratic = f.period * float(weights @ (theta * np.abs(coeffs) ** 2))
    return quadratic / denominator


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
    h = f.dt
    kernel = periodized_kernel(spec, f.period, h * np.arange(1, size))
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
def _amplitude_calibration(p):
    """Amplitude that makes amp * cosh(t)^(-(n-2s)/2) solve the limit equation.

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
    theta = _mode_multipliers(p, period, size)
    applied = np.fft.irfft(np.fft.rfft(shape) * theta, size)
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


def limit_amplitude(p):
    """Calibrated peak value of the infinite-period profile."""
    return _amplitude_calibration(p)


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
    t = grid.t - 0.5 * sol.period
    tower = _tower_values(p, sol.period, t)
    return math.sqrt(grid.dt * float(np.sum((sol.values - tower) ** 2)))
