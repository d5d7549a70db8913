"""Periodic ground states of the fractional curvature equation on cylinders.

Solves L v = c_(n,s) v^q for positive L-periodic profiles v(t), where L is
the full nonlocal operator diagonalized by the zero-mode cylinder symbol.
The constant v = 1 always solves; past the bifurcation period the branch of
single-bump profiles exists, approaching a superposition of translated
sech-type limit profiles as the period grows.
"""

import math
from dataclasses import dataclass

import numpy as np

from .cylinder import cyl_curvature, cyl_symbol, periodized_kernel
from .errors import NewtonDivergenceError, NonConvergenceError, ParameterError
from .params import FracParams, GridFunction
from .sphere import sphere_curvature

_RESIDUAL_CAP = 1e-10
#: a profile is nonconstant when max - min exceeds this fraction of its max
_FLAT_SPREAD = 1e-3
#: absolute tolerance of the bisection in ``bifurcation_period``, on xi
BIFURCATION_XTOL = 1e-12


def _apply_symbol(values, theta):
    """irfft(rfft(v) theta) with the mean applied exactly, so the FFT round-off
    that theta amplifies scales with the oscillation of v, not its size."""
    mean = float(np.mean(values))
    return np.fft.irfft(np.fft.rfft(values - mean) * theta, values.size) + theta[0] * mean


def apply_Ls_periodic(p, f):
    """Apply the nonlocal operator to a periodic profile through its modes."""
    theta = cyl_symbol(p, 0, f.frequencies)
    return GridFunction(f.length, _apply_symbol(f.values, theta))


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
    or below the bifurcation period, else the periodized limit profile) or
    an array on the solver grid, of which the even part about its peak is
    kept.  The unknowns are w_k = v(k dx), k = 0 .. N/2, so every iterate is
    even and the odd translation mode v' stays out of the Jacobian: the
    convolution column irfft(theta) folded onto these nodes, minus the
    linearized nonlinearity.  The residual goes through the FFT of the full
    profile.  The peak of the result sits at x = 0, and ``nonconstant``
    (max - min > 1e-3 max) reports a collapse onto the constant.  A trial
    step that is not positive everywhere is halved before its residual is
    formed.
    """
    q = p.q
    curvature = cyl_curvature(p)
    grid = GridFunction(period, np.ones(size))
    half = size // 2
    nodes = np.arange(half + 1)
    if isinstance(init, str):
        if init != "auto":
            raise ParameterError(f"unknown init {init!r}")
        if cyl_symbol(p, 0, 2.0 * math.pi / period) < curvature * q:
            w = _tower_values(p, period, grid.dx * nodes)
        else:
            w = np.ones(half + 1)
    else:
        v = np.asarray(init, dtype=float)
        if v.shape != (size,):
            raise ParameterError(
                f"init array must have shape ({size},), got {v.shape}"
            )
        peak = int(np.argmax(v))
        w = 0.5 * (v[(peak + nodes) % size] + v[(peak - nodes) % size])

    theta = cyl_symbol(p, 0, grid.frequencies)
    column = np.fft.irfft(theta, size)
    operator = column[(nodes[:, None] - nodes) % size] + column[(nodes[:, None] + nodes) % size]
    operator[:, [0, half]] *= 0.5

    def full(w):  # the even profile on the nodes k dx, k = 0 .. N-1
        return np.concatenate([w, w[-2:0:-1]])

    def residual_of(w):
        return _apply_symbol(full(w), theta)[: half + 1] - curvature * w**q

    res = residual_of(w)
    norm = float(np.max(np.abs(res)))
    for _ in range(max_iter):
        if norm < tol:
            break
        jacobian = operator - np.diag(curvature * q * w ** (q - 1.0))
        step = np.linalg.solve(jacobian, -res)
        scale = 1.0
        for _ in range(20):
            trial = w + scale * step
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
        w, res, norm = trial, trial_res, trial_norm
    else:
        raise NewtonDivergenceError(
            "Newton did not reach tolerance", last_residual=norm
        )

    if np.argmax(w) == half:
        w = w[::-1]
    v = np.roll(full(w), half)
    return DelaunaySolution(
        n=p.n,
        s=p.s,
        period=period,
        values=v,
        residual_norm=norm,
        energy=functional_FL(p, GridFunction(period, v)),
        nonconstant=float(v.max() - v.min()) > _FLAT_SPREAD * float(v.max()),
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


def _sech_power(t, d):
    """cosh(t)^(-d), through log cosh t = |t| + log1p(e^(-2|t|)) - log 2 so
    that no cosh overflows at large |t|."""
    a = np.abs(np.asarray(t, dtype=float))
    return np.exp(-d * (a + np.log1p(np.exp(-2.0 * a)) - math.log(2.0)))


def limit_amplitude(p):
    """Peak value of the infinite-period profile amp * cosh(t)^(-(n-2s)/2).

    The profile is the round-sphere bubble in the Emden-Fowler variable
    t = -log r: cosh(t)^(-(n-2s)/2) solves L w = Q_s w^q with Q_s the
    sphere's curvature, and the nonlinearity is homogeneous, so
    amp = (Q_s / c_(n,s))^(1/(q-1)) = (Q_s / c_(n,s))^((n-2s)/(4s)).
    """
    return (sphere_curvature(p) / cyl_curvature(p)) ** ((p.n - 2.0 * p.s) / (4.0 * p.s))


def asymptotic_profile(p, t):
    """Single-bump limit profile amp * cosh(t)^(-(n-2s)/2)."""
    return limit_amplitude(p) * _sech_power(t, 0.5 * (p.n - 2.0 * p.s))


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
