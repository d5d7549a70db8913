"""Periodic ground states of the fractional curvature equation on cylinders.

Solves L v = c_(n,s) v^q for positive L-periodic profiles v(t), where L is
the full nonlocal operator diagonalized by the zero-mode cylinder symbol.
The constant v = 1 always solves; past the bifurcation period the branch of
single-bump profiles exists, approaching a superposition of translated
sech-type limit profiles as the period grows.
"""

import contextlib
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import loggamma, psi

from .cylinder import cyl_curvature, cyl_mode_parameter, cyl_symbol, periodized_kernel
from .errors import NewtonDivergenceError, NonConvergenceError, ParameterError
from .params import FracParams, GridFunction
from .sphere import sphere_curvature

_RESIDUAL_CAP = 1e-10
#: a profile is nonconstant when max - min exceeds this fraction of its max
_FLAT_SPREAD = 1e-3
#: absolute tolerance of ``bifurcation_period`` on xi
BIFURCATION_XTOL = 1e-12
#: cap on the relative tolerance of each Newton step's GMRES solve: 1e-5 and
#: looser lose the tower start at (2, 0.9896, 4.5385 L0), q about 191, which
#: takes 58 Newton steps at 1e-6 and 1e-7; near L0, (2, 0.937, 1.073 L0) and
#: (2, 0.965, 1.080 L0) solve from the seed in 3 steps at any cap up to 1e-3
_FORCING_CAP = 1e-7
#: cap on the Krylov steps of one Newton step; over the 5202 Newton steps of
#: the seed 0-7 benchmark sweep draws at N = 512 the most any took was 28
_KRYLOV_STEPS = 240
#: reach of the Lyapunov-Schmidt seed in q eps: v^q is about exp(q eps cos),
#: so the expansion holds while q eps, not eps, is small.  Over the 1960
#: solves of the seed 0-7 benchmark sweep draws at N = 512, reach 3 leaves 3
#: failures and none off the bump; 2 and 2.5 leave 8 near L0 on the constant,
#: 3.75 and 4 fail 6 and 24, and a gate eps <= 0.5 instead, which seeds
#: n = 2, s near 0.95 at L >= 3 L0 (q about 40), fails 41
_SEED_REACH = 3.0
#: cap on the Newton steps of one solve
_NEWTON_STEPS = 60


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


@lru_cache(maxsize=64)  # solve_delaunay's seed reuses the caller's L0 root
def _bifurcation_root(p):
    """xi0 = 2 pi / L0, where theta(xi0) = c_(n,s) q, and the slope of log
    theta there, Im psi(B + i xi0/2) - Im psi(A + i xi0/2) > 0.

    theta = 2^(2s) |Gamma(A + i xi/2)|^2 / |Gamma(B + i xi/2)|^2 increases,
    so the root is bracketed by doubling, then found by Newton on log theta
    that bisects whenever a step leaves the bracket.
    """
    beta = cyl_mode_parameter(p.n, 0)
    shifts = np.array([0.5 * (1.0 + p.s + beta), 0.5 * (1.0 - p.s + beta)])
    offset = 2.0 * p.s * math.log(2.0) - math.log(cyl_curvature(p) * p.q)

    def excess(xi):  # log theta(xi) - log(c q) and its xi-derivative
        z = shifts + 0.5j * xi
        logs, slope = loggamma(z).real, psi(z).imag
        return offset + 2.0 * (logs[0] - logs[1]), slope[1] - slope[0]

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


def bifurcation_period(p):
    """Period L0 = 2 pi / xi0 at which the constant branch loses rigidity:
    the first nonconstant mode appears where theta(xi0) = c_(n,s) q."""
    return 2.0 * math.pi / _bifurcation_root(p)[0]


def _branch_expansion(p, period):
    """Second-order Lyapunov-Schmidt expansion of the bump branch at L0.

    With xi = 2 pi / L, the branch is v = 1 + eps cos(xi t)
    + eps^2 (-q/4 + a2 cos(2 xi t)) + O(eps^3), where
    a2 = c q (q - 1) / (4 (theta(2 xi0) - c q)), and the cos-component at
    order eps^3 gives eps^2 = theta'(xi0) (xi - xi0) / (c q (q - 1) D) with
    D = -q/4 + a2/2 + (q - 2)/8 (Crandall & Rabinowitz 1971).  Returns
    eps^2, a2 and L0; eps^2 > 0 past L0 when D < 0.
    """
    xi0, slope = _bifurcation_root(p)  # slope of log theta, theta'/(c q)
    q = p.q
    target = cyl_curvature(p) * q
    a2 = target * (q - 1.0) / (4.0 * (float(cyl_symbol(p, 0, 2.0 * xi0)) - target))
    drift = -0.25 * q + 0.5 * a2 + 0.125 * (q - 2.0)
    eps2 = slope * (2.0 * math.pi / period - xi0) / ((q - 1.0) * drift)
    return eps2, a2, 2.0 * math.pi / xi0


def branch_amplitude(p, period):
    """Amplitude eps of the bump branch's first mode at a period past L0,
    from the second-order Lyapunov-Schmidt expansion: the branch profile
    is 1 + eps cos(2 pi t / L) + O(eps^2), eps of order sqrt(L - L0)."""
    eps2, _, period0 = _branch_expansion(p, period)
    if not period > period0:
        raise ParameterError(
            f"period {period!r} is not past the bifurcation period {period0!r}"
        )
    if not eps2 > 0.0:
        raise ParameterError(f"the branch at n = {p.n}, s = {p.s} is not supercritical")
    return math.sqrt(eps2)


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
    newton_steps: int = 0
    krylov_steps: int = 0
    start: str = "array"

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


def _even(w):  # the even profile on the nodes k dx, k = 0 .. N-1, from k = 0 .. N/2
    return np.concatenate([w, w[-2:0:-1]])


def _gmres(matvec, b, rtol, atol, steps):
    """Unrestarted GMRES from x = 0 (Saad & Schultz 1986): x with the Givens
    estimate of |b - A x| at most max(atol, rtol |b|), else the least-squares
    best after ``steps`` Arnoldi steps, and the number of steps taken."""
    beta = float(np.linalg.norm(b))
    target = max(atol, rtol * beta)
    if beta <= target:  # x = 0 already meets the target, as for b = 0
        return np.zeros_like(b), 0
    basis = np.empty((steps + 1, b.size))
    basis[0] = b / beta
    upper = np.empty((steps, steps))  # solve_triangular reads only the upper triangle
    rotations, rhs = [], [beta]
    for k in range(steps):
        w = matvec(basis[k])
        scale = math.sqrt(w @ w)  # np.linalg.norm's own formula, without its overhead
        h = basis[: k + 1] @ w  # classical Gram-Schmidt, done twice
        w = w - h @ basis[: k + 1]
        again = basis[: k + 1] @ w
        w = w - again @ basis[: k + 1]
        norm = math.sqrt(w @ w)
        column = (h + again).tolist()
        for i, (c, s) in enumerate(rotations):
            hi, lo = column[i], column[i + 1]
            column[i], column[i + 1] = c * hi + s * lo, c * lo - s * hi
        r = math.hypot(column[k], norm)
        if r == 0.0:  # A is singular on the Krylov space; stop with the iterate so far
            break
        c, s = column[k] / r, norm / r
        rotations.append((c, s))
        column[k] = r
        upper[: k + 1, k] = column[: k + 1]
        rhs[k:] = c * rhs[k], -s * rhs[k]
        if abs(rhs[k + 1]) <= target or norm <= np.finfo(float).eps * scale:
            break
        basis[k + 1] = w / norm
    m = len(rotations)
    return solve_triangular(upper[:m, :m], rhs[:m], check_finite=False) @ basis[:m], m


def _krylov_step(theta, slope, res, tol):
    """Solution of (L - slope) step = -res on the even unknowns, and its Krylov
    count: ``_gmres`` on I - slope L^(-1), right-preconditioned by 1/theta,
    with forcing term min(_FORCING_CAP, |res|_inf) and absolute floor 1e-2 tol."""

    def inverse(y):  # 1/theta damps, so no exact mean is needed as in _apply_symbol
        return np.fft.irfft(np.fft.rfft(_even(y)) / theta, 2 * y.size - 2)[: y.size]

    y, count = _gmres(
        lambda y: y - slope * inverse(y), -res,
        min(_FORCING_CAP, float(np.max(np.abs(res)))), 1e-2 * tol, _KRYLOV_STEPS,
    )
    return inverse(y), count


def solve_delaunay(p, period, init="auto", size=512, tol=1e-11):
    """Newton-Krylov solve of L v = c_(n,s) v^q on one period.

    ``init`` is an array on the solver grid, of which the even part about
    its peak is kept, or "auto", which starts from
      - the constant where theta(2 pi / L) >= c_(n,s) q, at or below the
        bifurcation period L0;
      - else the Lyapunov-Schmidt seed 1 + eps cos(xi t)
        + eps^2 (-q/4 + a2 cos(2 xi t)) of ``_branch_expansion``, where it
        is positive and q eps <= 3, which holds near L0;
      - else the periodized limit profile, the tower of bumps.
    The result's ``start`` names the choice ("constant", "seed", "tower"
    or "array").  The unknowns are w_k = v(k dx), k = 0 .. N/2, so the
    translation mode v' stays out of the Jacobian, which ``_krylov_step``
    applies matrix-free in an unrestarted GMRES preconditioned by 1/theta.
    Newton stops below ``tol`` or the residual's round-off floor
    eps max(theta) (max w - min w), unless ``tol`` is under eps c max(w)^q;
    trial steps that are not positive are halved.  The result peaks at
    x = 0; ``nonconstant`` (max - min > 1e-3 max) flags a constant.  A
    ``tol`` above the certificate cap 1e-10 of ``DelaunaySolution`` is
    rejected before any work.  A ``NewtonDivergenceError`` carries the last
    residual and the Newton and Krylov steps taken.
    """
    if not tol <= _RESIDUAL_CAP:
        raise ParameterError(
            f"tol {tol!r} exceeds the solution residual cap {_RESIDUAL_CAP:.1e}"
        )
    q = p.q
    curvature = cyl_curvature(p)
    grid = GridFunction(period, np.ones(size))
    theta = cyl_symbol(p, 0, grid.frequencies)
    half = size // 2
    nodes = np.arange(half + 1)
    if isinstance(init, str):
        if init != "auto":
            raise ParameterError(f"unknown init {init!r}")
        w, start = _auto_start(p, period, theta[1] < curvature * q, grid.dx * nodes)
    else:
        start = "array"
        v = np.asarray(init, dtype=float)
        if v.shape != (size,):
            raise ParameterError(f"init array must have shape ({size},), got {v.shape}")
        peak = int(np.argmax(v))
        w = 0.5 * (v[(peak + nodes) % size] + v[(peak - nodes) % size])
        if not np.all(w > 0.0):
            raise ParameterError("init array must have a positive even part")

    def residual_of(w):
        return _apply_symbol(_even(w), theta)[: half + 1] - curvature * w**q

    eps = np.finfo(float).eps
    res = residual_of(w)
    norm = float(np.max(np.abs(res)))
    krylov_steps = 0
    for newton_steps in range(_NEWTON_STEPS):
        # a tol under eps c max(w)^q, the unit round-off of the terms, cannot
        # be met at any N and stays as given
        floor = eps * theta.max() * np.ptp(w) if tol > eps * curvature * w.max() ** q else 0
        if norm < max(tol, min(floor, _RESIDUAL_CAP)):
            break
        step, count = _krylov_step(theta, curvature * q * w ** (q - 1.0), res, tol)
        krylov_steps += count
        for scale in 0.5 ** np.arange(20):
            trial = w + scale * step
            if np.all(trial > 0.0):
                trial_res = residual_of(trial)
                trial_norm = float(np.max(np.abs(trial_res)))
                if trial_norm < norm:
                    break
        else:
            raise NewtonDivergenceError(
                "line search stalled", last_residual=norm,
                newton_steps=newton_steps, krylov_steps=krylov_steps,
            )
        w, res, norm = trial, trial_res, trial_norm
    else:
        raise NewtonDivergenceError(
            "Newton did not reach tolerance", last_residual=norm,
            newton_steps=_NEWTON_STEPS, krylov_steps=krylov_steps,
        )

    # put the peak at x = 0, the middle node; _even(w) already has it there
    # when w peaks at k = N/2
    v = np.roll(_even(w), 0 if np.argmax(w) == half else half)
    return DelaunaySolution(
        n=p.n, s=p.s, period=period, values=v, residual_norm=norm,
        energy=functional_FL(p, GridFunction(period, v)),
        nonconstant=float(v.max() - v.min()) > _FLAT_SPREAD * float(v.max()),
        newton_steps=newton_steps, krylov_steps=krylov_steps, start=start,
    )


def _auto_start(p, period, unstable, t):
    """The "auto" start on the nodes t >= 0 and its name: the constant while
    the first mode is stable, the Lyapunov-Schmidt seed where it is positive
    and q eps <= _SEED_REACH, else the tower of limit bumps."""
    if not unstable:
        return np.ones(t.size), "constant"
    eps2, a2, _ = _branch_expansion(p, period)
    if eps2 > 0.0 and p.q * math.sqrt(eps2) <= _SEED_REACH:
        phase = 2.0 * math.pi / period * t
        w = 1.0 + math.sqrt(eps2) * np.cos(phase)
        w += eps2 * (a2 * np.cos(2.0 * phase) - 0.25 * p.q)
        if np.all(w > 0.0):
            return w, "seed"
    return _tower_values(p, period, t), "tower"


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

    A warm start that falls back onto the constant or raises
    NonConvergenceError is retried from "auto", so a too-large period step
    does not drop off the branch; the first period starts from "auto".
    """
    sols = []
    for period in periods:
        sol = None
        if sols:
            with contextlib.suppress(NonConvergenceError):
                sol = solve_delaunay(p, period, init=sols[-1].values, size=size, tol=tol)
        if sol is None or not sol.nonconstant:
            retry = solve_delaunay(p, period, init="auto", size=size, tol=tol)
            if sol is None or retry.nonconstant:
                sol = retry
        sols.append(sol)
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
    shifts = period * np.arange(-copies, copies + 1)
    return asymptotic_profile(p, np.subtract.outer(t, shifts)).sum(axis=1)


def bubble_tower_defect(sol):
    """L2(0, L) distance between a periodic profile and the tower of limit
    bumps translated by the period lattice."""
    p = FracParams(sol.n, sol.s)
    grid = sol.grid()
    tower = _tower_values(p, sol.period, grid.x)
    return math.sqrt(grid.dx * float(np.sum((sol.values - tower) ** 2)))
