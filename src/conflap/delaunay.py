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
from scipy.linalg.lapack import dgetrf, dgetri, dtrtrs

from .cylinder import _bifurcation_root, cyl_curvature, cyl_symbol, periodized_kernel
from .errors import NewtonDivergenceError, ParameterError
from .params import FracParams, GridFunction, read_only, require, require_int
from .sphere import sphere_curvature

_RESIDUAL_CAP = 1e-10
#: a profile is nonconstant when max - min exceeds this fraction of its max
_FLAT_SPREAD = 1e-3
#: cap on the relative tolerance of each Newton step's GMRES solve: 1e-5 and
#: looser lose the solve at (2, 0.9896, 4.5385 L0), q about 191, under 1/theta
#: alone and under the two-level step; from the tower it takes 58 Newton steps
#: at 1e-6 and 1e-7; near L0, (2, 0.937, 1.073 L0) and (2, 0.965, 1.080 L0)
#: solve from the seed in 3 steps at any cap up to 1e-3
_FORCING_CAP = 1e-7
#: cap on the Krylov steps of one Newton step; over the 5157 Newton and 9279
#: Krylov steps of the seed 0-7 benchmark sweep draws at N = 512 the most one
#: Newton step took was 28
_KRYLOV_STEPS = 240
#: reach of the Lyapunov-Schmidt seed in q eps: v^q is about exp(q eps cos),
#: so the expansion holds while q eps, not eps, is small; past it the seed
#: is tried only after the tower.  Over the 1960 solves of the seed 0-7
#: benchmark sweep draws at N = 512, reach 3 leaves 1 failure and none off
#: the bump, the solved points taking 5157 Newton and 9279 Krylov steps; 2,
#: 2.5 and 3.5 leave the same in 5462/11040, 5391/10599 and 5163/9073, and 4
#: fails 24
_SEED_REACH = 3.0
#: cap on the Newton steps of one solve
_NEWTON_STEPS = 60
#: the line search's trial step lengths
_HALVINGS = tuple(0.5**k for k in range(20))
#: even cosine modes of the coarse block of the two-level preconditioner,
#: at most N/2
_COARSE_MODES = 32
#: the coarse block is used only where |res|_inf is at most this: from the
#: tower start at (2, 0.9629, 1.6555 L0), residual 7.5e9, it took 13974
#: Krylov steps against 147, and at (2, 0.9896, 4.5385 L0) and (2, 0.9882,
#: 5.1741 L0) the line search stalled
_COARSE_GATE = 1.0
_EPS = np.finfo(float).eps


def _apply_symbol(values, theta):
    """irfft(rfft(v) theta) with the mean applied exactly, so the FFT round-off
    that theta amplifies scales with the oscillation of v, not its size."""
    mean = values.sum() / values.size  # np.mean's sum and divide, without its overhead
    return np.fft.irfft(np.fft.rfft(values - mean) * theta, values.size) + theta[0] * mean


@lru_cache(maxsize=32)  # a solve, its energy and its residual check share one
def _symbol_table(p, period, size):
    """Read-only zero-mode symbol on the frequencies of an N-node grid of one period."""
    frequencies = 2.0 * math.pi * np.fft.rfftfreq(size, d=float(period) / size)
    return read_only(cyl_symbol(p, 0, frequencies))


def delaunay_residual(p, f):
    """Pointwise defect L v - c_(n,s) v^q of the curvature equation."""
    require(f.values > 0.0, "the curvature-equation defect needs v > 0, got {}", f.values)
    applied = _apply_symbol(f.values, _symbol_table(p, f.length, f.size))
    return applied - cyl_curvature(p) * f.values ** p.q


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
    eps^2 and a2; eps^2 > 0 past L0 when D < 0.
    """
    xi0, slope = _bifurcation_root(p)  # slope of log theta, theta'/(c q)
    q = p.q
    target = cyl_curvature(p) * q
    a2 = target * (q - 1.0) / (4.0 * (float(cyl_symbol(p, 0, 2.0 * xi0)) - target))
    drift = -0.25 * q + 0.5 * a2 + 0.125 * (q - 2.0)
    eps2 = slope * (2.0 * math.pi / period - xi0) / ((q - 1.0) * drift)
    return eps2, a2


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
    #: Newton and Krylov steps summed over every start tried
    newton_steps: int
    krylov_steps: int
    #: the start the result came from: "constant", "seed" or "tower"
    start: str

    def __post_init__(self):
        if not self.residual_norm < _RESIDUAL_CAP:
            raise ParameterError(
                f"solution residual {self.residual_norm:.3e} exceeds {_RESIDUAL_CAP:.1e}"
            )
        v = np.array(self.values, dtype=float)  # the record's own copy
        require(v > 0.0, "solution values must be positive pointwise, got {}", self.values)
        object.__setattr__(self, "values", read_only(v))

    def grid(self):
        return GridFunction(self.period, self.values)


def _even(w):  # the even profile on the nodes k dx, k = 0 .. N-1, from k = 0 .. N/2
    return np.concatenate([w, w[-2:0:-1]])


def _centred(w):  # the same on the centred grid x_j = (j - N/2) dx: w[|N/2 - j|]
    return np.concatenate([w[::-1], w[1:-1]])


def _gmres(matvec, b, rtol, atol, steps):
    """Unrestarted right-preconditioned GMRES from x = 0 (Saad & Schultz 1986),
    flexible form (Saad 1993): ``matvec(v)`` returns A P^(-1) v and P^(-1) v,
    and x = sum y_k P^(-1) v_k over the Arnoldi vectors v_k, y by LAPACK's
    dtrtrs.  Returns x with the Givens estimate of |b - A x| at most max(atol,
    rtol |b|), else the least-squares best after ``steps`` steps, and the count."""
    beta = float(np.linalg.norm(b))
    target = max(atol, rtol * beta)
    if beta <= target:  # x = 0 already meets the target, as for b = 0
        return np.zeros_like(b), 0
    basis = np.empty((min(steps, 8) + 1, b.size))  # doubled as steps are taken
    images = np.empty_like(basis)  # P^(-1) of each basis row
    basis[0] = b / beta
    columns, rotations, rhs = [], [], [beta]
    for k in range(steps):
        w, images[k] = matvec(basis[k])
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
        columns.append(column)
        rhs[k:] = c * rhs[k], -s * rhs[k]
        if abs(rhs[k + 1]) <= target or norm <= _EPS * scale:
            break
        if k + 1 == len(basis):
            more = np.empty((min(k + 1, steps - k), b.size))
            basis, images = np.concatenate([basis, more]), np.concatenate([images, more])
        basis[k + 1] = w / norm
    m = len(rotations)
    upper = np.zeros((m, m), order="F")  # LAPACK's layout, so dtrtrs copies nothing
    for k, column in enumerate(columns):
        upper[: k + 1, k] = column
    # m = 0 where A is singular on b itself; LAPACK takes no 0 x 0 system
    return (dtrtrs(upper, np.array(rhs[:m]))[0] if m else np.zeros(0)) @ images[:m], m


@lru_cache(maxsize=8)
def _cosine_lift(size, modes):
    """Nodes k = 0 .. N/2 of the even profiles whose real-FFT spectrum is one
    of the lowest ``modes`` <= N/2 cosine modes, as read-only columns."""
    cosines = np.cos(2.0 * math.pi / size * np.arange(size))
    # (j k) mod N by a bitmask, N being a power of two
    nodes = np.outer(np.arange(size // 2 + 1), np.arange(modes)) & (size - 1)
    lift = cosines[nodes] * np.where(np.arange(modes), 2.0, 1.0) / size
    return read_only(lift)


@lru_cache(maxsize=8)
def _coarse_indices(modes):
    """The index arrays |a - b| and a + b of a modes x modes block, read-only."""
    a = np.arange(modes)
    return read_only(np.stack([abs(a[:, None] - a), a[:, None] + a]))


def _coarse_inverse(theta, slope, size):
    """Inverse of the Galerkin block of L - slope on the lowest K even cosine
    modes, K = min(_COARSE_MODES, N/2), by dgetrf and dgetri, or None where singular.

    For even v, (slope v)^_a = sum over b of (S_|a-b| + S_(a+b)) v^_b / N,
    halved at b = 0, with S the real-FFT spectrum of slope; a + b may pass
    N/2, where S_j = S_(N-j)."""
    modes = min(_COARSE_MODES, size // 2)
    spectrum = np.fft.rfft(_even(slope)).real
    spectrum = np.concatenate([spectrum, spectrum[-2:0:-1]])
    difference, total = _coarse_indices(modes)
    block = (spectrum[difference] + spectrum[total]) / -size
    block[:, 0] *= 0.5
    block.flat[:: modes + 1] += theta[:modes]
    lu, pivots, info = dgetrf(block, overwrite_a=True)
    return None if info > 0 else dgetri(lu, pivots, overwrite_lu=True)[0]


def _krylov_step(theta, slope, res, tol):
    """Solution of (L - slope) step = -res on the even unknowns, and its Krylov
    count: flexible ``_gmres`` on (L - slope) P^(-1), forcing term
    min(_FORCING_CAP, |res|_inf), absolute floor 1e-2 tol; the step sums the
    P^(-1) v_k its matvec formed, so no P^(-1) is applied after GMRES.

    The right preconditioner P is two-level where |res|_inf <= _COARSE_GATE:
    the exact inverse of the Galerkin block of L - slope on the lowest K even
    cosine modes (``_coarse_inverse``), where slope is comparable to theta,
    and 1/theta above them.  Then L P^(-1) z differs from z only on those
    modes, by the K-column lift of theta x^ - z^: one rfft and one irfft per
    Krylov step.  Elsewhere, or where the block is singular, P^(-1) is 1/theta."""
    norm = float(np.max(np.abs(res)))
    size = 2 * res.size - 2
    coarse = _coarse_inverse(theta, slope, size) if norm <= _COARSE_GATE else None
    if coarse is not None:
        k, lift = len(coarse), _cosine_lift(size, len(coarse))

    def matvec(z):  # (L - slope) P^(-1) z and P^(-1) z; 1/theta damps, so
        # no exact mean is needed as in _apply_symbol
        spectrum = np.fft.rfft(_even(z))
        x = spectrum / theta
        if coarse is not None:
            x[:k] = coarse @ spectrum[:k].real
        nodes = np.fft.irfft(x, size)[: z.size]
        out = z - slope * nodes
        if coarse is not None:
            out += lift @ (theta[:k] * x[:k].real - spectrum[:k].real)
        return out, nodes

    return _gmres(matvec, -res, min(_FORCING_CAP, norm), 1e-2 * tol, _KRYLOV_STEPS)


def _newton(p, theta, w, tol):
    """Damped Newton-Krylov from the half-grid samples w of one start: steps of
    ``_krylov_step``, halved until the trial is positive and lowers |res|_inf,
    until |res|_inf is below ``tol`` or the round-off floor eps max(theta)
    (max w - min w), unless ``tol`` is under eps c max(w)^q.  Returns w,
    |res|_inf, the failure or None, and the Newton and Krylov steps taken."""
    q, curvature = p.q, cyl_curvature(p)
    # eps max(theta), the round-off that theta lends each unit of max w - min w
    amplification = _EPS * float(theta.max())

    def residual_of(w):
        res = _apply_symbol(_even(w), theta)[: w.size] - curvature * w**q
        return res, float(np.max(np.abs(res)))

    res, norm = residual_of(w)
    krylov_steps = 0
    for newton_steps in range(_NEWTON_STEPS):
        # a tol under eps c max(w)^q, the unit round-off of the terms,
        # cannot be met at any N and stays as given
        floor = amplification * np.ptp(w) if tol > _EPS * curvature * w.max() ** q else 0
        if norm < max(tol, min(floor, _RESIDUAL_CAP)):
            return w, norm, None, newton_steps, krylov_steps
        step, count = _krylov_step(theta, curvature * q * w ** (q - 1.0), res, tol)
        krylov_steps += count
        for scale in _HALVINGS:
            trial = w + scale * step
            if np.all(trial > 0.0):
                trial_res, trial_norm = residual_of(trial)
                if trial_norm < norm:
                    break
        else:
            return w, norm, "line search stalled", newton_steps, krylov_steps
        w, res, norm = trial, trial_res, trial_norm
    return w, norm, "Newton did not reach tolerance", _NEWTON_STEPS, krylov_steps


def solve_delaunay(p, period, size=512, tol=1e-11):
    """Newton-Krylov solve of L v = c_(n,s) v^q on one period.

    The start policy is apart from the iteration: every start runs the same
    damped Newton-Krylov loop, ``_newton``.  Newton starts from
      - the constant where theta(2 pi / L) >= c_(n,s) q, at or below the
        bifurcation period L0;
      - else the Lyapunov-Schmidt seed 1 + eps cos(xi t)
        + eps^2 (-q/4 + a2 cos(2 xi t)) of ``_branch_expansion``, where it
        is positive and q eps <= 3, which holds near L0;
      - else the periodized limit profile, the tower of bumps, then the
        seed wherever it is positive: the first start to end on the bump
        wins, else the tower's flat solution or error stands.
    The result's ``start`` names the start it came from ("constant",
    "seed" or "tower"); the step counts of a result or an error cover
    every start tried.
    The unknowns are w_k = v(k dx), k = 0 .. N/2, so the translation mode
    v' stays out of the Jacobian, which ``_krylov_step`` applies matrix-free.
    theta is one cached table per (p, L, N), which the energy and
    ``delaunay_residual`` on the result's grid read again.  The result peaks at
    x = 0; ``nonconstant`` (max - min > 1e-3 max) flags a constant.  A
    ``tol`` above the certificate cap 1e-10 of ``DelaunaySolution`` is
    rejected before any work.  A ``NewtonDivergenceError`` carries the last
    residual and the Newton and Krylov steps taken.
    """
    if not tol <= _RESIDUAL_CAP:
        raise ParameterError(
            f"tol {tol!r} exceeds the solution residual cap {_RESIDUAL_CAP:.1e}"
        )
    require_int(size, "size")
    grid = GridFunction(period, np.ones(size))
    theta = _symbol_table(p, grid.length, size)
    half = size // 2
    unstable = theta[1] < cyl_curvature(p) * p.q
    tries = []
    for w, start in _auto_starts(p, period, unstable, size):
        w, norm, failure, newton_steps, krylov_steps = _newton(p, theta, w, tol)
        tries.append((w, norm, failure, start, newton_steps, krylov_steps))
        nonconstant = not failure and float(np.ptp(w)) > _FLAT_SPREAD * float(w.max())
        if nonconstant:
            break
    # the last try wins if it ended on the bump, else the first try's flat
    # solution or error stands; the step counts cover every try
    w, norm, failure, start, _, _ = tries[-1] if nonconstant else tries[0]
    newton_steps, krylov_steps = (sum(counts) for counts in list(zip(*tries))[4:])
    if failure:
        raise NewtonDivergenceError(
            failure, last_residual=norm, newton_steps=newton_steps, krylov_steps=krylov_steps
        )
    # put the peak at x = 0, the middle node; _even(w) already has it there
    # when w peaks at k = N/2
    v = _even(w) if np.argmax(w) == half else _centred(w)
    return DelaunaySolution(
        n=p.n, s=p.s, period=period, values=v, residual_norm=norm,
        energy=functional_FL(p, GridFunction(period, v)), nonconstant=nonconstant,
        newton_steps=newton_steps, krylov_steps=krylov_steps, start=start,
    )


def _auto_starts(p, period, unstable, size):
    """The named starts of ``solve_delaunay`` on the nodes k L/N, k = 0 ..
    N/2, in the order tried: the constant while the first mode is stable,
    the Lyapunov-Schmidt seed where it is positive and q eps <= _SEED_REACH,
    else the tower (``_tower_table``), then the seed."""
    t = _half_nodes(period, size)
    if not unstable:
        return [(np.ones(t.size), "constant")]
    eps2, a2 = _branch_expansion(p, period)
    eps = math.sqrt(max(eps2, 0.0))
    phase = 2.0 * math.pi / period * t
    w = 1.0 + eps * np.cos(phase)
    w += eps2 * (a2 * np.cos(2.0 * phase) - 0.25 * p.q)
    seed = [(w, "seed")] if eps > 0.0 and np.all(w > 0.0) else []
    if seed and p.q * eps <= _SEED_REACH:
        return seed
    return [(_tower_table(p, period, size), "tower")] + seed


def _critical_mass(p, f):
    """Denominator (int v^(2*))^(2/2*) shared by both functional routes."""
    require(f.values > 0.0, "the curvature quotient needs v > 0, got {}", f.values)
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
    quadratic = f.dx * float(f.values @ _apply_symbol(f.values, _symbol_table(p, f.length, f.size)))
    return quadratic / _critical_mass(p, f)


def kernel_functional_FL(spec, f):
    """The same quotient with its numerator assembled from the kernel.

    Independent of the spectral route: the calibrated kernel is two-sided,
    so the quadratic form becomes c int v^2 + (1/2) iint (v - v')^2 K_L,
    and the diagonal of the double sum is dropped (the squared difference
    vanishes there faster than the kernel blows up).

    The double sum runs over the cyclic offsets j = 1 .. N-1, and both the
    periodized kernel at j dx and the circular autocorrelation of any real v
    are the same at j and N - j.  So the kernel is evaluated on the half
    period only, j = 1 .. N/2, with the terms j < N/2 counted twice and
    j = N/2 once; v need not be even.
    """
    p = spec.params
    denominator = _critical_mass(p, f)
    values = f.values
    size = f.size
    half = size // 2
    h = f.dx
    kernel = periodized_kernel(spec, f.length, h * np.arange(1, half + 1))
    kernel[-1] *= 0.5  # the offset N/2 is its own mirror
    # ||v - roll(v, -j)||^2 = 2 (||v||^2 - c_j), c the circular autocorrelation
    norm2 = float(values @ values)
    autocorr = np.fft.irfft(np.abs(np.fft.rfft(values)) ** 2, size)
    acc = 4.0 * float(kernel @ (norm2 - autocorr[1 : half + 1]))
    quadratic = cyl_curvature(p) * h * norm2
    quadratic += 0.5 * h * h * acc
    return quadratic / denominator


def continue_branch(p, periods, size=512, tol=1e-11):
    """``solve_delaunay`` at each period of a list."""
    return [solve_delaunay(p, period, size=size, tol=tol) for period in periods]


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


def _half_nodes(period, size):
    """The nodes k L/N, k = 0 .. N/2, of the half period."""
    return float(period) / size * np.arange(size // 2 + 1)


@lru_cache(maxsize=32)  # a tower start and the defect of its solution share one
def _tower_table(p, period, size):
    """Read-only tower of limit bumps on the half-period nodes k L/N,
    k = 0 .. N/2; the tower is even about 0 and L/2, so these fix it."""
    return read_only(_tower_values(p, period, _half_nodes(period, size)))


def bubble_tower_defect(sol):
    """L2(0, L) distance between a periodic profile and the tower of limit
    bumps translated by the period lattice.

    The tower is evaluated on the N/2 + 1 nodes of the half period only
    (``_tower_table``, which a tower start at the same (p, L, N) already
    filled) and mirrored onto the centred grid: x_j = (j - N/2) L/N, so the
    tower at x_j is the table at |N/2 - j|."""
    p = FracParams(sol.n, sol.s)
    grid = sol.grid()
    tower = _centred(_tower_table(p, sol.period, grid.size))
    return math.sqrt(grid.dx * float(np.sum((sol.values - tower) ** 2)))
