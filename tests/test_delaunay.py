"""Tests for periodic cylinder profiles and the bump branch."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conflap import delaunay
from conflap.cylinder import (
    calibrate_kernel,
    cyl_curvature,
    cyl_symbol,
    periodized_kernel,
)
from conflap.delaunay import (
    DelaunaySolution,
    apply_Ls_periodic,
    asymptotic_profile,
    bifurcation_period,
    branch_amplitude,
    bubble_tower_defect,
    continue_branch,
    delaunay_residual,
    functional_FL,
    kernel_functional_FL,
    limit_amplitude,
    solve_delaunay,
    _branch_expansion,
    _critical_mass,
    _even,
    _gmres,
    _krylov_step,
    _tower_values,
)
from conflap.errors import NewtonDivergenceError, NonConvergenceError, ParameterError
from conflap.params import FracParams, GridFunction
from conflap.sphere import sphere_curvature

# Root of xi coth(pi xi / 2) = 4 / pi mapped to the period 2 pi / xi,
# computed with mpmath.findroot at 40 digits for n = 3, s = 1/2.
PERIOD_THRESHOLD_3_HALF = 5.1538187584122886


class TestPeriodicGridFunction:
    """The grid the periodic solver uses: GridFunction(period, values)."""

    def test_grid_layout(self):
        f = GridFunction(8.0, np.zeros(16))
        assert f.size == 16
        assert f.dx == pytest.approx(0.5)
        assert f.x[0] == -4.0
        assert f.x[-1] == pytest.approx(3.5)
        # one period of nodes, and the modes are the multiples of 2 pi / period
        assert f.x[-1] - f.x[0] + f.dx == pytest.approx(8.0)
        k = f.frequencies * 8.0 / (2.0 * math.pi)
        assert np.max(np.abs(k - np.arange(9))) < 1e-12

    def test_rejects_bad_values(self):
        with pytest.raises(ParameterError):
            GridFunction(8.0, np.zeros(24))
        with pytest.raises(ParameterError):
            GridFunction(8.0, np.zeros(4))
        bad = np.zeros(16)
        bad[3] = math.nan
        with pytest.raises(ParameterError):
            GridFunction(8.0, bad)

    def test_values_are_frozen(self):
        f = GridFunction(8.0, np.zeros(16))
        with pytest.raises(ValueError):
            f.values[0] = 1.0


class TestApplyOperator:
    def test_single_mode_matches_symbol(self):
        p = FracParams(3, 0.5)
        period = 7.0
        f = GridFunction(period, np.cos(4.0 * math.pi / period * np.arange(64) * period / 64))
        applied = apply_Ls_periodic(p, f)
        expected = cyl_symbol(p, 0, 4.0 * math.pi / period) * f.values
        assert np.max(np.abs(applied.values - expected)) < 1e-12

    def test_constant_is_exact_solution(self):
        p = FracParams(4, 0.35)
        f = GridFunction(5.0, np.ones(32))
        res = delaunay_residual(p, f)
        assert np.max(np.abs(res)) < 1e-14

    def test_residual_not_equivariant_under_scaling(self):
        # the nonlinearity breaks v -> lam v covariance: 2 * constant misses
        p = FracParams(3, 0.5)
        f = GridFunction(5.0, 2.0 * np.ones(32))
        assert np.max(np.abs(delaunay_residual(p, f))) > 0.1

    def test_residual_requires_positive_profile(self):
        p = FracParams(3, 0.5)
        f = GridFunction(5.0, np.linspace(-1.0, 1.0, 32))
        with pytest.raises(ParameterError, match="v > 0"):
            delaunay_residual(p, f)

    def test_tower_sample_residual_shrinks_with_period(self):
        # unsolved bump-tower samples get closer to solving as L grows
        p = FracParams(3, 0.5)
        sups = []
        for period in (16.0, 24.0):
            t = (period / 1024) * np.arange(1024) - period / 2.0
            tower = sum(
                asymptotic_profile(p, t - j * period) for j in range(-2, 3)
            )
            f = GridFunction(period, tower)
            sups.append(np.max(np.abs(delaunay_residual(p, f))))
        assert sups[0] > sups[1]
        assert sups[1] < 1e-8

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 10_000),
        scale=st.floats(0.1, 5.0),
    )
    def test_apply_is_linear(self, seed, scale):
        p = FracParams(3, 0.4)
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(32)
        b = rng.standard_normal(32)
        period = 6.0
        left = apply_Ls_periodic(p, GridFunction(period, a + scale * b))
        right = (
            apply_Ls_periodic(p, GridFunction(period, a)).values
            + scale * apply_Ls_periodic(p, GridFunction(period, b)).values
        )
        assert np.max(np.abs(left.values - right)) < 1e-10 * (1.0 + scale)


class TestBifurcationPeriod:
    def test_matches_closed_form_root(self):
        p = FracParams(3, 0.5)
        assert bifurcation_period(p) == pytest.approx(
            PERIOD_THRESHOLD_3_HALF, abs=1e-10
        )

    def test_root_balances_symbol_and_slope(self):
        p = FracParams(4, 0.35)
        period = bifurcation_period(p)
        target = cyl_curvature(p) * p.q
        assert cyl_symbol(p, 0, 2.0 * math.pi / period) == pytest.approx(
            target, rel=1e-12
        )

    def test_linearization_sign_flips_across_threshold(self):
        # first-mode eigenvalue theta(2 pi / L) - c q crosses zero at L0
        p = FracParams(3, 0.5)
        period = bifurcation_period(p)
        target = cyl_curvature(p) * p.q
        assert cyl_symbol(p, 0, 2.0 * math.pi / (1.1 * period)) < target
        assert cyl_symbol(p, 0, 2.0 * math.pi / (0.9 * period)) > target

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_root_within_bracket_tolerance(self, n):
        # the safeguarded Newton iteration pins xi0 = 2 pi / L0 to 1e-12; the
        # symbol must cross c q within 1e-11 of it on both sides
        for s in (0.05, 0.3, 0.5, 0.7, 0.9, 0.995):
            p = FracParams(n, s)
            xi = 2.0 * math.pi / bifurcation_period(p)
            target = cyl_curvature(p) * p.q
            assert cyl_symbol(p, 0, xi - 1e-11) < target < cyl_symbol(p, 0, xi + 1e-11)

    def test_mode_k_crossings_are_multiples(self):
        # the symbol sees mode k of period k L0 at the same frequency
        p = FracParams(3, 0.5)
        period = bifurcation_period(p)
        target = cyl_curvature(p) * p.q
        for k in (2, 3):
            xi = 2.0 * math.pi * k / (k * period)
            assert cyl_symbol(p, 0, xi) == pytest.approx(target, rel=1e-12)


class TestSolveDelaunay:
    def test_bump_above_threshold(self):
        p = FracParams(3, 0.5)
        period = 1.2 * PERIOD_THRESHOLD_3_HALF
        sol = solve_delaunay(p, period)
        assert sol.nonconstant
        assert sol.residual_norm < 1e-11
        assert np.argmax(sol.values) == sol.values.size // 2
        assert 1.0 < sol.values.max() < limit_amplitude(p)
        assert sol.values.min() > 0.0
        mirrored = np.roll(sol.values[::-1], 1)
        assert np.max(np.abs(sol.values - mirrored)) < 1e-12

    def test_collapse_below_threshold(self):
        p = FracParams(3, 0.5)
        sol = solve_delaunay(p, 0.8 * PERIOD_THRESHOLD_3_HALF)
        assert not sol.nonconstant
        assert np.max(np.abs(sol.values - 1.0)) < 1e-9

    def test_hard_point_solves_nonconstant(self):
        # near L0 at (2, 0.9) Newton from the tower took 60 steps and failed;
        # the seed start reaches the bump.  Trials that take v below zero
        # must be halved before v^q is formed, and the suite's
        # error::RuntimeWarning setting turns a leak here into a failure
        p = FracParams(2, 0.9)
        sol = solve_delaunay(p, 1.02 * bifurcation_period(p))
        assert sol.start == "seed"
        assert sol.nonconstant
        assert sol.residual_norm < 1e-10

    @pytest.mark.parametrize(
        "n, s, ratio",
        [(2, 0.7942, 1.5016), (2, 0.8871, 1.6262), (2, 0.937, 1.073), (2, 0.965, 1.080)],
    )
    def test_former_tower_start_failures_reach_the_bump(self, n, s, ratio):
        # from the tower these points stalled, diverged or landed on the
        # constant depending on round-off; the seed start ends on the bump
        p = FracParams(n, s)
        sol = solve_delaunay(p, ratio * bifurcation_period(p))
        assert sol.start == "seed"
        assert sol.nonconstant
        assert sol.residual_norm < 1e-10

    def test_start_names_the_auto_choice(self):
        p = FracParams(3, 0.5)
        starts = [
            solve_delaunay(p, ratio * PERIOD_THRESHOLD_3_HALF).start
            for ratio in (0.8, 1.02, 6.0)
        ]
        assert starts == ["constant", "seed", "tower"]
        warm = solve_delaunay(p, 1.02 * PERIOD_THRESHOLD_3_HALF, init=np.ones(512))
        assert warm.start == "array"

    def test_large_order_tower_start_has_no_overflow(self):
        # n = 2, s near 1: the limit bump decays so slowly that cosh(t)
        # overflows over a long period; the suite's
        # error::RuntimeWarning setting turns such a leak into a failure
        p = FracParams(2, 0.9655)
        sol = solve_delaunay(p, 4.5727 * bifurcation_period(p))
        assert sol.nonconstant
        assert sol.residual_norm < 1e-10

    def test_robustness_grid(self):
        # every case solves or fails with a typed error, and none may end off
        # the bump branch; the 80 solves take at most 200 Newton steps (180
        # with the seed start near L0, 309 from the tower start past L0)
        known_hard = set()
        off_branch = set()
        newton_steps = 0
        for n in (2, 3, 4, 5):
            for s in (0.1, 0.3, 0.5, 0.7, 0.9):
                p = FracParams(n, s)
                period0 = bifurcation_period(p)
                for ratio in (1.02, 1.5, 3.0, 6.0):
                    try:
                        sol = solve_delaunay(p, ratio * period0, size=512)
                    except NonConvergenceError:
                        off_branch.add((n, s, ratio))
                        continue
                    assert sol.residual_norm < 1e-10
                    newton_steps += sol.newton_steps
                    if not sol.nonconstant:
                        off_branch.add((n, s, ratio))
        assert off_branch <= known_hard
        assert newton_steps <= 200

    def test_constant_init_stays_constant(self):
        p = FracParams(3, 0.5)
        sol = solve_delaunay(p, 2.0 * PERIOD_THRESHOLD_3_HALF, init=np.ones(512))
        assert not sol.nonconstant

    def test_deterministic(self):
        p = FracParams(3, 0.5)
        period = 1.3 * PERIOD_THRESHOLD_3_HALF
        a = solve_delaunay(p, period)
        b = solve_delaunay(p, period)
        assert np.array_equal(a.values, b.values)

    def test_cyclic_shifts_still_solve(self):
        p = FracParams(3, 0.5)
        sol = solve_delaunay(p, 1.3 * PERIOD_THRESHOLD_3_HALF, tol=1e-12)
        shifted = GridFunction(sol.period, np.roll(sol.values, 37))
        assert np.max(np.abs(delaunay_residual(p, shifted))) < 1e-12

    def test_rejects_bad_inputs(self):
        p = FracParams(3, 0.5)
        with pytest.raises(ParameterError, match="init"):
            solve_delaunay(p, 6.0, init="bogus")
        with pytest.raises(ParameterError, match="shape"):
            solve_delaunay(p, 6.0, init=np.ones(100))
        with pytest.raises(ParameterError, match="power of two"):
            solve_delaunay(p, 6.0, size=100)

    def test_rejects_init_without_positive_even_part(self):
        # the even part about the peak must be positive before any power of
        # it is taken, so a bad start raises instead of warning
        p = FracParams(3, 0.3)
        period = 1.5 * bifurcation_period(p)
        t = GridFunction(period, np.ones(512)).x
        starts = (1.0 + 1.5 * np.cos(2.0 * math.pi * t / period), -np.ones(512))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for init in starts:
                with pytest.raises(ParameterError, match="positive even part"):
                    solve_delaunay(p, period, init=init)

    def test_rejects_tol_above_certificate_cap(self):
        # DelaunaySolution certifies residuals below 1e-10, so a looser tol
        # is refused before the solve rather than after it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="tol 0.001 exceeds .* cap 1.0e-10"):
                solve_delaunay(FracParams(3, 0.5), 6.2, size=16, tol=1e-3)

    def test_divergence_reports_last_residual(self, monkeypatch):
        monkeypatch.setattr(delaunay, "_NEWTON_STEPS", 1)
        p = FracParams(3, 0.5)
        period = 1.2 * PERIOD_THRESHOLD_3_HALF
        t = (period / 512) * np.arange(512) - period / 2.0
        far = 3.0 * asymptotic_profile(p, t)
        with pytest.raises(NewtonDivergenceError) as info:
            solve_delaunay(p, period, init=far)
        assert info.value.last_residual is not None
        assert info.value.last_residual > 0.0
        assert info.value.newton_steps == 1
        assert info.value.krylov_steps >= 1

    def test_iteration_counts(self):
        # the exact constant start takes no step; a bump takes Newton steps,
        # each with at least one Krylov step, and the counts repeat exactly
        flat = solve_delaunay(FracParams(3, 0.5), 0.8 * PERIOD_THRESHOLD_3_HALF)
        assert (flat.newton_steps, flat.krylov_steps) == (0, 0)
        a, b = (
            solve_delaunay(FracParams(3, 0.5), 1.3 * PERIOD_THRESHOLD_3_HALF)
            for _ in range(2)
        )
        assert 1 <= a.newton_steps <= a.krylov_steps
        assert (a.newton_steps, a.krylov_steps) == (b.newton_steps, b.krylov_steps)

    def test_stops_at_round_off_floor(self):
        # near s = 1 the FFT residual's floor eps max(theta) (max - min)
        # grows like N^(2s) and passes tol = 1e-11; Newton stops there
        # instead of stalling in the line search
        p = FracParams(5, 0.9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve_delaunay(p, 1.2 * bifurcation_period(p), size=2048)
        assert sol.residual_norm < 1e-10
        assert sol.nonconstant

    def test_large_grid_energy_matches(self):
        # the matrix-free step makes N = 8192 cheap; the energy at 3 L0 is
        # already converged in N at 2048
        p = FracParams(3, 0.5)
        period = 3.0 * PERIOD_THRESHOLD_3_HALF
        fine = solve_delaunay(p, period, size=8192)
        coarse = solve_delaunay(p, period, size=2048)
        assert fine.residual_norm < 1e-10
        assert fine.energy == pytest.approx(coarse.energy, abs=1e-10)
        assert fine.energy == pytest.approx(1.1624455582352733, abs=1e-10)

    def test_solution_certificate_is_enforced(self):
        with pytest.raises(ParameterError, match="residual"):
            DelaunaySolution(
                n=3,
                s=0.5,
                period=6.0,
                values=np.ones(16),
                residual_norm=1e-3,
                energy=0.0,
                nonconstant=False,
            )


class TestBranchAmplitude:
    """The Lyapunov-Schmidt expansion at L0 against the solved branch."""

    @pytest.mark.parametrize("n, s", [(3, 0.5), (2, 0.3), (5, 0.9), (4, 0.1), (2, 0.9)])
    def test_matches_solved_half_spread(self, n, s):
        # the half spread of the profile is eps + O(eps^2); measured worst
        # 0.72 eps^2, at (2, 0.9, 1.05 L0)
        p = FracParams(n, s)
        period0 = bifurcation_period(p)
        for ratio in (1.005, 1.02, 1.05):
            eps = branch_amplitude(p, ratio * period0)
            sol = solve_delaunay(p, ratio * period0)
            half_spread = 0.5 * float(sol.values.max() - sol.values.min())
            assert abs(half_spread - eps) <= eps**2, (ratio, half_spread, eps)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_branch_is_supercritical(self, n):
        # D = -q/4 + a2/2 + (q - 2)/8 < 0 makes eps^2 > 0 past L0; the
        # measured maximum over n = 2 .. 6 is -0.224, at n = 2
        drifts = []
        for s in np.linspace(0.005, 0.995, 34):
            p = FracParams(n, float(s))
            eps2, a2, _ = _branch_expansion(p, 1.1 * bifurcation_period(p))
            drifts.append(-0.25 * p.q + 0.5 * a2 + 0.125 * (p.q - 2.0))
            assert eps2 > 0.0
        assert max(drifts) < 0.0

    def test_rejects_periods_up_to_L0_and_orders_from_n_half(self):
        p = FracParams(3, 0.5)
        period0 = bifurcation_period(p)
        for period in (period0, 0.9 * period0):
            with pytest.raises(ParameterError, match="not past the bifurcation period"):
                branch_amplitude(p, period)
        for n, s in ((2, 1.0), (3, 1.5), (3, 2.0)):
            with pytest.raises(ParameterError, match="s < n/2"):
                branch_amplitude(FracParams(n, s), 10.0)


@pytest.mark.filterwarnings("error")
class TestGmres:
    """The in-module GMRES on small dense systems, against np.linalg.solve."""

    def test_zero_rhs_returns_zeros_without_a_step(self):
        def matvec(y):
            raise AssertionError("no matvec is needed for b = 0")

        x, count = _gmres(matvec, np.zeros(7), 1e-10, 0.0, 10)
        assert count == 0
        assert np.array_equal(x, np.zeros(7))

    def test_zero_operator_stops_before_a_singular_step(self):
        x, count = _gmres(np.zeros_like, np.ones(7), 1e-10, 0.0, 10)
        assert count == 0
        assert np.array_equal(x, np.zeros(7))

    def test_identity_breaks_down_after_one_step(self):
        # A v = v leaves nothing to orthogonalize: |w| = 0 ends the basis;
        # the matvec returns its argument, which must not be overwritten
        b = np.random.default_rng(1).standard_normal(40)
        x, count = _gmres(lambda y: y, b, 1e-14, 0.0, 10)
        assert count == 1
        assert np.max(np.abs(x - b)) < 1e-14

    def test_random_nonsymmetric_system_matches_dense_solve(self):
        size = 300
        rng = np.random.default_rng(0)
        matrix = np.eye(size) + 0.5 * rng.standard_normal((size, size)) / math.sqrt(size)
        b = rng.standard_normal(size)
        x, count = _gmres(lambda y: matrix @ y, b, 1e-14, 0.0, size)
        assert count < size
        assert np.max(np.abs(x - np.linalg.solve(matrix, b))) < 1e-10

    def test_stagnation_stops_at_step_cap(self):
        # the cyclic shift maps the Krylov space of e_0 orthogonal to e_0, so
        # no iterate beats x = 0 before step n; the cap ends the solve
        size, cap = 50, 20
        b = np.zeros(size)
        b[0] = 1.0
        x, count = _gmres(lambda y: np.roll(y, 1), b, 1e-10, 0.0, cap)
        assert count == cap
        assert np.all(np.isfinite(x))
        assert np.linalg.norm(b - np.roll(x, 1)) <= np.linalg.norm(b) + 1e-14


class TestKrylovAgainstDense:
    """The dense folded Jacobian and LU solve as the oracle of the Krylov step."""

    SIZE = 64

    def setup_method(self):
        self.p = FracParams(3, 0.5)
        self.period = 1.5 * PERIOD_THRESHOLD_3_HALF
        self.grid = GridFunction(self.period, np.ones(self.SIZE))
        self.theta = cyl_symbol(self.p, 0, self.grid.frequencies)
        half = self.SIZE // 2
        self.start = _tower_values(self.p, self.period, self.grid.dx * np.arange(half + 1))

    def residual(self, w):
        full = GridFunction(self.period, _even(w))
        return delaunay_residual(self.p, full)[: w.size]

    def dense_jacobian(self, w):
        # column c = irfft(theta) folded onto the even nodes k = 0 .. N/2:
        # c[i - k] + c[i + k], with the self-paired columns 0 and N/2 halved
        size, half = self.SIZE, self.SIZE // 2
        nodes = np.arange(half + 1)
        column = np.fft.irfft(self.theta, size)
        operator = (
            column[(nodes[:, None] - nodes) % size] + column[(nodes[:, None] + nodes) % size]
        )
        operator[:, [0, half]] *= 0.5
        p = self.p
        return operator - np.diag(cyl_curvature(p) * p.q * w ** (p.q - 1.0))

    def test_one_step_matches_dense_solve(self):
        w = self.start
        res = self.residual(w)
        slope = cyl_curvature(self.p) * self.p.q * w ** (self.p.q - 1.0)
        step, count = _krylov_step(self.theta, slope, res, 1e-11)
        dense = np.linalg.solve(self.dense_jacobian(w), -res)
        assert count >= 1
        assert np.max(np.abs(step - dense)) < 1e-9

    def test_converged_profile_matches_dense_newton(self):
        w = self.start
        for _ in range(30):
            res = self.residual(w)
            if np.max(np.abs(res)) < 1e-13:
                break
            w = w + np.linalg.solve(self.dense_jacobian(w), -res)
        dense = np.roll(_even(w), self.SIZE // 2)
        sol = solve_delaunay(self.p, self.period, size=self.SIZE)
        assert sol.nonconstant
        assert np.max(np.abs(sol.values - dense)) < 1e-10


class TestEnergy:
    def test_constant_value_is_closed_form(self):
        # quotient of v = 1 is c_(n,s) L^(1 - 2/2*)
        p = FracParams(3, 0.5)
        period = 7.25
        const = GridFunction(period, np.ones(64))
        expected = cyl_curvature(p) * period ** (1.0 - 2.0 / p.two_star)
        assert functional_FL(p, const) == pytest.approx(expected, rel=1e-13)

    def test_scale_invariance(self):
        p = FracParams(3, 0.5)
        sol = solve_delaunay(p, 1.2 * PERIOD_THRESHOLD_3_HALF)
        scaled = GridFunction(sol.period, 3.7 * sol.values)
        assert functional_FL(p, scaled) == pytest.approx(sol.energy, rel=1e-12)

    def test_requires_positive_profile(self):
        p = FracParams(3, 0.5)
        f = GridFunction(5.0, np.linspace(-1.0, 1.0, 32))
        with pytest.raises(ParameterError, match="v > 0"):
            functional_FL(p, f)

    def test_bump_has_lower_energy_than_constant(self):
        p = FracParams(3, 0.5)
        period = 1.2 * PERIOD_THRESHOLD_3_HALF
        sol = solve_delaunay(p, period)
        const = GridFunction(period, np.ones(sol.values.size))
        assert sol.energy < functional_FL(p, const)

    def test_energy_matches_stored_value(self):
        p = FracParams(3, 0.5)
        sol = solve_delaunay(p, 1.4 * PERIOD_THRESHOLD_3_HALF)
        assert functional_FL(p, sol.grid()) == pytest.approx(sol.energy, rel=1e-14)

    def test_kernel_route_agrees_and_refines(self):
        p = FracParams(3, 0.5)
        spec = calibrate_kernel(p)
        period = 1.2 * PERIOD_THRESHOLD_3_HALF
        errors = []
        for size in (128, 256):
            sol = solve_delaunay(p, period, size=size)
            other = kernel_functional_FL(spec, sol.grid())
            errors.append(abs(other - sol.energy) / abs(sol.energy))
        assert errors[0] < 1e-2
        assert errors[1] < errors[0] / 1.5

    def test_kernel_route_matches_loop_form(self):
        # reference: the double sum over each cyclic offset, term by term
        p = FracParams(3, 0.5)
        spec = calibrate_kernel(p)
        f = solve_delaunay(p, 1.2 * PERIOD_THRESHOLD_3_HALF, size=512).grid()
        v = f.values
        offsets = np.arange(1, v.size)
        kernel = periodized_kernel(spec, f.length, f.dx * offsets)
        acc = 0.0
        for j, k in zip(offsets, kernel):
            diff = v - np.roll(v, -int(j))
            acc += k * float(diff @ diff)
        numerator = cyl_curvature(p) * f.dx * float(v @ v) + 0.5 * f.dx**2 * acc
        expected = numerator / _critical_mass(p, f)
        assert kernel_functional_FL(spec, f) == pytest.approx(expected, rel=1e-12)


class TestTowerLimit:
    def test_limit_amplitude_matches_closed_form(self):
        # the peak is the closed form (Q_s / c_(n,s))^(1/(q-1)),
        # which is pi/2 exactly for n = 3, s = 1/2
        assert limit_amplitude(FracParams(3, 0.5)) == pytest.approx(
            math.pi / 2.0, rel=1e-12
        )

    def test_limit_amplitude_without_overflow(self):
        # n = 2, s near 1: the limit bump decays slowly, like cosh(t)^(-0.015);
        # references from mpmath at 40 digits
        assert limit_amplitude(FracParams(2, 0.985)) == pytest.approx(
            1.0325388992180802, rel=1e-12
        )
        assert limit_amplitude(FracParams(2, 0.99)) == pytest.approx(
            1.0235507338945225, rel=1e-12
        )

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_cylinder_operator_maps_limit_profile_to_sphere_bubble(self, n):
        # the limit profile is the round-sphere bubble in t = -log r, so L
        # takes cosh(t)^(-d) to Q_s cosh(t)^(-d q), Q_s the sphere curvature
        for s in (0.1, 0.3, 0.5, 0.7, 0.9):
            p = FracParams(n, s)
            d = 0.5 * (n - 2.0 * s)
            period = max(60.0, 24.0 / d)
            grid = GridFunction(period, np.ones(4096))
            t = grid.x
            shape = np.cosh(t) ** -d
            applied = apply_Ls_periodic(p, GridFunction(period, shape)).values
            window = np.abs(t) <= 3.0
            expected = sphere_curvature(p) * shape[window] ** p.q
            gap = np.max(np.abs(applied[window] - expected))
            assert gap < 1e-8 * sphere_curvature(p), (n, s, gap)

    def test_tower_start_at_n2_with_s_near_one(self):
        # the tower start at n = 2, s near 1 needs the limit amplitude
        p = FracParams(2, 0.9896)
        sol = solve_delaunay(p, 4.5385 * bifurcation_period(p))
        assert sol.residual_norm < 1e-10
        assert sol.nonconstant

    def test_defect_decreases_along_branch(self):
        p = FracParams(3, 0.5)
        defects = []
        for mult in (2.0, 3.0, 4.0):
            sol = solve_delaunay(p, mult * PERIOD_THRESHOLD_3_HALF)
            defects.append(bubble_tower_defect(sol))
        assert defects[0] > defects[1] > defects[2]
        assert defects[2] < 1e-6

    def test_peak_approaches_limit_amplitude(self):
        p = FracParams(3, 0.5)
        sol = solve_delaunay(p, 2.0 * PERIOD_THRESHOLD_3_HALF)
        assert sol.values.max() == pytest.approx(limit_amplitude(p), rel=0.05)

    def test_large_period_profile_matches_limit_shape(self):
        p = FracParams(3, 0.5)
        sol = solve_delaunay(p, 24.0, size=1024)
        t = sol.grid().x
        window = np.abs(t) <= 3.0
        ratio = sol.values[window] / asymptotic_profile(p, t[window])
        assert ratio.max() - ratio.min() < 1e-6
        assert ratio.mean() == pytest.approx(1.0, abs=1e-6)


class TestBranchContinuation:
    def test_stays_on_bump_branch(self):
        # at 2 L0 mode 2 sits at the bifurcation frequency, and a warm start
        # can fall onto a near-constant profile; the retry from the tower
        # must catch it, so every profile keeps a bump of height above 1
        p = FracParams(3, 0.5)
        base = PERIOD_THRESHOLD_3_HALF
        sols = continue_branch(p, [m * base for m in (1.2, 2.0, 3.0, 4.0)], size=512)
        for sol in sols:
            assert sol.values.max() - sol.values.min() > 1.0

    def test_stalled_warm_start_retries_from_auto(self):
        # the warm start from 1.2 L0 stalls in Newton at 2 L0, where mode 2
        # sits at the bifurcation frequency; "auto" solves there directly
        for n, s in ((3, 0.85), (3, 0.9), (5, 0.85), (2, 0.9)):
            p = FracParams(n, s)
            period0 = bifurcation_period(p)
            sols = continue_branch(p, [1.2 * period0, 2.0 * period0], size=512)
            assert [sol.nonconstant for sol in sols] == [True, True], (n, s)

    def test_peaks_grow_and_energy_beats_constant(self):
        p = FracParams(3, 0.5)
        base = PERIOD_THRESHOLD_3_HALF
        ladder = [1.1 * base, 1.5 * base, 2.0 * base, 3.0 * base]
        sols = continue_branch(p, ladder)
        peaks = [s.values.max() for s in sols]
        assert all(s.nonconstant for s in sols)
        assert peaks == sorted(peaks)
        for sol in sols:
            const = GridFunction(sol.period, np.ones(sol.values.size))
            assert sol.energy < functional_FL(p, const)


@settings(max_examples=8, deadline=None, derandomize=True)
@given(
    n=st.sampled_from([3, 4]),
    s=st.floats(0.3, 0.7),
)
def test_bump_branch_exists_above_threshold(n, s):
    p = FracParams(n, s)
    period = 1.5 * bifurcation_period(p)
    sol = solve_delaunay(p, period, size=128)
    assert sol.nonconstant
    assert sol.residual_norm < 1e-11
    assert sol.values.min() > 0.0
    assert sol.values.max() < limit_amplitude(p) * 1.001
