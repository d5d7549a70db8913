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
    asymptotic_profile,
    bifurcation_period,
    bubble_tower_defect,
    continue_branch,
    delaunay_residual,
    functional_FL,
    kernel_functional_FL,
    limit_amplitude,
    solve_delaunay,
    _apply_symbol,
    _auto_starts,
    _branch_expansion,
    _coarse_inverse,
    _cosine_lift,
    _critical_mass,
    _even,
    _gmres,
    _krylov_step,
    _newton,
    _symbol_table,
    _tower_table,
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
        applied = _apply_symbol(f.values, _symbol_table(p, f.length, f.size))
        expected = cyl_symbol(p, 0, 4.0 * math.pi / period) * f.values
        assert np.max(np.abs(applied - expected)) < 1e-12

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
        theta = _symbol_table(p, period, 32)
        left = _apply_symbol(a + scale * b, theta)
        right = _apply_symbol(a, theta) + scale * _apply_symbol(b, theta)
        assert np.max(np.abs(left - right)) < 1e-10 * (1.0 + scale)


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
        [
            (2, 0.7942, 1.5016), (2, 0.8871, 1.6262), (2, 0.937, 1.073), (2, 0.965, 1.080),
            (2, 0.85, 1.9), (2, 0.9, 1.8), (2, 0.9777, 1.820), (2, 0.9866, 1.856),
        ],
    )
    def test_former_tower_start_failures_reach_the_bump(self, n, s, ratio):
        # from the tower these points stalled, diverged or landed on the
        # constant depending on round-off; the seed ends on the bump, as the
        # only start near L0 and, past its reach in q eps (the last four),
        # as the start tried after the tower
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
        with pytest.raises(ParameterError, match="power of two"):
            solve_delaunay(FracParams(3, 0.5), 6.0, size=100)

    def test_rejects_tol_above_certificate_cap(self):
        # DelaunaySolution certifies residuals below 1e-10, so a looser tol
        # is refused before the solve rather than after it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="tol 0.001 exceeds .* cap 1.0e-10"):
                solve_delaunay(FracParams(3, 0.5), 6.2, size=16, tol=1e-3)

    def test_divergence_reports_last_residual(self, monkeypatch):
        # 1.2 L0 is within the seed's reach, so the seed is the only start
        monkeypatch.setattr(delaunay, "_NEWTON_STEPS", 1)
        with pytest.raises(NewtonDivergenceError) as info:
            solve_delaunay(FracParams(3, 0.5), 1.2 * PERIOD_THRESHOLD_3_HALF)
        assert info.value.last_residual is not None
        assert info.value.last_residual > 0.0
        assert info.value.newton_steps == 1
        assert info.value.krylov_steps >= 1

    def test_divergence_counts_every_start(self, monkeypatch):
        # at (2, 0.9, 2 L0) the tower start fails, then the seed: the error
        # carries the steps of both, one Newton step each
        monkeypatch.setattr(delaunay, "_NEWTON_STEPS", 1)
        p = FracParams(2, 0.9)
        with pytest.raises(NewtonDivergenceError) as info:
            solve_delaunay(p, 2.0 * bifurcation_period(p))
        assert info.value.newton_steps == 2
        assert info.value.krylov_steps >= 2

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

    def test_two_level_step_takes_few_krylov_steps(self):
        # 1/theta alone left GMRES about 9 steps per Newton step here (4
        # Newton, 37 Krylov); the coarse block resolves the low modes
        sol = solve_delaunay(FracParams(3, 0.5), 1.3 * PERIOD_THRESHOLD_3_HALF, size=512)
        assert sol.nonconstant
        assert 1 <= sol.newton_steps
        assert sol.krylov_steps <= 2 * sol.newton_steps

    @pytest.mark.parametrize(
        "s, ratio, krylov_cap",
        [
            (0.9895676889732803, 4.53854190425027, None),
            (0.9881651716615538, 5.174122691185946, None),
            (0.9628582364662658, 1.655511978837582, 400),
        ],
    )
    def test_coarse_block_waits_for_a_small_residual(self, s, ratio, krylov_cap):
        # benchmark sweep draws at n = 2 from seeds 1, 6 and 7, solved from
        # the tower: with the coarse block from the first Newton step, where
        # the residual reaches 7.5e9, the first two stall in the line search
        # and the third takes about 14000 Krylov steps
        p = FracParams(2, s)
        sol = solve_delaunay(p, ratio * bifurcation_period(p), size=512)
        assert sol.nonconstant
        assert sol.residual_norm < 1e-10
        if krylov_cap is not None:
            assert sol.krylov_steps <= krylov_cap

    def test_one_symbol_table_per_grid(self, monkeypatch):
        # the solve, its energy and a residual check on its grid read one table
        calls = []

        def counting_symbol(p, m, xi):
            calls.append(np.ndim(xi))
            return cyl_symbol(p, m, xi)

        monkeypatch.setattr(delaunay, "cyl_symbol", counting_symbol)
        _symbol_table.cache_clear()
        p = FracParams(3, 0.5)
        sol = solve_delaunay(p, 1.3 * PERIOD_THRESHOLD_3_HALF, size=256)
        grid = sol.grid()
        assert functional_FL(p, grid) == sol.energy
        delaunay_residual(p, grid)
        assert sum(1 for ndim in calls if ndim) == 1
        table = _symbol_table(p, grid.length, grid.size)
        assert np.array_equal(table, cyl_symbol(p, 0, grid.frequencies))
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 0.0

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
                newton_steps=0,
                krylov_steps=0,
                start="constant",
            )


class TestNewton:
    """``solve_delaunay`` is its start policy over one ``_newton`` per start."""

    @staticmethod
    def _tries(p, period, size=512):
        # each start of _auto_starts through _newton, up to the first that
        # converges, as solve_delaunay runs them on these points
        theta = _symbol_table(p, period, size)
        tries = []
        unstable = theta[1] < cyl_curvature(p) * p.q
        for w, start in _auto_starts(p, period, unstable, size):
            tries.append((*_newton(p, theta, w, 1e-11), start))
            if tries[-1][2] is None:
                break
        return tries

    @pytest.mark.parametrize(
        "n, s, ratio, starts",
        [
            (3, 0.5, 0.8, ["constant"]),
            (3, 0.5, 1.2, ["seed"]),
            (3, 0.5, 3.0, ["tower"]),
            # the tower try spends its 60 Newton steps and fails, then the seed solves
            (2, 0.99, 2.0, ["tower", "seed"]),
        ],
    )
    def test_starts_through_newton_reproduce_the_solve(self, n, s, ratio, starts):
        p = FracParams(n, s)
        period = ratio * bifurcation_period(p)
        sol = solve_delaunay(p, period)
        tries = self._tries(p, period)
        assert [start for *_, start in tries] == starts
        assert all(failure for _, _, failure, _, _, _ in tries[:-1])
        w, norm, failure, _, _, start = tries[-1]
        assert failure is None and start == sol.start
        assert sum(steps for _, _, _, steps, _, _ in tries) == sol.newton_steps
        assert sum(steps for _, _, _, _, steps, _ in tries) == sol.krylov_steps
        assert norm == sol.residual_norm
        # the driver puts the peak at x = 0, the middle node
        v = _even(w)
        assert np.array_equal(sol.values, v) or np.array_equal(sol.values, np.roll(v, 256))

    @pytest.mark.parametrize("size", [512, 2048])
    def test_tower_start_is_the_tower_on_the_half_grid(self, size):
        p = FracParams(3, 0.5)
        period = 3.0 * PERIOD_THRESHOLD_3_HALF
        dx = GridFunction(period, np.ones(size)).dx
        [(w, start)] = _auto_starts(p, period, True, size)
        assert start == "tower"
        assert np.array_equal(w, _tower_values(p, period, dx * np.arange(size // 2 + 1)))
        assert not w.flags.writeable

    def test_tower_then_seed_counts(self):
        p = FracParams(2, 0.99)
        tries = self._tries(p, 2.0 * bifurcation_period(p))
        assert [steps for _, _, _, steps, _, _ in tries] == [60, 9]

    @pytest.mark.parametrize(
        "n, s, ratio", [(3, 0.5, 0.8), (3, 0.5, 1.2), (3, 0.5, 3.0), (2, 0.99, 2.0)]
    )
    def test_converged_start_takes_no_step(self, n, s, ratio):
        p = FracParams(n, s)
        period = ratio * bifurcation_period(p)
        v = solve_delaunay(p, period).values
        theta = _symbol_table(p, period, v.size)
        # v is even about both x = 0 and x = L/2: either half grid samples it
        for half in (v[: v.size // 2 + 1], np.roll(v, v.size // 2)[: v.size // 2 + 1]):
            w, norm, failure, newton_steps, krylov_steps = _newton(p, theta, half, 1e-11)
            assert failure is None
            assert (newton_steps, krylov_steps) == (0, 0)
            assert norm < 1e-10
            assert w is half


class TestBranchAmplitude:
    """The Lyapunov-Schmidt expansion at L0 against the solved branch."""

    @pytest.mark.parametrize("n, s", [(3, 0.5), (2, 0.3), (5, 0.9), (4, 0.1), (2, 0.9)])
    def test_matches_solved_half_spread(self, n, s):
        # the half spread of the profile is eps + O(eps^2); measured worst
        # 0.72 eps^2, at (2, 0.9, 1.05 L0)
        p = FracParams(n, s)
        period0 = bifurcation_period(p)
        for ratio in (1.005, 1.02, 1.05):
            eps = math.sqrt(_branch_expansion(p, ratio * period0)[0])
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
            eps2, a2 = _branch_expansion(p, 1.1 * bifurcation_period(p))
            drifts.append(-0.25 * p.q + 0.5 * a2 + 0.125 * (p.q - 2.0))
            assert eps2 > 0.0
        assert max(drifts) < 0.0


def _unpreconditioned(apply):
    """A ``_gmres`` matvec for P = I: it returns A z and z itself."""
    return lambda z: (apply(z), z)


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
        x, count = _gmres(_unpreconditioned(np.zeros_like), np.ones(7), 1e-10, 0.0, 10)
        assert count == 0
        assert np.array_equal(x, np.zeros(7))

    def test_identity_breaks_down_after_one_step(self):
        # A v = v leaves nothing to orthogonalize: |w| = 0 ends the basis;
        # the matvec returns its argument twice, which must not be
        # overwritten, and the step is a new array, not one of them
        b = np.random.default_rng(1).standard_normal(40)
        outputs = []

        def matvec(y):
            outputs.append(y)
            return y, y

        x, count = _gmres(matvec, b, 1e-14, 0.0, 10)
        assert count == 1
        assert np.max(np.abs(x - b)) < 1e-14
        assert not any(np.shares_memory(x, out) for out in outputs)

    def test_random_nonsymmetric_system_matches_dense_solve(self):
        size = 300
        rng = np.random.default_rng(0)
        matrix = np.eye(size) + 0.5 * rng.standard_normal((size, size)) / math.sqrt(size)
        b = rng.standard_normal(size)
        x, count = _gmres(_unpreconditioned(lambda y: matrix @ y), b, 1e-14, 0.0, size)
        assert count < size
        assert np.max(np.abs(x - np.linalg.solve(matrix, b))) < 1e-10

    def test_stagnation_stops_at_step_cap(self):
        # the cyclic shift maps the Krylov space of e_0 orthogonal to e_0, so
        # no iterate beats x = 0 before step n; the cap ends the solve
        size, cap = 50, 20
        b = np.zeros(size)
        b[0] = 1.0
        x, count = _gmres(_unpreconditioned(lambda y: np.roll(y, 1)), b, 1e-10, 0.0, cap)
        assert count == cap
        assert np.all(np.isfinite(x))
        assert np.linalg.norm(b - np.roll(x, 1)) <= np.linalg.norm(b) + 1e-14

    @pytest.mark.parametrize("cap", [1, 8, 9, 17, 40])
    def test_basis_grows_to_any_step_cap(self, cap):
        # the Arnoldi basis starts at 9 rows and doubles; a cap on either
        # side of each doubling takes every step it allows
        b = np.zeros(50)
        b[0] = 1.0
        x, count = _gmres(_unpreconditioned(lambda y: np.roll(y, 1)), b, 1e-10, 0.0, cap)
        assert count == cap
        assert np.all(np.isfinite(x))


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
        return operator - np.diag(self.slope(w))

    def gated_profile(self, above):
        # three times the tower puts |res|_inf above the coarse gate; one
        # dense Newton step from the tower puts it below
        if above:
            w = 3.0 * self.start
        else:
            w = self.start + np.linalg.solve(
                self.dense_jacobian(self.start), -self.residual(self.start)
            )
        norm = np.max(np.abs(self.residual(w)))
        assert (norm > delaunay._COARSE_GATE) if above else (1e-8 < norm <= delaunay._COARSE_GATE)
        return w

    def slope(self, w):
        return cyl_curvature(self.p) * self.p.q * w ** (self.p.q - 1.0)

    def test_one_step_matches_dense_solve(self):
        w = self.start
        res = self.residual(w)
        step, count = _krylov_step(self.theta, self.slope(w), res, 1e-11)
        dense = np.linalg.solve(self.dense_jacobian(w), -res)
        assert count >= 1
        assert np.max(np.abs(step - dense)) < 1e-9

    def test_far_start_step_matches_dense_solve(self):
        # above the gate the step is preconditioned by 1/theta alone, to
        # GMRES's relative 1e-7
        w = self.gated_profile(above=True)
        res = self.residual(w)
        step, count = _krylov_step(self.theta, self.slope(w), res, 1e-11)
        dense = np.linalg.solve(self.dense_jacobian(w), -res)
        assert count >= 1
        assert np.max(np.abs(step - dense)) < 1e-6 * np.max(np.abs(dense))

    def test_coarse_step_matches_dense_solve(self, monkeypatch):
        # below the gate, near the branch, the two-level step must build its
        # coarse block and agree with LU
        w = self.gated_profile(above=False)
        res = self.residual(w)
        blocks = []

        def recording_inverse(theta, slope, size):
            blocks.append(_coarse_inverse(theta, slope, size))
            return blocks[-1]

        monkeypatch.setattr(delaunay, "_coarse_inverse", recording_inverse)
        step, count = _krylov_step(self.theta, self.slope(w), res, 1e-11)
        dense = np.linalg.solve(self.dense_jacobian(w), -res)
        assert len(blocks) == 1 and blocks[0] is not None
        assert 1 <= count <= 2
        assert np.max(np.abs(step - dense)) < 1e-9

    @pytest.mark.parametrize("above", [True, False])
    def test_flexible_step_matches_one_last_preconditioning(self, above, monkeypatch):
        # the step assembled from the kept P^(-1) v_k against the route that
        # applies P^(-1) once more, to V y, after GMRES
        w = self.gated_profile(above)
        gmres, dtrtrs = delaunay._gmres, delaunay.dtrtrs
        matvecs, vectors, solutions = [], [], []

        def recording_gmres(matvec, *args):
            matvecs.append(matvec)
            return gmres(lambda z: vectors.append(z.copy()) or matvec(z), *args)

        def recording_dtrtrs(*args):
            solutions.append(dtrtrs(*args))
            return solutions[-1]

        monkeypatch.setattr(delaunay, "_gmres", recording_gmres)
        monkeypatch.setattr(delaunay, "dtrtrs", recording_dtrtrs)
        step, count = _krylov_step(self.theta, self.slope(w), self.residual(w), 1e-11)
        y = solutions[0][0]
        assert len(matvecs) == len(solutions) == 1 and y.size == count >= 1
        route = matvecs[0](y @ np.array(vectors[:count]))[1]
        assert np.max(np.abs(step - route)) <= 1e-12 * np.max(np.abs(route))

    @pytest.mark.parametrize("above", [True, False])
    def test_transforms_per_krylov_step(self, above, monkeypatch):
        # two transforms per Krylov step, plus the slope's rfft for the
        # coarse block below the gate, and none after GMRES
        w = self.gated_profile(above)
        slope, res = self.slope(w), self.residual(w)
        rfft, irfft = np.fft.rfft, np.fft.irfft
        calls = []
        monkeypatch.setattr(np.fft, "rfft", lambda *a, **k: calls.append(1) or rfft(*a, **k))
        monkeypatch.setattr(np.fft, "irfft", lambda *a, **k: calls.append(1) or irfft(*a, **k))
        step, count = _krylov_step(self.theta, slope, res, 1e-11)
        assert count >= 1
        assert len(calls) == 2 * count + (0 if above else 1)

    def test_coarse_block_is_galerkin_block_of_dense_jacobian(self):
        # the dense Jacobian on each low cosine mode, read back on the low
        # modes; at N = 64 the K = 32 modes reach a + b > N/2
        w = self.start
        slope = self.slope(w)
        modes = min(delaunay._COARSE_MODES, self.SIZE // 2)
        lift = _cosine_lift(self.SIZE, modes)
        galerkin = np.fft.rfft(_even(self.dense_jacobian(w) @ lift).T).real.T[:modes]
        inverse = _coarse_inverse(self.theta, slope, self.SIZE)
        assert inverse.shape == (modes, modes)
        assert np.max(np.abs(inverse @ galerkin - np.eye(modes))) < 1e-10

    def test_cosine_lift_columns_are_unit_modes(self):
        modes = min(delaunay._COARSE_MODES, self.SIZE // 2)
        lift = _cosine_lift(self.SIZE, modes)
        unit = np.eye(self.SIZE // 2 + 1)[:modes]
        expected = np.fft.irfft(unit, self.SIZE)[:, : self.SIZE // 2 + 1].T
        assert np.max(np.abs(lift - expected)) < 1e-15
        assert not lift.flags.writeable

    @pytest.mark.parametrize("size", [8, 512, 2048])
    def test_cosine_lift_matches_the_cosine_formula(self, size):
        # the N-entry cosine table read at (j k) mod N has the bits of cos
        # taken at each reduced argument
        modes = min(delaunay._COARSE_MODES, size // 2)
        nodes = np.outer(np.arange(size // 2 + 1), np.arange(modes)) % size
        weights = np.where(np.arange(modes), 2.0, 1.0) / size
        expected = np.cos(2.0 * math.pi / size * nodes) * weights
        assert np.array_equal(_cosine_lift(size, modes), expected)

    def test_singular_coarse_block_is_refused(self):
        # theta_0 = 0 and no slope: the block is diag(theta) with a zero;
        # None sends _krylov_step to the plain 1/theta step
        theta = np.arange(self.SIZE // 2 + 1, dtype=float)
        assert _coarse_inverse(theta, np.zeros(self.SIZE // 2 + 1), self.SIZE) is None

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


class TestKrylovAgainstDenseFine(TestKrylovAgainstDense):
    """The same oracle at N = 128, where K = 32 stays below N/2, so the coarse
    block and 1/theta each act on their own modes."""

    SIZE = 128


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

    @pytest.mark.parametrize("size", [8, 64, 2048])
    def test_kernel_route_fold_matches_the_full_sum(self, size):
        # the half-period fold against the kernel on all N - 1 offsets, on
        # random data even about no point
        rng = np.random.default_rng(size)
        for p in (FracParams(3, 0.5), FracParams(2, 0.3)):
            spec = calibrate_kernel(p)
            f = GridFunction(7.25, rng.uniform(0.5, 1.5, size))
            v, h = f.values, f.dx
            kernel = periodized_kernel(spec, f.length, h * np.arange(1, size))
            autocorr = np.fft.irfft(np.abs(np.fft.rfft(v)) ** 2, size)
            acc = 2.0 * float(kernel @ (float(v @ v) - autocorr[1:]))
            numerator = cyl_curvature(p) * h * float(v @ v) + 0.5 * h * h * acc
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
            applied = _apply_symbol(shape, _symbol_table(p, period, shape.size))
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

    @pytest.mark.parametrize("ratio", [1.2, 2.0, 3.0])
    def test_defect_matches_full_grid_tower(self, ratio):
        # the half-period table mirrored onto the centred grid against the
        # tower summed at every node
        p = FracParams(3, 0.5)
        sol = solve_delaunay(p, ratio * PERIOD_THRESHOLD_3_HALF, size=1024)
        grid = sol.grid()
        tower = _tower_values(p, sol.period, grid.x)
        expected = math.sqrt(grid.dx * float(np.sum((sol.values - tower) ** 2)))
        assert bubble_tower_defect(sol) == pytest.approx(expected, rel=1e-12)

    def test_solve_and_defect_share_one_tower(self, monkeypatch):
        calls = []

        def counting_tower(p, period, t):
            calls.append(t.size)
            return _tower_values(p, period, t)

        monkeypatch.setattr(delaunay, "_tower_values", counting_tower)
        _tower_table.cache_clear()
        p = FracParams(3, 0.5)
        sol = solve_delaunay(p, 3.0 * PERIOD_THRESHOLD_3_HALF, size=256)
        assert sol.start == "tower"
        bubble_tower_defect(sol)
        assert calls == [129]

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
        # at 2 L0 mode 2 sits at the bifurcation frequency, and a start
        # stretched from the 1.2 L0 profile falls onto a near-constant
        # profile there; every profile must keep a bump of height above 1
        p = FracParams(3, 0.5)
        base = PERIOD_THRESHOLD_3_HALF
        sols = continue_branch(p, [m * base for m in (1.2, 2.0, 3.0, 4.0)], size=512)
        for sol in sols:
            assert sol.values.max() - sol.values.min() > 1.0

    def test_reaches_the_bump_where_mode_two_bifurcates(self):
        # at 2 L0 mode 2 sits at the bifurcation frequency; a start
        # stretched from the 1.2 L0 profile stalls in Newton there
        for n, s in ((3, 0.85), (3, 0.9), (5, 0.85), (2, 0.9)):
            p = FracParams(n, s)
            period0 = bifurcation_period(p)
            sols = continue_branch(p, [1.2 * period0, 2.0 * period0], size=512)
            assert [sol.nonconstant for sol in sols] == [True, True], (n, s)

    def test_equals_one_period_at_a_time(self):
        p = FracParams(3, 0.5)
        periods = [m * PERIOD_THRESHOLD_3_HALF for m in (1.2, 2.0, 3.0, 4.0)]
        for sol, period in zip(continue_branch(p, periods), periods):
            alone = solve_delaunay(p, period)
            assert np.array_equal(sol.values, alone.values)
            assert (sol.newton_steps, sol.krylov_steps, sol.start) == (
                alone.newton_steps, alone.krylov_steps, alone.start
            )

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
