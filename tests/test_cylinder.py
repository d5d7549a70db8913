"""Cylinder tests: symbol values, kernel profile, closed-form normalization
and its duality with the symbol."""

import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from conflap.errors import NonConvergenceError, ParameterError, SingularityError
from conflap.params import FracParams
from conflap.cylinder import (
    _difference_table,
    KERNEL_MULTIPLIER_XI_MAX,
    calibrate_kernel,
    cyl_curvature,
    cyl_kernel,
    cyl_mode_parameter,
    cyl_symbol,
    kernel_base,
    kernel_multiplier,
    periodized_kernel,
    theta0,
)
from conflap.sphere import (
    _legendre_vandermonde,
    calibrate_sphere_kernel,
    frac_lap_constant,
    singular_integral_apply,
    vol_sphere,
)

# ((n, s, m, xi), Theta^m_s(xi)), mpmath mp.dps=40
SYMBOL_TABLE = [
    ((3, 0.5, 0, 1.0), "1.09033141072736823"),
    ((3, 0.5, 0, 0.25), "0.66901312243572817558"),
    ((3, 0.3, 0, 2.0), "1.5139692577644629092"),
    ((4, 0.7, 0, 1.5), "2.2622839438954225948"),
    ((3, 0.5, 2, 1.0), "2.7258285268184205751"),
    ((5, 0.9, 1, 3.0), "11.60639392126645888"),
    ((2, 0.4, 0, 1.0), "0.88667471758226147569"),
    ((3, 0.5, 0, 100.0), "100.0"),
    ((4, 1.3, 3, 0.5), "36.850164736745501513"),
]

# ((n, s), c_{n,s}), mpmath
CURVATURE_TABLE = [
    ((3, 0.5), "0.63661977236758134308"),
    ((3, 0.3), "0.78049501316231228724"),
    ((4, 0.7), "1.0928837908161884806"),
    ((2, 0.4), "0.32780257669761265995"),
]

# ((n, s, h), unnormalized kernel profile), mpmath
KERNEL_TABLE = [
    ((3, 0.5, 0.01), "9999.6666733332270984"),
    ((3, 0.5, 1.0), "0.72406166096631046641"),
    ((3, 0.3, 2.0), "0.097930863384988141634"),
    ((4, 0.7, 0.5), "4.8639953032774093453"),
    ((2, 0.4, 3.0), "0.039766515331785479864"),
    ((5, 0.25, 1.2), "0.28284370700472814189"),
    ((3, 0.5, 25.0), "7.7149993918556711321e-22"),
]


def test_mode_parameter_collapses():
    # m + n/2 - 1 = sqrt((n/2-1)^2 + m(m+n-2)), the latter in Python ints, also
    # for numpy integer degrees whose own type would wrap m(m+n-2)
    degrees = [*range(0, 60, 7), np.uint8(200), np.int64(2**40)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in range(2, 9):
            for m in degrees:
                root = math.sqrt((0.5 * n - 1.0) ** 2 + int(m) * (int(m) + n - 2))
                got = cyl_mode_parameter(n, m)
                assert math.isclose(got, root, rel_tol=1e-14, abs_tol=1e-14)
        p = FracParams(3, 0.5)
        assert cyl_symbol(p, np.uint8(200), 1.0) == cyl_symbol(p, 200, 1.0)


def test_symbol_table():
    for (n, s, m, xi), ref in SYMBOL_TABLE:
        v = cyl_symbol(FracParams(n, s), m, xi)
        assert math.isclose(v, float(ref), rel_tol=1e-12), (n, s, m, xi)


def test_symbol_even_and_positive():
    p = FracParams(3, 0.5)
    xi = np.linspace(-8.0, 8.0, 33)
    vals = cyl_symbol(p, 0, xi)
    assert np.all(vals > 0.0)
    assert np.allclose(vals, vals[::-1], rtol=1e-14)


def test_symbol_vectorized_matches_scalar():
    p = FracParams(4, 0.7)
    xi = np.array([0.0, 0.5, 2.0, 40.0])
    vec = cyl_symbol(p, 1, xi)
    scal = [cyl_symbol(p, 1, float(x)) for x in xi]
    assert np.allclose(vec, scal, rtol=1e-14)


def test_symbol_closed_form_half():
    # (n, s) = (3, 1/2): Theta0(xi) = xi coth(pi xi / 2)
    p = FracParams(3, 0.5)
    for xi in (0.05, 0.25, 1.0, 4.0, 30.0):
        lhs = theta0(p, xi)
        rhs = xi / math.tanh(math.pi * xi / 2.0)
        assert math.isclose(lhs, rhs, rel_tol=1e-12), xi


def test_symbol_monotone_on_zero_mode():
    p = FracParams(3, 0.3)
    xi = np.linspace(0.0, 20.0, 81)
    vals = theta0(p, xi)
    assert np.all(np.diff(vals) > 0.0)


def test_symbol_high_frequency_power_law():
    for n in (3, 4):
        for s in (0.3, 0.5, 0.7):
            p = FracParams(n, s)
            ratio = theta0(p, 100.0) / 100.0 ** (2.0 * s)
            assert 0.95 <= ratio <= 1.05, (n, s, ratio)


def test_curvature_table():
    for (n, s), ref in CURVATURE_TABLE:
        v = cyl_curvature(FracParams(n, s))
        assert math.isclose(v, float(ref), rel_tol=1e-13), (n, s)


def test_curvature_is_zero_frequency():
    for (n, s), _ in CURVATURE_TABLE:
        p = FracParams(n, s)
        assert math.isclose(cyl_curvature(p), theta0(p, 0.0), rel_tol=1e-12)


def test_symbol_rejects_bad_params():
    with pytest.raises(ParameterError):
        cyl_symbol(FracParams(1, 0.3), 0, 1.0)
    with pytest.raises(ParameterError):
        cyl_symbol(FracParams(3, 1.5), 0, 1.0)
    with pytest.raises(ParameterError):
        cyl_symbol(FracParams(3, 0.5), -1, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for xi in (math.inf, -math.inf, math.nan, np.array([1.0, math.nan])):
            with pytest.raises(ParameterError, match="xi"):
                cyl_symbol(FracParams(3, 0.5), 0, xi)


def test_kernel_profile_table():
    for (n, s, h), ref in KERNEL_TABLE:
        v = kernel_base(FracParams(n, s), h)
        assert math.isclose(v, float(ref), rel_tol=1e-10), (n, s, h)


def test_kernel_profile_monotone():
    p = FracParams(3, 0.3)
    h = np.linspace(0.05, 10.0, 200)
    vals = np.array([kernel_base(p, float(x)) for x in h])
    assert np.all(vals > 0.0)
    assert np.all(np.diff(vals) < 0.0)


def test_kernel_small_separation_power():
    # log K ~ -(1+2s) log h as h -> 0
    for n, s in [(3, 0.5), (4, 0.7), (2, 0.3)]:
        p = FracParams(n, s)
        h1, h2 = 1e-4, 2e-4
        slope = (math.log(kernel_base(p, h2)) - math.log(kernel_base(p, h1))) / math.log(2.0)
        assert abs(slope + 1.0 + 2.0 * s) < 0.01 * (1.0 + 2.0 * s), (n, s, slope)


def test_kernel_large_separation_decay():
    # log K ~ log(2^(s+n/2)) - (n+2s)/2 h as h -> infinity
    for n, s in [(3, 0.5), (4, 0.7)]:
        p = FracParams(n, s)
        lam = 0.5 * (n + 2.0 * s)
        ratio = kernel_base(p, 20.0) / kernel_base(p, 25.0)
        assert math.isclose(math.log(ratio), 5.0 * lam, rel_tol=1e-8)
        amp = kernel_base(p, 30.0) * math.exp(lam * 30.0)
        assert math.isclose(amp, 2.0 ** (s + 0.5 * n), rel_tol=1e-8)
        # out to h = 1e308, where -2h and the log-profile overflow to -inf,
        # the profile is 0 without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert kernel_base(p, 1e308) == 0.0
            table = kernel_base(p, np.array([1.7e308, 1e200, 30.0]))
            assert np.array_equal(table, [0.0, 0.0, kernel_base(p, 30.0)])


def test_calibration_and_duality():
    # s = 1/2 with n != 3 puts c-a-b of the kernel's 2F1 on an integer
    for n, s in [(3, 0.5), (3, 0.3), (4, 0.7), (2, 0.5), (4, 0.5), (5, 0.5)]:
        p = FracParams(n, s)
        spec = calibrate_kernel(p)
        assert spec.calibration["residual"] < 1e-10
        for xi in (0.3, 0.9, 1.7, 3.5, 6.0):
            lhs = kernel_multiplier(spec, xi)
            rhs = theta0(p, xi)
            assert abs(lhs - rhs) / rhs < 1e-8, (n, s, xi)


def test_normalization_is_closed_form():
    # C_(n,s) |S^(n-1)| 2^(-(n+2s)/2) is 1/pi at (3, 1/2)
    assert abs(calibrate_kernel(FracParams(3, 0.5)).normalization - 1.0 / math.pi) < 1e-10
    for n in (2, 3, 4, 5):
        for s in (0.005, 0.5, 0.995):
            p = FracParams(n, s)
            spec = calibrate_kernel(p)
            assert spec.normalization == (
                frac_lap_constant(p) * vol_sphere(n - 1) * 2.0 ** (-p.sigma)
            )
            # xi = 1 is checked, not fitted: the closed form must land there
            assert abs(kernel_multiplier(spec, 1.0) / theta0(p, 1.0) - 1.0) < 1e-9
            record = spec.calibration
            assert record["check_xi"] == [1.0, 2.0]
            assert record["residual"] == max(record["residuals"])


@pytest.mark.parametrize("n, s", [(3, 0.5), (2, 0.3), (5, 0.9), (4, 0.1), (3, 1.0)])
def test_first_mode_symbol_continued_to_translation_root(n, s):
    # Theta^1_s(-i lam) = 2^(2s) G(A + lam/2) G(A - lam/2) / (G(B + lam/2) G(B - lam/2))
    # with A, B = (1 +- s + beta_1)/2, and lam = 1 (the translation of the
    # singular solution) gives c_(n,s) q exactly
    p = FracParams(n, s)
    beta = cyl_mode_parameter(n, 1)
    a, b = 0.5 * (1.0 + s + beta), 0.5 * (1.0 - s + beta)
    continued = 2.0 ** (2.0 * s) * (
        math.gamma(a + 0.5) * math.gamma(a - 0.5)
        / (math.gamma(b + 0.5) * math.gamma(b - 0.5))
    )
    assert continued == pytest.approx(cyl_curvature(p) * p.q, rel=1e-13)


def test_calibration_rejects_integer_s():
    with pytest.raises(ParameterError):
        calibrate_kernel(FracParams(3, 1.0))
    with pytest.raises(ParameterError):
        calibrate_kernel(FracParams(1, 0.5))


def test_kernel_multiplier_frequency_bound():
    # the inner Jacobi rule resolves the oscillation up to the bound, so the
    # quadrature still meets the duality target there, and refuses past it
    spec = calibrate_kernel(FracParams(3, 0.3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for xi in (float("nan"), float("inf"), -float("inf"), 200.5, -1e6):
            with pytest.raises(ParameterError, match="xi"):
                kernel_multiplier(spec, xi)
        for xi in (KERNEL_MULTIPLIER_XI_MAX, -KERNEL_MULTIPLIER_XI_MAX):
            rhs = theta0(spec.params, xi)
            assert abs(kernel_multiplier(spec, xi) - rhs) < 1e-6 * rhs


def test_cyl_kernel_even_and_singular():
    spec = calibrate_kernel(FracParams(3, 0.5))
    assert cyl_kernel(spec, 1.3) == cyl_kernel(spec, -1.3)
    assert isinstance(cyl_kernel(spec, 1.3), float)
    table = cyl_kernel(spec, np.array([1.0, -2.0]))
    assert np.array_equal(table, [cyl_kernel(spec, 1.0), cyl_kernel(spec, 2.0)])
    with pytest.raises(SingularityError):
        cyl_kernel(spec, 0.0)
    with pytest.raises(SingularityError):
        cyl_kernel(spec, np.array([1.0, 0.0]))
    # the profile ~ h^(-2) overflows float64 below h ~ 1e-154
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularityError, match="h = 1e-300"):
            cyl_kernel(spec, 1e-300)


def test_periodized_kernel_matches_direct_sum():
    spec = calibrate_kernel(FracParams(3, 0.5))
    L = 5.0
    for xi in (0.4, 2.5, 4.9):
        direct = sum(cyl_kernel(spec, xi - j * L) for j in range(-30, 31))
        got = periodized_kernel(spec, L, xi)
        assert math.isclose(got, direct, rel_tol=1e-13), xi


def test_periodized_kernel_symmetry_and_periodicity():
    # equality is up to the one-ulp wobble of computing L - xi and xi + 3L
    spec = calibrate_kernel(FracParams(3, 0.3))
    L = 6.0
    for xi in (0.7, 1.9, 2.9):
        a = periodized_kernel(spec, L, xi)
        assert math.isclose(a, periodized_kernel(spec, L, L - xi), rel_tol=1e-12)
        assert math.isclose(a, periodized_kernel(spec, L, xi + 3 * L), rel_tol=1e-12)
        assert math.isclose(a, periodized_kernel(spec, L, xi - L), rel_tol=1e-12)
    with pytest.raises(SingularityError):
        periodized_kernel(spec, L, 2.0 * L)


def _direct_lattice_sum(spec, period, xi):
    # every term down to e^(-45) of the largest, summed without rounding
    shells = int(45.0 / (spec.params.sigma * period)) + 2
    return math.fsum(cyl_kernel(spec, xi - period * np.arange(-shells, shells + 1)))


@pytest.mark.parametrize("n, s, decay", [(2, 0.05, 0.0848), (3, 0.5, 0.0784), (5, 0.95, 0.0671)])
def test_periodized_kernel_at_the_shortest_periods(n, s, decay):
    # sigma L just above the least value the 400-shell cap admits at
    # xi = L/2, the entry farthest from the lattice
    p = FracParams(n, s)
    spec = calibrate_kernel(p)
    period = decay / p.sigma
    for xi in (0.5 * period, 0.1 * period):
        got = periodized_kernel(spec, period, xi)
        assert math.isclose(got, _direct_lattice_sum(spec, period, xi), rel_tol=1e-13)


def test_periodized_kernel_refuses_periods_past_the_shell_cap():
    p = FracParams(3, 0.5)
    period = 0.05 / p.sigma
    with pytest.raises(NonConvergenceError, match="400 shells"):
        periodized_kernel(calibrate_kernel(p), period, 0.5 * period)


def test_periodized_kernel_array_matches_scalar_calls():
    spec = calibrate_kernel(FracParams(4, 0.3))
    L = 2.5
    xi = np.array([0.01, 0.4, 1.25, 2.2, -0.7, 9.1, 1e-6])
    table = periodized_kernel(spec, L, xi)
    scalars = np.array([periodized_kernel(spec, L, x) for x in xi])
    assert np.allclose(table, scalars, rtol=1e-15, atol=0.0)
    assert np.array_equal(periodized_kernel(spec, L, xi.reshape(7, 1))[:, 0], table)


def test_periodized_kernel_over_long_periods():
    # only the central term is left above the float64 range of the others
    spec = calibrate_kernel(FracParams(3, 0.5))
    for period in (400.0, 1e6):
        assert math.isclose(
            periodized_kernel(spec, period, 1.0), cyl_kernel(spec, 1.0), rel_tol=1e-15
        )


def test_periodized_kernel_rejects_non_finite_xi():
    # caught before np.mod, which warns on inf and NaN and would report a
    # lattice divergence instead
    spec = calibrate_kernel(FracParams(3, 0.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for xi in (np.inf, -np.inf, np.nan, np.array([1.0, np.inf])):
            with pytest.raises(ParameterError, match="finite xi"):
                periodized_kernel(spec, 5.0, xi)
        with pytest.raises(SingularityError, match=r"xi = \[1.e\+300\]"):
            periodized_kernel(spec, 5.0, np.array([1e300]))


def _clear_library_caches():
    for name, module in list(sys.modules.items()):
        if not name.startswith("conflap."):
            continue
        for obj in vars(module).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def test_kernel_tables_survive_clearing_the_caches():
    # the cached difference tables, Legendre Vandermondes and quadrature
    # rules give the same numbers when rebuilt from an empty cache, as in a
    # fresh process
    def values():
        out = []
        for n, s in ((2, 0.05), (3, 0.5), (5, 0.95)):
            p = FracParams(n, s)
            spec = calibrate_kernel(p)
            out += spec.calibration["residuals"]
            out += [kernel_multiplier(spec, xi) for xi in (0.3, 1.5, 40.0)]
            zonal = np.cos(np.arange(24.0))
            out += list(singular_integral_apply(calibrate_sphere_kernel(FracParams(2, s)), zonal))
        return out

    before = values()
    _clear_library_caches()
    assert _difference_table.cache_info().currsize == 0
    assert _legendre_vandermonde.cache_info().currsize == 0
    assert values() == before
    assert values() == before


def test_difference_table_is_read_only():
    nodes, table = _difference_table(FracParams(3, 0.5), 4)
    for array in (nodes, table):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0.0


@pytest.mark.parametrize("xi", [16.0, 16.5, 40.0, 200.0])
def test_kernel_multiplier_across_the_panel_densities(xi):
    # xi = 16 is the last point of the density-4 table, 16.5 the first of the
    # density-8 one; 40 and 200 read the density-16 and density-64 tables
    for n, s in ((2, 0.05), (3, 0.5), (5, 0.95)):
        p = FracParams(n, s)
        rhs = theta0(p, xi)
        assert abs(kernel_multiplier(calibrate_kernel(p), xi) / rhs - 1.0) < 1e-8, (n, s)


def test_multipliers_up_to_xi_16_share_one_table():
    p = FracParams(4, 0.3)
    _difference_table.cache_clear()
    spec = calibrate_kernel(p)
    for xi in (0.01, 0.5, 3.0, 9.9, 16.0):
        kernel_multiplier(spec, xi)
    assert _difference_table.cache_info().currsize == 1
    kernel_multiplier(spec, 16.5)
    assert _difference_table.cache_info().currsize == 2


@pytest.mark.parametrize("n, s", [(3, 0.5), (2, 0.05), (5, 0.95), (2, 0.99), (4, 0.5)])
def test_kernel_profile_at_tiny_separations(n, s):
    # sech^2 h rounds to 1 below h ~ 3e-9, where h^(1+2s) K0(h) is Gauss's
    # 2F1(a, b; n/2; 1) = G(n/2) G(s+1/2) / (G((n+2s+2)/4) G((n+2s)/4))
    p = FracParams(n, s)
    limit = math.exp(
        math.lgamma(0.5 * n) + math.lgamma(s + 0.5)
        - math.lgamma(0.25 * (n + 2.0 * s + 2.0)) - math.lgamma(0.25 * (n + 2.0 * s))
    )
    for h in (1e-9, 1e-11, 1e-13, 1e-15):
        assert abs(h ** (1.0 + 2.0 * s) * kernel_base(p, h) / limit - 1.0) < 1e-13, h
    # the least separation periodized_kernel accepts is 1e-9 L
    spec = calibrate_kernel(p)
    got = periodized_kernel(spec, 1.0, 2e-9)
    assert math.isclose(got, _direct_lattice_sum(spec, 1.0, 2e-9), rel_tol=1e-13)


def test_periodized_kernel_memory_is_bounded_by_blocks():
    # at the 400-shell cap a 2047-entry call would hold an 801 x 2047 table;
    # in blocks it stays at a few MB, and each entry's shell sum runs in the
    # same order, so the blocks add up as one table would
    p = FracParams(5, 0.95)
    spec = calibrate_kernel(p)
    period = 0.0671 / p.sigma
    xi = period * np.arange(1, 2048) / 2048
    tracemalloc.start()
    try:
        table = periodized_kernel(spec, period, xi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
    for k in (0, 700, 2046):
        assert table[k] == periodized_kernel(spec, period, xi[[k, k - 1]])[0]
    # 82 entries take two blocks; a block of one entry would be summed
    # pairwise by numpy, apart from the row-by-row sum of wider blocks
    assert np.array_equal(periodized_kernel(spec, period, xi[:82]), table[:82])
