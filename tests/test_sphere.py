"""Sphere-operator tests: symbol values, integer-order products, kernel duality."""

import math
import warnings

import numpy as np
import pytest

from conflap.errors import ParameterError, SingularityError
from conflap.params import FracParams, KernelSpec
from conflap.specfun import jacobi_rule
from conflap.sphere import (
    ModeSpectrum,
    _mode_eigenvalue,
    _zonal_harmonics,
    _zonal_multipliers,
    _zonal_table,
    apply_sphere,
    apply_sphere_grid,
    calibrate_sphere_kernel,
    frac_lap_constant,
    gjms_symbol,
    singular_integral_apply,
    sphere_curvature,
    sphere_kernel,
    sphere_symbol,
    vol_sphere,
)

# ((n, s, m), Gamma(m+n/2+s)/Gamma(m+n/2-s)), mpmath mp.dps=40
SYMBOL_TABLE = [
    ((1, 0.2, 0), "0.43390452902472512157"),
    ((1, 0.5, 3), "3.0"),
    ((2, 0.3, 1), "1.2840217602594083883"),
    ((3, 0.5, 0), "1.0"),
    ((3, 0.5, 10), "11.0"),
    ((4, 0.9, 2), "9.4044390493956039313"),
    ((5, 1.5, 7), "720.0"),
    ((7, 0.25, 50), "7.280150382590267921"),
    ((1, 0.7, 0), "-0.15772982454842235908"),
    ((1, 0.7, 2), "2.6025421050489692093"),
]


def test_symbol_table():
    for (n, s, m), ref in SYMBOL_TABLE:
        v = sphere_symbol(FracParams(n, s), m)
        assert math.isclose(v, float(ref), rel_tol=1e-13), (n, s, m)


def test_symbol_pole_gives_zero():
    # n = 1, s = 1/2, m = 0: denominator Gamma(0)
    assert sphere_symbol(FracParams(1, 0.5), 0) == 0.0


def test_symbol_positive_subcritical():
    for n in (1, 2, 3, 5):
        for s in (0.1, 0.45 * n):
            p = FracParams(n, s)
            for m in (0, 1, 5, 40):
                assert sphere_symbol(p, m) > 0.0


def test_symbol_monotone_in_degree():
    p = FracParams(3, 0.6)
    vals = [sphere_symbol(p, m) for m in range(30)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_symbol_rejects_bad_modes():
    p = FracParams(3, 0.5)
    with pytest.raises(ParameterError):
        sphere_symbol(p, -1)
    with pytest.raises(ParameterError):
        sphere_symbol(p, 1.5)


def _lgamma_ratio(n, s, m):
    """Gamma(m + n/2 + s) / Gamma(m + n/2 - s) from signed log-Gammas,
    0 at the poles of the denominator."""
    den = m + 0.5 * n - s
    if den <= 0.0 and den == math.floor(den):
        return 0.0
    num = den + 2.0 * s
    sign = math.copysign(1.0, math.gamma(den)) if den < 0.0 else 1.0
    return sign * math.exp(math.lgamma(num) - math.lgamma(den))


def test_symbol_on_degree_arrays():
    # one array call per (n, s) against the log-Gamma ratio, poles included
    degrees = np.arange(201)
    for n in range(1, 8):
        for s in (0.05, 0.2, 0.3, 0.5, 0.7, 0.95, 1.0, 1.5, 2.0, 2.5, 3.0):
            p = FracParams(n, s)
            table = sphere_symbol(p, degrees)
            assert table.shape == degrees.shape
            ref = np.array([_lgamma_ratio(n, s, int(m)) for m in degrees])
            assert np.all(table[ref == 0.0] == 0.0), (n, s)
            assert np.allclose(table, ref, rtol=1e-12, atol=0.0), (n, s)
    p = FracParams(3, 0.6)
    assert type(sphere_symbol(p, 4)) is float
    assert type(sphere_symbol(p, np.int64(4))) is float
    assert sphere_symbol(p, np.array([4]))[0] == sphere_symbol(p, 4)
    for bad in (np.array([0, -1]), np.array([0.0, 1.0]), True):
        with pytest.raises(ParameterError):
            sphere_symbol(p, bad)
    assert np.array_equal(_mode_eigenvalue(3, np.arange(4)), [0.0, 3.0, 8.0, 15.0])


def test_curvature_is_zero_mode():
    for n, s in [(1, 0.3), (2, 0.5), (3, 0.5), (4, 0.75)]:
        p = FracParams(n, s)
        assert sphere_curvature(p) == sphere_symbol(p, 0)


def test_integer_order_one_matches_conformal_laplacian():
    # at s = 1 the multiplier collapses to mu_m + n(n-2)/4 exactly
    for n in (3, 4, 5, 7):
        p = FracParams(n, 1.0)
        for m in (0, 1, 2, 10, 50):
            lhs = sphere_symbol(p, m)
            rhs = gjms_symbol(n, 1, m)
            assert math.isclose(lhs, rhs, rel_tol=1e-13)


def test_integer_order_two_matches_product():
    for n in (5, 6, 7):
        p = FracParams(n, 2.0)
        for m in (0, 1, 3, 25):
            lhs = sphere_symbol(p, m)
            rhs = gjms_symbol(n, 2, m)
            assert math.isclose(lhs, rhs, rel_tol=1e-13)


def test_factored_symbol_matches_direct():
    # symbol(s0 + k) = symbol(s0) times the k shifted conformal-Laplacian
    # factors mu_m + (n/2 + s0 + j - 1)(n/2 - s0 - j), j = 1..k
    for n, s0, k in [(5, 0.4, 1), (7, 0.25, 2), (9, 0.8, 3)]:
        p0 = FracParams(n, s0)
        p = FracParams(n, s0 + k)
        for m in range(51):
            lhs = sphere_symbol(p0, m)
            for j in range(1, k + 1):
                lhs *= _mode_eigenvalue(n, m) + (0.5 * n + s0 + j - 1) * (0.5 * n - s0 - j)
            rhs = sphere_symbol(p, m)
            assert math.isclose(lhs, rhs, rel_tol=1e-11), (n, s0, k, m)


def test_mode_eigenvalue():
    assert _mode_eigenvalue(2, 3) == 12.0
    assert _mode_eigenvalue(1, 4) == 16.0
    assert gjms_symbol(4, 1, 0) == 2.0  # the conformal Laplacian's n(n-2)/4


def test_vol_sphere():
    assert math.isclose(vol_sphere(1), 2.0 * math.pi, rel_tol=1e-15)
    assert math.isclose(vol_sphere(2), 4.0 * math.pi, rel_tol=1e-15)
    assert math.isclose(vol_sphere(3), 2.0 * math.pi**2, rel_tol=1e-14)


# (n, vol(S^n)) and (n, C_(n, 0.3)) at the top of the float range, mpmath mp.dps=40
LARGE_VOLUME_TABLE = [
    (342, "3.8483146933512818909e-223"),
    (343, "5.2123070780411204821e-224"),
    (437, "3.1699277898265397581e-308"),
]
LARGE_CONSTANT_TABLE = [
    (342, "1.1540692460746021693e+222"),
    (343, "8.5156676384406255825e+222"),
    (438, "1.1126321905122325587e+308"),
]


def test_large_dimensions_raise_parameter_error_where_the_value_leaves_the_floats():
    # Gamma((n+1)/2) and Gamma(n/2 + s) leave the floats from n = 343, but
    # the volume stays a normal float up to n = 437 and C_(n, 0.3) up to 438
    for n, ref in LARGE_VOLUME_TABLE:
        assert math.isclose(vol_sphere(n), float(ref), rel_tol=1e-12), n
    for n, ref in LARGE_CONSTANT_TABLE:
        assert math.isclose(frac_lap_constant(FracParams(n, 0.3)), float(ref), rel_tol=1e-12), n
    for n in (438, 2000):
        with pytest.raises(ParameterError, match=f"underflows float64 at n = {n}"):
            vol_sphere(n)
    for n in (439, 2000):
        with pytest.raises(ParameterError, match=f"overflows at n = {n}"):
            frac_lap_constant(FracParams(n, 0.3))


def test_apply_sphere_multiplies_modes():
    p = FracParams(2, 0.3)
    f = ModeSpectrum(2, np.array([1.0, 2.0, 0.0, -1.5]))
    g = apply_sphere(p, f)
    for m in range(4):
        expected = f.coeffs[m] * sphere_symbol(p, m)
        assert math.isclose(g.coeffs[m], expected, rel_tol=1e-14, abs_tol=1e-300)
    with pytest.raises(ParameterError):
        apply_sphere(FracParams(3, 0.3), f)


def test_mode_spectrum_validation():
    with pytest.raises(ParameterError):
        ModeSpectrum(2, np.array([[1.0]]))
    with pytest.raises(ParameterError):
        ModeSpectrum(2, np.array([np.nan]))
    with pytest.raises(ParameterError):
        ModeSpectrum(0, np.array([1.0]))


def test_kernel_calibration_record():
    for n in (1, 2, 3, 5, 10):
        for s in (0.2, 0.5, 0.8):
            p = FracParams(n, s)
            spec = calibrate_sphere_kernel(p)
            assert spec.normalization == frac_lap_constant(p) * 2.0 ** (-p.sigma)
            record = spec.calibration
            assert record["check_modes"] == [1, 2]
            assert record["residual"] == max(record["residuals"])
            # both checks are closed-form Beta moments, so only round-off
            # remains: the degree-1 one confirms kappa, the degree-2 one the
            # power law
            assert record["residual"] < 1e-13, (n, s)


def test_kernel_calibration_at_large_n():
    # |S^(n-1)| is taken directly, so the calibration reaches n = 437, where
    # |S^(n+1)| is below the normal floats
    for n in (1, 2, 3, 5, 10, 100, 437):
        assert calibrate_sphere_kernel(FracParams(n, 0.3)).calibration["residual"] < 1e-12, n


def test_kernel_calibration_range():
    with pytest.raises(ParameterError):
        calibrate_sphere_kernel(FracParams(1, 1.0))


def test_sphere_kernel_values_and_singularity():
    spec = calibrate_sphere_kernel(FracParams(1, 0.5))
    k = sphere_kernel(spec, 0.0)
    assert math.isclose(k, spec.normalization, rel_tol=1e-15)
    assert sphere_kernel(spec, -1.0) == spec.normalization * 2.0**-1.0
    with pytest.raises(SingularityError):
        sphere_kernel(spec, 1.0)
    with pytest.raises(ParameterError):
        sphere_kernel(spec, -1.2)
    # on S^315 kappa (1 - 0.9)^(-(n+2s)/2) leaves the floats: refused, no warning
    spec = calibrate_sphere_kernel(FracParams(315, 0.3))
    assert math.isfinite(sphere_kernel(spec, 0.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match="overflows float64 at n = 315"):
            sphere_kernel(spec, [0.5, 0.9])


def test_circle_duality_single_modes():
    # kernel route vs Gamma-ratio route on pure harmonics, kappa in closed form
    n = 4096
    theta = 2.0 * math.pi * np.arange(n) / n
    for s in (0.2, 0.5, 0.8):
        p = FracParams(1, s)
        spec = calibrate_sphere_kernel(p)
        for m in range(2, 9):
            u = np.cos(m * theta)
            out = singular_integral_apply(spec, u)
            expected = sphere_symbol(p, m) * u
            err = np.max(np.abs(out - expected)) / sphere_symbol(p, m)
            assert err < 1e-6, (s, m, err)


def test_circle_duality_band_limited_mix():
    n = 2048
    theta = 2.0 * math.pi * np.arange(n) / n
    u = 1.0 + 0.5 * np.cos(theta) - 0.2 * np.sin(3 * theta) + 0.05 * np.cos(8 * theta)
    p = FracParams(1, 0.6)
    spec = calibrate_sphere_kernel(p)
    out = singular_integral_apply(spec, u)
    ref = apply_sphere_grid(p, u)
    assert np.max(np.abs(out - ref)) < 1e-6


def test_grid_route_refuses_non_finite_samples():
    # like singular_integral_apply, rather than spreading nan over every sample
    p = FracParams(1, 0.3)
    for bad in (math.nan, math.inf):
        with pytest.raises(ParameterError, match="finite"):
            apply_sphere_grid(p, [bad, 1.0])


def test_circle_duality_coarse_grid():
    n = 256
    theta = 2.0 * math.pi * np.arange(n) / n
    u = np.cos(2 * theta) + 0.3 * np.sin(5 * theta)
    p = FracParams(1, 0.4)
    spec = calibrate_sphere_kernel(p)
    coarse = singular_integral_apply(spec, u)
    ref = apply_sphere_grid(p, u)
    assert np.max(np.abs(coarse - ref)) < 1e-6


def test_s2_duality():
    # Gauss-Jacobi kernel quadrature vs the symbol on zonal harmonics
    r = 48
    from numpy.polynomial.legendre import leggauss, legvander

    t, _ = leggauss(r)
    vand = legvander(t, r - 1)
    for s in (0.3, 0.7):
        p = FracParams(2, s)
        spec = calibrate_sphere_kernel(p)
        for m in (2, 5, 11, 20):
            u = vand[:, m].copy()
            out = singular_integral_apply(spec, u)
            expected = sphere_symbol(p, m) * u
            err = np.max(np.abs(out - expected)) / sphere_symbol(p, m)
            assert err < 1e-10, (s, m, err)


def test_zonal_duality_for_every_dimension():
    # Funk-Hecke multipliers and the zonal apply at the Gauss-Gegenbauer
    # nodes against the symbol on S^n; measured: multipliers <= 2.4e-12,
    # applies <= 5.3e-11 (at m = 1 and s = 0.995)
    r = 48
    for n in (3, 4, 5, 7, 10):
        b = 0.5 * n - 1.0
        table = _zonal_harmonics(n, np.asarray(jacobi_rule(b, b, r)[0]), r - 1)
        for s in (0.1, 0.5, 0.9, 0.995):
            p = FracParams(n, s)
            spec = calibrate_sphere_kernel(p)
            symbols = sphere_symbol(p, np.arange(41))
            multipliers = _zonal_multipliers(spec, r - 1)[:41]
            assert np.max(np.abs(multipliers - symbols) / symbols) < 1e-11, (n, s)
            for m in range(41):
                u = table[:, m]
                out = singular_integral_apply(spec, u)
                err = np.max(np.abs(out - symbols[m] * u)) / symbols[m]
                assert err < 1e-9, (n, s, m, err)


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("s", [0.5, 0.9, 0.995])
def test_zonal_apply_takes_the_mean_exactly(n, s):
    # P_0 gets Q_s from the mean alone, so round-off that the higher
    # multipliers amplify cannot swamp a small Q_s; P_1 measured
    # 1.5e-11 .. 2.8e-10
    r = 48
    b = 0.5 * n - 1.0
    table = _zonal_harmonics(n, np.asarray(jacobi_rule(b, b, r)[0]), 1)
    p = FracParams(n, s)
    spec = calibrate_sphere_kernel(p)
    for m, bound in ((0, 1e-14), (1, 5e-10)):
        symbol = sphere_symbol(p, m)
        out = singular_integral_apply(spec, table[:, m])
        err = np.max(np.abs(out - symbol * table[:, m])) / symbol
        assert err < bound, (n, s, m, err)


def test_kernel_routes_use_the_spec_normalization():
    # the kernel term scales with the spec's constant on S^1, S^2 and S^3 alike
    grids = {
        1: np.cos(2.0 * math.pi * np.arange(64) / 64) + 0.5,
        2: 1.0 + jacobi_rule(0.0, 0.0, 16)[0] ** 3,
        3: 1.0 + jacobi_rule(0.5, 0.5, 16)[0] ** 3,
    }
    for n, u in grids.items():
        p = FracParams(n, 0.4)
        spec = calibrate_sphere_kernel(p)
        doubled = KernelSpec(p, 2.0 * spec.normalization)
        local = sphere_curvature(p) * u
        once = singular_integral_apply(spec, u) - local
        twice = singular_integral_apply(doubled, u) - local
        assert np.allclose(twice, 2.0 * once, rtol=1e-12, atol=1e-12), n


def test_zonal_table_is_cached_and_read_only():
    # every kernel-route apply on S^n at size r shares one P_j(t_i) table and
    # its projector; on S^2 the table is the Legendre Vandermonde
    table, projector = _zonal_table(2, 24)
    assert _zonal_table(2, 24)[0] is table
    nodes = jacobi_rule(0.0, 0.0, 24)[0]
    assert np.allclose(table, np.polynomial.legendre.legvander(nodes, 23), rtol=0.0, atol=1e-13)
    assert np.allclose(projector @ table, np.eye(24), rtol=0.0, atol=1e-13)
    for array in (table, projector, _zonal_table(5, 24)[0]):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0, 0] = 0.0
