"""Sphere-operator tests: symbol values, factorizations, kernel duality."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conflap.errors import ParameterError, SingularityError
from conflap.params import FracParams, KernelSpec
from conflap.specfun import legendre_rule
from conflap.sphere import (
    ModeSpectrum,
    _legendre_vandermonde,
    apply_sphere,
    apply_sphere_grid,
    calibrate_sphere_kernel,
    conformal_laplacian_eigenvalue,
    factored_symbol,
    frac_lap_constant,
    gjms_symbol,
    mode_eigenvalue,
    singular_integral_apply,
    sphere_curvature,
    sphere_kernel,
    sphere_symbol,
    vol_sphere,
    yamabe_quotient_sphere,
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
    assert np.array_equal(mode_eigenvalue(3, np.arange(4)), [0.0, 3.0, 8.0, 15.0])


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
            rhs = conformal_laplacian_eigenvalue(n, m)
            assert math.isclose(lhs, rhs, rel_tol=1e-13)


def test_integer_order_two_matches_product():
    for n in (5, 6, 7):
        p = FracParams(n, 2.0)
        for m in (0, 1, 3, 25):
            lhs = sphere_symbol(p, m)
            rhs = gjms_symbol(n, 2, m)
            assert math.isclose(lhs, rhs, rel_tol=1e-13)


def test_factored_symbol_matches_direct():
    for n, s0, k in [(5, 0.4, 1), (7, 0.25, 2), (9, 0.8, 3)]:
        p0 = FracParams(n, s0)
        p = FracParams(n, s0 + k)
        for m in (0, 1, 2, 7, 19):
            lhs = factored_symbol(p0, k, m)
            rhs = sphere_symbol(p, m)
            assert math.isclose(lhs, rhs, rel_tol=1e-11), (n, s0, k, m)


def test_factored_symbol_preconditions():
    with pytest.raises(ParameterError):
        factored_symbol(FracParams(3, 1.2), 1, 0)
    with pytest.raises(ParameterError):
        factored_symbol(FracParams(3, 0.5), 0, 0)
    with pytest.raises(ParameterError):
        factored_symbol(FracParams(3, 0.6), 1, 0)  # s0 + k >= n/2


def test_mode_eigenvalue():
    assert mode_eigenvalue(2, 3) == 12.0
    assert mode_eigenvalue(1, 4) == 16.0
    assert gjms_symbol(4, 1, 0) == conformal_laplacian_eigenvalue(4, 0)


def test_vol_sphere():
    assert math.isclose(vol_sphere(1), 2.0 * math.pi, rel_tol=1e-15)
    assert math.isclose(vol_sphere(2), 4.0 * math.pi, rel_tol=1e-15)
    assert math.isclose(vol_sphere(3), 2.0 * math.pi**2, rel_tol=1e-14)


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
    for n in (1, 2):
        for s in (0.2, 0.5, 0.8):
            p = FracParams(n, s)
            spec = calibrate_sphere_kernel(p)
            assert spec.normalization == frac_lap_constant(p) * 2.0 ** (-p.sigma)
            record = spec.calibration
            assert record["check_modes"] == [1, 2]
            assert record["residual"] == max(record["residuals"])
            # both checks are closed-form moments, so only round-off remains:
            # the degree-1 one confirms kappa, the degree-2 one the power law
            assert record["residual"] < 1e-13


def test_kernel_calibration_range():
    with pytest.raises(ParameterError):
        calibrate_sphere_kernel(FracParams(1, 1.0))
    with pytest.raises(ParameterError):
        calibrate_sphere_kernel(FracParams(3, 0.5))


def test_sphere_kernel_values_and_singularity():
    spec = calibrate_sphere_kernel(FracParams(1, 0.5))
    k = sphere_kernel(spec, 0.0)
    assert math.isclose(k, spec.normalization, rel_tol=1e-15)
    assert sphere_kernel(spec, -1.0) == spec.normalization * 2.0**-1.0
    with pytest.raises(SingularityError):
        sphere_kernel(spec, 1.0)
    with pytest.raises(ParameterError):
        sphere_kernel(spec, -1.2)


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


def test_kernel_routes_use_the_spec_normalization():
    # the kernel term scales with the spec's constant on S^1 and on S^2 alike
    from numpy.polynomial.legendre import leggauss

    grids = {
        1: np.cos(2.0 * math.pi * np.arange(64) / 64) + 0.5,
        2: 1.0 + leggauss(16)[0] ** 3,
    }
    for n, u in grids.items():
        p = FracParams(n, 0.4)
        spec = calibrate_sphere_kernel(p)
        doubled = KernelSpec(p, 2.0 * spec.normalization)
        local = sphere_curvature(p) * u
        once = singular_integral_apply(spec, u) - local
        twice = singular_integral_apply(doubled, u) - local
        assert np.allclose(twice, 2.0 * once, rtol=1e-12, atol=1e-12), n


def test_yamabe_constant_value():
    # constants give Q_s vol(S^n)^(2s/n)
    for n, s in [(1, 0.3), (2, 0.5), (2, 0.25)]:
        p = FracParams(n, s)
        u = np.ones(64)
        got = yamabe_quotient_sphere(p, u)
        expected = sphere_curvature(p) * vol_sphere(n) ** (2.0 * s / n)
        assert math.isclose(got, expected, rel_tol=1e-12), (n, s)


def test_yamabe_scale_invariance():
    p = FracParams(2, 0.4)
    rng = np.random.default_rng(7)
    from numpy.polynomial.legendre import leggauss, legvander

    t, _ = leggauss(40)
    u = 1.0 + 0.3 * legvander(t, 4) @ rng.normal(size=5) * 0.1
    u = np.abs(u) + 0.5
    q1 = yamabe_quotient_sphere(p, u)
    q2 = yamabe_quotient_sphere(p, 3.7 * u)
    assert math.isclose(q1, q2, rel_tol=1e-12)


def test_yamabe_rejects_nonpositive():
    p = FracParams(1, 0.3)
    with pytest.raises(ParameterError):
        yamabe_quotient_sphere(p, np.zeros(32))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    a1=st.floats(min_value=-0.2, max_value=0.2),
    a3=st.floats(min_value=-0.2, max_value=0.2),
    s=st.floats(min_value=0.15, max_value=0.45),
)
def test_constants_minimize_circle_quotient(a1, a3, s):
    # on the sphere the Rayleigh quotient is minimized by constants
    p = FracParams(1, s)
    theta = 2.0 * math.pi * np.arange(128) / 128
    u = 1.0 + a1 * np.cos(theta) + a3 * np.sin(3 * theta)
    base = yamabe_quotient_sphere(p, np.ones(128))
    assert yamabe_quotient_sphere(p, u) >= base * (1.0 - 1e-10)


def test_legendre_vandermonde_is_cached_and_read_only():
    # every S^2 apply and quotient at size r shares one P_j(t_i) table
    vand = _legendre_vandermonde(24)
    assert vand is _legendre_vandermonde(24)
    assert np.array_equal(vand, np.polynomial.legendre.legvander(legendre_rule(24)[0], 23))
    assert not vand.flags.writeable
    with pytest.raises(ValueError):
        vand[0, 0] = 0.0
