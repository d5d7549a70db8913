"""Cylinder tests: symbol values, kernel profile, calibration duality."""

import math
import warnings

import numpy as np
import pytest

from conflap.errors import ParameterError, SingularityError
from conflap.params import FracParams
from conflap.cylinder import (
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
    # sqrt((n/2-1)^2 + m(m+n-2)) = m + n/2 - 1
    for n in range(2, 9):
        for m in range(0, 60, 7):
            got = cyl_mode_parameter(n, m)
            assert math.isclose(got, m + 0.5 * n - 1.0, rel_tol=1e-14, abs_tol=1e-14)


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


def test_calibration_rejects_integer_s():
    with pytest.raises(ParameterError):
        calibrate_kernel(FracParams(3, 1.0))
    with pytest.raises(ParameterError):
        calibrate_kernel(FracParams(3, 0.5), xi_star=3.0)
    with pytest.raises(ParameterError):
        calibrate_kernel(FracParams(1, 0.5))


def test_cyl_kernel_even_and_singular():
    spec = calibrate_kernel(FracParams(3, 0.5))
    assert cyl_kernel(spec, 1.3) == cyl_kernel(spec, -1.3)
    with pytest.raises(SingularityError):
        cyl_kernel(spec, 0.0)
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
