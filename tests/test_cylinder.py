"""Cylinder tests: symbol values, kernel profile, closed-form normalization
and its duality with the symbol."""

import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from conflap.errors import NonConvergenceError, ParameterError, SingularityError
from conflap.params import FracParams, KernelSpec
from conflap.cylinder import (
    _PFAFF_MAX_N,
    _difference_table,
    _series_terms,
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
    _zonal_table,
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

# (n, s, bound) and ((h, unnormalized kernel profile), ...), mpmath mp.dps=40:
# s = 1/2, where the 2F1 is degenerate (c - a - b of the sech^2 form and
# a - b of Pfaff's are integers); the edges s = 0.005 and 0.995;
# (20, 0.005, 1e-7), where the sech^2 form was off by 7.9e-7; and the two
# sides of _PFAFF_MAX_N = 28, where n = 29 keeps the sech^2 form and its loss
# near h = 0.  Each bound is three to four times the error measured with
# scipy 1.17.
PROFILE_EDGE_TABLE = [
    ((2, 0.5, 2e-14), (
        (1e-12, "9.0031631615710610577e+23"), (1e-06, "900316316158.65112596"),
        (0.19, "25.113921659292226973"), (1.0, "0.87293725926902101902"),
        (8.0, "0.000017378461280652187412"))),
    ((4, 0.5, 2e-14), (
        (1e-12, "1.2004217548761414744e+24"), (1e-06, "1200421754869.261389"),
        (0.19, "31.851170156585511597"), (1.0, "0.6103815544182368772"),
        (8.0, "1.1659648088174056144e-8"))),
    ((5, 0.5, 2e-14), (
        (1e-12, "1.5000000000000000603e+24"), (1e-06, "1499999999978.4871491"),
        (0.19, "38.262787121046051101"), (1.0, "0.51802304181595416962"),
        (8.0, "3.0201082471863893131e-10"))),
    ((2, 0.005, 2e-14), (
        (1e-12, "1313749549690.2116485"), (1e-06, "1144228.0290690618754"),
        (0.19, "5.3056629840154769339"), (1.0, "0.85085292873983487766"),
        (8.0, "0.00064685592499619269656"))),
    ((2, 0.995, 2e-14), (
        (1e-12, "7.5741736017132600983e+35"), (1e-06, "869631485065318392.99"),
        (0.19, "143.16800313850423543"), (1.0, "0.9496642481781823633"),
        (8.0, "4.6689057248746702082e-7"))),
    ((3, 0.005, 2e-14), (
        (1e-12, "1852246462527.9544249"), (1e-06, "1613238.5308037958308"),
        (0.19, "6.8130311132104486573"), (1.0, "0.7296583641895639245"),
        (8.0, "0.000016755007656912224553"))),
    ((3, 0.995, 2e-14), (
        (1e-12, "7.1510309088557254209e+35"), (1e-06, "821048203543782475.71"),
        (0.19, "134.45122838949059602"), (1.0, "0.75026389924695484248"),
        (8.0, "1.2093503721083756443e-8"))),
    ((5, 0.005, 2e-14), (
        (1e-12, "3692185639587.769173"), (1e-06, "3215755.0310613429359"),
        (0.19, "11.252733731882593153"), (1.0, "0.53674918186319967394"),
        (8.0, "1.1241357796533800033e-8"))),
    ((5, 0.995, 2e-14), (
        (1e-12, "8.5984339585439584372e+35"), (1e-06, "987232308869282328.18"),
        (0.19, "156.60226409068694237"), (1.0, "0.51414683881632111184"),
        (8.0, "8.1138365943109848141e-12"))),
    ((20, 0.005, 2e-14), ((1e-07, "5910816962.5033524301"),)),
    ((28, 0.005, 1e-11), (
        (1e-12, "10592670358475197.172"), (1e-06, "9225722734.7882895513"),
        (0.19, "3657.7206926457051983"), (1.0, "0.015744288607199249858"),
        (8.0, "3.610533558682005359e-45"))),
    ((28, 0.45, 1e-11), (
        (1e-12, "1.2641921186756731074e+26"), (1e-06, "503283946433414.28887"),
        (0.19, "8341.4721713449371678"), (1.0, "0.014758214815503618077"),
        (8.0, "1.3977883049042610048e-46"))),
    ((28, 0.995, 1e-11), (
        (1e-12, "4.4821821216019908022e+38"), (1e-06, "5.1462336346866717098e+20"),
        (0.19, "24572.374494804214097"), (1.0, "0.013715752728039660996"),
        (8.0, "2.6060265760497305248e-48"))),
    ((29, 0.005, 3e-9), (
        (1e-12, "14977576032994832.603"), (1e-06, "13044765531.665230474"),
        (0.19, "4703.9021555848288201"), (1.0, "0.013504856505723164045"),
        (8.0, "9.3520852317972269113e-47"))),
    ((29, 0.45, 1e-12), (
        (1e-12, "1.7592902200567633913e+26"), (1e-06, "700386050243401.76795"),
        (0.19, "10698.191987924757298"), (1.0, "0.012655943517033249273"),
        (8.0, "3.6205827057593915912e-48"))),
    ((29, 0.995, 2e-13), (
        (1e-12, "6.1212220051664396122e+38"), (1e-06, "7.0281032125713727012e+20"),
        (0.19, "31345.839332025138424"), (1.0, "0.011756071006393652746"),
        (8.0, "6.7501886483134762989e-50"))),
]

# ((n, s), (K0(h) at h = 1e-9, 1e-11, 1e-13, 1e-15)), mpmath mp.dps=40
TINY_SEPARATION_TABLE = [
    ((3, 0.5), ("999999999999999875.1", "1.000000000000000121e+22",
                "9.9999999999999993925e+25", "9.9999999999999984459e+29")),
    ((2, 0.05), ("7702176324.0948678617", "1220712682311.8680755",
                 "193469922014695.10289", "30662916234707269.997")),
    ((5, 0.95), ("1.4522810354076851548e+26", "9.1632738553977848456e+31",
                 "5.7816349385465647492e+37", "3.6479650275792437899e+43")),
    ((2, 0.99), ("6.5867879215960038063e+26", "6.0072219810341413476e+32",
                 "5.4786515611202162323e+38", "4.9965896087958125367e+44")),
    ((4, 0.5), ("1200421754876141266.6", "1.2004217548761415713e+22",
                "1.2004217548761413532e+26", "1.2004217548761412395e+30")),
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


@pytest.mark.parametrize(
    "point, rows", PROFILE_EDGE_TABLE, ids=[f"{n}-{s}" for (n, s, _), _ in PROFILE_EDGE_TABLE]
)
def test_kernel_profile_against_mpmath_at_the_edges(point, rows):
    # the table's rows at n = 28 and 29 sit on the two sides of the form switch
    assert _PFAFF_MAX_N == 28
    n, s, bound = point
    p = FracParams(n, s)
    for h, ref in rows:
        assert abs(kernel_base(p, h) / float(ref) - 1.0) < bound, h


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
    assert cyl_kernel(spec, np.float64(-1.3)) == cyl_kernel(spec, 1.3)
    assert cyl_kernel(spec, -2) == cyl_kernel(spec, 2.0)
    assert type(cyl_kernel(spec, np.float64(-1.3))) is float
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
        # below h ~ 3e-309 the argument of Pfaff's 2F1 overflows as well
        for x in (5e-324, np.array([5e-324, 1.0])):
            with pytest.raises(SingularityError, match="h = 5e-324"):
                cyl_kernel(spec, x)


# h log-spaced over the profile's range, and two separations where the log
# profile overflows to -inf
SCALAR_PATH_H = np.concatenate([np.geomspace(1e-8, 700.0, 97), [1e200, 1e308]])


@pytest.mark.parametrize("n", [2, 3, 4, 5, _PFAFF_MAX_N, _PFAFF_MAX_N + 1])
def test_cyl_kernel_scalar_path_has_the_bits_of_a_one_entry_array(n):
    # a real scalar takes cyl_kernel's float path; a one-entry array is the
    # reference, since a longer array may differ from it by an ulp through
    # numpy's vector loops
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for s in (0.005, 0.3, 0.5, 0.995):
            spec = calibrate_kernel(FracParams(n, s))
            for h in SCALAR_PATH_H:
                scalars = [float(h), np.float64(h)] + ([int(h)] if h >= 1.0 else [])
                for x in scalars:
                    value = cyl_kernel(spec, x)
                    reference = cyl_kernel(spec, np.array([float(x)]))[0]
                    assert type(value) is float, (n, s, x)
                    assert value.hex() == reference.hex(), (n, s, x)


def test_kernel_scalar_refusals_keep_types_and_messages():
    p = FracParams(3, 0.5)
    spec = calibrate_kernel(p)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for h in (0.0, -1.0, math.nan, math.inf):
            for x in (h, np.float64(h), np.array(h)):
                with pytest.raises(ParameterError) as caught:
                    kernel_base(p, x)
                assert str(caught.value) == f"kernel profile needs finite h > 0, got {x}"
        for x in (0, -1):
            with pytest.raises(ParameterError, match=f"finite h > 0, got {x}$"):
                kernel_base(p, x)
        for x in (math.nan, -math.inf, np.float64(math.inf)):
            with pytest.raises(ParameterError) as caught:
                cyl_kernel(spec, x)
            assert str(caught.value) == f"kernel profile needs finite h > 0, got {abs(x)}"
        for x in (0.0, np.float64(-0.0), 0, np.array(0.0), np.array([1.0, 0.0, 0.0])):
            with pytest.raises(SingularityError) as caught:
                cyl_kernel(spec, x)
            named = "0.0, entry 1 of 3" if np.ndim(x) else x
            message = f"cylinder kernel diverges at zero separation, got xi = {named}"
            assert str(caught.value) == message
        for x in (1e-300, np.float64(-1e-300), np.array(1e-300)):
            with pytest.raises(SingularityError) as caught:
                cyl_kernel(spec, x)
            assert str(caught.value) == "kernel profile overflows float64 at h = 1e-300"
        line = KernelSpec(FracParams(1, 0.5), 1.0)
        for x in (1.0, np.float64(1.0), 1, np.array([1.0])):
            with pytest.raises(ParameterError) as caught:
                cyl_kernel(line, x)
            assert str(caught.value) == "the cylinder needs n >= 2, got n = 1"


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


@pytest.mark.parametrize(
    "n, s, decay", [(2, 0.05, 0.0848), (3, 0.5, 0.0784), (5, 0.95, 0.0671), (2, 0.05, 0.078)]
)
def test_periodized_kernel_at_the_shortest_periods(n, s, decay):
    # short periods, with 12 to 51 direct shells and the series past them,
    # at xi = L/2, the entry farthest from the lattice, and at L/10
    p = FracParams(n, s)
    spec = calibrate_kernel(p)
    period = decay / p.sigma
    for xi in (0.5 * period, 0.1 * period):
        got = periodized_kernel(spec, period, xi)
        assert math.isclose(got, _direct_lattice_sum(spec, period, xi), rel_tol=1e-13)


def test_periodized_kernel_refuses_periods_past_the_shell_cap():
    # L = 0.002 has J = 500 shells whose separation can fall below 1
    p = FracParams(3, 0.5)
    period = 0.002
    with pytest.raises(NonConvergenceError, match="400 shells"):
        periodized_kernel(calibrate_kernel(p), period, 0.5 * period)


def test_periodized_kernel_at_large_n():
    # at n = 343 the series amplitude 2^sigma is about 4e51; for L >= 2 there
    # are no direct shells, and at xi = L/2 the series carries half the sum
    spec = calibrate_kernel(FracParams(343, 0.3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for period in (0.5, 2.2, 3.0):
            for xi in (0.5 * period, 0.3 * period, 0.05 * period):
                got = periodized_kernel(spec, period, xi)
                direct = _direct_lattice_sum(spec, period, xi)
                assert math.isclose(got, direct, rel_tol=1e-13), (period, xi)


def test_periodized_kernel_refuses_a_series_past_its_terms():
    # for 0 < s < 1 at most 23 terms reach 1e-17 of the first at separation
    # 1; at (40, 15) all 40 do, so the sum would be cut short
    spec = KernelSpec(FracParams(40, 15.0), 1.0)
    with pytest.raises(NonConvergenceError, match="over 40 terms"):
        periodized_kernel(spec, 2.0 / 3.0, 1.0 / 3.0)


# (n, bound): three to four times the largest error measured with scipy 1.17
SERIES_BOUNDS = [(2, 1e-15), (3, 1e-15), (5, 1e-15), (28, 3e-15), (29, 3e-15), (100, 1e-14),
                 (343, 4e-14)]


@pytest.mark.parametrize("n, bound", SERIES_BOUNDS)
def test_kernel_series_against_mpmath(n, bound):
    # sum_k a_k e^(-lambda_k h) = (2 e^(-h))^sigma 2F1(1+s, n/2+s; n/2; e^(-2h)),
    # compared times e^(sigma h), which stays a normal float where the
    # profile itself underflows (n = 343 from h = 5 on)
    import mpmath

    for s in (0.005, 0.5, 0.995):
        p = FracParams(n, s)
        for h in (1.0, 2.0, 5.0, 20.0):
            lam, log_amps = _series_terms(p, h)
            got = np.exp(log_amps - (lam - p.sigma) * h).sum()
            with mpmath.workdps(40):
                half, z = mpmath.mpf(n) / 2, mpmath.exp(-2 * mpmath.mpf(h))
                hyp = mpmath.hyp2f1(1 + mpmath.mpf(s), half + s, half, z)
                ref = float(2 ** mpmath.mpf(p.sigma) * hyp)
            assert abs(got / ref - 1) < bound, (s, h)


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
    # far from the lattice every term underflows, and the products with L
    # that overflow from L ~ 1e306 on stay silent
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for period in (1e6, 1e300, 1.7e308):
            assert periodized_kernel(spec, period, 0.3 * period) == 0.0


def test_periodized_kernel_rejects_non_finite_xi():
    # caught before np.mod, which warns on inf and NaN and would report a
    # lattice divergence instead
    spec = calibrate_kernel(FracParams(3, 0.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for xi in (np.inf, -np.inf, np.nan, np.array([1.0, np.inf])):
            with pytest.raises(ParameterError, match="finite xi"):
                periodized_kernel(spec, 5.0, xi)
        with pytest.raises(SingularityError, match=r"\(xi = 1e\+300, entry 0 of 1\)$"):
            periodized_kernel(spec, 5.0, np.array([1e300]))


def test_array_refusals_name_the_first_offending_entry():
    p = FracParams(3, 0.5)
    spec = calibrate_kernel(p)
    h = np.array([[1.0, 2.0], [0.0, -1.0]])
    cases = [
        (lambda: cyl_symbol(p, 0, [1.0, np.nan, np.inf]), ParameterError,
         "the cylinder symbol needs finite xi, got xi = nan, entry 1 of 3"),
        (lambda: kernel_base(p, h), ParameterError,
         "kernel profile needs finite h > 0, got 0.0, entry 2 of 4"),
        (lambda: kernel_base(p, np.array([1.0, 1e-300, 1e-301])), SingularityError,
         "kernel profile overflows float64 at h = 1e-300, entry 1 of 3"),
        (lambda: periodized_kernel(spec, 5.0, [1.0, 2.0, -np.inf]), ParameterError,
         "periodized kernel needs finite xi, got -inf, entry 2 of 3"),
        (lambda: periodized_kernel(spec, 5.0, np.arange(1.0, 12.0)), SingularityError,
         "periodized kernel diverges on the period lattice (xi = 5.0, entry 4 of 11)"),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call, error, message in cases:
            with pytest.raises(error) as caught:
                call()
            assert str(caught.value) == message
        # the scalar and 0-d forms print the value as they did
        for xi in (np.nan, np.array(np.nan)):
            with pytest.raises(ParameterError) as caught:
                cyl_symbol(p, 0, xi)
            assert str(caught.value) == "the cylinder symbol needs finite xi, got xi = nan"
        for xi in (10.0, np.array(10.0), np.array(10)):
            with pytest.raises(SingularityError) as caught:
                periodized_kernel(spec, 5.0, xi)
            message = f"periodized kernel diverges on the period lattice (xi = {xi})"
            assert str(caught.value) == message


def test_calibration_refusal_at_large_n_names_one_node():
    # scipy's 2F1 is inf near z = 1 from n = 344 on, where the profile itself
    # is finite; the refusal blames the 2F1, not an overflow, and names the
    # first node of the 64-node table instead of printing the table
    with pytest.raises(SingularityError) as caught:
        calibrate_kernel(FracParams(344, 0.3))
    assert str(caught.value).startswith("kernel profile's 2F1 factor is not finite at h = ")
    assert str(caught.value).endswith(", entry 0 of 64")
    assert "\n" not in str(caught.value)


def test_nonfinite_2f1_is_not_called_an_overflow():
    # at n = 344 the power factor near h = 5.4e-4 is about e^12 and the
    # 2F1 about 3.6e50 (finite at n = 343), but scipy returns inf; the
    # scalar and the array path both blame the 2F1
    spec = KernelSpec(FracParams(344, 0.3), 1.0)
    for h, named in ((5.4e-4, ""), (np.array([1.0, 5.4e-4]), ", entry 1 of 2")):
        with pytest.raises(SingularityError) as caught:
            cyl_kernel(spec, h)
        assert str(caught.value) == f"kernel profile's 2F1 factor is not finite at h = 0.00054{named}"
    assert math.isfinite(cyl_kernel(KernelSpec(FracParams(343, 0.3), 1.0), 5.4e-4))


@pytest.mark.parametrize("n", [_PFAFF_MAX_N + 1, 90, 100, 119, 343])
def test_calibration_at_large_n(n):
    # past _PFAFF_MAX_N the profile keeps the sech^2 form, finite on the near
    # table up to n = 343; the table is the 64 nodes on (0, 1) at every n,
    # and the exponential series takes h > 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spec = calibrate_kernel(FracParams(n, 0.3))
    assert spec.calibration["residual"] < 1e-9
    nodes, _ = _difference_table(spec.params)
    assert nodes.size == 64


def _clear_library_caches():
    for name, module in list(sys.modules.items()):
        if not name.startswith("conflap."):
            continue
        for obj in vars(module).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def test_kernel_tables_survive_clearing_the_caches():
    # the cached difference tables, zonal harmonic tables and quadrature
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
            out += list(singular_integral_apply(calibrate_sphere_kernel(p), zonal))
        return out

    before = values()
    _clear_library_caches()
    assert _difference_table.cache_info().currsize == 0
    assert _zonal_table.cache_info().currsize == 0
    assert values() == before
    assert values() == before


def test_difference_table_is_read_only():
    nodes, table = _difference_table(FracParams(3, 0.5))
    for array in (nodes, table):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0.0


@pytest.mark.parametrize("xi", [16.0, 16.5, 40.0, 200.0])
def test_kernel_multiplier_across_the_panel_densities(xi):
    # up to the cap at 200 the only limit on xi is the table on (0, 1); the
    # series takes h > 1 in closed form at every xi
    for n, s in ((2, 0.05), (3, 0.5), (5, 0.95)):
        p = FracParams(n, s)
        rhs = theta0(p, xi)
        assert abs(kernel_multiplier(calibrate_kernel(p), xi) / rhs - 1.0) < 1e-8, (n, s)


def test_multipliers_at_every_xi_share_one_table():
    p = FracParams(4, 0.3)
    _difference_table.cache_clear()
    spec = calibrate_kernel(p)
    for xi in (0.01, 0.5, 3.0, 9.9, 16.0, 16.5, 40.0, KERNEL_MULTIPLIER_XI_MAX):
        kernel_multiplier(spec, xi)
    assert _difference_table.cache_info().currsize == 1


@pytest.mark.parametrize(
    "point, refs", TINY_SEPARATION_TABLE, ids=[f"{n}-{s}" for (n, s), _ in TINY_SEPARATION_TABLE]
)
def test_kernel_profile_at_tiny_separations(point, refs):
    # h^(1+2s) K0(h) tends to Gauss's 2F1(a, b; n/2; 1) as h -> 0, but at
    # (2, 0.05, 1e-9) it still sits 6.1e-12 from that limit, so the profile
    # is compared with mpmath
    n, s = point
    p = FracParams(n, s)
    for h, ref in zip((1e-9, 1e-11, 1e-13, 1e-15), refs):
        assert abs(kernel_base(p, h) / float(ref) - 1.0) < 1e-13, h
    # the least separation periodized_kernel accepts is 1e-9 L
    spec = calibrate_kernel(p)
    got = periodized_kernel(spec, 1.0, 2e-9)
    assert math.isclose(got, _direct_lattice_sum(spec, 1.0, 2e-9), rel_tol=1e-13)


def test_periodized_kernel_memory_is_bounded_by_blocks():
    # with J = 51 direct shells and 23 series terms a 2047-entry call would
    # hold 2047 x 149 values at once; in blocks it stays at a few MB
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
    # 82 entries take one block, the whole call five of at most 439; each
    # entry's terms are summed in the same order either way
    assert np.array_equal(periodized_kernel(spec, period, xi[:82]), table[:82])
