"""Tests for the scalar special-function core.

Reference values were computed with mpmath at 40 decimal digits and frozen
here as strings; the modulus identities on the half-integer lines serve as
closed-form cross-checks.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conflap.errors import ParameterError
from conflap.specfun import (
    hyp2f1,
    jacobi_rule,
    jacobi_unit_rule,
    log_gamma,
    log_gamma_abs2,
    panel_rule,
)

# ((x, y), |Gamma(x+iy)|^2), mpmath mp.dps=40
GAMMA_ABS2_TABLE = [
    ((0.1, 0.0), "90.506828732629219675"),
    ((0.1, 3.0), "0.00021083443504781677981"),
    ((0.25, 97.5), "5.9838923883921133598e-134"),
    ((0.3, -2.2), "0.0045802310436764405986"),
    ((1.0, 1.0), "0.27202905498213316295"),
    ((7.3, 55.0), "2.7625607973671634357e-51"),
    ((12.0, 0.5), "1559118577092135.25"),
    ((50.0, 100.0), "1.0008087562917382135e+64"),
    ((0.49, 0.01), "3.2673803163421559761"),
    ((33.7, 21.1), "3.0176330505168832362e+67"),
]

# (x, log Gamma(x)), mpmath
LOG_GAMMA_TABLE = [
    (0.001, "6.9071788853838536617"),
    (0.5, "0.57236494292470008707"),
    (1.5, "-0.12078223763524522235"),
    (20.25, "40.084110597917348984"),
    (1000.0, "5905.2204232091812118"),
]

# ((a, b, c, z), 2F1(a,b;c;z), rel tol), mpmath.  The entries with c-a-b on
# or within 1e-6 of an integer are the degenerate cases of the z -> 1-z
# connection formula; the last four are the cylinder kernel's parameters at
# s = 1/2 for n = 2 and n = 4.
HYP2F1_TABLE = [
    ((0.3, 0.7, 1.9, 0.25), "1.0306788055704876127", 1e-10),
    ((0.3, 0.7, 1.9, 0.97), "1.2191341766438875639", 1e-10),
    ((-0.25, 1.25, 1.5, 0.6), "0.83564961309708833392", 1e-10),
    ((2.0, 3.0, 7.5, 0.999999), "4.085697943052374825", 1e-10),
    ((0.5, 0.5, 1.5, 0.5), "1.1107207345395915618", 1e-10),
    ((1.1, -2.3, 0.8, 0.77), "-0.16026632818327795778", 1e-12),
    ((0.05, 4.0, 2.25, 0.9999999), "35961754139.341341527", 1e-10),
    ((1.75, 0.25, 3.1, 1.0), "1.3410886550945229769", 1e-10),
    ((-3.0, 2.2, 1.4, 0.85), "-0.055214285714285710098", 1e-12),
    ((0.6, 0.8, 1.40000037, 0.75), "1.5353087518196122488", 1e-12),
    ((0.25, 0.75, 2.0, 0.5), "1.0586518057536175233", 1e-12),
    ((0.25, 0.75, 2.0, 0.9), "1.1463212867435260546", 1e-12),
    ((-0.25, 0.25, 1.0, 0.5), "0.96395220702064793747", 1e-12),
    ((-0.25, 0.25, 1.0, 0.9), "0.92058925138209276481", 1e-12),
]


def test_log_gamma_table():
    for x, ref in LOG_GAMMA_TABLE:
        assert math.isclose(log_gamma(x), float(ref), rel_tol=1e-13, abs_tol=1e-13)


def test_log_gamma_domain():
    for bad in (0.0, -1.0, -0.5, math.inf, math.nan):
        with pytest.raises(ParameterError):
            log_gamma(bad)
    # math.lgamma overflows above about 2.5e305
    assert log_gamma(2e305) < math.inf
    for big in (3e305, 1e308):
        with pytest.raises(ParameterError, match="overflows"):
            log_gamma(big)
    for x, y, name in ((1.0, math.inf, "y"), (math.inf, 1.0, "x"), (1.0, math.nan, "y")):
        with pytest.raises(ParameterError, match=f"^{name} must be finite"):
            log_gamma_abs2(x, y)


def test_gamma_abs2_table():
    for (x, y), ref in GAMMA_ABS2_TABLE:
        v = math.exp(log_gamma_abs2(x, y))
        assert math.isclose(v, float(ref), rel_tol=1e-12), (x, y)


def test_gamma_abs2_real_axis():
    for x in np.linspace(0.1, 50.0, 23):
        expected = math.exp(2.0 * math.lgamma(x))
        assert math.isclose(math.exp(log_gamma_abs2(x, 0.0)), expected, rel_tol=1e-12)


def _log_cosh(p):
    return abs(p) + math.log1p(math.exp(-2.0 * abs(p))) - math.log(2.0)


def _log_sinh(p):
    return p + math.log1p(-math.exp(-2.0 * p)) - math.log(2.0)


def test_half_line_modulus_identity():
    # |Gamma(1/2 + iy)|^2 = pi / cosh(pi y), compared in log form so the
    # large-y regime stays meaningful.
    for y in [0.0, 0.3, 1.0, 9.5, 40.0, 100.0]:
        lhs = log_gamma_abs2(0.5, y)
        rhs = math.log(math.pi) - _log_cosh(math.pi * y)
        assert math.isclose(lhs, rhs, rel_tol=1e-12, abs_tol=1e-12)


def test_one_line_modulus_identity():
    # |Gamma(1 + iy)|^2 = pi y / sinh(pi y)
    for y in [0.01, 0.7, 3.0, 25.0, 99.0]:
        lhs = log_gamma_abs2(1.0, y)
        rhs = math.log(math.pi * y) - _log_sinh(math.pi * y)
        assert math.isclose(lhs, rhs, rel_tol=1e-12, abs_tol=1e-12)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    x=st.floats(min_value=0.1, max_value=20.0),
    y=st.floats(min_value=-30.0, max_value=30.0),
)
def test_recurrence_property(x, y):
    # |Gamma(z+1)|^2 = (x^2 + y^2) |Gamma(z)|^2
    lhs = log_gamma_abs2(x + 1.0, y)
    rhs = math.log(x * x + y * y) + log_gamma_abs2(x, y)
    assert math.isclose(lhs, rhs, rel_tol=1e-11, abs_tol=1e-11)


def test_gamma_abs2_pole_raises():
    with pytest.raises(ParameterError):
        log_gamma_abs2(0.0, 0.0)
    with pytest.raises(ParameterError):
        log_gamma_abs2(-3.0, 0.0)


def test_vectorized_matches_scalar():
    y = np.array([-12.0, -0.5, 0.0, 0.25, 3.0, 80.0])
    for x in (0.12, 0.5, 1.0, 4.75, 33.0):
        vec = log_gamma_abs2(x, y)
        scal = [log_gamma_abs2(x, yy) for yy in y]
        assert all(type(v) is float for v in scal)
        assert np.allclose(vec, scal, rtol=1e-13, atol=1e-13)


def test_vectorized_pole_raises():
    with pytest.raises(ParameterError):
        log_gamma_abs2(-1.0, np.array([0.0, 1.0]))


def test_hyp2f1_table():
    for (a, b, c, z), ref, tol in HYP2F1_TABLE:
        v = hyp2f1(a, b, c, z)
        assert math.isclose(v, float(ref), rel_tol=tol), (a, b, c, z)


def test_hyp2f1_trivial_cases():
    assert hyp2f1(0.7, 1.3, 2.0, 0.0) == 1.0
    assert hyp2f1(0.0, 1.3, 2.0, 0.8) == 1.0
    assert hyp2f1(0.7, 0.0, 2.0, 0.99) == 1.0


def test_hyp2f1_terminating_is_polynomial():
    # a = -2 terminates: 1 - 2bz/c + b(b+1) z^2 / (c(c+1))
    a, b, c = -2.0, 1.3, 2.2
    for z in (0.2, 0.6, 0.95, 1.0):
        expected = 1.0 + a * b / c * z + (a * (a + 1) * b * (b + 1)) / (
            c * (c + 1) * 2.0
        ) * z * z
        assert math.isclose(hyp2f1(a, b, c, z), expected, rel_tol=1e-13)


def test_hyp2f1_domain_errors():
    # one range test passes good z; after it fails, NaN and inf still get the
    # finiteness message and finite z outside [0, 1] the range message
    faults = [
        ((0.5, 0.5, 1.5, -0.1), r"z in \[0, 1\]"),
        ((0.5, 0.5, 1.5, 1.1), r"z in \[0, 1\]"),
        ((0.5, 0.5, 1.5, np.array([0.5, np.nextafter(1.0, 2.0)])), r"z in \[0, 1\]"),
        ((0.5, 0.5, 1.5, np.nan), "z must be finite"),
        ((0.5, 0.5, 1.5, np.array([0.5, -np.inf])), "z must be finite"),
        ((np.nan, 0.5, 1.5, 0.5), "a must be finite"),
        ((0.5, 0.5, np.inf, 0.5), "c must be finite"),
        ((0.5, 0.5, 0.0, 0.5), "c a non-positive integer"),
        ((0.5, 0.5, -2.0, 0.5), "c a non-positive integer"),
        # divergent at z = 1 when c - a - b <= 0
        ((1.0, 1.0, 1.5, 1.0), "diverges at z = 1"),
        ((1.0, 1.0, 1.5, np.array([0.2, 1.0])), "diverges at z = 1"),
    ]
    for args, message in faults:
        with pytest.raises(ParameterError, match=message):
            hyp2f1(*args)
    # a terminating series has no fault at z = 1
    assert hyp2f1(-2.0, 1.0, 1.5, 1.0) == pytest.approx(1.0 - 4.0 / 3.0 + 8.0 / 15.0)


def test_hyp2f1_scalar_path_has_the_bits_of_a_one_entry_array():
    # the cylinder kernel's parameters at s = 0.005, 0.5 and 0.995, over z in [0, 1]
    zs = np.concatenate([np.linspace(0.0, 1.0, 41), [1e-300, 1.0 - 1e-12]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for n, s in ((2, 0.005), (3, 0.5), (5, 0.995)):
            a, b, c = (n - 2.0 * s - 2.0) / 4.0, (n - 2.0 * s) / 4.0, 0.5 * n
            for z in zs:
                reference = hyp2f1(a, b, c, np.array([z]))[0]
                for x in (float(z), np.float64(z)) + ((int(z),) if z in (0.0, 1.0) else ()):
                    value = hyp2f1(a, b, c, x)
                    assert type(value) is float
                    assert value.hex() == reference.hex(), (n, s, x)


def test_hyp2f1_scalar_refusals_keep_types_and_messages():
    # a scalar or 0-d z is named by its value, an array by its first failing
    # entry, as params.require names every refused array
    refusals = [
        ((0.5, 0.5, 1.5), math.nan, "z must be finite, got {z}"),
        ((0.5, 0.5, 1.5), 1.0 + 1e-9, "hyp2f1 implemented for z in [0, 1], got {z}"),
        ((1.0, 1.0, 1.5), 1.0, "2F1 diverges at z = 1 for c-a-b = -0.5 <= 0"),
        ((0.5, 0.5, -2.0), 0.5, "2F1 undefined for c a non-positive integer, got -2.0"),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for params, z, message in refusals:
            for x in (z, np.float64(z), np.array(z), np.array([z])):
                with pytest.raises(ParameterError) as caught:
                    hyp2f1(*params, x)
                named = f"{z}, entry 0 of 1" if np.ndim(x) else z
                assert str(caught.value) == message.format(z=named)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    a=st.floats(min_value=0.1, max_value=2.0),
    b=st.floats(min_value=0.1, max_value=2.0),
    c=st.floats(min_value=2.6, max_value=5.0),
    z=st.floats(min_value=0.05, max_value=0.93),
)
def test_euler_transformation_property(a, b, c, z):
    # (1-z)^(c-a-b) 2F1(c-a, c-b; c; z) = 2F1(a, b; c; z); the two sides
    # evaluate different parameter sets, so this cross-checks the
    # evaluation, including integer c-a-b.
    t = c - a - b
    assume(abs((a + b) - round(a + b)) > 1e-3)
    lhs = (1.0 - z) ** t * hyp2f1(c - a, c - b, c, z)
    rhs = hyp2f1(a, b, c, z)
    assert math.isclose(lhs, rhs, rel_tol=1e-9, abs_tol=1e-12)


def test_cached_rules_are_read_only():
    # every caller shares the cached arrays, so none may write to them
    assert jacobi_rule(-0.5, 1.5, 24) is jacobi_rule(-0.5, 1.5, 24)
    rules = (jacobi_unit_rule(0.3, 16), jacobi_rule(-0.5, 1.5, 24))
    for nodes, weights in rules:
        for array in (nodes, weights):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0


def test_unit_rule_maps_the_jacobi_rule():
    # the (0, 1) rule is the (-1, 1) rule with alpha = 0, mapped: t = (x + 1)/2
    x, w = jacobi_rule(0.0, 0.3, 16)
    nodes, weights = jacobi_unit_rule(0.3, 16)
    assert np.array_equal(nodes, (x + 1.0) / 2.0)
    assert np.array_equal(weights, w * 2.0**-1.3)


def test_panel_rule_needs_a_panel():
    nodes, weights = panel_rule(1.0, 2.0, 1)
    assert nodes.size == 12 and math.isclose(weights.sum(), 1.0)
    for count in (0, -1):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="at least one panel"):
                panel_rule(1.0, 0.5, count)
