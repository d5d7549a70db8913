import math

import numpy as np
import pytest

import conflap
from conflap.cylinder import cyl_mode_parameter
from conflap.errors import ParameterError
from conflap.params import FracParams, GridFunction, KernelSpec

_LINE = GridFunction(8.0, np.zeros(16))
_CIRCLE = conflap.ModeSpectrum(1, [1.0, 0.5])

# one out-of-range input per public entry point of each (n, s) range rule:
# s < n/2, n >= 2 on the cylinder, n = 1 on the line, 0 < s < 1 for the
# kernels and the extension, degrees m >= 0 and dimensions n >= 1
REFUSALS = {
    "cyl_symbol at s = n/2": lambda: conflap.cyl_symbol(FracParams(3, 1.5), 0, 1.0),
    "cyl_symbol at n = 1": lambda: conflap.cyl_symbol(FracParams(1, 0.25), 0, 1.0),
    "cyl_curvature at s = n/2": lambda: conflap.cyl_curvature(FracParams(3, 1.5)),
    "cyl_curvature at n = 1": lambda: conflap.cyl_curvature(FracParams(1, 0.25)),
    "calibrate_kernel at s = 1": lambda: conflap.calibrate_kernel(FracParams(3, 1.0)),
    "calibrate_kernel at s = 1.5": lambda: conflap.calibrate_kernel(FracParams(3, 1.5)),
    "frac_lap_constant at s = 1": lambda: conflap.frac_lap_constant(FracParams(3, 1.0)),
    "calibrate_sphere_kernel at s = 1": (
        lambda: conflap.calibrate_sphere_kernel(FracParams(1, 1.0))
    ),
    "frac_lap_integral at n = 2": lambda: conflap.frac_lap_integral(FracParams(2, 0.5), _LINE),
    "frac_lap_integral at s = 1": lambda: conflap.frac_lap_integral(FracParams(1, 1.0), _LINE),
    "covariance_bridge at n = 2": (
        lambda: conflap.covariance_bridge(FracParams(2, 0.5), _CIRCLE)
    ),
    "covariance_bridge at s = 1": (
        lambda: conflap.covariance_bridge(FracParams(1, 1.0), _CIRCLE)
    ),
    "d_s_const at s = 1": lambda: conflap.d_s_const(1.0),
    "solve_extension_mode at s = 1": (
        lambda: conflap.solve_extension_mode(FracParams(3, 1.0), 1.0)
    ),
    "factored_symbol with s0 = 1": lambda: conflap.factored_symbol(FracParams(7, 1.0), 1, 2),
    "cyl_mode_parameter with m = True": lambda: cyl_mode_parameter(3, True),
    "cyl_mode_parameter with m = -1": lambda: cyl_mode_parameter(3, -1),
    "cyl_mode_parameter with m = 1.0": lambda: cyl_mode_parameter(3, 1.0),
    "cyl_mode_parameter with m = [1, 2]": lambda: cyl_mode_parameter(3, [1, 2]),
    "sphere_symbol with m = -1": lambda: conflap.sphere_symbol(FracParams(3, 0.5), -1),
    "vol_sphere(0)": lambda: conflap.vol_sphere(0),
    "ModeSpectrum(0, [1.0])": lambda: conflap.ModeSpectrum(0, [1.0]),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call", REFUSALS.values(), ids=REFUSALS.keys())
def test_range_rules_refuse_with_parameter_error(call):
    with pytest.raises(ParameterError):
        call()


def test_valid_construction():
    p = FracParams(3, 0.5)
    assert p.n == 3
    assert p.s == 0.5
    assert p.sigma == 2.0


def test_supercritical_s_is_allowed_at_construction():
    # s >= n/2 is fine to hold; only the critical exponents reject it.
    p = FracParams(1, 0.7)
    assert p.s == 0.7
    with pytest.raises(ParameterError):
        p.two_star
    with pytest.raises(ParameterError):
        p.q


def test_invalid_construction():
    with pytest.raises(ParameterError):
        FracParams(0, 0.5)
    with pytest.raises(ParameterError):
        FracParams(-2, 0.5)
    with pytest.raises(ParameterError):
        FracParams(3.0, 0.5)
    with pytest.raises(ParameterError):
        FracParams(True, 0.5)
    with pytest.raises(ParameterError):
        FracParams(3, 0.0)
    with pytest.raises(ParameterError):
        FracParams(3, -0.1)
    with pytest.raises(ParameterError):
        FracParams(3, math.inf)
    with pytest.raises(ParameterError):
        FracParams(3, math.nan)


def test_exponents():
    p = FracParams(3, 0.5)
    assert math.isclose(p.two_star, 3.0)
    assert math.isclose(p.q, 2.0)
    p = FracParams(4, 1.0)
    assert math.isclose(p.two_star, 4.0)
    assert math.isclose(p.q, 3.0)


def test_frozen():
    p = FracParams(3, 0.5)
    with pytest.raises(Exception):
        p.s = 0.7


def test_kernel_spec_validation():
    p = FracParams(3, 0.5)
    spec = KernelSpec(p, 2.5, {"residual": 1e-12})
    assert spec.normalization == 2.5
    with pytest.raises(ParameterError):
        KernelSpec(p, 0.0)
    with pytest.raises(ParameterError):
        KernelSpec(p, -1.0)
    with pytest.raises(ParameterError):
        KernelSpec(p, math.nan)
    with pytest.raises(ParameterError):
        KernelSpec(p, 1.0, {"residual": 1e-3})


class TestGridFunction:
    def test_grid_layout(self):
        f = GridFunction(8.0, np.zeros(16))
        assert f.size == 16
        assert f.dx == 0.5
        assert f.x[0] == -4.0
        assert f.x[8] == 0.0
        assert f.x[-1] == 3.5
        assert f.frequencies.size == 9
        assert f.frequencies[0] == 0.0
        assert f.frequencies[1] == pytest.approx(2.0 * math.pi / 8.0, rel=1e-15)
        assert f.frequencies[-1] == pytest.approx(math.pi / f.dx, rel=1e-15)

    def test_rejects_bad_length(self):
        for length in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ParameterError):
                GridFunction(length, np.zeros(16))

    def test_rejects_bad_sizes(self):
        for values in (np.zeros(4), np.zeros(12), np.zeros(24), np.zeros((4, 4))):
            with pytest.raises(ParameterError, match="power of two"):
                GridFunction(8.0, values)

    def test_rejects_bad_values(self):
        bad = np.zeros(16)
        bad[3] = math.nan
        for values in (bad, np.full(8, np.nan), np.full(8, np.inf)):
            with pytest.raises(ParameterError, match="finite"):
                GridFunction(8.0, values)

    def test_values_are_frozen(self):
        source = np.zeros(16)
        f = GridFunction(8.0, source)
        with pytest.raises(ValueError):
            f.values[0] = 1.0
        source[0] = 1.0
        assert f.values[0] == 0.0
