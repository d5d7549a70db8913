import math

import numpy as np
import pytest

import conflap
from conflap.cylinder import cyl_mode_parameter, kernel_base
from conflap.delaunay import _critical_mass
from conflap.errors import ParameterError, SingularityError
from conflap.params import FracParams, GridFunction, KernelSpec
from conflap.specfun import hyp2f1, log_gamma_abs2

_LINE = GridFunction(8.0, np.zeros(16))
_CIRCLE = conflap.ModeSpectrum(1, [1.0, 0.5])

# one out-of-range input per public entry point of each (n, s) range rule:
# s < n/2, n >= 2 on the cylinder, n = 1 on the line, 0 < s < 1 for the
# kernels and the extension, degrees m >= 0, dimensions n >= 1 and int
# sizes and orders
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
    "solve_extension_mode with mesh_size = 100.5": (
        lambda: conflap.solve_extension_mode(FracParams(3, 0.5), 1.0, mesh_size=100.5)
    ),
    "solve_extension_mode with mesh_size = True": (
        lambda: conflap.solve_extension_mode(FracParams(3, 0.5), 1.0, mesh_size=True)
    ),
    "solve_delaunay with size = 512.0": (
        lambda: conflap.solve_delaunay(FracParams(3, 0.5), 6.0, size=512.0)
    ),
    "solve_delaunay with size = True": (
        lambda: conflap.solve_delaunay(FracParams(3, 0.5), 6.0, size=True)
    ),
    "solve_delaunay with size = -8": (
        lambda: conflap.solve_delaunay(FracParams(3, 0.5), 6.0, size=-8)
    ),
    "solve_delaunay with size = 12": (
        lambda: conflap.solve_delaunay(FracParams(3, 0.5), 6.0, size=12)
    ),
    "continue_branch with size = 512.0": (
        lambda: conflap.continue_branch(FracParams(3, 0.5), [6.0], size=512.0)
    ),
    "gjms_symbol at n = 0": lambda: conflap.gjms_symbol(0, 1, 1),
    "gjms_symbol at n = True": lambda: conflap.gjms_symbol(True, 1, 1),
    "gjms_symbol with k = True": lambda: conflap.gjms_symbol(5, True, 2),
    "gjms_symbol with k = 0": lambda: conflap.gjms_symbol(5, 0, 2),
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


def _bad_at(size, bad, fill=0.5, index=997):
    """``size`` entries of ``fill`` with ``bad`` at ``index``."""
    values = np.full(size, fill)
    values[index] = bad
    return values


_P = FracParams(3, 0.5)
_SPEC = KernelSpec(_P, 1.0)
_DEGREES = np.zeros(1000, dtype=int)
_DEGREES[997] = -1
_HUGE_DEGREES = np.zeros(1000, dtype=int)
_HUGE_DEGREES[997] = 10**6

# every array refusal, with one bad entry at index 997 of 1000 (of 1024 where
# the input is a grid, whose size must be a power of two): the error type
# and the input's size
ARRAY_REFUSALS = {
    "log_gamma_abs2, y = nan": (
        lambda: log_gamma_abs2(0.5, _bad_at(1000, np.nan)), ParameterError, 1000
    ),
    "log_gamma_abs2, pole": (
        lambda: log_gamma_abs2(-1.0, _bad_at(1000, 0.0)), ParameterError, 1000
    ),
    "hyp2f1, z = inf": (
        lambda: hyp2f1(0.1, 0.2, 1.5, _bad_at(1000, np.inf)), ParameterError, 1000
    ),
    "hyp2f1, z = 1.5": (
        lambda: hyp2f1(0.1, 0.2, 1.5, _bad_at(1000, 1.5)), ParameterError, 1000
    ),
    "sphere_symbol, m = -1": (
        lambda: conflap.sphere_symbol(_P, _DEGREES), ParameterError, 1000
    ),
    "sphere_symbol, overflow": (
        lambda: conflap.sphere_symbol(FracParams(3, 30.0), _HUGE_DEGREES), ParameterError, 1000
    ),
    "sphere_kernel, diagonal": (
        lambda: conflap.sphere_kernel(_SPEC, _bad_at(1000, 1.0)), SingularityError, 1000
    ),
    "sphere_kernel, cos theta = -2": (
        lambda: conflap.sphere_kernel(_SPEC, _bad_at(1000, -2.0)), ParameterError, 1000
    ),
    "sphere_kernel, overflow": (
        lambda: conflap.sphere_kernel(KernelSpec(FracParams(400, 0.5), 1.0), _bad_at(1000, 0.99)),
        ParameterError,
        1000,
    ),
    "singular_integral_apply, nan": (
        lambda: conflap.singular_integral_apply(
            KernelSpec(FracParams(1, 0.5), 1.0), _bad_at(1000, np.nan)
        ),
        ParameterError,
        1000,
    ),
    "apply_sphere_grid, nan": (
        lambda: conflap.apply_sphere_grid(FracParams(1, 0.5), _bad_at(1000, np.nan)),
        ParameterError,
        1000,
    ),
    "ModeSpectrum, nan": (
        lambda: conflap.ModeSpectrum(1, _bad_at(1000, np.nan)), ParameterError, 1000
    ),
    "GridFunction, nan": (
        lambda: GridFunction(8.0, _bad_at(1024, np.nan)), ParameterError, 1024
    ),
    "delaunay_residual, v = -1": (
        lambda: conflap.delaunay_residual(_P, GridFunction(8.0, _bad_at(1024, -1.0))),
        ParameterError,
        1024,
    ),
    "critical mass, v = 0": (
        lambda: _critical_mass(_P, GridFunction(8.0, _bad_at(1024, 0.0))), ParameterError, 1024
    ),
    "DelaunaySolution, v = 0": (
        lambda: conflap.DelaunaySolution(
            3, 0.5, 8.0, _bad_at(1000, 0.0), 0.0, 1.0, False, 0, 0, "seed"
        ),
        ParameterError,
        1000,
    ),
    "cyl_symbol, xi = nan": (
        lambda: conflap.cyl_symbol(_P, 0, _bad_at(1000, np.nan)), ParameterError, 1000
    ),
    "kernel_base, h = 0": (
        lambda: kernel_base(_P, _bad_at(1000, 0.0, fill=1.0)), ParameterError, 1000
    ),
    "kernel_base, overflow": (
        lambda: kernel_base(FracParams(3, 0.9), _bad_at(1000, 1e-300, fill=1.0)),
        SingularityError,
        1000,
    ),
    "periodized_kernel, xi = inf": (
        lambda: conflap.periodized_kernel(_SPEC, 2.0, _bad_at(1000, np.inf)), ParameterError, 1000
    ),
    "periodized_kernel, lattice": (
        lambda: conflap.periodized_kernel(_SPEC, 2.0, _bad_at(1000, 4.0)), SingularityError, 1000
    ),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", ARRAY_REFUSALS.values(), ids=ARRAY_REFUSALS.keys())
def test_array_refusals_name_the_first_failing_entry(case):
    # params.require names the bad entry instead of printing the array
    call, error, size = case
    with pytest.raises(error) as caught:
        call()
    message = str(caught.value)
    assert f"entry 997 of {size}" in message
    assert "\n" not in message and len(message) < 200


# one 0-d rule: every function that takes a scalar or an array returns a
# Python float for a 0-d array input, by ``ndim == 0``
ZERO_D_CALLS = {
    "cyl_symbol": lambda: conflap.cyl_symbol(FracParams(3, 0.5), 0, np.asarray(0.5)),
    "kernel_base": lambda: kernel_base(FracParams(3, 0.5), np.asarray(0.5)),
    "periodized_kernel": lambda: conflap.periodized_kernel(_SPEC, 4.0, np.asarray(0.5)),
    "sphere_kernel": lambda: conflap.sphere_kernel(_SPEC, np.asarray(0.5)),
    "sphere_symbol": lambda: conflap.sphere_symbol(FracParams(2, 0.3), np.asarray(2)),
    "hyp2f1": lambda: hyp2f1(0.25, 0.5, 1.5, np.asarray(0.5)),
}


@pytest.mark.parametrize("call", ZERO_D_CALLS.values(), ids=ZERO_D_CALLS.keys())
def test_zero_d_input_gives_a_float(call):
    out = call()
    assert type(out) is float


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
