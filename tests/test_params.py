import math

import numpy as np
import pytest

from conflap.errors import ParameterError
from conflap.params import FracParams, GridFunction, KernelSpec


def test_valid_construction():
    p = FracParams(3, 0.5)
    assert p.n == 3
    assert p.s == 0.5
    assert p.sigma == 2.0
    assert p.extension_weight == 0.0


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
